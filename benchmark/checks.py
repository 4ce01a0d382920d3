"""Correctness checks on the program's outputs.

Each check reads what the program wrote and compares it with the
generating model, with a property the method must have, or with a
recomputation made here apart from the program.  A check returns a list
of problems; an empty list means the output passed.  The checks run
outside the timed region.
"""

from __future__ import annotations

import csv
import json

import numpy as np

#: Largest allowed |median - Theta| of a Monte Carlo study cell.  Worst
#: deviation seen over 24 seeds at the benchmark's sizes: see README.
MC_MEDIAN_TOL = 0.2
#: Largest allowed |Theta-hat - Theta| of one fit on the 10^5-row series
#: (the tolerance of the model2 acceptance criterion).
LONG_FIT_TOL = 0.15
#: YW-CV coefficients against the recomputation below.
RECOMPUTE_TOL = 1e-8
#: [0.1, 0.9] band coverage of the observed points.
COVERAGE_TARGET, COVERAGE_TOL = 0.80, 0.05
#: residuals.csv against x(t) - Theta-hat(t) x(t-1) from the fit artifacts.
RESIDUAL_TOL = 1e-8


def _rows(path) -> tuple[list, list]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader if row]


def read_coefficients(path) -> np.ndarray:
    """``(T, m, m)`` matrices of a ``v,theta_11,...`` CSV."""
    _, rows = _rows(path)
    flat = np.array([[float(c) for c in row[1:]] for row in rows])
    m = int(round(np.sqrt(flat.shape[1])))
    return flat.reshape(len(rows), m, m)


def check_mc_csv(path, theta: np.ndarray, alphas, methods, L: int) -> list:
    """A study CSV: one row per method, alpha and coefficient; the true
    values are the generating Theta; q05 <= median <= q95; every median
    within ``MC_MEDIAN_TOL`` of Theta."""
    header, rows = _rows(path)
    problems = []
    T, m, _ = theta.shape
    want = len(methods) * len(alphas) * T * m * m
    if len(rows) != want:
        problems.append(f"{len(rows)} rows, expected {want}")
    col = {name: k for k, name in enumerate(header)}
    seen = set()
    for row in rows:
        meth, alpha = row[col["method"]], float(row[col["alpha"]])
        v, i, j = (int(row[col[k]]) for k in ("v", "i", "j"))
        med, q05, q95, true = (float(row[col[k]]) for k in ("median", "q05", "q95", "true_value"))
        where = f"{meth} alpha={alpha} theta_{i}{j}({v})"
        seen.add((meth, alpha, v, i, j))
        if int(row[col["L"]]) != L:
            problems.append(f"{where}: L={row[col['L']]}, expected {L}")
        if not 1 <= v <= T or not 1 <= i <= m or not 1 <= j <= m:
            problems.append(f"{where}: index out of range")
            continue
        if true != theta[v - 1, i - 1, j - 1]:
            problems.append(f"{where}: true_value {true} is not Theta ({theta[v - 1, i - 1, j - 1]})")
        if not q05 <= med <= q95:
            problems.append(f"{where}: q05 {q05} <= median {med} <= q95 {q95} fails")
        if abs(med - theta[v - 1, i - 1, j - 1]) > MC_MEDIAN_TOL:
            problems.append(f"{where}: median {med:.4f} off Theta "
                            f"{theta[v - 1, i - 1, j - 1]} by more than {MC_MEDIAN_TOL}")
    expected = {(meth, float(a), v, i, j) for meth in methods for a in alphas
                for v in range(1, T + 1) for i in range(1, m + 1) for j in range(1, m + 1)}
    if seen != expected:
        problems.append(f"cells missing: {sorted(expected - seen)[:3]}")
    return problems


def _band_coverage(obs: np.ndarray, path, t_from: int) -> list:
    header, rows = _rows(path)
    table = np.array([[float(c) for c in row] for row in rows])
    problems = []
    t = table[:, 0].astype(int)
    if not np.array_equal(t, np.arange(t_from, t_from + len(t))) or t[-1] != obs.shape[1]:
        return [f"{path}: t runs {t[0]}..{t[-1]}, expected {t_from}..{obs.shape[1]}"]
    inside = []
    for i in range(obs.shape[0]):
        lo = table[:, header.index(f"x{i + 1}_q0.1")]
        hi = table[:, header.index(f"x{i + 1}_q0.9")]
        if np.any(lo > hi):
            problems.append(f"{path}: q0.1 above q0.9 for x{i + 1}")
        x = obs[i, t_from - 1:]
        inside.append((x >= lo) & (x <= hi))
    cover = float(np.mean(inside))
    if abs(cover - COVERAGE_TARGET) > COVERAGE_TOL:
        problems.append(f"{path}: [0.1, 0.9] band covers {cover:.4f} of the "
                        f"observations, expected {COVERAGE_TARGET} +/- {COVERAGE_TOL}")
    return problems


def check_bands(obs: np.ndarray, bands_path) -> list:
    """``quantile-lines`` output: marginal bands over t = 1..L cover about 80 %."""
    return _band_coverage(obs, bands_path, 1)


def check_one_step(obs: np.ndarray, one_step_path) -> list:
    """``one-step`` output: conditional bands over t = 2..L cover about 80 %."""
    return _band_coverage(obs, one_step_path, 2)


def check_residuals(obs: np.ndarray, fit_dir) -> list:
    """``residuals.csv`` equals x(t) - Theta-hat(t) x(t-1) on the series with
    the fitted trend and periodic profile removed, recomputed from
    ``coefficients.csv``, ``deterministic.json`` and the input."""
    theta = read_coefficients(f"{fit_dir}/coefficients.csv")
    det = json.loads(open(f"{fit_dir}/deterministic.json").read())
    T = theta.shape[0]
    L = obs.shape[1]
    t = np.arange(1, L + 1)
    profile = np.asarray(det["periodic_mean"])
    x = (obs - np.asarray(det["intercept"])[:, None]
         - np.asarray(det["slope"])[:, None] * t[None, :] - profile[:, (t - 1) % T])
    expected = np.stack(
        [x[:, k] - theta[(t[k] - 1) % T] @ x[:, k - 1] for k in range(1, L)], axis=1
    )
    _, rows = _rows(f"{fit_dir}/residuals.csv")
    got = np.array([[float(c) for c in row[1:]] for row in rows]).T
    first_t = int(rows[0][0])
    if got.shape != expected.shape or first_t != 2:
        return [f"residuals.csv has shape {got.shape} from t={first_t}, "
                f"expected {expected.shape} from t=2"]
    err = float(np.max(np.abs(got - expected)))
    scale = max(1.0, float(np.max(np.abs(expected))))
    if err > RESIDUAL_TOL * scale:
        return [f"residuals.csv differs from the recomputation by {err:.3g}"]
    return []


def check_fit(theta_hat: np.ndarray, theta: np.ndarray, label: str) -> list:
    """One estimate within ``LONG_FIT_TOL`` of the generating Theta."""
    if theta_hat.shape != theta.shape:
        return [f"{label}: shape {theta_hat.shape}, expected {theta.shape}"]
    worst = float(np.max(np.abs(theta_hat - theta)))
    if worst > LONG_FIT_TOL:
        return [f"{label}: worst |Theta-hat - Theta| {worst:.4f} > {LONG_FIT_TOL}"]
    return []


def recompute_yw_cv(x: np.ndarray, T: int) -> np.ndarray:
    """YW-CV from its definition: per phase v, with lagged times
    s = nT + v - 1 (n from 1 when v = 1, else from 0, up to floor(L/T) - 1),

        M0[r, l] = sum_s x_r(s) sign(x_l(s))   / sum_s |x_l(s)|,
        M1[r, l] = sum_s x_r(s+1) sign(x_l(s)) / sum_s |x_l(s)|,

    and Theta(v) M0 = M1 solved with ``numpy.linalg.solve``."""
    L = x.shape[1]
    N = L // T
    out = []
    for v in range(1, T + 1):
        s = np.arange(1 if v == 1 else 0, N) * T + v - 1  # 1-based times
        lagged, cur = x[:, s - 1], x[:, s]
        sgn = np.sign(lagged)
        den = np.abs(lagged).sum(axis=1)
        m0 = lagged @ sgn.T / den[None, :]
        m1 = cur @ sgn.T / den[None, :]
        out.append(np.linalg.solve(m0.T, m1.T).T)
    return np.stack(out)


def check_yw_cv_recomputed(x: np.ndarray, theta_hat: np.ndarray) -> list:
    """YW-CV output against :func:`recompute_yw_cv` on the same input."""
    ref = recompute_yw_cv(x, theta_hat.shape[0])
    err = float(np.max(np.abs(theta_hat - ref)))
    if err > RECOMPUTE_TOL:
        return [f"YW-CV differs from the recomputed sums by {err:.3g} > {RECOMPUTE_TOL}"]
    return []
