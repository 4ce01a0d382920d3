"""Linear-system machinery for the Yule-Walker step.

The per-phase coefficient estimate solves Theta * M0 = M1 for square
matrices built from per-phase dependence measures.  Well-conditioned
systems go through a dense direct solve; (near-)singular ones fall back
to a column-by-column BiCGSTAB iteration (van der Vorst's stabilized
bi-conjugate gradient), which returns *a* solution of a consistent
singular system instead of blowing up on the explicit inverse.
:func:`solve_stack` routes each system of a stack once, from one
condition estimate for the stack; :func:`solve_yw` is its one-system
case.  Both routes accept a solution whose residual is at most ``TOL`` times
the right-hand side's norm; the iteration stops after ``MAXIT`` sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import SolverError

__all__ = [
    "SolveReport",
    "bicgstab",
    "solution1",
    "solve_stack",
    "solve_yw",
    "COND_LIMIT",
]

# Condition-number estimate beyond which the direct solve is not trusted
# and the iterative fallback takes over.
COND_LIMIT = 1e12
# Relative residual a solve must reach, and the BiCGSTAB sweep cap.
TOL = 1e-10
MAXIT = 1000


@dataclass
class SolveReport:
    """Outcome of one linear solve (vector or matrix right-hand side)."""

    solution: np.ndarray
    method: str  # "direct" | "bicgstab"
    iterations: int
    residual_norm: float
    converged: bool
    detail: str = ""


def bicgstab(a: np.ndarray, b: np.ndarray) -> SolveReport:
    """Solve ``a x = b`` by the stabilized bi-conjugate gradient method.

    Handles nonsymmetric and consistent singular systems; on a singular
    system the iterate stays in the Krylov space of the residual and
    converges to one member of the solution family, starting from zero.
    Non-convergence after ``MAXIT`` sweeps reports the best iterate
    seen; a vanishing bi-orthogonality coefficient (rho) or
    stabilization weight (omega) stops it, and the detail names that
    breakdown.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"shape mismatch: a {a.shape} vs b {b.shape}")

    x = np.zeros(n)
    r = b - a @ x
    b_norm = float(np.linalg.norm(b))
    stop = TOL * b_norm
    if b_norm == 0.0:
        return SolveReport(x, "bicgstab", 0, float(np.linalg.norm(r)), True)

    r_hat = r.copy()
    rho_prev = alpha = omega = 1.0
    v = p = np.zeros(n)
    best_x, best_res = x.copy(), float(np.linalg.norm(r))
    tiny = 1e-300

    for it in range(1, MAXIT + 1):
        rho = float(r_hat @ r)
        if abs(rho) < tiny:
            return SolveReport(
                best_x, "bicgstab", it, best_res, False,
                detail="rho breakdown: shadow residual orthogonal to residual",
            )
        beta = (rho / rho_prev) * (alpha / omega)
        p = r + beta * (p - omega * v)
        v = a @ p
        denom = float(r_hat @ v)
        if abs(denom) < tiny:
            return SolveReport(
                best_x, "bicgstab", it, best_res, False,
                detail="alpha breakdown: <r_hat, A p> vanished",
            )
        alpha = rho / denom
        s = r - alpha * v
        if np.linalg.norm(s) <= stop:
            x = x + alpha * p
            return SolveReport(
                x, "bicgstab", it, float(np.linalg.norm(b - a @ x)), True
            )
        t = a @ s
        tt = float(t @ t)
        if tt < tiny:
            return SolveReport(
                best_x, "bicgstab", it, best_res, False,
                detail="omega breakdown: A-image of residual vanished",
            )
        omega = float(t @ s) / tt
        x = x + alpha * p + omega * s
        r = s - omega * t
        res = float(np.linalg.norm(r))
        if res < best_res:
            best_x, best_res = x.copy(), res
        if res <= stop:
            return SolveReport(x, "bicgstab", it, res, True)
        if abs(omega) < tiny:
            return SolveReport(
                best_x, "bicgstab", it, best_res, False,
                detail="omega breakdown: stabilization weight vanished",
            )
        rho_prev = rho

    return SolveReport(
        best_x, "bicgstab", MAXIT, best_res, False,
        detail=f"no convergence in {MAXIT} iterations",
    )


def solution1(m0: np.ndarray, m1: np.ndarray) -> SolveReport:
    """Solve ``Theta m0 = m1`` column-by-column with BiCGSTAB.

    Transposing gives ``m0' Theta' = m1'``, one vector system per column
    of ``Theta'``; each is solved iteratively and the results are
    transposed back.

    The report's residual is the Frobenius norm of ``Theta m0 - m1``;
    convergence means it is below ``TOL`` times the Frobenius norm of
    ``m1``.  When ``m0`` is numerically singular and some column fails
    to converge, the detail flags likely inconsistency (a singular
    system only has solutions for right-hand sides in its range).
    """
    m0 = np.asarray(m0, dtype=float)
    m1 = np.asarray(m1, dtype=float)
    if m0.ndim != 2 or m0.shape[0] != m0.shape[1]:
        raise ValueError(f"m0 must be square, got {m0.shape}")
    if m1.shape != m0.shape:
        raise ValueError(f"m0/m1 shape mismatch: {m0.shape} vs {m1.shape}")
    columns = []
    reports = []
    for i in range(m0.shape[0]):
        rep = bicgstab(m0.T, m1.T[:, i])
        reports.append(rep)
        columns.append(rep.solution)
    theta = np.column_stack(columns).T

    residual = float(np.linalg.norm(theta @ m0 - m1, "fro"))
    m1_norm = float(np.linalg.norm(m1, "fro"))
    converged = residual <= TOL * max(m1_norm, 1e-300)
    detail = ""
    if not converged:
        svals = np.linalg.svd(m0, compute_uv=False)
        singular = svals[-1] < 1e-12 * max(svals[0], 1e-300)
        bad = [i for i, rep in enumerate(reports) if not rep.converged]
        detail = f"columns {bad} did not converge"
        if singular:
            detail += "; m0 numerically singular - system likely inconsistent"
    return SolveReport(
        solution=theta,
        method="bicgstab",
        iterations=max(rep.iterations for rep in reports),
        residual_norm=residual,
        converged=converged,
        detail=detail,
    )


def _fro_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, by the same dot product
    ``np.linalg.norm(matrix, "fro")`` takes of one raveled matrix."""
    flat = stack.reshape(len(stack), -1)
    return np.sqrt(np.vecdot(flat, flat))


def solve_stack(m0: np.ndarray, m1: np.ndarray) -> list:
    """Route each system ``Theta m0[k] = m1[k]`` of a ``(K, m, m)`` stack once.

    A system whose ``m0`` or ``m1`` holds a non-finite entry is not
    routed: its entry is a :class:`SolverError` naming the matrix.  One
    condition estimate covers the finite systems.  Every system whose
    estimate is at most ``COND_LIMIT`` goes through one factorized direct
    solve; each other system goes through the column-wise fallback
    :func:`solution1`.  Entry k is system k's :class:`SolveReport`, or
    the :class:`SolverError` or ``LinAlgError`` it ended in.  Each system
    is solved, and its residual taken, exactly as on its own.
    """
    m0 = np.asarray(m0, dtype=float)
    m1 = np.asarray(m1, dtype=float)
    bad = [~np.isfinite(a).all(axis=(1, 2)) for a in (m0, m1)]
    finite = ~(bad[0] | bad[1])
    cond = np.full(len(m0), np.inf)
    if finite.any():
        cond[finite] = np.linalg.cond(m0[finite])
    direct = cond <= COND_LIMIT  # False for inf and NaN
    reports = [None] * len(m0)
    if direct.any():
        a0, a1 = m0[direct], m1[direct]
        theta = np.linalg.solve(a0.transpose(0, 2, 1), a1.transpose(0, 2, 1)).transpose(0, 2, 1)
        residual = _fro_norms(theta @ a0 - a1)
        scale = _fro_norms(a1)
        for k, th, res, sc, c in zip(
            np.flatnonzero(direct), theta, residual, scale, cond[direct]
        ):
            reports[k] = SolveReport(
                solution=th,
                method="direct",
                iterations=0,
                residual_norm=float(res),
                converged=bool(res <= TOL * max(sc, 1e-300)),
                detail=f"condition estimate {c:.3g}",
            )
    for k in np.flatnonzero(~finite):
        names = " and ".join(n for n, flags in zip(("m0", "m1"), bad) if flags[k])
        reports[k] = SolverError(f"non-finite entries in {names}; system not solved")
    for k in np.flatnonzero(finite & ~direct):
        try:
            rep = solution1(m0[k], m1[k])
            if not np.all(np.isfinite(rep.solution)):
                raise SolverError(f"iterative fallback produced non-finite entries: {rep.detail}")
            rep.detail = (f"condition estimate {cond[k]:.3g}; " + rep.detail).rstrip("; ")
        except (SolverError, np.linalg.LinAlgError) as exc:
            rep = exc
        reports[k] = rep
    return reports


def solve_yw(m0: np.ndarray, m1: np.ndarray) -> SolveReport:
    """Route ``Theta m0 = m1`` to the direct solve or the iterative fallback.

    The one-system case of :func:`solve_stack`: the direct path computes
    ``m1 m0^-1`` through a factorized solve whenever the condition
    estimate of ``m0`` stays below ``COND_LIMIT``; beyond that the
    column-wise iterative procedure takes over.

    Raises
    ------
    SolverError, numpy.linalg.LinAlgError
        When a matrix is not finite or the fallback ends in that error.
    """
    report = solve_stack([m0], [m1])[0]
    if isinstance(report, Exception):
        raise report
    return report
