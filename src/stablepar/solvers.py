"""Linear-system machinery for the Yule-Walker step.

The per-phase coefficient estimate solves Theta * M0 = M1 for square
matrices built from per-phase dependence measures.  Well-conditioned
systems go through a dense direct solve; (near-)singular ones fall back
to a column-by-column BiCGSTAB iteration (van der Vorst's stabilized
bi-conjugate gradient), which returns *a* solution of a consistent
singular system instead of blowing up on the explicit inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import SolverError

__all__ = [
    "SolveReport",
    "bicgstab",
    "solution1",
    "solve_direct",
    "solve_yw",
    "COND_LIMIT",
]

# Condition-number estimate beyond which the direct solve is not trusted
# and the iterative fallback takes over.
COND_LIMIT = 1e12


@dataclass
class SolveReport:
    """Outcome of one linear solve (vector or matrix right-hand side)."""

    solution: np.ndarray
    method: str  # "direct" | "bicgstab"
    iterations: int
    residual_norm: float
    converged: bool
    breakdown: bool = False
    detail: str = ""
    column_reports: list = field(default_factory=list, repr=False)


def bicgstab(
    a: np.ndarray,
    b: np.ndarray,
    tol: float = 1e-10,
    maxit: int = 1000,
    x0: np.ndarray | None = None,
) -> SolveReport:
    """Solve ``a x = b`` by the stabilized bi-conjugate gradient method.

    Handles nonsymmetric and consistent singular systems; on a singular
    system the iterate stays in the Krylov space of the residual and
    converges to one member of the solution family.  Non-convergence
    after ``maxit`` sweeps reports the best iterate seen; a vanishing
    bi-orthogonality coefficient (rho) or stabilization weight (omega)
    is reported distinctly as a breakdown.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"shape mismatch: a {a.shape} vs b {b.shape}")
    if tol <= 0 or maxit < 1:
        raise ValueError("need tol > 0 and maxit >= 1")

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - a @ x
    b_norm = float(np.linalg.norm(b))
    stop = tol * b_norm
    if b_norm == 0.0 or np.linalg.norm(r) <= stop:
        return SolveReport(x, "bicgstab", 0, float(np.linalg.norm(r)), True)

    r_hat = r.copy()
    rho_prev = alpha = omega = 1.0
    v = p = np.zeros(n)
    best_x, best_res = x.copy(), float(np.linalg.norm(r))
    tiny = 1e-300

    for it in range(1, maxit + 1):
        rho = float(r_hat @ r)
        if abs(rho) < tiny:
            return SolveReport(
                best_x, "bicgstab", it, best_res, False, breakdown=True,
                detail="rho breakdown: shadow residual orthogonal to residual",
            )
        beta = (rho / rho_prev) * (alpha / omega)
        p = r + beta * (p - omega * v)
        v = a @ p
        denom = float(r_hat @ v)
        if abs(denom) < tiny:
            return SolveReport(
                best_x, "bicgstab", it, best_res, False, breakdown=True,
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
                best_x, "bicgstab", it, best_res, False, breakdown=True,
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
                best_x, "bicgstab", it, best_res, False, breakdown=True,
                detail="omega breakdown: stabilization weight vanished",
            )
        rho_prev = rho

    return SolveReport(
        best_x, "bicgstab", maxit, best_res, False,
        detail=f"no convergence in {maxit} iterations",
    )


def solution1(
    m0: np.ndarray, m1: np.ndarray, tol: float = 1e-10, maxit: int = 1000
) -> SolveReport:
    """Solve ``Theta m0 = m1`` column-by-column with BiCGSTAB.

    Transposing gives ``m0' Theta' = m1'``, one vector system per column
    of ``Theta'``; each is solved iteratively and the results are
    transposed back.

    The report's residual is the Frobenius norm of ``Theta m0 - m1``;
    convergence means it is below ``tol`` times the Frobenius norm of
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
        rep = bicgstab(m0.T, m1.T[:, i], tol=tol, maxit=maxit)
        reports.append(rep)
        columns.append(rep.solution)
    theta = np.column_stack(columns).T

    residual = float(np.linalg.norm(theta @ m0 - m1, "fro"))
    m1_norm = float(np.linalg.norm(m1, "fro"))
    converged = residual <= tol * max(m1_norm, 1e-300)
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
        breakdown=any(rep.breakdown for rep in reports),
        detail=detail,
        column_reports=reports,
    )


def _fro_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, by the same dot product
    ``np.linalg.norm(matrix, "fro")`` takes of one raveled matrix."""
    flat = stack.reshape(len(stack), -1)
    return np.sqrt(np.vecdot(flat, flat))


def solve_direct(m0: np.ndarray, m1: np.ndarray, tol: float = 1e-10) -> list:
    """The direct half of :func:`solve_yw` for a stack of systems.

    ``m0`` and ``m1`` are ``(K, m, m)``.  One condition estimate and one
    factorized solve serve every system whose ``m0`` is finite with a
    condition estimate of at most ``COND_LIMIT``.  Entry k of the result
    is system k's :class:`SolveReport`, or ``None`` where
    :func:`solve_yw` would take its iterative fallback.  Each system is
    solved, and its residual taken, exactly as on its own.
    """
    cond = np.full(len(m0), np.inf)
    finite = np.isfinite(m0).all(axis=(1, 2))
    if finite.any():
        cond[finite] = np.linalg.cond(m0[finite])
    direct = cond <= COND_LIMIT  # False for inf and NaN
    reports = [None] * len(m0)
    if not direct.any():
        return reports
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
            converged=bool(res <= tol * max(sc, 1e-300)),
            detail=f"condition estimate {c:.3g}",
        )
    return reports


def solve_yw(
    m0: np.ndarray, m1: np.ndarray, tol: float = 1e-10, maxit: int = 1000
) -> SolveReport:
    """Route ``Theta m0 = m1`` to the direct solve or the iterative fallback.

    The direct path computes ``m1 m0^-1`` through a factorized solve and
    is used whenever the condition estimate of ``m0`` stays below
    ``COND_LIMIT`` (the one-system case of :func:`solve_direct`); beyond
    that the column-wise iterative procedure takes over, which degrades
    gracefully on consistent singular systems.

    Raises
    ------
    SolverError
        When neither path produces a finite solution.
    """
    m0 = np.asarray(m0, dtype=float)
    m1 = np.asarray(m1, dtype=float)
    report = solve_direct(m0[None], m1[None], tol)[0]
    if report is not None:
        return report
    cond = np.linalg.cond(m0) if np.all(np.isfinite(m0)) else np.inf
    report = solution1(m0, m1, tol=tol, maxit=maxit)
    if not np.all(np.isfinite(report.solution)):
        raise SolverError(
            f"iterative fallback produced non-finite entries: {report.detail}"
        )
    report.detail = (f"condition estimate {cond:.3g}; " + report.detail).rstrip("; ")
    return report
