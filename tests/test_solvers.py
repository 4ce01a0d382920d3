"""Linear solvers behind the coefficient systems: stabilized bi-conjugate
gradients, the column-wise matrix solve, and the direct/iterative router."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablepar.exceptions import SolverError
from stablepar.solvers import (
    COND_LIMIT,
    SolveReport,
    bicgstab,
    solution1,
    solve_stack,
    solve_yw,
)


def _well_conditioned(gen, n, cond_cap=100.0):
    while True:
        a = gen.normal(size=(n, n))
        if np.linalg.cond(a) <= cond_cap:
            return a


class TestBicgstab:
    def test_identity_system(self):
        b = np.array([1.0, -2.0, 3.0])
        rep = bicgstab(np.eye(3), b)
        assert rep.converged
        assert np.allclose(rep.solution, b)

    def test_zero_rhs(self):
        rep = bicgstab(np.eye(3), np.zeros(3))
        assert rep.converged
        assert rep.iterations == 0
        assert np.array_equal(rep.solution, np.zeros(3))

    def test_manufactured_solution(self):
        gen = np.random.default_rng(20)
        a = _well_conditioned(gen, 12)
        x_true = gen.normal(size=12)
        rep = bicgstab(a, a @ x_true)
        assert rep.converged
        assert rep.residual_norm <= 1e-10 * np.linalg.norm(a @ x_true)
        assert np.allclose(rep.solution, x_true, atol=1e-7)

    def test_consistent_singular_system(self):
        """Rank-deficient a with b in its range: the iteration settles on
        one member of the solution family with a small residual."""
        gen = np.random.default_rng(22)
        u = gen.normal(size=(4, 2))
        v = gen.normal(size=(2, 4))
        a = u @ v  # rank 2
        x_any = gen.normal(size=4)
        b = a @ x_any
        rep = bicgstab(a, b)
        assert np.linalg.norm(a @ rep.solution - b) <= 1e-8 * np.linalg.norm(b)

    def test_inconsistent_system_reports_failure(self):
        """b outside the range of a singular matrix: no solution exists, so
        the report must say not-converged and still carry the best iterate."""
        a = np.diag([1.0, 1.0, 0.0])
        b = np.array([1.0, 1.0, 1.0])  # third equation unsatisfiable
        rep = bicgstab(a, b)
        assert not rep.converged
        assert np.all(np.isfinite(rep.solution))
        assert rep.residual_norm >= 0.5  # cannot beat the unreachable component

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bicgstab(np.eye(3), np.ones(4))


class TestSolution1:
    def test_matches_direct_solve(self):
        gen = np.random.default_rng(23)
        for n in (2, 3, 5, 6):
            m0 = _well_conditioned(gen, n)
            theta = gen.normal(size=(n, n))
            m1 = theta @ m0
            rep = solution1(m0, m1)
            direct = np.linalg.solve(m0.T, m1.T).T
            assert rep.converged
            assert rep.method == "bicgstab"
            assert np.allclose(rep.solution, direct, atol=1e-8)

    def test_large_system(self):
        gen = np.random.default_rng(24)
        m0 = _well_conditioned(gen, 9)
        theta = gen.normal(size=(9, 9))
        rep = solution1(m0, theta @ m0)
        assert rep.converged
        assert np.allclose(rep.solution, theta, atol=1e-7)

    def test_consistent_singular_matrix_system(self):
        gen = np.random.default_rng(25)
        u = gen.normal(size=(4, 3))
        v = gen.normal(size=(3, 4))
        m0 = u @ v  # rank 3
        theta = gen.normal(size=(4, 4))
        m1 = theta @ m0
        rep = solution1(m0, m1)
        assert rep.residual_norm <= 1e-9 * np.linalg.norm(m1, "fro")

    def test_inconsistent_singular_flagged(self):
        """Singular m0 with m1 outside its range: the glued report must be
        non-converged and name the singularity in its detail."""
        m0 = np.diag([1.0, 1.0, 0.0])
        m1 = np.ones((3, 3))
        rep = solution1(m0, m1)
        assert not rep.converged
        assert "singular" in rep.detail
        assert np.all(np.isfinite(rep.solution))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            solution1(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            solution1(np.eye(2), np.eye(3))

    @given(seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_solution_solves_system(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 6))
        m0 = gen.normal(size=(n, n))
        m1 = gen.normal(size=(n, n))
        rep = solution1(m0, m1)
        if rep.converged:
            res = np.linalg.norm(rep.solution @ m0 - m1, "fro")
            assert res <= 1e-10 * max(np.linalg.norm(m1, "fro"), 1e-300)


class TestSolveYw:
    def test_routes_well_conditioned_to_direct(self):
        gen = np.random.default_rng(26)
        m0 = _well_conditioned(gen, 3)
        theta = gen.normal(size=(3, 3))
        rep = solve_yw(m0, theta @ m0)
        assert rep.method == "direct"
        assert rep.converged
        assert np.allclose(rep.solution, theta, atol=1e-9)

    def test_routes_singular_to_iterative(self):
        gen = np.random.default_rng(27)
        u = gen.normal(size=(3, 2))
        v = gen.normal(size=(2, 3))
        m0 = u @ v  # cond = inf
        theta = gen.normal(size=(3, 3))
        m1 = theta @ m0  # consistent
        rep = solve_yw(m0, m1)
        assert rep.method == "bicgstab"
        assert np.linalg.norm(rep.solution @ m0 - m1, "fro") <= 1e-8 * np.linalg.norm(
            m1, "fro"
        )
        assert "condition estimate" in rep.detail

    @pytest.mark.parametrize("m", [8, 9])
    def test_exactly_singular_consistent_system(self, m):
        """diag(1, ..., 1, 0) is exactly singular, so the router takes the
        iterative route, which must solve the consistent system at any size."""
        m0 = np.diag([1.0] * (m - 1) + [0.0])
        rep = solve_yw(m0, m0)
        assert rep.method == "bicgstab"
        assert rep.converged
        assert np.linalg.norm(rep.solution @ m0 - m0, "fro") <= 1e-10 * np.linalg.norm(
            m0, "fro"
        )

    def test_direct_report_carries_condition_estimate(self):
        rep = solve_yw(np.eye(2), np.eye(2))
        assert "condition estimate" in rep.detail
        assert rep.iterations == 0


class TestSolveStack:
    def test_each_entry_is_the_system_solved_alone(self):
        """A well-conditioned, a consistent singular and a NaN system in one
        stack: each entry is what solve_yw gives or raises on it alone.  The
        NaN system is refused before routing."""
        gen = np.random.default_rng(28)
        singular = gen.normal(size=(3, 2)) @ gen.normal(size=(2, 3))
        m0 = np.stack([_well_conditioned(gen, 3), singular, np.full((3, 3), np.nan)])
        m1 = gen.normal(size=(3, 3)) @ m0
        reports = solve_stack(m0, m1)
        for rep, method, a0, a1 in zip(reports, ["direct", "bicgstab"], m0, m1):
            alone = solve_yw(a0, a1)
            assert rep.method == method
            assert (rep.method, rep.residual_norm, rep.detail) == (
                alone.method, alone.residual_norm, alone.detail)
            assert rep.solution.tobytes() == alone.solution.tobytes()
        assert isinstance(reports[2], SolverError)
        assert str(reports[2]) == "non-finite entries in m0 and m1; system not solved"
        with pytest.raises(SolverError, match=f"^{re.escape(str(reports[2]))}$"):
            solve_yw(m0[2], m1[2])

    def test_non_finite_system_is_an_error_naming_its_matrix(self):
        """An inf in m0 or a NaN in m1 alone makes its system a SolverError
        naming that matrix; the finite system beside them is solved as
        on its own."""
        gen = np.random.default_rng(29)
        m0 = np.stack([_well_conditioned(gen, 3)] * 3)
        m1 = gen.normal(size=(3, 3, 3))
        m0[1, 0, 2] = np.inf
        m1[2, 1, 1] = np.nan
        good, bad0, bad1 = solve_stack(m0, m1)
        assert good.solution.tobytes() == solve_yw(m0[0], m1[0]).solution.tobytes()
        assert isinstance(bad0, SolverError) and isinstance(bad1, SolverError)
        assert str(bad0) == "non-finite entries in m0; system not solved"
        assert str(bad1) == "non-finite entries in m1; system not solved"
