"""Monte Carlo harness: benchmark presets, replication mechanics,
aggregation, and the failure-accounting contract."""

import csv
from dataclasses import replace

import numpy as np
import pytest

import stablepar.estimators as estimators
import stablepar.mc as mc
from stablepar.exceptions import NumericalError, SolverError, UnboundedModelError
from stablepar.mc import (
    DEFAULT_ALPHA_SWEEP,
    REPLICATE_BLOCK,
    McCell,
    McConfig,
    McReport,
    model1_preset,
    model2_preset,
    run_mc_study,
)
from stablepar.par_model import ParModel, check_boundedness, simulate_par1
from stablepar.rng import RandomStream
from stablepar.stable import DiscreteSpectralMeasure


class TestPresets:
    def test_model1_structure(self):
        m = model1_preset()
        assert (m.period, m.dim, m.alpha) == (3, 2, 1.8)
        assert np.array_equal(m.theta[0], [[0.5, 0.1], [-0.6, 0.4]])
        assert np.array_equal(m.theta[1], [[0.8, -0.1], [0.3, 0.7]])
        assert np.array_equal(m.theta[2], [[0.1, -0.4], [-0.5, 0.3]])
        assert m.noise.total_mass == pytest.approx(1.4)
        assert m.noise.is_symmetric()
        assert check_boundedness(m).bounded

    def test_model2_structure(self):
        m = model2_preset()
        assert (m.period, m.dim, m.alpha) == (2, 3, 1.8)
        assert np.array_equal(
            m.theta[0], [[0.8, -0.2, 0.7], [0.1, 0.5, -0.6], [0.4, 0.3, -0.1]]
        )
        assert m.noise.n_atoms == 8
        assert m.noise.total_mass == pytest.approx(2.2)
        assert m.noise.is_symmetric()
        assert check_boundedness(m).bounded

    def test_presets_return_fresh_objects(self):
        a, b = model1_preset(), model1_preset()
        assert a is not b


class TestMcConfig:
    def test_defaults(self):
        cfg = McConfig(model=model1_preset(), L=100, M=4)
        assert cfg.alphas == (1.8,)
        assert cfg.methods == ("YW-CV", "YW-T")

    def test_validation(self):
        m = model1_preset()
        with pytest.raises(ValueError):
            McConfig(model=m, L=100, M=1)
        with pytest.raises(ValueError):
            McConfig(model=m, L=11, M=4)  # under four periods
        with pytest.raises(ValueError):
            McConfig(model=m, L=100, M=4, methods=("nope",))

    def test_alpha_sweep_constant(self):
        assert DEFAULT_ALPHA_SWEEP == (1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9)


class TestMcCell:
    def test_quantile_ordering_enforced(self):
        with pytest.raises(ValueError):
            McCell(
                method="YW-CV", alpha=1.8, L=100, v=1, i=1, j=1,
                median=0.0, q05=0.5, q95=1.0, true_value=0.0,
            )

    def test_iqr(self):
        c = McCell(
            method="YW-CV", alpha=1.8, L=100, v=1, i=1, j=1,
            median=0.0, q05=-1.0, q95=1.0, true_value=0.0, q25=-0.2, q75=0.3,
        )
        assert c.iqr == pytest.approx(0.5)


class TestRunMcStudy:
    def test_deterministic_given_seed(self):
        cfg = McConfig(model=model1_preset(), L=120, M=4, methods=("YW-CV",), seed=5)
        a, b = run_mc_study(cfg), run_mc_study(cfg)
        for ca, cb in zip(a.cells, b.cells):
            assert ca == cb

    def test_cell_inventory(self):
        cfg = McConfig(model=model1_preset(), L=120, M=4, methods=("YW-CV",), seed=5)
        rep = run_mc_study(cfg)
        # 3 phases x 4 entries for one method and one alpha
        assert len(rep.cells) == 12
        assert rep.failures == {("YW-CV", 1.8): 0}
        for c in rep.cells:
            assert c.q05 <= c.median <= c.q95
            assert np.isfinite(c.q25) and np.isfinite(c.q75)

    def test_degenerate_replication_collapses_quantiles(self, monkeypatch):
        """Identical trajectories in every replicate make every estimate
        identical, so all aggregates coincide."""
        original = mc.simulate_replicates

        def identical(*args, **kwargs):
            values = original(*args, **kwargs)
            values[1:] = values[0]
            return values

        monkeypatch.setattr(mc, "simulate_replicates", identical)
        cfg = McConfig(model=model1_preset(), L=120, M=4, methods=("YW-CV",), seed=7)
        rep = run_mc_study(cfg)
        for c in rep.cells:
            assert c.q05 == c.median == c.q95

    def test_replicate_order_invariance(self, monkeypatch):
        """Aggregates are symmetric functions of the replicates, so
        reversing the replicate order changes nothing."""
        cfg = McConfig(model=model1_preset(), L=120, M=5, methods=("YW-CV",), seed=11)
        r1 = run_mc_study(cfg)
        original = mc.simulate_replicates
        monkeypatch.setattr(mc, "simulate_replicates",
                            lambda *a, **kw: original(*a, **kw)[::-1])
        r2 = run_mc_study(cfg)
        for ca, cb in zip(r1.cells, r2.cells):
            assert ca == cb

    def test_sweep_replaces_alpha(self):
        cfg = McConfig(
            model=model1_preset(), L=120, M=3, methods=("YW-CV",),
            alphas=(1.5, 1.9), seed=6,
        )
        rep = run_mc_study(cfg)
        assert {c.alpha for c in rep.cells} == {1.5, 1.9}
        assert len(rep.cells) == 24

    def test_aborts_when_most_replicates_fail(self):
        """An unbounded model makes every replicate raise; the study must
        abort with an aggregate error instead of averaging nothing."""
        bad = ParModel(
            period=1,
            theta=(np.array([[1.3]]),),
            alpha=1.8,
            noise=DiscreteSpectralMeasure.symmetric([[1.0]], [0.5]),
        )
        cfg = McConfig(model=bad, L=50, M=4, methods=("YW-CV",), seed=1)
        with pytest.raises(NumericalError):
            run_mc_study(cfg)

    def test_failures_kept_by_class_and_phase(self, monkeypatch):
        """A replicate whose component 1 vanishes on phase 1 fails YW-CV at
        phase 2 (the system that phase conditions); a YW-T failure in the
        lag-1 stack of phase 2 is kept at phase 2.  Each is one failure of
        its method, the others aggregate."""
        original = mc.simulate_replicates

        def degenerate(*args, **kwargs):
            values = original(*args, **kwargs)
            values[1, 0, ::3] = 0.0
            return values

        def yw_t_stub(values, T, v, h, alpha):
            """Exact matrices (m0 = I, m1 = Theta(v)); replicate 2 fails
            the lag-1 stack of phase 2."""
            mat = model1_preset().theta[v - 1] if h else np.eye(2)
            failed = {2: SolverError("stub")} if (v, h) == (2, 1) else {}
            return np.broadcast_to(mat, (len(values), 2, 2)), failed

        monkeypatch.setattr(mc, "simulate_replicates", degenerate)
        monkeypatch.setitem(estimators._PHASE_STACKS, "YW-T", yw_t_stub)
        cfg = McConfig(model=model1_preset(), L=120, M=5, seed=2)
        rep = run_mc_study(cfg)
        assert rep.failures == {("YW-CV", 1.8): 1, ("YW-T", 1.8): 1}
        assert rep.failure_causes == {
            ("YW-CV", 1.8): {("DegenerateSeriesError", 2): 1},
            ("YW-T", 1.8): {("SolverError", 2): 1},
        }
        assert len(rep.cells) == 2 * 12


def _record_trajectories(monkeypatch):
    """Capture the trajectory of every replicate in the blocks the study's
    YW-CV estimator receives, in replicate order."""
    seen = []
    original = mc.estimate_block

    def recording(values, T, method, alpha=None):
        if method == "YW-CV":
            seen.extend(np.array(row) for row in values)
        return original(values, T, method, alpha=alpha)

    monkeypatch.setattr(mc, "estimate_block", recording)
    return seen


class TestBatchedReplicates:
    @pytest.mark.parametrize("preset", [model1_preset, model2_preset])
    def test_replicate_equals_single_stream_simulation(
        self, monkeypatch, boundedness_calls, preset
    ):
        """Replicates run in blocks, yet replicate i of the k-th alpha is
        exactly simulate_par1 on substream (k, i); M spans two blocks."""
        seen = _record_trajectories(monkeypatch)
        M = REPLICATE_BLOCK + 3
        cfg = McConfig(model=preset(), L=40, M=M, alphas=(1.4, 1.9),
                       methods=("YW-CV",), seed=17, burn_in=12)
        run_mc_study(cfg)
        assert len(seen) == 2 * M
        # one check per alpha, not per block
        assert [m.alpha for m in boundedness_calls] == [1.4, 1.9]
        base = RandomStream(17)
        for k, alpha in enumerate(cfg.alphas):
            model = replace(cfg.model, alpha=alpha)
            for i in range(M):
                expected = simulate_par1(model, 40, base.substream(k, i), burn_in=12)
                assert np.array_equal(seen[k * M + i], expected.values), (k, i)

    def test_unbounded_model_raises_once(self, boundedness_calls):
        bad = ParModel(
            period=1,
            theta=(np.array([[1.3]]),),
            alpha=1.8,
            noise=DiscreteSpectralMeasure.symmetric([[1.0]], [0.5]),
        )
        cfg = McConfig(model=bad, L=50, M=REPLICATE_BLOCK + 3, methods=("YW-CV",))
        with pytest.raises(UnboundedModelError):
            run_mc_study(cfg)
        assert len(boundedness_calls) == 1


@pytest.fixture(scope="module")
def small_report():
    # the spectral route needs at least 100 points per phase pair,
    # hence L = 400 with period 3
    cfg = McConfig(model=model1_preset(), L=400, M=4, seed=8)
    return run_mc_study(cfg)


class TestMcReport:
    def test_select(self, small_report):
        sel = small_report.select(method="YW-CV", v=2)
        assert len(sel) == 4
        assert all(c.method == "YW-CV" and c.v == 2 for c in sel)

    def test_coefficient_matrix_layout(self, small_report):
        mat = small_report.coefficient_matrix("YW-T", 1.8, 1)
        cells = small_report.select(method="YW-T", v=1)
        for c in cells:
            assert mat[c.i - 1, c.j - 1] == c.median
        with pytest.raises(KeyError):
            small_report.coefficient_matrix("YW-CV", 1.2, 1)

    def test_csv_layout(self, small_report, tmp_path):
        path = tmp_path / "study.csv"
        small_report.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "method", "alpha", "L", "v", "i", "j", "median", "q05", "q95", "true_value",
        ]
        assert len(rows) == 1 + len(small_report.cells)
        # full-precision floats round-trip through the text form
        c0 = small_report.cells[0]
        assert float(rows[1][6]) == c0.median
