"""Monte Carlo harness: benchmark presets, replication mechanics,
aggregation, and the failure-accounting contract."""

import csv
import itertools
from dataclasses import replace

import numpy as np
import pytest

import stablepar.estimators as estimators
import stablepar.mc as mc
from stablepar.estimators import METHODS
from stablepar.exceptions import DataError, NumericalError, SolverError, UnboundedModelError
from stablepar.mc import (
    REPLICATE_BLOCK,
    STATS,
    McConfig,
    McReport,
    model1_preset,
    model2_preset,
    run_mc_study,
)
from stablepar.par_model import MultiTrajectory, ParModel, check_boundedness
from stablepar.rng import RandomStream
from stablepar.stable import DiscreteSpectralMeasure

from oracles import is_symmetric, one_path, reference_mc_study


class TestPresets:
    def test_model1_structure(self):
        m = model1_preset()
        assert (m.period, m.dim, m.alpha) == (3, 2, 1.8)
        assert np.array_equal(m.theta[0], [[0.5, 0.1], [-0.6, 0.4]])
        assert np.array_equal(m.theta[1], [[0.8, -0.1], [0.3, 0.7]])
        assert np.array_equal(m.theta[2], [[0.1, -0.4], [-0.5, 0.3]])
        assert m.noise.weights.sum() == pytest.approx(1.4)
        assert is_symmetric(m.noise)
        assert check_boundedness(m).bounded

    def test_model2_structure(self):
        m = model2_preset()
        assert (m.period, m.dim, m.alpha) == (2, 3, 1.8)
        assert np.array_equal(
            m.theta[0], [[0.8, -0.2, 0.7], [0.1, 0.5, -0.6], [0.4, 0.3, -0.1]]
        )
        assert m.noise.n_atoms == 8
        assert m.noise.weights.sum() == pytest.approx(2.2)
        assert is_symmetric(m.noise)
        assert check_boundedness(m).bounded

    def test_presets_return_fresh_objects(self):
        a, b = model1_preset(), model1_preset()
        assert a is not b


class TestMcConfig:
    def test_defaults(self):
        cfg = McConfig(model=model1_preset(), L=303, M=4)
        assert cfg.alphas == (1.8,)
        assert cfg.methods == ("YW-CV", "YW-T")

    def test_validation(self):
        m = model1_preset()
        with pytest.raises(ValueError):
            McConfig(model=m, L=100, M=1)
        with pytest.raises(DataError, match="L >= 12"):
            McConfig(model=m, L=11, M=4)  # under four periods
        # YW-T's phase 1 holds L // 3 - 1 = 99 lagged pairs at L = 300
        for methods in (("YW-T",), METHODS):
            with pytest.raises(DataError, match="L >= 303"):
                McConfig(model=m, L=300, M=4, methods=methods)
        assert McConfig(model=m, L=303, M=4, methods=("YW-T",)).L == 303
        with pytest.raises(ValueError):
            McConfig(model=m, L=100, M=4, methods=("nope",))
        with pytest.raises(ValueError, match="distinct"):
            McConfig(model=m, L=100, M=4, alphas=(1.5, 1.9, 1.5))

    def test_every_swept_alpha_is_checked_before_simulating(self, monkeypatch):
        """An alpha that ParModel refuses fails the config, before the
        study simulates and estimates the alphas ahead of it."""
        def refuse(*args, **kwargs):
            raise AssertionError("simulated before every alpha was checked")

        monkeypatch.setattr(mc, "simulate_par1", refuse)
        with pytest.raises(ValueError, match=r"alpha must lie in \(1, 2\], got 2\.5"):
            run_mc_study(McConfig(model=model1_preset(), L=120, M=4,
                                  alphas=(1.5, 2.5), methods=("YW-CV",)))

    def test_negative_burn_in_is_refused_before_simulating(self, monkeypatch):
        """The block size reads ``burn_in + L``, so a negative burn-in fails
        the config, before anything is drawn."""
        def refuse(*args, **kwargs):
            raise AssertionError("simulated before burn_in was checked")

        monkeypatch.setattr(mc, "simulate_par1", refuse)
        with pytest.raises(ValueError, match="burn_in must be >= 0, got -5"):
            run_mc_study(McConfig(model=model1_preset(), L=120, M=4, burn_in=-5,
                                  methods=("YW-CV",)))


class TestRunMcStudy:
    def test_deterministic_given_seed(self):
        cfg = McConfig(model=model1_preset(), L=120, M=4, methods=("YW-CV",), seed=5)
        a, b = run_mc_study(cfg), run_mc_study(cfg)
        assert list(a.stats) == list(b.stats)
        for key in a.stats:
            assert np.array_equal(a.stats[key], b.stats[key])

    def test_cell_inventory(self):
        cfg = McConfig(model=model1_preset(), L=120, M=4, methods=("YW-CV",), seed=5)
        rep = run_mc_study(cfg)
        # 3 phases x 4 entries for one method and one alpha
        assert list(rep.stats) == [("YW-CV", 1.8)]
        stats = dict(zip(STATS, rep.stats[("YW-CV", 1.8)]))
        assert stats["median"].shape == (3, 2, 2)
        assert rep.failures == {("YW-CV", 1.8): 0}
        assert np.all(stats["q05"] <= stats["median"]) and np.all(stats["median"] <= stats["q95"])
        assert np.all(np.isfinite(stats["q25"])) and np.all(np.isfinite(stats["q75"]))

    def test_degenerate_replication_collapses_quantiles(self, monkeypatch):
        """Identical trajectories in every replicate make every estimate
        identical, so all aggregates coincide."""
        original = mc.simulate_par1

        def identical(*args, **kwargs):
            values = original(*args, **kwargs)
            values[1:] = values[0]
            return values

        monkeypatch.setattr(mc, "simulate_par1", identical)
        cfg = McConfig(model=model1_preset(), L=120, M=4, methods=("YW-CV",), seed=7)
        rep = run_mc_study(cfg)
        stats = rep.stats[("YW-CV", 1.8)]
        assert np.array_equal(stats, np.broadcast_to(stats[0], stats.shape))

    def test_replicate_order_invariance(self, monkeypatch):
        """Aggregates are symmetric functions of the replicates, so
        reversing the replicate order changes nothing."""
        cfg = McConfig(model=model1_preset(), L=120, M=5, methods=("YW-CV",), seed=11)
        r1 = run_mc_study(cfg)
        original = mc.simulate_par1
        monkeypatch.setattr(mc, "simulate_par1",
                            lambda *a, **kw: original(*a, **kw)[::-1])
        r2 = run_mc_study(cfg)
        assert np.array_equal(r1.stats[("YW-CV", 1.8)], r2.stats[("YW-CV", 1.8)])

    def test_sweep_replaces_alpha(self):
        cfg = McConfig(
            model=model1_preset(), L=120, M=3, methods=("YW-CV",),
            alphas=(1.5, 1.9), seed=6,
        )
        rep = run_mc_study(cfg)
        assert list(rep.stats) == [("YW-CV", 1.5), ("YW-CV", 1.9)]
        assert sum(stats[0].size for stats in rep.stats.values()) == 24

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
        original = mc.simulate_par1

        def degenerate(*args, **kwargs):
            values = original(*args, **kwargs)
            values[1, 0, ::3] = 0.0
            return values

        theta = model1_preset().theta
        lag1_calls = itertools.count()  # the driver runs phases 1..T in order

        def yw_t_stub(cur, lagged, alpha):
            """Exact matrices (m0 = I, m1 = Theta(v)); replicate 2 fails
            the lag-1 stack of phase 2."""
            if lagged is cur:
                return np.broadcast_to(np.eye(2), (len(cur), 2, 2)), {}
            v = next(lag1_calls) % len(theta) + 1
            failed = {2: SolverError("stub")} if v == 2 else {}
            return np.broadcast_to(theta[v - 1], (len(cur), 2, 2)), failed

        monkeypatch.setattr(mc, "simulate_par1", degenerate)
        monkeypatch.setattr(estimators, "cv_phase_matrix_spectral", yw_t_stub)
        cfg = McConfig(model=model1_preset(), L=303, M=5, seed=2)
        rep = run_mc_study(cfg)
        assert rep.failures == {("YW-CV", 1.8): 1, ("YW-T", 1.8): 1}
        assert rep.failure_causes == {
            ("YW-CV", 1.8): {("DegenerateSeriesError", 2): 1},
            ("YW-T", 1.8): {("SolverError", 2): 1},
        }
        assert sum(stats[0].size for stats in rep.stats.values()) == 2 * 12

    def test_stats_are_the_replicate_quantiles(self, monkeypatch):
        """stats[(method, alpha)] is np.median and np.quantile of the
        per-replicate estimates with the failed replicate left out, and
        failures is failure_causes summed per (method, alpha)."""
        original = mc.simulate_par1
        blocks = []

        def degenerate(*args, **kwargs):
            values = original(*args, **kwargs)
            values[1, 0, ::3] = 0.0
            blocks.append(values)
            return values

        monkeypatch.setattr(mc, "simulate_par1", degenerate)
        # YW-T needs L >= 303 with period 3
        cfg = McConfig(model=model1_preset(), L=400, M=5, seed=2)
        rep = run_mc_study(cfg)
        [values] = blocks
        for meth in cfg.methods:
            thetas = []
            for k, path in enumerate(values):
                if k == 1:
                    with pytest.raises(NumericalError):
                        estimators.estimate(MultiTrajectory(path), 3, meth, alpha=1.8)
                else:
                    thetas.append(
                        estimators.estimate(MultiTrajectory(path), 3, meth, alpha=1.8).theta_hat
                    )
            expected = np.stack(
                [np.median(thetas, axis=0), *np.quantile(thetas, [0.05, 0.25, 0.75, 0.95], axis=0)]
            )
            assert np.array_equal(rep.stats[(meth, 1.8)], expected)
        assert rep.failures == {
            key: sum(causes.values()) for key, causes in rep.failure_causes.items()
        }
        assert rep.failures == {("YW-CV", 1.8): 1, ("YW-T", 1.8): 1}


def _record_trajectories(monkeypatch):
    """Capture the trajectory of every replicate in the segments the
    study's YW-CV estimator receives, in row order, and the (alpha, rows)
    of each segment."""
    seen, segments = [], []
    original = mc.estimate_block

    def recording(values, T, method, alpha=None):
        if method == "YW-CV":
            seen.extend(np.array(row) for row in values)
            segments.append((alpha, len(values)))
        return original(values, T, method, alpha=alpha)

    monkeypatch.setattr(mc, "estimate_block", recording)
    return seen, segments


def _degenerate_rows(monkeypatch, rows):
    """Patch the study's simulator: the replicate on ``substream(k, i)``
    for each ``(k, i)`` in ``rows`` loses component 1 on phase 1, which
    fails its estimate."""
    original = mc.simulate_par1

    def degenerate(model, L, streams, *args, **kwargs):
        values = original(model, L, streams, *args, **kwargs)
        for row, rng in zip(values, streams):
            if rng.path in rows:
                row[0, :: model.period] = 0.0
        return values

    monkeypatch.setattr(mc, "simulate_par1", degenerate)


class TestBatchedReplicates:
    @pytest.mark.parametrize("preset", [model1_preset, model2_preset])
    def test_replicate_equals_single_stream_simulation(
        self, monkeypatch, boundedness_calls, preset
    ):
        """Rows run in (alpha, replicate) order in blocks that span alpha
        boundaries, yet replicate i of the k-th alpha is exactly a
        one-stream simulation on substream (k, i).  With the budget at its
        64-row floor, the 134 rows make blocks [0, 64), [64, 128) and
        [128, 134): the second straddles the boundary at row 67, and each
        alpha spans two blocks."""
        monkeypatch.setattr(mc, "BLOCK_VALUES", 1)
        seen, segments = _record_trajectories(monkeypatch)
        M = REPLICATE_BLOCK + 3
        cfg = McConfig(model=preset(), L=40, M=M, alphas=(1.4, 1.9),
                       methods=("YW-CV",), seed=17, burn_in=12)
        run_mc_study(cfg)
        assert len(seen) == 2 * M
        assert segments == [(1.4, 64), (1.4, 3), (1.9, 61), (1.9, 6)]
        # one check per block, of the configured model: it does not read alpha
        assert len(boundedness_calls) == 3
        assert all(model is cfg.model for model in boundedness_calls)
        base = RandomStream(17)
        for k, alpha in enumerate(cfg.alphas):
            model = replace(cfg.model, alpha=alpha)
            for i in range(M):
                expected = one_path(model, 40, base.substream(k, i), burn_in=12)
                assert np.array_equal(seen[k * M + i], expected.values), (k, i)

    def test_default_budget_holds_the_sweep_in_one_block(self, monkeypatch, boundedness_calls):
        """At L 120 the 4 MB budget holds 2**19 // (270 * 2) = 970 model1
        rows, so a 3 x 40 sweep is one block cut into three segments."""
        _, segments = _record_trajectories(monkeypatch)
        run_mc_study(McConfig(model=model1_preset(), L=120, M=40, alphas=(1.2, 1.5, 1.8),
                              methods=("YW-CV",), seed=4))
        assert segments == [(1.2, 40), (1.5, 40), (1.8, 40)]
        assert len(boundedness_calls) == 1

    @pytest.mark.parametrize("budget", [1, mc.BLOCK_VALUES])
    @pytest.mark.parametrize("preset, L, methods, alphas", [
        (model1_preset, 120, ("YW-CV",), (1.1, 1.5, 1.9)),
        (model2_preset, 210, METHODS, (1.4, 1.9)),
    ])
    def test_report_equals_per_alpha_reference(self, monkeypatch, budget, preset, L,
                                               methods, alphas):
        """Stats and failure causes equal the per-alpha loop's exactly, with
        a failing replicate (1, 5) in the block that straddles the first
        alpha boundary (rows [0, 64) at the 64-row floor, one block at the
        default budget)."""
        monkeypatch.setattr(mc, "BLOCK_VALUES", budget)
        _degenerate_rows(monkeypatch, {(1, 5)})
        cfg = McConfig(model=preset(), L=L, M=40, alphas=alphas, methods=methods, seed=9)
        report, reference = run_mc_study(cfg), reference_mc_study(cfg)
        assert list(report.stats) == list(reference.stats)
        for key in reference.stats:
            assert np.array_equal(report.stats[key], reference.stats[key]), key
        assert report.failure_causes == reference.failure_causes
        assert all(report.failures[(meth, alphas[1])] == 1 for meth in methods)

    @pytest.mark.parametrize("budget", [1, mc.BLOCK_VALUES])
    def test_abort_names_the_same_method_and_alpha(self, monkeypatch, budget):
        """8 of 40 failures (20%) at the first alpha pass; 9 at the second
        abort the study, with the per-alpha loop's message, though at the
        64-row floor the second alpha's failures sit in two blocks."""
        monkeypatch.setattr(mc, "BLOCK_VALUES", budget)
        _degenerate_rows(monkeypatch, {(0, i) for i in range(0, 40, 5)}
                         | {(1, i) for i in range(0, 40, 4)[:9]})
        cfg = McConfig(model=model1_preset(), L=120, M=40, alphas=(1.3, 1.6, 1.9),
                       methods=("YW-CV",), seed=12)
        with pytest.raises(NumericalError) as expected:
            reference_mc_study(cfg)
        assert str(expected.value) == (
            "YW-CV failed on 9 of 40 replicates at alpha=1.6; study aborted")
        with pytest.raises(NumericalError) as raised:
            run_mc_study(cfg)
        assert str(raised.value) == str(expected.value)

    def test_unbounded_model_raises_once(self, monkeypatch, boundedness_calls):
        monkeypatch.setattr(mc, "BLOCK_VALUES", 1)  # two 64-row blocks
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
    def test_stats_layout(self, small_report):
        assert list(small_report.stats) == [("YW-CV", 1.8), ("YW-T", 1.8)]
        # one (m, m) matrix per statistic and phase, e.g. YW-CV at v = 2
        stats = small_report.stats[("YW-CV", 1.8)]
        assert stats.shape == (len(STATS), 3, 2, 2)
        assert stats[:, 2 - 1].shape == (len(STATS), 2, 2)

    def test_coefficient_matrix_layout(self, small_report):
        stats = small_report.stats[("YW-T", 1.8)]
        for k, stat in enumerate(STATS):
            mat = small_report.coefficient_matrix("YW-T", 1.8, 1, stat)
            assert np.array_equal(mat, stats[k, 0])
        assert np.array_equal(small_report.coefficient_matrix("YW-T", 1.8, 1), stats[0, 0])
        for method, alpha, v in [("YW-CV", 1.2, 1), ("YW-CV", 1.8, 0), ("YW-CV", 1.8, 4)]:
            with pytest.raises(KeyError):
                small_report.coefficient_matrix(method, alpha, v)

    @pytest.mark.parametrize("method, stat", [("yw-cv", "median"), (" yw_t ", "q95")])
    def test_coefficient_matrix_reads_any_method_spelling(self, small_report, method, stat):
        """Any spelling ``McConfig`` accepts finds its results."""
        stats = small_report.stats[(estimators.method_name(method), 1.8)]
        assert np.array_equal(small_report.coefficient_matrix(method, 1.8, 1, stat),
                              stats[STATS.index(stat), 0])

    def test_coefficient_matrix_unknown_stat_names_the_stats(self, small_report):
        with pytest.raises(KeyError, match=r"unknown stat 'iqr'; choose from \('median'"):
            small_report.coefficient_matrix("YW-CV", 1.8, 1, "iqr")

    def test_csv_layout(self, small_report, tmp_path):
        path = tmp_path / "study.csv"
        small_report.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "method", "alpha", "L", "v", "i", "j", "median", "q05", "q95", "true_value",
        ]
        # alpha outer, then method, then v, i, j
        assert [tuple(r[:6]) for r in rows[1:]] == [
            (meth, "1.8", "400", str(v), str(i), str(j))
            for meth in ("YW-CV", "YW-T")
            for v, i, j in itertools.product((1, 2, 3), (1, 2), (1, 2))
        ]
        # full-precision floats round-trip through the text form
        stats = small_report.stats[("YW-CV", 1.8)]
        assert float(rows[1][6]) == stats[STATS.index("median"), 0, 0, 0]
        assert float(rows[1][9]) == model1_preset().theta[0][0, 0]
