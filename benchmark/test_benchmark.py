"""Fast tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q benchmark

Every workload runs to its end at tiny sizes with its checks passing, and
every check fails on a deliberately corrupted copy of a real output.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import spans
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "mc-spectral": {"L": 1000, "M": 10},
    "mc-moment-sweep": {"L": 1000, "M": 20},
    "fit-predict": {"L": 1000, "n_sims": 100, "n_paths": 1000},
    "estimate-long": {"L": 20_000},
}
SEED = 3


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Each workload, one untraced round at tiny sizes: (result, workdir)."""
    out = {}
    for name in workloads.WORKLOADS:
        workdir = tmp_path_factory.mktemp(name)
        out[name] = workloads.run(name, SEED, 0, False, workdir, TINY[name]), workdir
    return out


def _rewrite(src: Path, dst: Path, edit) -> Path:
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return dst


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_and_passes_its_checks(tiny, name):
    result, _ = tiny[name]
    assert result["correct"], name
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"ops_per_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_and_restores_the_program(tmp_path):
    import stablepar.mc

    original = stablepar.mc.simulate_par1
    spans_path = tmp_path / "spans.json"
    result = workloads.run("mc-moment-sweep", SEED, 0, True, tmp_path,
                           {"L": 1000, "M": 20}, spans_path)
    assert stablepar.mc.simulate_par1 is original
    traced = {name for name, _unit, _src in spans.PER_LAYER} - {"setup.import_s",
                                                                 "setup.first_gof_s"}
    assert set(result["metrics"]) == traced
    m = result["metrics"]
    assert m["par_model.boundedness_calls"]["value"] == 5 * 20
    assert m["par_model.boundedness_useful_ratio"]["value"] == pytest.approx(5 / 100)
    assert m["par_model.simulate_steps"]["value"] == 5 * 20 * (1000 + 150)
    assert m["covariation.spectral_fits"]["value"] == 0
    recorded = json.loads(spans_path.read_text())["spans"]
    assert len(recorded) > 5 * 20 and all(end >= start for *_, start, end in recorded)


def test_benchmark_json_matches_the_metrics_printed():
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _u, _s in spans.PER_LAYER]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        n: u for n, u, _s in spans.PER_LAYER}
    assert {m["name"] for m in SPEC["end_to_end"]} == {"ops_per_s", "peak_rss_mb", "setup_s"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_generator_is_seeded_and_has_the_stable_law():
    a = inputs.simulate(inputs.MODEL1, 300, 5)
    assert np.array_equal(a, inputs.simulate(inputs.MODEL1, 300, 5))
    assert not np.array_equal(a, inputs.simulate(inputs.MODEL1, 300, 6))
    w = inputs.cms_symmetric(1.5, 200_000, np.random.default_rng(0))
    for t in (0.5, 1.0, 2.0):
        assert np.mean(np.cos(t * w)) == pytest.approx(np.exp(-t ** 1.5), abs=0.01)


def test_mc_check_fails_on_corrupted_study(tiny, tmp_path):
    _, workdir = tiny["mc-spectral"]
    study = workdir / "study.csv"
    theta = inputs.MODEL2["theta"]
    args = ((1.8,), ("YW-CV", "YW-T"), 1000)
    assert checks.check_mc_csv(study, theta, *args) == []

    def swap(rows):  # median of theta_13(1) <-> theta_31(1), both methods
        col = rows[0].index("median")
        for meth in ("YW-CV", "YW-T"):
            a, b = (next(r for r in rows if r[0] == meth and r[3:6] == key)
                    for key in (["1", "1", "3"], ["1", "3", "1"]))
            a[col], b[col] = b[col], a[col]

    def misorder(rows):
        rows[1][rows[0].index("q05")] = "9.0"

    assert checks.check_mc_csv(_rewrite(study, tmp_path / "a.csv", swap), theta, *args)
    assert checks.check_mc_csv(_rewrite(study, tmp_path / "b.csv", misorder), theta, *args)
    assert checks.check_mc_csv(_rewrite(study, tmp_path / "c.csv", lambda r: r.pop()),
                               theta, *args)
    wrong = theta.copy()
    wrong[1, 2, 1] += 0.5
    assert checks.check_mc_csv(study, wrong, *args)


def test_fit_predict_checks_fail_on_corrupted_outputs(tiny, tmp_path):
    _, workdir = tiny["fit-predict"]
    obs = inputs.simulate(inputs.MODEL1, 1000, workloads.FIT_PREDICT_DATA_SEED) \
        + inputs.deterministic(1000)
    assert checks.check_bands(obs, workdir / "bands.csv") == []
    assert checks.check_one_step(obs, workdir / "one_step.csv") == []
    assert checks.check_residuals(obs, workdir / "fit") == []

    def shift(rows):  # both band edges moved up by one unit
        for k, name in enumerate(rows[0]):
            if name.endswith(("_q0.1", "_q0.9")):
                for r in rows[1:]:
                    r[k] = repr(float(r[k]) + 1.0)

    assert checks.check_bands(obs, _rewrite(workdir / "bands.csv", tmp_path / "b.csv", shift))
    assert checks.check_one_step(
        obs, _rewrite(workdir / "one_step.csv", tmp_path / "o.csv", shift))

    fit = tmp_path / "fit"
    shutil.copytree(workdir / "fit", fit)

    def swap(rows):  # theta_12(1) <-> theta_21(1)
        rows[1][2], rows[1][3] = rows[1][3], rows[1][2]

    _rewrite(workdir / "fit" / "coefficients.csv", fit / "coefficients.csv", swap)
    assert checks.check_residuals(obs, fit)
    shutil.copy(workdir / "fit" / "coefficients.csv", fit / "coefficients.csv")

    def nudge(rows):
        rows[5][1] = repr(float(rows[5][1]) + 1e-4)

    _rewrite(workdir / "fit" / "residuals.csv", fit / "residuals.csv", nudge)
    assert checks.check_residuals(obs, fit)


def test_estimate_checks_fail_on_corrupted_coefficients(tiny, tmp_path):
    _, workdir = tiny["estimate-long"]
    x = inputs.simulate(inputs.MODEL2, 20_000, SEED)
    theta = inputs.MODEL2["theta"]
    cv = checks.read_coefficients(workdir / "cv.csv")
    assert checks.check_fit(cv, theta, "cv") == []
    assert checks.check_yw_cv_recomputed(x, cv) == []

    swapped = cv.copy()
    swapped[1, 1, 2], swapped[1, 2, 1] = cv[1, 2, 1], cv[1, 1, 2]
    assert checks.check_fit(swapped, theta, "cv")
    assert checks.check_yw_cv_recomputed(x, swapped)
    assert checks.check_yw_cv_recomputed(x, cv + 1e-6)
    wrong = theta.copy()
    wrong[0, 0, 2] -= 0.3
    assert checks.check_fit(checks.read_coefficients(workdir / "t.csv"), wrong, "t")


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "mc-spectral",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
