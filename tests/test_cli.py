"""Command-line workflows end to end, driven through main(argv)."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stablepar
from stablepar.cli import load_config, load_trajectory, main, model_from_config
from stablepar.estimators import EstimationResult
from stablepar.exceptions import DataError
from stablepar.mc import model1_preset
from stablepar.par_model import MultiTrajectory, simulate_par1
from stablepar.rng import RandomStream


@pytest.fixture(scope="module")
def sim_csv(tmp_path_factory):
    """A simulated benchmark trajectory written the way the CLI expects."""
    path = tmp_path_factory.mktemp("data") / "traj.csv"
    traj = simulate_par1(model1_preset(), 1500, RandomStream(60))
    traj.to_csv(path)
    return path


class TestConfigLoading:
    def test_missing_path_is_empty(self):
        assert load_config(None) == {}

    def test_json_and_yaml(self, tmp_path):
        j = tmp_path / "c.json"
        j.write_text('{"period": 3, "seed": 4}')
        y = tmp_path / "c.yaml"
        y.write_text("period: 3\nseed: 4\n")
        assert load_config(str(j)) == load_config(str(y)) == {"period": 3, "seed": 4}

    def test_bad_inputs(self, tmp_path):
        with pytest.raises(DataError):
            load_config(str(tmp_path / "missing.yaml"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(DataError):
            load_config(str(bad))
        scalar = tmp_path / "scalar.yaml"
        scalar.write_text("just a string")
        with pytest.raises(DataError):
            load_config(str(scalar))


class TestModelFromConfig:
    def test_preset_with_alpha_override(self):
        model = model_from_config({"preset": "model1", "alpha": 1.5})
        assert model.alpha == 1.5
        assert model.period == 3

    def test_inline_model(self):
        model = model_from_config(
            {
                "model": {
                    "period": 1,
                    "theta": [[[0.5]]],
                    "alpha": 1.7,
                    "noise": {"points": [[1.0], [-1.0]], "weights": [0.5, 0.5]},
                }
            }
        )
        assert model.dim == 1

    def test_errors(self):
        with pytest.raises(DataError):
            model_from_config({})
        with pytest.raises(DataError):
            model_from_config({"preset": "nope"})
        with pytest.raises(DataError):
            model_from_config({"model": {"period": 1}})


class TestLoadTrajectory:
    def test_standard_layout(self, sim_csv):
        traj = load_trajectory(str(sim_csv))
        assert traj.dim == 2
        assert traj.length == 1500
        assert traj.t0 == 1

    def test_column_mapping(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text(
            "timestamp,volume,price\n"
            "2024-01-01,10.0,1.5\n"
            "2024-01-02,11.0,-0.5\n"
        )
        traj = load_trajectory(str(path), columns="timestamp,price,volume")
        # price becomes component 1, volume component 2; row order indexes time
        assert traj.t0 == 1
        assert np.array_equal(traj.values, [[1.5, -0.5], [10.0, 11.0]])

    def test_errors(self, tmp_path):
        with pytest.raises(DataError):
            load_trajectory(str(tmp_path / "missing.csv"))
        bad_header = tmp_path / "h.csv"
        bad_header.write_text("a,b\n1,2\n")
        with pytest.raises(DataError):
            load_trajectory(str(bad_header))
        hole = tmp_path / "hole.csv"
        hole.write_text("t,x1\n1,1.0\n2,\n")
        with pytest.raises(DataError):
            load_trajectory(str(hole))
        text_cell = tmp_path / "txt.csv"
        text_cell.write_text("t,x1\n1,1.0\n2,oops\n")
        with pytest.raises(DataError):
            load_trajectory(str(text_cell))
        mixed_time = tmp_path / "mixed.csv"
        mixed_time.write_text("t,x1\n1,1.0\ntwo,2.0\n")
        with pytest.raises(DataError):
            load_trajectory(str(mixed_time))


class TestSimulateCommand:
    def test_writes_deterministic_csv(self, tmp_path):
        cfg = tmp_path / "sim.yaml"
        cfg.write_text("preset: model1\nL: 200\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["simulate", "--config", str(cfg), "--seed", "3", "--out"]
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        traj = MultiTrajectory.from_csv(out1)
        assert traj.values.shape == (2, 200)

    def test_missing_length_is_config_error(self, tmp_path):
        cfg = tmp_path / "sim.yaml"
        cfg.write_text("preset: model1\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestEstimateCommand:
    def test_estimates_to_csv(self, sim_csv, tmp_path):
        out = tmp_path / "coef.csv"
        rc = main(["estimate", str(sim_csv), "--period", "3", "--out", str(out)])
        assert rc == 0
        res = EstimationResult.from_csv(out)
        assert res.period == 3
        dev = np.max(np.abs(np.stack(res.theta_hat) - np.stack(model1_preset().theta)))
        assert dev < 0.3

    def test_column_mapping_matches_plain(self, sim_csv, tmp_path):
        # same numbers under a renamed header and explicit mapping
        with open(sim_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[0] = ["when", "load", "temp"]
        mapped = tmp_path / "mapped.csv"
        with open(mapped, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        out1 = tmp_path / "c1.csv"
        out2 = tmp_path / "c2.csv"
        assert main(["estimate", str(sim_csv), "--period", "3", "--out", str(out1)]) == 0
        assert (
            main(
                [
                    "estimate", str(mapped), "--period", "3",
                    "--columns", "when,load,temp", "--out", str(out2),
                ]
            )
            == 0
        )
        assert out1.read_text() == out2.read_text()

    def test_spectral_method_with_alpha(self, sim_csv, tmp_path):
        cfg = tmp_path / "est.yaml"
        cfg.write_text("method: yw-t\nalpha: 1.8\n")
        out = tmp_path / "coef_t.csv"
        rc = main(
            [
                "estimate", str(sim_csv), "--period", "3",
                "--config", str(cfg), "--out", str(out),
            ]
        )
        assert rc == 0
        assert EstimationResult.from_csv(out, method="YW-T").period == 3

    def test_flag_overrides_config(self, sim_csv, tmp_path):
        # config says period 2; the flag must win (period 3 succeeds, and a
        # period-2 run on this data would produce different output)
        cfg = tmp_path / "p.yaml"
        cfg.write_text("period: 2\n")
        out_flag = tmp_path / "flag.csv"
        rc = main(
            [
                "estimate", str(sim_csv), "--period", "3",
                "--config", str(cfg), "--out", str(out_flag),
            ]
        )
        assert rc == 0
        assert EstimationResult.from_csv(out_flag).period == 3

    def test_too_short_series_exits_2(self, tmp_path):
        short = tmp_path / "short.csv"
        MultiTrajectory(values=np.ones((1, 8)) + np.arange(8)).to_csv(short)
        rc = main(["estimate", str(short), "--period", "3", "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_non_consecutive_timestamps_exit_2(self, tmp_path, capsys):
        # one gap and two swapped rows: loading it as contiguous would
        # misalign every phase
        gapped = tmp_path / "gapped.csv"
        gapped.write_text("t,x1\n1,0.5\n2,-1.0\n10,0.3\n9,0.2\n11,1.1\n")
        rc = main(["estimate", str(gapped), "--period", "1", "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "consecutive" in capsys.readouterr().err

    def test_degenerate_series_exits_3(self, tmp_path):
        vals = RandomStream(61).generator().normal(size=(1, 60))
        vals[0, ::2] = 0.0  # phase 1 identically zero
        bad = tmp_path / "deg.csv"
        MultiTrajectory(values=vals).to_csv(bad)
        rc = main(["estimate", str(bad), "--period", "2", "--out", str(tmp_path / "o.csv")])
        assert rc == 3


class TestMcStudyCommand:
    def test_runs_and_writes_long_format(self, tmp_path):
        cfg = tmp_path / "mc.yaml"
        cfg.write_text(
            "preset: model1\nL: 120\nM: 3\nmethods: [YW-CV]\nseed: 9\n"
        )
        out = tmp_path / "study.csv"
        rc = main(["mc-study", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["method", "alpha", "L", "v"]
        assert len(rows) == 1 + 12


@pytest.fixture(scope="module")
def fit_outputs(sim_csv, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("fit")
    cfg = out_dir / "fit.yaml"
    cfg.write_text("n_sims: 100\n")
    rc = main(
        [
            "fit", str(sim_csv), "--period", "3", "--seed", "1",
            "--config", str(cfg), "--out", str(out_dir / "artifacts"),
        ]
    )
    return rc, out_dir / "artifacts"


class TestFitFamily:
    def test_fit_writes_artifact_set(self, fit_outputs):
        rc, art = fit_outputs
        assert rc == 0
        expected = {
            "coefficients.csv", "diagnostics.csv", "ncv.csv",
            "residuals.csv", "model.json", "deterministic.json",
        }
        assert {p.name for p in art.iterdir()} == expected
        model = json.loads((art / "model.json").read_text())
        assert model["period"] == 3
        det = json.loads((art / "deterministic.json").read_text())
        assert len(det["periodic_mean"][0]) == 3

    def test_quantile_lines_command(self, sim_csv, tmp_path):
        cfg = tmp_path / "q.yaml"
        cfg.write_text("n_sims: 100\nn_paths: 300\nquantiles: [0.1, 0.9]\n")
        out = tmp_path / "lines.csv"
        rc = main(
            [
                "quantile-lines", str(sim_csv), "--period", "3", "--seed", "1",
                "--config", str(cfg), "--out", str(out),
            ]
        )
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "t,x1_q0.1,x1_q0.9,x2_q0.1,x2_q0.9"
        assert len(rows) == 1 + 1500

    def test_one_step_command(self, sim_csv, tmp_path):
        cfg = tmp_path / "o.yaml"
        cfg.write_text("n_sims: 100\nn_paths: 300\nquantiles: [0.25, 0.75]\n")
        out = tmp_path / "onestep.csv"
        rc = main(
            [
                "one-step", str(sim_csv), "--period", "3", "--seed", "1",
                "--config", str(cfg), "--out", str(out),
            ]
        )
        assert rc == 0
        rows = out.read_text().splitlines()
        # one-step predictions start at the second observation
        assert len(rows) == 1 + 1499
        assert rows[1].startswith("2,")

    def test_unbounded_fit_exits_3(self, tmp_path):
        """An explosive series fits Theta-hat > 1.  Marginal bands do not
        exist and exit 3 instead of returning huge or overflowing lines;
        one-step bands condition on the observed state and still exist."""
        gen = RandomStream(65).generator()
        x = np.zeros((1, 250))
        for k in range(1, 250):
            x[0, k] = 1.2 * x[0, k - 1] + gen.standard_normal()
        data = tmp_path / "explosive.csv"
        MultiTrajectory(values=x).to_csv(data)
        for cmd, code in (("quantile-lines", 3), ("one-step", 0)):
            out = tmp_path / f"{cmd}.csv"
            assert main([cmd, str(data), "--period", "1", "--out", str(out)]) == code

    def test_missing_input_exits_2(self, tmp_path):
        rc = main(
            ["fit", str(tmp_path / "none.csv"), "--period", "3",
             "--out", str(tmp_path / "a")]
        )
        assert rc == 2


def test_cli_import_loads_no_scipy():
    """scipy is imported on first use only, so starting the CLI does not
    pay for it."""
    src = str(Path(stablepar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys, stablepar.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
