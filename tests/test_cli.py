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
from stablepar.mc import McConfig, model1_preset, model2_preset, run_mc_study
from stablepar.par_model import MultiTrajectory
from stablepar.rng import RandomStream

from oracles import one_path


@pytest.fixture(scope="module")
def sim_csv(tmp_path_factory):
    """A simulated benchmark trajectory written the way the CLI expects."""
    path = tmp_path_factory.mktemp("data") / "traj.csv"
    traj = one_path(model1_preset(), 1500, RandomStream(60))
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

    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("simulate", "preset: model1\nL: 60\nburn_in: [1]\n", "burn_in"),
            ("mc-study", "preset: model1\nL: 60\nM: 2\nalphas: 1.5\n", "alphas"),
            ("mc-study", "preset: model1\nL: 60\nM: 2\nmethods: YW-CV\n", "methods"),
            ("quantile-lines", "quantiles: 0.5\n", "quantiles"),
            ("mc-study", "preset: model1\nL: 60\nM: 2\nmethods: [nope]\n", "methods"),
        ],
        ids=["burn_in", "alphas", "methods", "quantiles", "methods-item"],
    )
    def test_wrong_type_config_value_names_key(
        self, sim_csv, tmp_path, capsys, command, config, key
    ):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(config)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]
        if command == "quantile-lines":
            argv += [str(sim_csv), "--period", "3"]
        assert main(argv) == 2
        assert f"config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("simulate", "preset: model1\nL: 100.7\n", "L"),
            ("fit", "period: 3\nn_sims: 200.5\n", "n_sims"),
        ],
        ids=["L", "n_sims"],
    )
    def test_fractional_integer_setting_names_key(
        self, sim_csv, tmp_path, capsys, command, config, key
    ):
        """An integer setting is never truncated: 100.7 rows is an error."""
        cfg = tmp_path / "c.yaml"
        cfg.write_text(config)
        out = tmp_path / "o"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "fit":
            argv.insert(1, str(sim_csv))
        assert main(argv) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("simulate", "preset: model1\nL: 60\nseed: true\n", "seed"),
            ("simulate", "preset: model1\nL: 60\nalpha: no\n", "alpha"),
            ("quantile-lines", "quantiles: [0.5, true]\n", "quantiles"),
        ],
        ids=["seed", "alpha", "quantiles-item"],
    )
    def test_boolean_setting_names_key(
        self, sim_csv, tmp_path, capsys, command, config, key
    ):
        """A YAML boolean is not read as 0 or 1: ``seed: true`` is an error,
        for a scalar key and for a list item alike."""
        cfg = tmp_path / "c.yaml"
        cfg.write_text(config)
        out = tmp_path / "o.csv"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "quantile-lines":
            argv += [str(sim_csv), "--period", "3"]
        assert main(argv) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_setting_is_accepted(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("preset: model1\nL: 60.0\n")
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert MultiTrajectory.from_csv(out).length == 60


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
        for name, text in [
            ("short.csv", "t,x1,x2\n1,1.0,2.0\n2,1.5\n"),
            ("nan.csv", "t,x1\n1,1.0\n2,nan\n"),
            ("inf.csv", "t,x1\n1,inf\n2,1.0\n"),
            ("blank_label.csv", "t,x1\nday1,1.0\n,2.0\n"),
            ("comment.csv", "t,x1\n1,1.0\n# note\n2,2.0\n"),
        ]:
            (tmp_path / name).write_text(text)
            with pytest.raises(DataError):
                load_trajectory(str(tmp_path / name))

    @pytest.mark.parametrize(
        "raw",
        [
            b"t,x1,x2\n\n1,1.0,-2.0\n   \n,,\n \t, ,\n2,0.5,3.0\n\n",
            b'"t","x1","x2"\n"1","1.0"," -2.0 "\n"2","0.5","3.0"\n',
            b"t,x1,x2\r\n1,1.0,-2.0\r\n2,0.5,3.0\r\n",
            b"t,x1,x2\n1,1.0,-2.0,7\n2,0.5,3.0,8,9\n",
        ],
        ids=["blank-rows", "quoted", "crlf", "extra-cells"],
    )
    def test_accepted_layouts(self, tmp_path, raw):
        path = tmp_path / "in.csv"
        path.write_bytes(raw)
        traj = load_trajectory(str(path))
        assert traj.t0 == 1
        assert np.array_equal(traj.values, [[1.0, 0.5], [-2.0, 3.0]])

    @pytest.mark.parametrize("columns", [None, "t,x2,x1"], ids=["default", "columns"])
    def test_byte_order_mark_is_skipped(self, tmp_path, columns):
        """Excel's "CSV UTF-8" files start with a UTF-8 byte-order mark."""
        text = b"t,x1,x2\n1,1.0,-2.0\n2,0.5,3.0\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        want = load_trajectory(str(plain), columns=columns)
        got = load_trajectory(str(marked), columns=columns)
        assert got.t0 == want.t0
        assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize(
        "raw", [b"t,x\xe9\n1,1.0\n", b"t,x1\n1,1.0\n2,1\xe9\n"], ids=["header", "row"]
    )
    def test_latin1_byte_is_a_data_error_naming_the_file(self, tmp_path, raw):
        path = tmp_path / "latin1.csv"
        path.write_bytes(raw)
        with pytest.raises(DataError, match=r"latin1\.csv: not UTF-8 text"):
            load_trajectory(str(path))

    @pytest.mark.parametrize(
        "text, line",
        [
            ("t,x1\n1,1.0\n\n   \n2,abc\n", 5),
            ("t,x1\n\n1,abc\n2,1.0\n", 3),
            ("t,x1,x2\n1,1.0,2.0\n,,\n\n2,1.5\n3,1.0,2.0\n", 5),
        ],
        ids=["text-cell", "first-row", "short-row"],
    )
    def test_malformed_row_names_its_file_line(self, tmp_path, text, line):
        """Blank rows are skipped but counted: the message names the bad
        row's 1-based line in the file, not its index among the rows."""
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=rf"bad\.csv: malformed data row on line {line} \(") as exc:
            load_trajectory(str(path))
        assert "at row" not in str(exc.value)


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


@pytest.mark.parametrize("command", ["simulate", "mc-study"])
@pytest.mark.parametrize("flag", [["--period", "7"], ["--method", "yw-t"]])
def test_commands_without_a_fit_refuse_fit_flags(tmp_path, command, flag):
    """simulate and mc-study read neither flag, so they do not take it."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text("preset: model1\nL: 120\nM: 2\nmethods: [YW-CV]\n")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")] + flag
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "o.csv").exists()


class TestEstimateCommand:
    def test_estimates_to_csv(self, sim_csv, tmp_path):
        out = tmp_path / "coef.csv"
        rc = main(["estimate", str(sim_csv), "--period", "3", "--out", str(out)])
        assert rc == 0
        res = EstimationResult.from_csv(out)
        assert res.period == 3
        dev = np.max(np.abs(np.stack(res.theta_hat) - np.stack(model1_preset().theta)))
        assert dev < 0.3

    def test_time_column_anchors_the_phase(self, tmp_path):
        """A series whose t starts at 2 is estimated by its true phases."""
        model = model1_preset()
        values = one_path(model, 30_000, RandomStream(1)).values
        path = tmp_path / "from2.csv"
        MultiTrajectory(values=values[:, 1:], t0=2).to_csv(path)
        out = tmp_path / "coef.csv"
        assert main(["estimate", str(path), "--period", "3", "--out", str(out)]) == 0
        res = EstimationResult.from_csv(out)
        for v in range(1, 4):
            assert np.max(np.abs(res.theta_hat[v - 1] - model.theta[v - 1])) < 0.1, v

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

    def test_method_flag_reads_any_spelling(self, sim_csv, tmp_path):
        """``--method`` is read as the ``method`` key is: YW_T is yw-t."""
        cfg = tmp_path / "est.yaml"
        cfg.write_text("alpha: 1.8\n")
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for spelling, out in zip(["yw-t", "YW_T"], outs):
            argv = ["estimate", str(sim_csv), "--period", "3", "--method", spelling,
                    "--config", str(cfg), "--out", str(out)]
            assert main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_unknown_method_flag_names_key(self, sim_csv, tmp_path, capsys):
        argv = ["estimate", str(sim_csv), "--period", "3", "--method", "nope",
                "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 2
        assert "config key 'method'" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "text, library, n_cells",
        [
            # YW-T needs 100 observations per phase: L >= 202 on model2
            ("preset: model2\nL: 202\nM: 3\nalphas: [1.5, 1.8]\nseed: 5\n",
             McConfig(model2_preset(), 202, 3, alphas=(1.5, 1.8), seed=5), 72),
            # alphas that agree to one decimal place keep their own labels
            ("preset: model1\nL: 120\nM: 3\nalphas: [1.15, 1.2, 1.25]\n"
             "methods: [YW-CV]\nseed: 5\n",
             McConfig(model1_preset(), 120, 3, alphas=(1.15, 1.2, 1.25),
                      methods=("YW-CV",), seed=5), 36),
            # method names in either spelling; YW-T needs L >= 303 on model1
            ("preset: model1\nL: 303\nM: 2\nmethods: [yw-cv, yw_t]\nseed: 4\n",
             McConfig(model1_preset(), 303, 2, methods=("YW-CV", "YW-T"), seed=4), 24),
        ],
        ids=["model2", "two-decimal-alphas", "method-spellings"],
    )
    def test_matches_the_library_study_and_prints_its_summary(
        self, tmp_path, capsys, text, library, n_cells
    ):
        cfg = tmp_path / "mc.yaml"
        cfg.write_text(text)
        out = tmp_path / "study.csv"
        assert main(["mc-study", "--config", str(cfg), "--out", str(out)]) == 0
        report = run_mc_study(library)
        report.to_csv(tmp_path / "library.csv")
        assert out.read_bytes() == (tmp_path / "library.csv").read_bytes()

        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == [
            "method", "alpha", "worst", "|median-true|", "mean", "IQR", "failures"
        ]
        assert lines[-1].startswith(f"wrote {n_cells} cells")
        rows = [line.split() for line in lines[1:-1]]
        expected = [(meth, alpha) for meth in library.methods for alpha in library.alphas]
        assert [(r[0], float(r[1])) for r in rows] == expected
        for (meth, alpha), row in zip(expected, rows):
            phases = range(1, library.model.period + 1)
            errors = [report.coefficient_matrix(meth, alpha, v) - library.model.theta[v - 1]
                      for v in phases]
            iqrs = [report.coefficient_matrix(meth, alpha, v, "q75")
                    - report.coefficient_matrix(meth, alpha, v, "q25") for v in phases]
            assert float(row[2]) == pytest.approx(np.max(np.abs(errors)), abs=5e-5)
            assert float(row[3]) == pytest.approx(np.mean(iqrs), abs=5e-5)
            assert int(row[4]) == report.failures[(meth, alpha)]


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

    def test_fit_below_the_quantile_floor_exits_2(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        one_path(model1_preset(), 12, RandomStream(0)).to_csv(short)
        rc = main(["fit", str(short), "--period", "3", "--out", str(tmp_path / "a")])
        assert rc == 2
        assert "(L >= 101), got L = 12" in capsys.readouterr().err

    def test_fit_below_the_diagnostic_floor_exits_2(self, sim_csv, tmp_path, capsys):
        """150 rows clear the quantile floor but leave 149 residuals, below
        the 200 the diagnostics screen: exit 2 with no artifacts."""
        short = tmp_path / "short.csv"
        short.write_text("\n".join(sim_csv.read_text().splitlines()[:151]) + "\n")
        out = tmp_path / "a"
        rc = main(["fit", str(short), "--period", "3", "--out", str(out)])
        assert rc == 2
        assert "(L >= 201), got L = 150" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("h_max", [-1, 5000])
    def test_out_of_range_h_max_exits_2(self, sim_csv, tmp_path, capsys, h_max):
        """1500 rows leave 1499 residuals: an h_max outside [0, 1498]
        exits 2 before the fit, with no artifacts."""
        cfg = tmp_path / "h.yaml"
        cfg.write_text(f"h_max: {h_max}\n")
        out = tmp_path / "a"
        rc = main(["fit", str(sim_csv), "--period", "3", "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"h_max must lie in [0, 1498] for 1499 residuals, got {h_max}" in err
        assert not out.exists()

    def test_too_few_bootstrap_simulations_exit_2(self, sim_csv, tmp_path, capsys):
        """An n_sims below the bootstrap floor exits 2 before the fit,
        with no artifacts."""
        cfg = tmp_path / "n.yaml"
        cfg.write_text("n_sims: 50\n")
        out = tmp_path / "a"
        rc = main(["fit", str(sim_csv), "--period", "3", "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 2
        assert "need at least 100 bootstrap simulations, got 50" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_quantile_order_exits_2(self, sim_csv, tmp_path, capsys):
        cfg = tmp_path / "q.yaml"
        cfg.write_text("quantiles: [0.9, 0.5, 0.9]\n")
        for cmd in ("one-step", "quantile-lines"):
            out = tmp_path / f"{cmd}.csv"
            rc = main([cmd, str(sim_csv), "--period", "3",
                       "--config", str(cfg), "--out", str(out)])
            assert rc == 2
            assert "quantile order 0.9 is given more than once" in capsys.readouterr().err
            assert not out.exists()

    def test_missing_input_exits_2(self, tmp_path):
        rc = main(
            ["fit", str(tmp_path / "none.csv"), "--period", "3",
             "--out", str(tmp_path / "a")]
        )
        assert rc == 2


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter on this package."""
    src = str(Path(stablepar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_cli_import_loads_no_scipy():
    """scipy is imported on first use only, so starting the CLI does not
    pay for it."""
    code = ("import sys, stablepar.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code) == "[]"


def test_cdf_quantile_and_gof_load_no_scipy_integrate():
    """The distribution function, its quantiles and the goodness-of-fit
    table all run on the package's own inversion rule."""
    code = (
        "import sys, numpy as np\n"
        "from stablepar import (RandomStream, StableParams, ad_stable_test,\n"
        "                       stable_cdf, stable_quantile)\n"
        "p = StableParams(1.5, 1.0)\n"
        "stable_cdf(p, np.linspace(-60.0, 60.0, 11)); stable_quantile(p, 0.9)\n"
        "x = np.random.default_rng(0).standard_cauchy(200)\n"
        "ad_stable_test(x, n_sims=100, rng=RandomStream(1))\n"
        "print('scipy.integrate' in sys.modules)"
    )
    assert _fresh_python(code) == "False"


def test_quantile_functionals_loads_no_scipy():
    """nu(alpha) and c(alpha) are built from the package's own inversion
    rule: building them and fitting a sample imports no scipy module."""
    code = (
        "import sys, numpy as np\n"
        "from stablepar.stable import _quantile_functionals, mcculloch_estimate\n"
        "_quantile_functionals()\n"
        "mcculloch_estimate(np.random.default_rng(0).standard_cauchy(200))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _fresh_python(code) == "[]"
