"""Command-line surface for the package.

Subcommands cover the whole workflow: ``simulate`` a configured model to
a trajectory CSV, ``estimate`` coefficients from a trajectory,
``mc-study`` for replicated benchmarking, and the raw-data trio ``fit``,
``quantile-lines``, ``one-step``.  Options may come from flags or a
JSON/YAML config file; flags win.  Exit codes: 0 success, 2 data
problems (unreadable/malformed input, too-short series), 3 numerical
failure (degenerate systems, estimation breakdown).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from .estimators import METHODS, estimate, method_name
from .estimators import yw_cv_estimate, yw_t_estimate  # unused here; the benchmark tracer patches these names
from .exceptions import DataError, NumericalError
from .mc import STATS, McConfig, model1_preset, model2_preset, run_mc_study
from .par_model import MultiTrajectory, ParModel, simulate_par1
from .pipeline import (
    fit_model,
    fit_par1,
    one_step_quantiles,
    simulate_quantile_lines,
)
from .rng import RandomStream

PRESETS = {"model1": model1_preset, "model2": model2_preset}

CONFIG_DEFAULTS = {
    "period": None,
    "method": "yw-cv",
    "alpha": None,
    "burn_in": None,
    "seed": 0,
    "quantiles": (0.1, 0.5, 0.9),
    "h_max": 10,
    "n_sims": 1000,
    "alphas": (),
    "methods": METHODS,
}


def load_config(path: str | None) -> dict:
    """Read a JSON or YAML key-value document (empty dict when no path)."""
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise DataError(f"config file not found: {path}")
    text = p.read_text()
    try:
        if p.suffix.lower() == ".json":
            cfg = json.loads(text)
        else:
            cfg = yaml.safe_load(text)
    except (json.JSONDecodeError, yaml.YAMLError) as exc:
        raise DataError(f"cannot parse config {path}: {exc}") from None
    if cfg is None:
        return {}
    if not isinstance(cfg, dict):
        raise DataError(f"config {path} must be a key-value document")
    return cfg


def _setting(config: dict, key: str, kind, flag=None, required: bool = False):
    """Flag > config > default resolution for one setting, read by ``kind``.

    A key whose default is a tuple takes a list, read item by item.  A
    missing required setting, or a value of the wrong type, is a
    ``DataError`` that names the key.
    """
    value = flag if flag is not None else config.get(key)
    if value is None:
        value = CONFIG_DEFAULTS.get(key)
    if value is None:
        if required:
            raise DataError(f"setting {key!r} is required (flag or config)")
        return None
    try:
        if not isinstance(CONFIG_DEFAULTS.get(key), tuple):
            return _read_value(value, kind)
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(_read_value(v, kind) for v in value)
    except (TypeError, ValueError) as exc:
        raise DataError(f"config key {key!r}: {exc}") from None


def _read_value(value, kind):
    """One value read by ``kind``, refusing what ``kind`` would silently
    coerce: a boolean (``int(True)`` is 1) and a fractional integer
    (``int`` would truncate it)."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number or a name, got the boolean {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return kind(value)


# The one trajectory reader; every command reads through this name.
load_trajectory = MultiTrajectory.from_csv


def model_from_config(config: dict) -> ParModel:
    if "preset" in config:
        name = str(config["preset"]).lower()
        if name not in PRESETS:
            raise DataError(
                f"unknown preset {config['preset']!r}; choose from {sorted(PRESETS)}"
            )
        model = PRESETS[name]()
        alpha = _setting(config, "alpha", float)
        return model if alpha is None else replace(model, alpha=alpha)
    if "model" in config:
        try:
            return ParModel.from_dict(config["model"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad model description: {exc}") from None
    raise DataError("config must provide either 'preset' or 'model'")


def cmd_simulate(args, config: dict) -> int:
    model = model_from_config(config)
    L = _setting(config, "L", int, required=True)
    seed = _setting(config, "seed", int, args.seed)
    burn_in = _setting(config, "burn_in", int)
    traj = MultiTrajectory(simulate_par1(model, L, [RandomStream(seed)], burn_in=burn_in)[0])
    traj.to_csv(args.out)
    print(f"wrote {traj.dim}x{traj.length} trajectory to {args.out}")
    return 0


def cmd_estimate(args, config: dict) -> int:
    traj, T, method, alpha = _fit_inputs(args, config)
    result = estimate(traj, T, method, alpha=alpha)
    result.to_csv(args.out)
    extra = f" (alpha {result.alpha_used:.4f})" if result.alpha_used else ""
    print(f"wrote {T * traj.dim * traj.dim} coefficients to {args.out}{extra}")
    return 0


def cmd_mc_study(args, config: dict) -> int:
    model = model_from_config(config)
    cfg = McConfig(
        model=model,
        L=_setting(config, "L", int, required=True),
        M=_setting(config, "M", int, required=True),
        alphas=_setting(config, "alphas", float),
        methods=_setting(config, "methods", method_name),
        seed=_setting(config, "seed", int, args.seed),
        burn_in=_setting(config, "burn_in", int),
    )
    report = run_mc_study(cfg)
    report.to_csv(args.out)
    _print_mc_summary(report)
    n_fail = sum(report.failures.values())
    n_cells = sum(stats[0].size for stats in report.stats.values())
    print(
        f"wrote {n_cells} cells to {args.out}"
        + (f" ({n_fail} failed replicates excluded)" if n_fail else "")
    )
    return 0


def _print_mc_summary(report) -> None:
    """One row per (method, alpha): the worst |median - true| and the mean
    interquartile range over all coefficients, and the failed replicates."""
    print(f"{'method':8s} {'alpha':>5s} {'worst |median-true|':>20s} "
          f"{'mean IQR':>9s} {'failures':>8s}")
    true = np.stack(report.config.model.theta)
    median, q25, q75 = (STATS.index(stat) for stat in ("median", "q25", "q75"))
    for method in report.config.methods:
        for alpha in map(float, report.config.alphas):
            stats = report.stats[(method, alpha)]
            worst = np.max(np.abs(stats[median] - true))
            mean_iqr = np.mean(stats[q75] - stats[q25])
            print(f"{method:8s} {str(alpha):>5s} {worst:20.4f} {mean_iqr:9.4f} "
                  f"{report.failures[(method, alpha)]:8d}")


def _fit_inputs(args, config: dict):
    """Trajectory plus the model-fit arguments of every command that reads one."""
    traj = load_trajectory(args.input, args.columns)
    T = _setting(config, "period", int, args.period, required=True)
    method = _setting(config, "method", method_name, args.method)
    return traj, T, method, _setting(config, "alpha", float)


def cmd_fit(args, config: dict) -> int:
    traj, T, method, alpha = _fit_inputs(args, config)
    seed = _setting(config, "seed", int, args.seed)
    fit = fit_par1(
        traj, T, method=method, alpha=alpha,
        h_max=_setting(config, "h_max", int),
        n_sims=_setting(config, "n_sims", int),
        rng=RandomStream(seed, (101,)),
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    fit.estimate.to_csv(out_dir / "coefficients.csv")
    fit.diagnostics.to_csv(out_dir / "diagnostics.csv")
    fit.diagnostics.ncv_to_csv(out_dir / "ncv.csv")
    fit.residuals.to_csv(out_dir / "residuals.csv")
    (out_dir / "model.json").write_text(json.dumps(fit.model.to_dict(), indent=2))
    (out_dir / "deterministic.json").write_text(
        json.dumps(fit.deterministic.to_dict(), indent=2)
    )
    for name, p_val, alpha_hat in fit.diagnostics.table_rows():
        print(f"{name}: alpha {alpha_hat}, A-D p-value {p_val}")
    print(f"wrote fit artifacts to {out_dir}/")
    return 0


def cmd_quantile_lines(args, config: dict) -> int:
    traj, T, method, alpha = _fit_inputs(args, config)
    q_list = _setting(config, "quantiles", float)
    fit = fit_model(traj, T, method=method, alpha=alpha)
    lines = simulate_quantile_lines(
        fit.model, fit.deterministic, q_list=q_list, L=traj.length, t0=traj.t0
    )
    lines.to_csv(args.out)
    print(f"wrote quantile lines ({lines.quantiles}) to {args.out}")
    return 0


def cmd_one_step(args, config: dict) -> int:
    traj, T, method, alpha = _fit_inputs(args, config)
    q_list = _setting(config, "quantiles", float)
    fit = fit_model(traj, T, method=method, alpha=alpha)
    lines = one_step_quantiles(fit.model, fit.deterministic, traj, q_list=q_list)
    lines.to_csv(args.out)
    print(f"wrote one-step quantiles ({lines.quantiles}) to {args.out}")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "mc-study": cmd_mc_study,
    "fit": cmd_fit,
    "quantile-lines": cmd_quantile_lines,
    "one-step": cmd_one_step,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablepar",
        description="Periodic autoregressions with symmetric alpha-stable noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input: bool):
        if needs_input:
            p.add_argument("input", help="trajectory CSV (header t,x1,...,xm)")
            p.add_argument(
                "--columns",
                help="map a different CSV layout: time column first, then "
                "value columns in order (e.g. timestamp,price,volume)",
            )
            p.add_argument("--period", type=int, help="period T of the model")
            p.add_argument("--method", help="estimation method: yw-cv or yw-t")
        p.add_argument("--seed", type=int, help="base random seed")
        p.add_argument("--out", required=True, help="output file (or directory for fit)")
        p.add_argument("--config", help="JSON or YAML config file")

    common(sub.add_parser("simulate", help="model config -> trajectory CSV"), False)
    common(sub.add_parser("estimate", help="trajectory CSV -> coefficient CSV"), True)
    common(sub.add_parser("mc-study", help="replicated study -> long-format CSV"), False)
    common(sub.add_parser("fit", help="raw CSV -> coefficients + diagnostics + residuals"), True)
    common(sub.add_parser("quantile-lines", help="raw CSV -> fitted quantile-band CSV"), True)
    common(sub.add_parser("one-step", help="raw CSV -> one-step-ahead quantile CSV"), True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        return COMMANDS[args.command](args, config)
    except (DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
