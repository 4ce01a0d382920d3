"""One benchmark workload, run in its own process with ``src`` on the path.

    python benchmark/workloads.py --workload NAME --seed N --seconds S
        --trace 0|1 --workdir DIR [--spans FILE]

Prepares the workload's inputs, then repeats whole rounds of its
operations until the timed rounds fill ``--seconds`` (at least one
round), checking every round's outputs outside the timed region.  The
calibration kernel runs at every gap between timed operations.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: ``ops_per_s`` (scaled to the
reference speed, see ``calibration.py``) and ``peak_rss_mb`` untraced,
the traced per-layer metrics (unscaled seconds) with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibration
import checks
import inputs
from spans import Tracer

#: Input seed of fit-predict.  The wide sampler's cost grows with the atom
#: count of the noise measure fitted to the data (8 to 16 atoms over seeds
#: 0-11), so the series is the same for every run; ``--seed`` still sets
#: the CLI's bootstrap and path seeds.
FIT_PREDICT_DATA_SEED = 0

MC_ALPHAS = (1.1, 1.3, 1.5, 1.7, 1.9)

#: Benchmark sizes.  The fast tests pass smaller ones.
SIZES = {
    "mc-spectral": {"L": 1000, "M": 40},
    "mc-moment-sweep": {"L": 1000, "M": 40},
    # Below the CLI defaults (n_sims 1000, n_paths 5000), whose single
    # 17-second round per run drifted with the machine: see README.
    "fit-predict": {"L": 3000, "n_sims": 200, "n_paths": 1000},
    "estimate-long": {"L": 100_000},
}


class Workload:
    """Inputs, one round of operations and its checks.  ``round`` returns
    ``(attempted, failed, output)``, the output ``None`` when there is
    nothing to check; ``check`` returns a list of problems."""

    def __init__(self, workdir: Path, seed: int, sizes: dict, span):
        self.workdir, self.seed, self.sizes, self.span = workdir, seed, sizes, span
        self.busy_s = 0.0  # time inside timed operations
        self.kernel_s = calibration.samples()

    @contextlib.contextmanager
    def timed(self, name: str):
        """Time one operation (as span ``name`` when tracing), then calibrate."""
        with self.span(name):
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.busy_s += time.perf_counter() - t0
        self.kernel_s += calibration.samples()


class McWorkload(Workload):
    """``run_mc_study`` + ``McReport.to_csv``, as ``stablepar mc-study`` runs them."""

    preset, model, alphas, methods = None, None, None, None

    def round(self):
        from stablepar import mc
        from stablepar.exceptions import StableParError

        cfg = mc.McConfig(
            model=getattr(mc, self.preset)(), L=self.sizes["L"], M=self.sizes["M"],
            alphas=self.alphas, methods=self.methods, seed=self.seed,
        )
        attempted = cfg.M * len(cfg.alphas) * len(cfg.methods)
        out = self.workdir / "study.csv"
        with self.timed("cmd.mc_study"):
            try:
                with self.span("mc.run_mc_study"):
                    report = mc.run_mc_study(cfg)
            except StableParError:
                report = None
            else:
                report.to_csv(out)
        if report is None:
            return attempted, attempted, None
        return attempted, sum(report.failures.values()), out

    def check(self, out):
        return checks.check_mc_csv(out, self.model["theta"], self.alphas,
                                   self.methods, self.sizes["L"])


class McSpectral(McWorkload):
    preset, model, alphas, methods = "model2_preset", inputs.MODEL2, (1.8,), ("YW-CV", "YW-T")


class McMomentSweep(McWorkload):
    preset, model, alphas, methods = "model1_preset", inputs.MODEL1, MC_ALPHAS, ("YW-CV",)


class CliWorkload(Workload):
    """CLI commands on one generated CSV; a non-zero exit is a failed operation."""

    def run_commands(self, commands):
        from stablepar.cli import main

        failed = 0
        for span_name, argv in commands:
            with self.timed(span_name):
                failed += main(argv) != 0
        return len(commands), failed


class FitPredict(CliWorkload):
    def __init__(self, *args):
        super().__init__(*args)
        L = self.sizes["L"]
        self.obs = (inputs.simulate(inputs.MODEL1, L, FIT_PREDICT_DATA_SEED)
                    + inputs.deterministic(L))
        self.csv = self.workdir / "observed.csv"
        inputs.write_csv(self.csv, self.obs)
        self.config = self.workdir / "sizes.json"
        self.config.write_text(json.dumps({k: self.sizes[k] for k in ("n_sims", "n_paths")}))

    def round(self):
        w = self.workdir
        common = [str(self.csv), "--period", "3", "--seed", str(self.seed),
                  "--config", str(self.config)]
        attempted, failed = self.run_commands([
            ("cmd.fit", ["fit", *common, "--out", str(w / "fit")]),
            ("cmd.quantile_lines", ["quantile-lines", *common, "--out", str(w / "bands.csv")]),
            ("cmd.one_step", ["one-step", *common, "--out", str(w / "one_step.csv")]),
        ])
        return attempted, failed, None if failed else w

    def check(self, w):
        return (checks.check_residuals(self.obs, w / "fit")
                + checks.check_bands(self.obs, w / "bands.csv")
                + checks.check_one_step(self.obs, w / "one_step.csv"))


class EstimateLong(CliWorkload):
    def __init__(self, *args):
        super().__init__(*args)
        self.x = inputs.simulate(inputs.MODEL2, self.sizes["L"], self.seed)
        self.csv = self.workdir / "long.csv"
        inputs.write_csv(self.csv, self.x)

    def round(self):
        w, common = self.workdir, ["estimate", str(self.csv), "--period", "2"]
        attempted, failed = self.run_commands([
            ("cmd.estimate_cv", [*common, "--method", "yw-cv", "--out", str(w / "cv.csv")]),
            ("cmd.estimate_t", [*common, "--method", "yw-t", "--out", str(w / "t.csv")]),
        ])
        return attempted, failed, None if failed else w

    def check(self, w):
        theta = inputs.MODEL2["theta"]
        cv = checks.read_coefficients(w / "cv.csv")
        return (checks.check_fit(cv, theta, "yw-cv")
                + checks.check_yw_cv_recomputed(self.x, cv)
                + checks.check_fit(checks.read_coefficients(w / "t.csv"), theta, "yw-t"))


WORKLOADS = {
    "mc-spectral": McSpectral,
    "mc-moment-sweep": McMomentSweep,
    "fit-predict": FitPredict,
    "estimate-long": EstimateLong,
}


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        sizes: dict | None = None, spans_path: Path | None = None) -> dict:
    """Run one workload for ``seconds`` of timed rounds; return the result object."""
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    span = tracer.span if tracer else (lambda _name: contextlib.nullcontext())
    workload = WORKLOADS[name](workdir, seed, {**SIZES[name], **(sizes or {})}, span)
    if tracer:
        tracer.install()
    attempted = failed = 0
    times, problems = [], []
    try:
        while True:
            busy = workload.busy_s
            n, bad, out = workload.round()
            times.append(workload.busy_s - busy)
            attempted, failed = attempted + n, failed + bad
            if tracer:
                tracer.end_round()
            problems += workload.check(out) if out is not None else []
            if sum(times) + statistics.median(times) > seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
    for p in dict.fromkeys(problems):
        print(f"check failed: {p}", file=sys.stderr)
    if tracer:
        metrics = tracer.layer_metrics(len(times))
        metrics["mc.failed_estimates"] = {
            "value": failed / len(times) if isinstance(workload, McWorkload) else 0,
            "unit": "count",
        }
        if spans_path:
            tracer.write(spans_path)
    else:
        slowdown = statistics.median(workload.kernel_s) / calibration.REFERENCE_S
        print(f"{name}: kernel {statistics.median(workload.kernel_s) * 1e3:.2f} ms, "
              f"unscaled ops_per_s {attempted / len(times) / statistics.median(times):.5g}",
              file=sys.stderr)
        metrics = {
            "ops_per_s": {"value": attempted / len(times) / statistics.median(times) * slowdown,
                          "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "round_s": times}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.workdir, spans_path=args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
