"""Benchmark of the stablepar package; run from the repository root.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: the package runs from ``src`` (``PYTHONPATH=src``).  One
run first times the cold set-up in ``SETUP_PROBES`` fresh interpreters,
one after another, then runs the workload in one fresh worker process
(``workloads.py``).  BLAS and OpenMP pools are capped at the number of
usable cores.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the untraced
metrics are ``ops_per_s``, ``setup_s`` and ``peak_rss_mb``, the traced
ones are the per-layer metrics of ``BENCHMARK.json``, and a traced run
writes its spans to ``.benchmark_out/``.

Without ``--workload`` every workload runs, untraced and then traced
unless ``--trace`` is given, printing one JSON line each.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("mc-spectral", "mc-moment-sweep", "fit-predict", "estimate-long")
SETUP_PROBES = 5
#: A run must end within this many seconds.
RUN_LIMIT_S = 175


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def last_json(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("child printed nothing")
    return json.loads(lines[-1])


def run_child(argv: list, env: dict, deadline: float) -> dict:
    """Run one child to its end (killed at the deadline) and parse its result."""
    proc = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(argv[0]).name} exited with code {proc.returncode}")
    return last_json(proc.stdout)


def run_one(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env(root)
    probes = [run_child([str(HERE / "probe.py")], env, deadline) for _ in range(SETUP_PROBES)]
    import_s = statistics.median(p["import_s"] for p in probes)
    first_gof_s = statistics.median(p["first_gof_s"] for p in probes)
    setup_s = statistics.median(p["setup_s"] for p in probes)

    out_dir = root / ".benchmark_out"
    workdir = out_dir / f"work-{workload}-{os.getpid()}"
    argv = [str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(workdir)]
    if trace:
        argv += ["--spans", str(out_dir / f"spans-{workload}-seed{seed}.json")]
    try:
        result = run_child(argv, env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rounds = result.pop("round_s")
    print(f"{workload}: rounds of " + " ".join(f"{t:.3f}" for t in rounds) + " s",
          file=sys.stderr)
    if trace:
        result["metrics"]["setup.import_s"] = {"value": import_s, "unit": "s"}
        result["metrics"]["setup.first_gof_s"] = {"value": first_gof_s, "unit": "s"}
    else:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="stablepar benchmark")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="one workload (default: every workload)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20, help="timed seconds per run")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="1: per-layer metrics from a traced run (default with "
                    "--workload: 0; without: both)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "stablepar" / "__init__.py").is_file():
        print("error: run from the repository root; src/stablepar is missing",
              file=sys.stderr)
        return 2
    if args.workload:
        runs = [(args.workload, args.trace or 0)]
    else:
        traces = (0, 1) if args.trace is None else (args.trace,)
        runs = [(w, t) for w in WORKLOAD_NAMES for t in traces]
    try:
        for workload, trace in runs:
            result = run_one(root, workload, args.seed, args.seconds, trace)
            print(json.dumps(result), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
