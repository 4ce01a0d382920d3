"""Layer spans for the traced benchmark run.

The tracer wraps public ``stablepar`` functions at the names their
callers look up (``from .x import y`` binds ``y`` in the calling
module, so ``stablepar.mc.simulate_par1`` is patched, not only
``stablepar.par_model.simulate_par1``).  No file of the program changes.
Spans are kept in memory as ``(id, parent, request, name, start, end)``
and written out when the run ends; a request is one top-level operation
the benchmark starts, and every span inside it shares the request's id.

A layer's self time is its spans' durations minus the time their child
spans cover.  Per-layer metrics are reported per round of the workload,
so counts repeat exactly between runs of the same code.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import time
from contextlib import contextmanager

#: (layer name, defining module, function, modules that look the name up)
TARGETS = [
    ("covariation.spectral_fit", "stablepar.covariation", "estimate_spectral_measure_2d",
     ["stablepar.covariation", "stablepar.pipeline"]),
    ("covariation.spectral_matrix", "stablepar.covariation", "cv_phase_matrix_spectral",
     ["stablepar.estimators"]),
    ("covariation.moment", "stablepar.covariation", "ncv_phase_matrix",
     ["stablepar.estimators"]),
    ("solvers.solve", "stablepar.solvers", "solve_yw", ["stablepar.estimators"]),
    ("estimators.yw_cv", "stablepar.estimators", "yw_cv_estimate",
     ["stablepar.mc", "stablepar.cli", "stablepar.pipeline"]),
    ("estimators.yw_t", "stablepar.estimators", "yw_t_estimate",
     ["stablepar.mc", "stablepar.cli", "stablepar.pipeline"]),
    ("estimators.alpha_estimate", "stablepar.estimators", "estimate_alpha",
     ["stablepar.estimators"]),
    ("par_model.simulate", "stablepar.par_model", "simulate_par1",
     ["stablepar.mc", "stablepar.cli"]),
    ("par_model.boundedness", "stablepar.par_model", "check_boundedness",
     ["stablepar.par_model"]),
    ("stable.sampler", "stablepar.stable", "sample_stable_vector",
     ["stablepar.par_model", "stablepar.pipeline"]),
    ("stable.gof", "stablepar.stable", "ad_stable_test", ["stablepar.pipeline"]),
    # Quantile fits of the goodness-of-fit test and the diagnostics; the
    # alpha estimate of yw-t keeps its own fits inside its span.
    ("stable.quantile_fit", "stablepar.stable", "mcculloch_estimate",
     ["stablepar.stable", "stablepar.pipeline"]),
    ("pipeline.fit", "stablepar.pipeline", "fit_par1", ["stablepar.cli"]),
    ("pipeline.deseasonalize", "stablepar.pipeline", "fit_deterministic",
     ["stablepar.pipeline"]),
    ("pipeline.diagnose", "stablepar.pipeline", "diagnose_residuals",
     ["stablepar.pipeline"]),
    ("pipeline.bands", "stablepar.pipeline", "simulate_quantile_lines", ["stablepar.cli"]),
    ("pipeline.one_step", "stablepar.pipeline", "one_step_quantiles", ["stablepar.cli"]),
    ("cli.csv_read", "stablepar.cli", "load_trajectory", ["stablepar.cli"]),
]

#: CSV writers, patched on their classes: (module, class, method)
WRITERS = [
    ("stablepar.estimators", "EstimationResult", "to_csv"),
    ("stablepar.mc", "McReport", "to_csv"),
    ("stablepar.par_model", "MultiTrajectory", "to_csv"),
    ("stablepar.pipeline", "QuantilePaths", "to_csv"),
    ("stablepar.pipeline", "DiagnosticsReport", "to_csv"),
    ("stablepar.pipeline", "DiagnosticsReport", "ncv_to_csv"),
]


#: Per-layer metrics: (name, unit, source).  A source ``self:<layer>`` is
#: the layer's self time, ``total:<span>`` a span's inclusive duration,
#: ``calls:<layer>`` its call count, ``count:<key>`` a work counter and
#: ``ratio:<num>/<den>`` a quotient of two counters (0 when nothing ran).
#: ``setup.*`` and ``mc.failed_estimates`` are filled in by the worker.
PER_LAYER = [
    ("covariation.spectral_fit_s", "s", "self:covariation.spectral_fit"),
    ("covariation.spectral_fits", "count", "calls:covariation.spectral_fit"),
    ("covariation.spectral_points", "count", "count:covariation.spectral_points"),
    ("covariation.spectral_matrix_s", "s", "self:covariation.spectral_matrix"),
    ("covariation.moment_s", "s", "self:covariation.moment"),
    ("covariation.moment_calls", "count", "calls:covariation.moment"),
    ("solvers.solve_s", "s", "self:solvers.solve"),
    ("solvers.solves", "count", "calls:solvers.solve"),
    ("solvers.fallback_solves", "count", "count:solvers.fallback_solves"),
    ("estimators.yw_cv_s", "s", "self:estimators.yw_cv"),
    ("estimators.yw_t_s", "s", "self:estimators.yw_t"),
    ("estimators.alpha_estimate_s", "s", "self:estimators.alpha_estimate"),
    ("par_model.simulate_s", "s", "self:par_model.simulate"),
    ("par_model.simulate_steps", "count", "count:par_model.simulate_steps"),
    ("par_model.boundedness_s", "s", "self:par_model.boundedness"),
    ("par_model.boundedness_calls", "count", "calls:par_model.boundedness"),
    ("par_model.boundedness_useful_ratio", "ratio",
     "ratio:par_model.distinct_models/calls:par_model.boundedness"),
    ("stable.sampler_s", "s", "self:stable.sampler"),
    ("stable.sampler_calls", "count", "calls:stable.sampler"),
    ("stable.sampler_draws", "count", "count:stable.sampler_draws"),
    ("stable.gof_s", "s", "self:stable.gof"),
    ("stable.gof_sims", "count", "count:stable.gof_sims"),
    ("stable.quantile_fit_s", "s", "self:stable.quantile_fit"),
    ("stable.quantile_fit_calls", "count", "calls:stable.quantile_fit"),
    ("pipeline.diagnose_s", "s", "self:pipeline.diagnose"),
    ("pipeline.fit_calls", "count", "calls:pipeline.fit"),
    ("pipeline.fit_useful_ratio", "ratio",
     "ratio:pipeline.distinct_datasets/calls:pipeline.fit"),
    ("pipeline.deseasonalize_s", "s", "self:pipeline.deseasonalize"),
    ("pipeline.bands_s", "s", "self:pipeline.bands"),
    ("pipeline.one_step_s", "s", "self:pipeline.one_step"),
    ("cli.csv_read_s", "s", "self:cli.csv_read"),
    ("cli.csv_read_rows", "count", "count:cli.csv_read_rows"),
    ("cli.csv_write_s", "s", "self:cli.csv_write"),
    ("cli.csv_write_bytes", "bytes", "count:cli.csv_write_bytes"),
    ("mc.aggregate_s", "s", "self:mc.run_mc_study"),
    ("cmd.mc_study_s", "s", "total:cmd.mc_study"),
    ("cmd.fit_s", "s", "total:cmd.fit"),
    ("cmd.quantile_lines_s", "s", "total:cmd.quantile_lines"),
    ("cmd.one_step_s", "s", "total:cmd.one_step"),
    ("cmd.estimate_cv_s", "s", "total:cmd.estimate_cv"),
    ("cmd.estimate_t_s", "s", "total:cmd.estimate_t"),
    ("setup.import_s", "s", None),
    ("setup.first_gof_s", "s", None),
    ("mc.failed_estimates", "count", None),
]


def _model_key(model) -> bytes:
    parts = [th.tobytes() for th in model.theta]
    parts += [repr(float(model.alpha)).encode(), model.noise.points.tobytes(),
              model.noise.weights.tobytes()]
    return hashlib.sha1(b"|".join(parts)).digest()


class Tracer:
    """Span recorder; ``install`` patches the program, ``uninstall`` restores it."""

    def __init__(self):
        self.spans = []  # [id, parent, request, name, start, end]
        self.calls = {}
        self.counts = {}
        self._stack = []
        self._saved = []
        self._models = set()
        self._datasets = set()

    def _add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = [sid, None if parent is None else parent[0],
                sid if parent is None else parent[2], name, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a call it makes."""
        s = self._open(name)
        try:
            yield
        finally:
            self._close(s)

    def end_round(self) -> None:
        """Fold the per-round distinct-input sets into the counters."""
        self._add("par_model.distinct_models", len(self._models))
        self._add("pipeline.distinct_datasets", len(self._datasets))
        self._models.clear()
        self._datasets.clear()

    def _record(self, layer: str, args, kwargs, result) -> None:
        """Work counts taken at the layer boundary."""
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if layer == "covariation.spectral_fit":
            self._add("covariation.spectral_points", len(args[0]))
        elif layer == "solvers.solve" and result.method != "direct":
            self._add("solvers.fallback_solves")
        elif layer == "par_model.simulate":
            model, L = args[0], args[1]
            burn_in = args[3] if len(args) > 3 else kwargs.get("burn_in")
            self._add("par_model.simulate_steps",
                      L + (50 * model.period if burn_in is None else burn_in))
        elif layer == "par_model.boundedness":
            self._models.add(_model_key(args[0]))
        elif layer == "stable.sampler":
            self._add("stable.sampler_draws", args[2] * args[0].n_atoms)
        elif layer == "stable.gof":
            self._add("stable.gof_sims", args[1] if len(args) > 1 else kwargs["n_sims"])
        elif layer == "pipeline.fit":
            traj, T = args[0], args[1]
            self._datasets.add(hashlib.sha1(
                traj.values.tobytes() + repr((traj.t0, T)).encode()).digest())
        elif layer == "cli.csv_read":
            self._add("cli.csv_read_rows", result.length)
        elif layer == "cli.csv_write":
            self._add("cli.csv_write_bytes", os.path.getsize(args[1]))

    def _wrap(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            s = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            self._record(layer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for layer, home, name, users in TARGETS:
            wrapped = self._wrap(layer, getattr(importlib.import_module(home), name))
            for user in users:
                mod = importlib.import_module(user)
                self._saved.append((mod, name, getattr(mod, name)))
                setattr(mod, name, wrapped)
        for home, cls_name, name in WRITERS:
            cls = getattr(importlib.import_module(home), cls_name)
            original = cls.__dict__[name]
            self._saved.append((cls, name, original))
            setattr(cls, name, self._wrap("cli.csv_write", original))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def totals(self) -> tuple[dict, dict]:
        """(self time, inclusive time) summed per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for _sid, parent, _req, _name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        own, total = {}, {}
        for sid, _parent, _req, name, start, end in self.spans:
            own[name] = own.get(name, 0.0) + (end - start) - child[sid]
            total[name] = total.get(name, 0.0) + end - start
        return own, total

    def layer_metrics(self, rounds: int) -> dict:
        """Every traced ``PER_LAYER`` metric, per round."""
        own, total = self.totals()

        def value(source: str) -> float:
            kind, key = source.split(":", 1)
            if kind == "self":
                return own.get(key, 0.0)
            if kind == "total":
                return total.get(key, 0.0)
            if kind == "calls":
                return self.calls.get(key, 0)
            if kind == "count":
                return self.counts.get(key, 0)
            num, den = key.split("/")
            den_value = value(den)
            return value("count:" + num) / den_value if den_value else 0.0

        out = {}
        for name, unit, source in PER_LAYER:
            if source is None:
                continue
            v = value(source)
            if not source.startswith("ratio:"):
                v = v / rounds
            out[name] = {"value": v, "unit": unit}
        return out

    def write(self, path) -> None:
        t0 = self.spans[0][4] if self.spans else 0.0
        payload = {
            "fields": ["id", "parent", "request", "name", "start_s", "end_s"],
            "spans": [[sid, parent, req, name, start - t0, end - t0]
                      for sid, parent, req, name, start, end in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
