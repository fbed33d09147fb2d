"""Span tracing of the package layers, installed from outside the package.

Tracer.install() wraps every public function of each layer module, and the
methods named in METHODS, then rebinds every name in every package module
that refers to a wrapped function: operators, model and classify each hold
their own `eval_phi`, for example. Nothing under src/ changes.

Spans are kept in memory with their parent ids and written out by write().
A layer's busy time is the self time of its spans: a span's duration minus
the durations of its child spans. Callbacks that a caller passes into
util.golden_max or util.sum_series run inside the util span, so util.busy_s
includes them, apart from the traced calls they make.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "wtsemigroup"
LAYERS = ("symbols", "stepfun", "operators", "model", "spectral", "classify", "verify", "cli", "util")
# methods traced besides the module-level functions: StepFunction algebra and
# the kernel coefficient, which model calls once per series term
METHODS = {
    "stepfun": ("StepFunction", ("__add__", "restrict", "translate", "subdivide", "scale", "with_values")),
    "model": ("DiagonalKernel", ("coefficient",)),
}

# per-layer metrics of a traced round, name -> unit (the per_layer list of
# BENCHMARK.json); cli.exit_mismatch and trace.* come from the job runner
LAYER_METRICS = {
    "stepfun.add_calls": "count",
    "stepfun.add_cells": "count",
    "stepfun.inner_calls": "count",
    "stepfun.busy_s": "s",
    "operators.apply_power_calls": "count",
    "operators.apply_power_cells": "count",
    "operators.busy_s": "s",
    "model.model_map_busy_s": "s",
    "model.model_inverse_busy_s": "s",
    "model.preimage_busy_s": "s",
    "model.preimage_terms": "count",
    "model.kernel_series_busy_s": "s",
    "model.busy_s": "s",
    "symbols.phi_calls": "count",
    "symbols.phi_points": "count",
    "symbols.busy_s": "s",
    "util.golden_evals": "count",
    "util.series_terms": "count",
    "util.busy_s": "s",
    "spectral.extremum_calls": "count",
    "spectral.busy_s": "s",
    "classify.bracket_cells": "count",
    "classify.busy_s": "s",
    "verify.checks_run": "count",
    "verify.checks_failed": "count",
    "verify.busy_s": "s",
    "cli.busy_s": "s",
    "cli.exit_mismatch": "count",
    "trace.spans": "count",
    "trace.jobs_per_s_untraced": "1/s",
    "trace.jobs_per_s_traced": "1/s",
    "trace.slowdown": "ratio",
}

# inclusive time of these functions' spans
_INCLUSIVE = {
    "model.model_map_busy_s": "model.model_map",
    "model.model_inverse_busy_s": "model.model_inverse",
    "model.preimage_busy_s": "model.kernel_preimage",
    "model.kernel_series_busy_s": "model.kernel_series",
}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_phi(counts, args, kwargs, result):
    counts["symbols.phi_calls"] += 1
    counts["symbols.phi_points"] += int(np.size(_arg(args, kwargs, 1, "x")))


def _count_add(counts, args, kwargs, result):
    counts["stepfun.add_calls"] += 1
    counts["stepfun.add_cells"] += int(result.values.size)


def _count_apply_power(counts, args, kwargs, result):
    counts["operators.apply_power_calls"] += 1
    counts["operators.apply_power_cells"] += int(_arg(args, kwargs, 2, "f").values.size)


def _count_bracket(counts, args, kwargs, result):
    order = _arg(args, kwargs, 2, "n")
    counts["classify.bracket_cells"] += int(np.size(_arg(args, kwargs, 3, "x"))) * (order + 1)


def _count_bracket_table(counts, args, kwargs, result):
    order = _arg(args, kwargs, 2, "n_max")
    counts["classify.bracket_cells"] += int(np.size(_arg(args, kwargs, 3, "grid"))) * (order + 1)


def _count_extremum(counts, args, kwargs, result):
    counts["spectral.extremum_calls"] += 1


def _count_series(counts, args, kwargs, result):
    counts["util.series_terms"] += int(result[1])


def _count_inner(counts, args, kwargs, result):
    counts["stepfun.inner_calls"] += 1


def _count_verify(counts, args, kwargs, result):
    counts["verify.checks_run"] += len(result)
    counts["verify.checks_failed"] += sum(not r.passed for r in result)


_HOOKS = {
    "symbols.eval_phi": _count_phi,
    "stepfun.StepFunction.__add__": _count_add,
    "stepfun.inner": _count_inner,
    "operators.apply_power": _count_apply_power,
    "operators.estimate_norm": _count_extremum,
    "operators.estimate_lower_bound": _count_extremum,
    "classify.bracket": _count_bracket,
    "classify.bracket_table": _count_bracket_table,
    "util.sum_series": _count_series,
    "verify.run_verify": _count_verify,
}


class Tracer:
    """Records spans and counts while `active`; install() puts the wrappers in."""

    def __init__(self):
        self.active = False
        self.counts: Counter = Counter()
        self._names: list[str] = []
        self._span_id = array("q")
        self._parent = array("q")
        self._name = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._next = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        name_id = len(self._names)
        self._names.append(qualname)
        hook = _HOOKS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._next
            tracer._next = span + 1
            stack = tracer._stack
            parent = stack[-1]
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._span_id.append(span)
                tracer._parent.append(parent)
                tracer._name.append(name_id)
                tracer._start.append(t0)
                tracer._end.append(t1)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _counting_golden(self, golden_max):
        """golden_max whose objective counts its evaluations into util.golden_evals."""
        tracer = self

        @functools.wraps(golden_max)
        def golden(fn, *args, **kwargs):
            def counted(y):
                if tracer.active:
                    tracer.counts["util.golden_evals"] += 1
                return fn(y)

            return golden_max(counted, *args, **kwargs)

        return golden

    def _rebind(self, owner, attr: str, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in layers.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                inner = self._counting_golden(obj) if f"{layer}.{attr}" == "util.golden_max" else obj
                wrapped[obj] = self._wrap(f"{layer}.{attr}", inner)
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._rebind(mod, attr, wrapped[obj])
        for layer, (cls_name, methods) in METHODS.items():
            cls = getattr(layers[layer], cls_name)
            for meth in methods:
                self._rebind(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", cls.__dict__[meth]))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def _spans(self):
        """Arrays indexed by span id: duration, parent id, name id."""
        n = self._next
        ids = np.array(self._span_id, dtype=np.int64)
        duration = np.zeros(n)
        duration[ids] = np.array(self._end) - np.array(self._start)
        parent = np.full(n, -1, dtype=np.int64)
        parent[ids] = np.array(self._parent, dtype=np.int64)
        name = np.zeros(n, dtype=np.int64)
        name[ids] = np.array(self._name, dtype=np.int64)
        return duration, parent, name

    def layer_metrics(self) -> dict[str, float]:
        """Counts and busy times of the spans recorded so far."""
        duration, parent, name = self._spans()
        has_parent = parent >= 0
        child = np.zeros(duration.size)
        np.add.at(child, parent[has_parent], duration[has_parent])
        layer_of = np.array([LAYERS.index(q.partition(".")[0]) for q in self._names], dtype=np.int64)
        busy = np.bincount(layer_of[name], weights=duration - child, minlength=len(LAYERS))
        inclusive = np.bincount(name, weights=duration, minlength=len(self._names))
        ids = {q: i for i, q in enumerate(self._names)}

        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            layer, _, what = metric.partition(".")
            if what == "busy_s" and layer in LAYERS:
                out[metric] = float(busy[LAYERS.index(layer)])
            elif metric in _INCLUSIVE:
                out[metric] = float(inclusive[ids[_INCLUSIVE[metric]]])
            elif layer in LAYERS:
                out[metric] = self.counts[metric]
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        out["model.preimage_terms"] = int(
            np.count_nonzero(
                (name == ids["operators.apply_power"]) & (parent_name == ids["model.kernel_preimage"])
            )
        )
        out["trace.spans"] = int(self._next)
        return out

    def write(self, path):
        """Save every span: id, parent id, function name, start and end times."""
        np.savez(
            path,
            span_id=np.array(self._span_id, dtype=np.int64),
            parent=np.array(self._parent, dtype=np.int64),
            name=np.array(self._name, dtype=np.int64),
            start=np.array(self._start),
            end=np.array(self._end),
            names=np.array(self._names),
        )
