"""Per-layer tracing from outside the library.

``Tracer.install`` wraps public ficalc functions and methods.  A module-level
function is replaced under every name that binds it in a module loaded from
the checkout (for example ``ficalc.nervehom.homology`` as well as
``ficalc.exactla.homology``), so callers that imported it by name are traced
too; methods are replaced on their class.  ``Tracer.restore`` puts every
original back.

A span is ``[name, start, end, parent, job, nested]``: ``parent`` is the index
of the enclosing span (-1 at top level), ``nested`` marks a span opened inside
another span of the same name, so ``.s`` totals count each interval once.
Spans stay in memory and are written out at the end.  Hot, fine-grained calls
(``COUNTED``) get a call count and no span.

Size measurements taken after a call (matrix cells, file bytes) run outside
the call's span; their time is logged in ``excluded`` and subtracted from
every enclosing span, so it does not inflate any layer's time.  The same
holds for other intervals passed to ``exclude``, such as speed-sampler slices.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from bisect import bisect_right
from collections import Counter
from pathlib import Path
from time import perf_counter


def _poset_size(tracer, args, result):
    tracer.counts["combinat.poset_elements"] += len(result.elements)


def _simplex_count(tracer, args, result):
    tracer.counts["nervehom.simplices"] += sum(len(batch) for batch in result.simplices)


def _matrix_size(tracer, args, result):
    a = args[0]
    tracer.counts["exactla.invariant_factors.in_cells"] += a.rows * a.cols
    tracer.counts["exactla.invariant_factors.in_nnz"] += sum(
        1 for row in a.data for x in row if x
    )


def _cube_size(tracer, args, result):
    stage = args[0]
    tracer.counts["fimod.CubeStage.cells"] += sum(
        d.rows * d.cols for d in stage.complex.differentials
    )
    tracer.counts["fimod.quotient_cache.requested"] += stage.cube + 1


def _file_size(tracer, args, result):
    tracer.counts["fimod.save_module.bytes"] += os.path.getsize(args[1])


# (module, attribute, span name, size measurement); ``Class.method`` patches
# the method on its class.  ``cli`` spans ``cli.main``: its self time is the
# CLI's own work outside the traced library calls.
SPANNED = (
    ("ficalc.combinat", "build_poset", "combinat.build_poset", _poset_size),
    ("ficalc.nervehom", "order_complex", "nervehom.order_complex", _simplex_count),
    ("ficalc.nervehom", "complex_homology", "nervehom.complex_homology", None),
    ("ficalc.nervehom", "wedge_certificate", "nervehom.wedge_certificate", None),
    ("ficalc.exactla", "homology", "exactla.homology", None),
    ("ficalc.exactla", "ChainComplex.validate", "exactla.ChainComplex.validate", None),
    ("ficalc.exactla", "invariant_factors", "exactla.invariant_factors", _matrix_size),
    ("ficalc.exactla", "RationalComplexHomology.__init__", "exactla.RationalComplexHomology.init", None),
    ("ficalc.exactla", "RationalComplexHomology.express", "exactla.RationalComplexHomology.express", None),
    ("ficalc.exactla", "kernel_basis", "exactla.kernel_basis", None),
    ("ficalc.exactla", "rank", "exactla.rank", None),
    ("ficalc.fimod.coefficients", "CubeStage.__init__", "fimod.CubeStage", _cube_size),
    ("ficalc.fimod.coefficients", "CoinvariantQuotient.__init__", "fimod.CoinvariantQuotient", None),
    ("ficalc.fimod.coefficients", "CubeStage.homology_trace", "fimod.CubeStage.homology_trace", None),
    ("ficalc.fimod.coefficients", "coefficient_transition", "fimod.coefficient_transition", None),
    ("ficalc.fimod.dictionary", "stage_character", "fimod.stage_character", None),
    ("ficalc.symrep", "decompose_class_function", "symrep.decompose_class_function", None),
    ("ficalc.fimod.io", "save_module", "fimod.save_module", _file_size),
    ("ficalc.fimod.io", "load_module", "fimod.load_module", None),
    ("ficalc.fimod.io", "module_from_json", "fimod.module_from_json", None),
    ("ficalc.fimod.core", "validate", "fimod.validate", None),
    ("ficalc.fimod.core", "representable", "fimod.representable", None),
    ("ficalc.fimod.core", "free_module", "fimod.free_module", None),
    ("ficalc.symrep", "gn_character", "symrep.gn_character", None),
    ("ficalc.symrep", "gn_dimension", "symrep.gn_dimension", None),
    ("ficalc.symrep", "kostka_reduction", "symrep.kostka_reduction", None),
    ("ficalc.cli", "main", "cli", None),
)

COUNTED = (
    ("ficalc.exactla", "VectorReducer.insert", "exactla.VectorReducer.insert"),
    ("ficalc.fimod.core", "FIModule.apply_permutation", "fimod.apply_permutation"),
    ("ficalc.fimod.core", "FIModule.apply_injection", "fimod.apply_injection"),
)

# Per-layer metric -> unit, and the workloads on which it must be nonzero: the
# workload whose end-to-end numbers the metric is expected to move.  A traced
# run that reads 0 for one of its own metrics fails, so a renamed function
# shows up instead of silently reporting nothing.
PER_LAYER = {
    "combinat.build_poset.s": ("s", {"report"}),
    "combinat.poset_elements": ("count", {"report"}),
    "nervehom.order_complex.s": ("s", {"report"}),
    "nervehom.simplices": ("count", {"report"}),
    "nervehom.complex_homology.self_s": ("s", {"report"}),
    "exactla.homology.s": ("s", {"report"}),
    "exactla.ChainComplex.validate.s": ("s", {"report"}),
    "exactla.invariant_factors.s": ("s", {"report"}),
    "exactla.invariant_factors.calls": ("count", {"report"}),
    "exactla.invariant_factors.in_cells": ("count", {"report"}),
    "exactla.invariant_factors.in_nnz": ("count", {"report"}),
    "nervehom.wedge_certificate.s": ("s", {"report"}),
    "nervehom.wedge_certificate.max_s": ("s", {"report"}),
    "exactla.RationalComplexHomology.init.s": ("s", {"predict"}),
    "exactla.RationalComplexHomology.express.s": ("s", {"predict"}),
    "exactla.RationalComplexHomology.express.calls": ("count", {"predict"}),
    "exactla.kernel_basis.s": ("s", {"predict"}),
    "exactla.VectorReducer.insert.calls": ("count", {"predict"}),
    "exactla.rank.s": ("s", {"predict"}),
    "fimod.CubeStage.s": ("s", {"predict"}),
    "fimod.CubeStage.self_s": ("s", {"predict"}),
    "fimod.CubeStage.calls": ("count", {"predict"}),
    "fimod.CubeStage.cells": ("count", {"predict"}),
    "fimod.CoinvariantQuotient.s": ("s", {"predict"}),
    "fimod.CoinvariantQuotient.calls": ("count", {"predict"}),
    "fimod.CubeStage.homology_trace.s": ("s", {"predict"}),
    "fimod.coefficient_transition.s": ("s", {"predict"}),
    "fimod.apply_injection.calls": ("count", {"predict"}),
    "fimod.quotient_cache.hit_ratio": ("ratio", {"predict"}),
    "fimod.stage_character.s": ("s", {"predict", "modfile"}),
    "fimod.apply_permutation.calls": ("count", {"predict", "modfile"}),
    "symrep.decompose_class_function.s": ("s", {"predict", "modfile"}),
    "fimod.save_module.s": ("s", {"modfile"}),
    "fimod.save_module.bytes": ("bytes", {"modfile"}),
    "fimod.load_module.s": ("s", {"modfile"}),
    "fimod.module_from_json.s": ("s", {"modfile"}),
    "fimod.validate.s": ("s", {"modfile", "report"}),
    "fimod.representable.s": ("s", {"report"}),
    "fimod.free_module.s": ("s", {"report"}),
    "symrep.gn_character.s": ("s", {"report"}),
    "symrep.gn_dimension.s": ("s", {"report"}),
    "symrep.kostka_reduction.s": ("s", {"report"}),
    "cli.self_s": ("s", {"report", "modfile"}),
    "trace.pass_s": ("s", {"report", "predict", "modfile"}),
    "trace.spans": ("count", {"report", "predict", "modfile"}),
    "trace.overhead_frac": ("ratio", set()),
}


def resolve(module_name: str, attribute: str):
    """(owner, name, original) for a module function or a ``Class.method``."""
    owner = sys.modules[module_name]
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


class Tracer:
    """Spans and counters for one benchmark run; see the module docstring."""

    def __init__(self, root: Path):
        self.root = root
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open: Counter = Counter()
        self.counts: Counter = Counter()
        self.excluded: list[tuple[float, float]] = []
        self.job = None
        self.enabled = True
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------
    def _span(self, name, fn, measure):
        tracer = self
        spans, stack, open_names = self.spans, self.stack, self.open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, open_names[name] > 0]
            stack.append(len(spans))
            spans.append(record)
            open_names[name] += 1
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                open_names[name] -= 1
                stack.pop()
            if measure is not None:
                measure(tracer, args, result)
                tracer.excluded.append((record[2], perf_counter()))
            return result

        return wrapper

    def _counter(self, name, fn):
        tracer = self
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------
    def _modules(self):
        """Modules loaded from this checkout: the library and the benchmark."""
        root = str(self.root) + os.sep
        return [
            m
            for m in list(sys.modules.values())
            if getattr(m, "__file__", None) and os.path.realpath(m.__file__).startswith(root)
        ]

    def _patch(self, module_name, attribute, make):
        owner, _, original = resolve(module_name, attribute)
        wrapper = make(original)
        for target in [owner] if isinstance(owner, type) else self._modules():
            for binding, value in list(vars(target).items()):
                if value is original:
                    self._patches.append((target, binding, original))
                    setattr(target, binding, wrapper)

    def install(self) -> None:
        for module_name, attribute, name, measure in SPANNED:
            self._patch(module_name, attribute, lambda fn, n=name, m=measure: self._span(n, fn, m))
        for module_name, attribute, name in COUNTED:
            self._patch(module_name, attribute, lambda fn, n=name: self._counter(n, fn))

    def restore(self) -> None:
        while self._patches:
            target, binding, original = self._patches.pop()
            setattr(target, binding, original)

    def exclude(self, intervals) -> None:
        """Leave these (start, end) intervals out of every span's time."""
        self.excluded = sorted([*self.excluded, *intervals], key=lambda interval: interval[1])

    # -- results -------------------------------------------------------------
    def pass_metrics(self, first_span: int, wall: float) -> dict[str, float]:
        """Per-layer metrics of the spans from ``first_span`` on, and the
        counters; resets the counters for the next pass."""
        spans = self.spans[first_span:]
        ends = [e for _, e in self.excluded]
        cumulative = [0.0]
        for start, end in self.excluded:
            cumulative.append(cumulative[-1] + end - start)

        def excluded_before(t: float) -> float:
            return cumulative[bisect_right(ends, t)]

        durations = [
            (s[2] - s[1]) - (excluded_before(s[2]) - excluded_before(s[1])) for s in spans
        ]
        child_time = [0.0] * len(spans)
        for i, s in enumerate(spans):
            parent = s[3] - first_span
            if parent >= 0:
                child_time[parent] += durations[i]
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        longest: dict[str, float] = {}
        for i, s in enumerate(spans):
            name = s[0]
            calls[name] += 1
            own[name] += durations[i] - child_time[i]
            if not s[5]:
                total[name] += durations[i]
            longest[name] = max(longest.get(name, 0.0), durations[i])

        def value(metric: str) -> float:
            base, _, kind = metric.rpartition(".")
            if kind == "s":
                return total[base]
            if kind == "self_s":
                return own[base]
            if kind == "max_s":
                return longest.get(base, 0.0)
            if kind == "calls":
                return calls[base] or self.counts[metric]
            return self.counts[metric]

        metrics = {m: float(value(m)) for m in PER_LAYER if not m.startswith(("trace.", "fimod.quotient_cache."))}
        requested = self.counts["fimod.quotient_cache.requested"]
        built = calls["fimod.CoinvariantQuotient"]
        metrics["fimod.quotient_cache.hit_ratio"] = 1.0 - built / requested if requested else 0.0
        metrics["trace.pass_s"] = wall
        metrics["trace.spans"] = float(len(spans))
        self.counts.clear()
        return metrics

    def write_spans(self, path: Path) -> None:
        """One JSON object per span: id, name, start, end, parent, job."""
        with open(path, "w") as handle:
            for i, (name, start, end, parent, job, _) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end, "parent": parent, "job": job}
                    )
                    + "\n"
                )


def missing_layers(workload: str, metrics: dict[str, float]) -> list[str]:
    """Per-layer metrics expected to move on ``workload`` that read 0."""
    return [m for m, (_, workloads) in PER_LAYER.items() if workload in workloads and not metrics.get(m)]
