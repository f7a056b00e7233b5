"""Outside-in layer trace: self time and counts per pipeline layer.

The tracer wraps the public functions of each layer from outside the
program.  A wrapped function is replaced at every module attribute that
holds it (``from repro.x import f`` copies the function into the
importing module, so patching only ``repro.x.f`` would miss those
callers); a wrapped method is replaced on its class.  Nothing under
``src/`` is edited, and :meth:`Tracer.uninstall` restores every
attribute it touched.

A layer's *self time* is the wall time spent inside its wrapped calls
minus the time spent in wrapped calls they make: ``run_compiled`` minus
the sinks, lowering, fusion and specialization it triggers is engine
execution (``sim.exec_s``).  Time outside every wrapped call is
``other_s``.  See ``LAYERS.md`` for the map from metric to function.
"""

from __future__ import annotations

import importlib
import os
import sys
from time import perf_counter
from typing import Callable

#: metric name -> the functions whose self time it sums, as
#: ``"module:attribute"`` or ``"module:Class.method"``.
TIMED: dict[str, tuple[str, ...]] = {
    "foray.extract_s": ("repro.foray.extractor:ForayExtractor.emit_columns",),
    "foray.finish_s": ("repro.foray.extractor:ForayExtractor.finish",),
    "foray.validate_s": ("repro.foray.validate:ValidationSink.emit_columns",
                         "repro.foray.validate:validate_model"),
    "cachesim.sink_s": ("repro.cachesim.sink:CacheSink.emit_columns",
                        "repro.cachesim.report:build_hierarchy_report"),
    "sim.exec_s": ("repro.sim.machine:run_compiled",),
    "sim.ref_exec_s": ("repro.sim.interpreter:Interpreter.run",),
    "sim.lower_s": ("repro.sim.bytecode:lower_program",),
    "sim.fuse_s": ("repro.sim.bytecode:fuse_program",),
    "sim.specialize_s": ("repro.sim.specialize:get_specialization",),
    "sim.dataflow_s": ("repro.sim.dataflow:solve",
                       "repro.sim.dataflow:access_facts"),
    "sim.verify_s": ("repro.sim.verify:verify_compiled",),
    "sim.trace_fmt_s": ("repro.sim.trace:format_trace",),
    "lang.compile_s": ("repro.lang.semantics:parse_and_analyze",),
    "instrument.s": ("repro.instrument.checkpoints:instrument",),
    "lang.lint_s": ("repro.lang.lint:lint_source",),
    "staticfar.s": ("repro.staticfar.detector:detect",
                    "repro.staticfar.analyze:analyze_static",
                    "repro.staticfar.oracle:compare_models"),
    "spm.alloc_s": ("repro.spm.graph:ReuseGraph.from_model",
                    "repro.spm.allocator:allocate_graph",
                    "repro.spm.transform:transform_model",
                    "repro.spm.explore:explore"),
    "analysis.s": ("repro.analysis.census:loop_census",
                   "repro.analysis.coverage:table2_coverage",
                   "repro.analysis.coverage:table3_behavior"),
    "gen.build_s": ("repro.gen.build:build_ir",
                    "repro.gen.render:render_ir"),
    "store.get_s": ("repro.store:ArtifactStore.get",),
    "store.put_s": ("repro.store:ArtifactStore.put",),
    "store.stats_s": ("repro.store:ArtifactStore.persist_counters",
                      "repro.store:ArtifactStore.aggregate_counters"),
    "pipeline.s": ("repro.pipeline:run_suite",
                   "repro.pipeline:validate_suite",
                   "repro.pipeline:hier_suite",
                   "repro.pipeline:cached_exploration",
                   "repro.pipeline:run_stages",
                   "repro.gen.fuzz:run_fuzz",
                   "repro.gen.fuzz:fuzz_program"),
    "cli.s": ("repro.cli:build_parser",
              "repro.analysis.jsonout:suite_payload",
              "repro.analysis.jsonout:gen_payload"),
}

#: Counted but not timed on their own (their time stays with the caller).
COUNTED_ONLY: tuple[str, ...] = ("repro.pipeline:ArtifactCache.get",)

COUNTS = ("foray.accesses", "sim.steps", "sim.runs", "lang.programs",
          "store.hits", "store.misses", "store.bytes_read",
          "store.bytes_written", "pipeline.mem_hits", "pipeline.mem_misses")


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if metric.startswith("store.bytes"):
        return "bytes"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric in ("store.hit_ratio", "trace.attributed"):
        return "share"
    if metric == "trace.overhead":
        return "ratio"
    return "count"


def _count_extract(counts, args, result) -> None:
    counts["foray.accesses"] += args[1].n


def _count_run(counts, args, result) -> None:
    from repro.sim.interpreter import Interpreter

    # Steps of the AST reference engine are left out: its time is
    # sim.ref_exec_s, so sim.steps / sim.exec_s is the bytecode rate.
    counts["sim.runs"] += 1
    if not isinstance(result.machine, Interpreter):
        counts["sim.steps"] += result.stats.steps


def _count_compile(counts, args, result) -> None:
    counts["lang.programs"] += 1


def _entry_size(store, namespace: str, key: str) -> int:
    try:
        return os.stat(store._entry_path(namespace, key)).st_size
    except OSError:
        return 0


def _count_store_get(counts, args, result) -> None:
    if result is None:
        counts["store.misses"] += 1
    else:
        counts["store.hits"] += 1
        counts["store.bytes_read"] += _entry_size(*args[:3])


def _count_store_put(counts, args, result) -> None:
    if result:
        counts["store.bytes_written"] += _entry_size(*args[:3])


def _count_mem_get(counts, args, result) -> None:
    counts["pipeline.mem_misses" if result is None
           else "pipeline.mem_hits"] += 1


COUNTERS: dict[str, Callable] = {
    "repro.foray.extractor:ForayExtractor.emit_columns": _count_extract,
    "repro.sim.machine:run_compiled": _count_run,
    "repro.lang.semantics:parse_and_analyze": _count_compile,
    "repro.store:ArtifactStore.get": _count_store_get,
    "repro.store:ArtifactStore.put": _count_store_put,
    "repro.pipeline:ArtifactCache.get": _count_mem_get,
}


def _resolve(target: str):
    """(owner, attribute name, raw attribute) for ``module:path``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    raw = vars(owner)[name] if isinstance(owner, type) else getattr(owner,
                                                                    name)
    return owner, name, raw


class Tracer:
    """Patches the layer functions while installed; accumulates self
    time per metric and the counts in :data:`COUNTS`."""

    def __init__(self, targets: dict[str, tuple[str, ...]] | None = None,
                 counted: tuple[str, ...] = COUNTED_ONLY):
        self.targets = TIMED if targets is None else targets
        self.counted = counted
        self.self_s: dict[str, float] = {name: 0.0 for name in self.targets}
        self.counts: dict[str, int] = {name: 0 for name in COUNTS}
        # One child-time accumulator per open span; the bottom slot
        # collects the inclusive time of the outermost spans.
        self._stack: list[float] = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for name in self.self_s:
            self.self_s[name] = 0.0
        for name in self.counts:
            self.counts[name] = 0
        self._stack[:] = [0.0]

    @property
    def attributed_s(self) -> float:
        """Inclusive time of the outermost spans (= the sum of self
        times)."""
        return self._stack[0]

    def _wrap(self, fn: Callable, metric: str | None,
              count: Callable | None) -> Callable:
        stack = self._stack
        self_s = self.self_s
        counts = self.counts

        if metric is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(counts, args, result)
                return result
            return counted

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[metric] += elapsed - stack.pop()
                stack[-1] += elapsed
            if count is not None:
                count(counts, args, result)
            return result
        return timed

    def _patch(self, target: str, metric: str | None) -> None:
        owner, name, raw = _resolve(target)
        count = COUNTERS.get(target)
        if isinstance(owner, type):
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self._wrap(raw.__func__, metric,
                                                   count))
            else:
                replacement = self._wrap(raw, metric, count)
            self._undo.append((owner, name, raw))
            setattr(owner, name, replacement)
            return
        replacement = self._wrap(raw, metric, count)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is raw:
                    self._undo.append((module, attr, raw))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for metric, targets in self.targets.items():
            for target in targets:
                self._patch(target, metric)
        for target in self.counted:
            self._patch(target, None)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)


def import_layers() -> None:
    """Import every module the tracer patches, so that an untraced pass
    and a traced one start from the same loaded code."""
    for targets in (*TIMED.values(), COUNTED_ONLY):
        for target in targets:
            _resolve(target)
