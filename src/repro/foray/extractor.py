"""The FORAY-GEN driver — Algorithm 1 of the paper.

:class:`ForayExtractor` is a trace *sink*: it consumes checkpoint and
memory-access records one at a time, routing checkpoints to the loop-tree
builder (Algorithm 2) and accesses to per-reference affine solvers
(Algorithm 3). Because it never looks back at earlier records, it can be

* attached directly to the running simulator (the paper's "no need to save
  the typically large trace file" mode — constant space in the trace
  length), or
* fed from a written trace file via :func:`repro.sim.trace.parse_trace`.

Both modes produce identical models (tested).

Convenience entry points: :func:`extract_from_source` runs the whole
pipeline (annotate → profile → analyze → purge) on MiniC source text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.foray.affine import ReferenceSolver
from repro.foray.filters import FilterConfig
from repro.foray.looptree import LoopNode, LoopTreeBuilder
from repro.foray.model import ForayLoop, ForayModel, ForayReference
from repro.sim.trace import (
    HAVE_NUMPY,
    LIB_PC_BASE,
    Access,
    CheckpointMap,
    ColumnBlock,
    TraceRecord,
    is_library_pc,
)

if HAVE_NUMPY:
    import numpy as _np


@dataclass
class TraceStats:
    """Trace-wide counters backing Table III.

    References are counted per (dynamic loop node, pc) — i.e. with
    functions considered inlined, as the paper does. Footprints are sets of
    distinct accessed addresses per category.
    """

    total_accesses: int = 0
    user_accesses: int = 0
    lib_accesses: int = 0
    user_refs: set = field(default_factory=set)
    lib_refs: set = field(default_factory=set)
    user_addresses: set = field(default_factory=set)
    lib_addresses: set = field(default_factory=set)

    @property
    def total_references(self) -> int:
        return len(self.user_refs) + len(self.lib_refs)

    @property
    def total_footprint(self) -> int:
        return len(self.user_addresses | self.lib_addresses)


class ForayExtractor:
    """Streaming FORAY-GEN analysis (a :class:`~repro.sim.trace.TraceSink`)."""

    def __init__(
        self,
        checkpoint_map: CheckpointMap,
        filter_config: FilterConfig | None = None,
    ):
        self._filter = filter_config or FilterConfig()
        self._tree = LoopTreeBuilder(checkpoint_map)
        self.stats = TraceStats()
        self._finished: ForayModel | None = None

    # -- sink interface ---------------------------------------------------

    def emit(self, record: TraceRecord) -> None:
        if type(record) is Access:
            self._on_access(record)
        else:
            self._tree.on_checkpoint(record)  # type: ignore[arg-type]

    def consume(self, records: Iterable[TraceRecord]) -> None:
        for record in records:
            self.emit(record)

    def emit_columns(self, block: ColumnBlock) -> None:
        """Columnar sink entry point (the engines' hot path).

        The segment-independent Table III tallies (access counts and
        footprint sets) are computed block-wide from the columns; the
        order-dependent work walks the block's checkpoint-free segments
        (:meth:`LoopTreeBuilder.walk_block`) and feeds each access to its
        reference's solver with the segment's iterator vector. Values
        stashed in long-lived sets come from the plain-list views, so
        they stay native Python ints.
        """
        segments = self._tree.walk_block(block)
        n = block.n
        if n == 0:
            return
        pcs, addrs, sizes, writes = block.lists()
        stats = self.stats
        stats.total_accesses += n
        if HAVE_NUMPY:
            lib_count = int(_np.count_nonzero(block.pc >= LIB_PC_BASE))
        else:
            lib_count = sum(1 for pc in pcs if pc >= LIB_PC_BASE)
        stats.lib_accesses += lib_count
        stats.user_accesses += n - lib_count
        if lib_count == 0:
            stats.user_addresses.update(addrs)
        elif lib_count == n:
            stats.lib_addresses.update(addrs)
        elif HAVE_NUMPY:
            lib_mask = block.pc >= LIB_PC_BASE
            stats.lib_addresses.update(block.addr[lib_mask].tolist())
            stats.user_addresses.update(block.addr[~lib_mask].tolist())
        else:
            for pc, addr in zip(pcs, addrs):
                if pc >= LIB_PC_BASE:
                    stats.lib_addresses.add(addr)
                else:
                    stats.user_addresses.add(addr)
        lib_refs = stats.lib_refs
        user_refs = stats.user_refs
        for start, end, node, iterators in segments:
            uid = node.uid
            solvers = node.references
            for i in range(start, end):
                pc = pcs[i]
                if pc >= LIB_PC_BASE:
                    lib_refs.add((uid, pc))
                    continue
                user_refs.add((uid, pc))
                solver = solvers.get(pc)
                if solver is None:
                    solver = solvers[pc] = ReferenceSolver(pc, node.depth)
                solver.observe(addrs[i], iterators, writes[i], sizes[i])

    # -- record processing ---------------------------------------------------

    def _on_access(self, access: Access) -> None:
        stats = self.stats
        stats.total_accesses += 1
        node = self._tree.current
        if is_library_pc(access.pc):
            # System-library references are not handled by FORAY-GEN
            # (paper Section 5.2) but are counted for Table III.
            stats.lib_accesses += 1
            stats.lib_refs.add((node.uid, access.pc))
            stats.lib_addresses.add(access.addr)
            return
        stats.user_accesses += 1
        stats.user_refs.add((node.uid, access.pc))
        stats.user_addresses.add(access.addr)

        solver = node.references.get(access.pc)
        if solver is None:
            solver = ReferenceSolver(access.pc, node.depth)
            node.references[access.pc] = solver
        solver.observe(access.addr, self._tree.current_iterators(),
                       access.is_write, access.size)

    # -- model construction ---------------------------------------------------

    def finish(self) -> ForayModel:
        """Finalize the tree and build the (filtered) FORAY model."""
        if self._finished is not None:
            return self._finished
        root = self._tree.finish()

        foray_loops: dict[int, ForayLoop] = {}  # node uid -> ForayLoop

        def loop_of(node: LoopNode) -> ForayLoop:
            cached = foray_loops.get(node.uid)
            if cached is None:
                cached = ForayLoop(
                    begin_id=node.begin_id,
                    kind=node.kind,
                    depth=node.depth,
                    max_trip=node.max_trip,
                    min_trip=node.min_trip or 0,
                    entries=node.entries,
                    total_iterations=node.total_iterations,
                    uid=node.uid,
                    ast_node_id=node.ast_node_id,
                )
                foray_loops[node.uid] = cached
            return cached

        unfiltered: list[ForayReference] = []
        solver_of: dict[int, ReferenceSolver] = {}
        non_analyzable = 0
        for node in root.iter_subtree():
            path = tuple(loop_of(ancestor) for ancestor in node.path_from_root())
            for solver in node.references.values():
                assert isinstance(solver, ReferenceSolver)
                if solver.non_analyzable:
                    non_analyzable += 1
                    continue
                reference = ForayReference(
                    pc=solver.pc,
                    loop_path=path,
                    expression=solver.expression(),
                    exec_count=solver.exec_count,
                    footprint=solver.footprint,
                    reads=solver.reads,
                    writes=solver.writes,
                    mispredictions=solver.mispredictions,
                    access_size=solver.access_size,
                )
                unfiltered.append(reference)
                solver_of[id(reference)] = solver

        references = self._filter.apply(unfiltered)
        captured_addresses: set[int] = set()
        captured_accesses = 0
        for reference in references:
            captured_accesses += reference.exec_count
            captured_addresses |= solver_of[id(reference)].addresses

        # Loops "representable in FORAY form" (Table II): loops on the path
        # of any analyzable iterator-bearing reference — the step-4 size
        # thresholds prune references, not the loops they demonstrated to
        # be reconstructible.
        loop_bearing = [
            ref for ref in unfiltered if ref.expression.includes_iterator()
        ]
        model_loops: dict[int, ForayLoop] = {}
        for reference in loop_bearing:
            for loop in reference.loop_path:
                model_loops[loop.uid] = loop

        self._finished = ForayModel(
            references=references,
            unfiltered_references=unfiltered,
            loops=sorted(model_loops.values(), key=lambda lp: lp.uid),
            non_analyzable_count=non_analyzable,
            trace_stats=self.stats,
            captured_accesses=captured_accesses,
            captured_footprint=len(captured_addresses),
        )
        return self._finished

    @property
    def loop_tree_root(self) -> LoopNode:
        return self._tree.root

    def executed_loops(self) -> dict[int, str]:
        """ast node_id → loop kind for every *static* loop that executed.

        Distinct from the dynamic (inlined) loop count: a loop reached via
        two call sites appears once here but twice in the tree.
        """
        out: dict[int, str] = {}
        for node in self._tree.root.iter_subtree():
            if not node.is_root and node.ast_node_id >= 0:
                out[node.ast_node_id] = node.kind
        return out


def extract_from_records(
    records: Iterable[TraceRecord],
    checkpoint_map: CheckpointMap,
    filter_config: FilterConfig | None = None,
) -> ForayModel:
    """Run Algorithm 1 steps 3–4 over an iterable of trace records."""
    extractor = ForayExtractor(checkpoint_map, filter_config)
    extractor.consume(records)
    return extractor.finish()


def extract_from_source(
    source: str,
    filter_config: FilterConfig | None = None,
    entry: str = "main",
    max_steps: int = 200_000_000,
):
    """Full pipeline on MiniC source: annotate, profile (online), purge.

    Runs the extractor as a live trace sink — the constant-space mode the
    paper describes at the end of Section 4. Returns
    ``(model, run_result, compiled)``.
    """
    from repro.sim.machine import compile_program, run_compiled

    compiled = compile_program(source)
    extractor = ForayExtractor(compiled.checkpoint_map, filter_config)
    result = run_compiled(compiled, sinks=(extractor,), entry=entry,
                          max_steps=max_steps)
    return extractor.finish(), result, compiled
