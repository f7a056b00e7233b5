"""Algorithm 2 — reconstructing the dynamic loop tree from the trace.

The trace contains only checkpoint ids (three kinds per loop). The builder
maintains a stack of ``(loop node, body_open)`` entries:

* **loop-begin** pops any closed-body tops, then descends into (creating on
  demand) the child identified by the begin-checkpoint id and resets its
  iteration counter;
* **body-begin** pops until the matching node is on top, marks the body
  open and increments the node's iterator;
* **body-end** pops until the matching node is on top and marks the body
  closed.

Popping on mismatch is what lets three checkpoint kinds disambiguate loop
*exit* (which has no checkpoint of its own — see the paper's Figure 4(c),
where the inner ``for`` simply stops appearing) and sequential-vs-nested
loops.

Every entry below the top of that stack always has its body open, and
the stack is exactly the top node's path from the root. So the builder
keeps only ``(top node, top body open)``: that pair is the whole state,
which is what lets :meth:`LoopTreeBuilder.walk_block` memoize every
transition on ``(top, body open, checkpoint id, kind)``.

Because a node is identified by its *path* from the root, a loop executed
under two different call sites (or two different outer loops) yields two
distinct nodes — this is the "functions appear inlined" property the paper
uses for inlining hints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator

from repro.sim.trace import (
    BODY_BEGIN_CODE,
    LOOP_BEGIN_CODE,
    Checkpoint,
    CheckpointKind,
    CheckpointMap,
    ColumnBlock,
    KIND_TO_CODE,
)

_ITERATION = attrgetter("iteration")


@dataclass
class LoopNode:
    """One node of the dynamic loop tree."""

    begin_id: int  # 0 for the synthetic root
    kind: str  # "for" | "while" | "do" | "root"
    parent: "LoopNode | None" = None
    depth: int = 0
    #: Unique id of this dynamic node (distinguishes the same static loop
    #: reached through different call contexts — "inlined" instances).
    uid: int = 0
    #: node_id of the loop's AST node (joins dynamic results back to the
    #: source program for Table II and the static baseline).
    ast_node_id: int = -1
    children: dict[int, "LoopNode"] = field(default_factory=dict)

    # Dynamic state maintained during trace processing.
    iteration: int = -1  # current iterator value (paper's per-loop counter)
    entries: int = 0
    total_iterations: int = 0
    max_trip: int = 0
    min_trip: int | None = None

    # Per-(node, pc) Algorithm-3 state lives here; the extractor owns the
    # value type to avoid a circular import.
    references: dict[int, object] = field(default_factory=dict)

    #: This node and its enclosing loops, innermost first (root excluded):
    #: the loops whose iterators form the paper's IT1..ITN vector here.
    lineage: tuple["LoopNode", ...] = field(
        default=(), init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.parent is not None:
            self.lineage = (self,) + self.parent.lineage

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def path_from_root(self) -> tuple["LoopNode", ...]:
        """Loop nodes from the outermost enclosing loop down to self
        (excluding the root)."""
        return self.lineage[::-1]

    def iterators(self) -> tuple[int, ...]:
        """Current iterator values of :attr:`lineage`, innermost first."""
        return tuple(map(_ITERATION, self.lineage))

    def begin_entry(self) -> None:
        self._close_trip()
        self.entries += 1
        self.iteration = -1

    def begin_iteration(self) -> None:
        self.iteration += 1
        self.total_iterations += 1
        if self.iteration + 1 > self.max_trip:
            self.max_trip = self.iteration + 1

    def _close_trip(self) -> None:
        """Record the trip count of the entry that just finished."""
        if self.entries > 0:
            trip = self.iteration + 1
            if self.min_trip is None or trip < self.min_trip:
                self.min_trip = trip

    def finalize(self) -> None:
        """Close the last entry's trip count, recursively."""
        self._close_trip()
        for child in self.children.values():
            child.finalize()

    def iter_subtree(self) -> Iterator["LoopNode"]:
        yield self
        for child in self.children.values():
            yield from child.iter_subtree()


#: One checkpoint-free run of a block's accesses, ``[start, end)``, with
#: the loop node they belong to and its iterator vector (innermost first).
Segment = tuple[int, int, LoopNode, tuple[int, ...]]


class LoopTreeBuilder:
    """Streaming implementation of Algorithm 2.

    Feed :class:`Checkpoint` records through :meth:`on_checkpoint`, or
    whole trace blocks through :meth:`walk_block`; between checkpoints,
    :attr:`current` is the loop node that subsequent memory accesses
    belong to and :meth:`current_iterators` gives the paper's IT1..ITN
    vector (innermost first).
    """

    def __init__(self, checkpoint_map: CheckpointMap):
        self._map = checkpoint_map
        self.root = LoopNode(0, "root")
        self._next_uid = 1
        #: Top of the loop stack and whether its body is open; the stack
        #: itself is ``_top``'s path from the root.
        self._top = self.root
        self._open = True
        #: (top uid, top body open, checkpoint id, kind code) -> new top.
        self._transitions: dict[tuple[int, bool, int, int], LoopNode] = {}

    @property
    def current(self) -> LoopNode:
        return self._top

    @property
    def depth(self) -> int:
        """Loop nest depth at the current position (root not counted)."""
        return self._top.depth

    def current_iterators(self) -> tuple[int, ...]:
        """IT1..ITN — current iterator values, innermost loop first."""
        return self._top.iterators()

    def on_checkpoint(self, record: Checkpoint) -> None:
        self.on_checkpoint_code(record.checkpoint_id, KIND_TO_CODE[record.kind])

    def on_checkpoint_code(self, checkpoint_id: int, kind_code: int) -> None:
        """Batched-protocol entry point: kind as a compact integer code
        (see :data:`repro.sim.trace.KIND_TO_CODE`)."""
        if kind_code == LOOP_BEGIN_CODE:
            self._on_loop_begin(checkpoint_id)
        elif kind_code == BODY_BEGIN_CODE:
            self._on_body_begin(checkpoint_id)
        else:
            self._on_body_end(checkpoint_id)

    def walk_block(self, block: ColumnBlock) -> list[Segment]:
        """Apply a block's checkpoints; return its non-empty access runs.

        Each run is one :data:`Segment`, its iterator vector snapshotted
        when the run starts. A transition seen before is replayed from
        the memo (plus its counter side effect); first sightings, and
        every failing checkpoint, go through :meth:`on_checkpoint_code`,
        so errors raise exactly as they do there and are never memoized.
        """
        segments: list[Segment] = []
        transitions = self._transitions
        top = self._top
        top_open = self._open
        start = 0
        for pos, checkpoint_id, kind_code in block.checkpoints:
            if pos > start:
                segments.append((start, pos, top, top.iterators()))
                start = pos
            key = (top.uid, top_open, checkpoint_id, kind_code)
            nxt = transitions.get(key)
            if nxt is None:
                self._top, self._open = top, top_open
                self.on_checkpoint_code(checkpoint_id, kind_code)
                nxt = transitions[key] = self._top
            elif kind_code == BODY_BEGIN_CODE:
                nxt.begin_iteration()
            elif kind_code == LOOP_BEGIN_CODE:
                nxt.begin_entry()
            top = nxt
            top_open = kind_code == BODY_BEGIN_CODE
        if block.n > start:
            segments.append((start, block.n, top, top.iterators()))
        self._top, self._open = top, top_open
        return segments

    def _on_loop_begin(self, begin_id: int) -> None:
        # A new loop starting while the top's body is closed means the top
        # loop has exited: pop it.
        parent = self._top
        if not self._open and parent.parent is not None:
            parent = parent.parent
        child = parent.children.get(begin_id)
        if child is None:
            info = self._map.infos.get(begin_id)
            kind = info.loop_kind if info is not None else "loop"
            ast_node_id = info.loop_node_id if info is not None else -1
            child = LoopNode(begin_id, kind, parent, parent.depth + 1,
                             uid=self._next_uid, ast_node_id=ast_node_id)
            self._next_uid += 1
            parent.children[begin_id] = child
        child.begin_entry()
        self._top, self._open = child, False

    def _find_on_stack(self, begin_id: int, body_kind: CheckpointKind) -> None:
        """Pop until the node owning ``begin_id`` is on top."""
        node = self._top
        while node.parent is not None and node.begin_id != begin_id:
            node = node.parent
        if node is not self._top:
            # Every entry below the top has its body open.
            self._top, self._open = node, True
        if node.begin_id != begin_id:
            raise ValueError(
                f"{body_kind.value} checkpoint for loop {begin_id} "
                "without a matching loop-begin"
            )

    def _on_body_begin(self, body_begin_id: int) -> None:
        begin_id = self._owning_loop(body_begin_id)
        self._find_on_stack(begin_id, CheckpointKind.BODY_BEGIN)
        self._open = True
        self._top.begin_iteration()

    def _on_body_end(self, body_end_id: int) -> None:
        begin_id = self._owning_loop(body_end_id)
        self._find_on_stack(begin_id, CheckpointKind.BODY_END)
        self._open = False

    def _owning_loop(self, checkpoint_id: int) -> int:
        """Map a body-begin/body-end id back to its loop's begin id."""
        begin_id = self._map.begin_id_for(checkpoint_id)
        if begin_id is None:
            raise ValueError(f"unknown checkpoint id {checkpoint_id}")
        return begin_id

    def finish(self) -> LoopNode:
        """Finalize trip counts and return the tree root.

        The transition memo is dropped: no checkpoint follows, and a
        finished extractor is pickled into the artifact store."""
        self._transitions.clear()
        self.root.finalize()
        return self.root
