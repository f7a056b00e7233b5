"""Unit tests for Algorithm 2 (loop tree reconstruction).

These tests drive the builder with synthetic checkpoint streams so the
tricky disambiguation cases (nested vs sequential, zero-iteration loops,
re-entry, missing body-ends after break) are pinned independently of the
simulator.
"""

import pytest

from repro.foray.looptree import LoopTreeBuilder
from repro.sim.trace import (
    KIND_TO_CODE,
    Access,
    Checkpoint,
    CheckpointInfo,
    CheckpointKind,
    CheckpointMap,
    ColumnBlock,
    blocks_from_records,
)

B, S, E = (CheckpointKind.LOOP_BEGIN, CheckpointKind.BODY_BEGIN,
           CheckpointKind.BODY_END)


def make_map(num_loops: int, kind: str = "for") -> CheckpointMap:
    cmap = CheckpointMap()
    for loop in range(num_loops):
        base = 10 + 3 * loop
        cmap.add(CheckpointInfo(base, B, 100 + loop, kind))
        cmap.add(CheckpointInfo(base + 1, S, 100 + loop, kind))
        cmap.add(CheckpointInfo(base + 2, E, 100 + loop, kind))
    return cmap


#: The same loop entered twice from one context.
REENTRY = [
    (10, B), (11, S), (12, E),
    (10, B), (11, S), (12, E), (11, S), (12, E),
]
#: A break that still closes the body, then a sibling loop.
BREAK_CLEANUP = [
    (10, B), (11, S), (12, E), (11, S), (12, E),  # second iter broke
    (13, B), (14, S), (15, E),
]
#: A genuinely missing body-end: the next loop nests instead.
MISNEST = [
    (10, B), (11, S),  # body left open
    (13, B), (14, S), (15, E),
]
#: Loop 13 under loop 10, then at top level.
TWO_CONTEXTS = [
    (10, B), (11, S), (13, B), (14, S), (15, E), (12, E),
    (13, B), (14, S), (15, E),
]


def build(cmap, events):
    builder = LoopTreeBuilder(cmap)
    for checkpoint_id, kind in events:
        builder.on_checkpoint(Checkpoint(checkpoint_id, kind))
    return builder


class TestStructure:
    def test_single_loop_two_iterations(self):
        builder = build(make_map(1), [
            (10, B), (11, S), (12, E), (11, S), (12, E),
        ])
        root = builder.finish()
        (node,) = root.children.values()
        assert node.begin_id == 10
        assert node.max_trip == 2
        assert node.min_trip == 2
        assert node.entries == 1
        assert node.total_iterations == 2

    def test_nested_loops(self):
        builder = build(make_map(2), [
            (10, B), (11, S),
            (13, B), (14, S), (15, E),
            (12, E),
        ])
        root = builder.finish()
        outer = root.children[10]
        assert list(outer.children) == [13]
        assert outer.children[13].depth == 2

    def test_sequential_loops_are_siblings(self):
        builder = build(make_map(2), [
            (10, B), (11, S), (12, E),
            (13, B), (14, S), (15, E),
        ])
        root = builder.finish()
        assert set(root.children) == {10, 13}
        assert root.children[13].depth == 1

    def test_sequential_inside_outer(self):
        cmap = make_map(3)
        builder = build(cmap, [
            (10, B), (11, S),
            (13, B), (14, S), (15, E),
            (16, B), (17, S), (18, E),
            (12, E),
        ])
        root = builder.finish()
        outer = root.children[10]
        assert set(outer.children) == {13, 16}

    def test_zero_iteration_loop(self):
        builder = build(make_map(2), [
            (10, B),                # never iterates
            (13, B), (14, S), (15, E),
        ])
        root = builder.finish()
        assert set(root.children) == {10, 13}
        assert root.children[10].max_trip == 0

    def test_reentry_same_node(self):
        # The same loop entered twice (e.g. a function called twice from
        # the same context) maps to ONE node with two entries.
        builder = build(make_map(1), REENTRY)
        root = builder.finish()
        (node,) = root.children.values()
        assert node.entries == 2
        assert node.min_trip == 1
        assert node.max_trip == 2

    def test_inner_loop_reentered_per_outer_iteration(self):
        builder = build(make_map(2), [
            (10, B),
            (11, S), (13, B), (14, S), (15, E), (12, E),
            (11, S), (13, B), (14, S), (15, E), (12, E),
        ])
        root = builder.finish()
        inner = root.children[10].children[13]
        assert inner.entries == 2
        assert inner.total_iterations == 2

    def test_break_with_cleanup_body_end(self):
        # Our annotator closes the body on break, so the stream stays
        # well-nested and the next loop is correctly a sibling.
        builder = build(make_map(2), BREAK_CLEANUP)
        root = builder.finish()
        assert set(root.children) == {10, 13}

    def test_missing_body_end_misnests(self):
        # Documented limitation of three-kind checkpoint streams: if a
        # body-end is genuinely missing, a following loop-begin cannot be
        # distinguished from a nested loop.
        builder = build(make_map(2), MISNEST)
        root = builder.finish()
        assert set(root.children) == {10}
        assert set(root.children[10].children) == {13}

    def test_same_loop_different_contexts_distinct_nodes(self):
        # Loop 13 under loop 10 vs at top level: two nodes (inlining).
        builder = build(make_map(2), TWO_CONTEXTS)
        root = builder.finish()
        nested = root.children[10].children[13]
        top = root.children[13]
        assert nested.uid != top.uid
        assert nested.ast_node_id == top.ast_node_id


class TestIterators:
    def test_iterator_values_track_body_begins(self):
        cmap = make_map(2)
        builder = LoopTreeBuilder(cmap)
        seen = []
        events = [
            (10, B), (11, S),
            (13, B), (14, S), (15, E), (14, S), (15, E),
            (12, E),
            (11, S),
            (13, B), (14, S),
        ]
        for checkpoint_id, kind in events:
            builder.on_checkpoint(Checkpoint(checkpoint_id, kind))
            seen.append(builder.current_iterators())
        # After the last body-begin of loop 13 under outer iteration 1:
        assert seen[-1] == (0, 1)  # innermost first

    def test_depth_tracks_stack(self):
        builder = build(make_map(2), [(10, B), (11, S), (13, B), (14, S)])
        assert builder.depth == 2

    def test_unknown_checkpoint_rejected(self):
        builder = LoopTreeBuilder(make_map(1))
        with pytest.raises(ValueError):
            builder.on_checkpoint(Checkpoint(99, S))

    def test_kind_recorded_from_map(self):
        builder = build(make_map(1, kind="do"), [(10, B), (11, S), (12, E)])
        (node,) = builder.finish().children.values()
        assert node.kind == "do"

    def test_path_from_root(self):
        builder = build(make_map(2), [(10, B), (11, S), (13, B), (14, S)])
        path = builder.current.path_from_root()
        assert [n.begin_id for n in path] == [10, 13]


def tree_state(builder):
    """Everything the loop tree holds, node by node, after finish()."""
    return [
        (node.uid, node.begin_id, node.depth, node.entries,
         node.total_iterations, node.max_trip, node.min_trip,
         node.iteration)
        for node in builder.finish().iter_subtree()
    ]


def per_record(cmap, events):
    """Drive ``on_checkpoint``; record (uid, iterators) after each event."""
    builder = LoopTreeBuilder(cmap)
    seen = []
    for checkpoint_id, kind in events:
        builder.on_checkpoint(Checkpoint(checkpoint_id, kind))
        seen.append((builder.current.uid, builder.current_iterators()))
    return builder, seen


def walked(cmap, events, block_size):
    """Drive ``walk_block`` with one access after each checkpoint, cut
    into blocks of ``block_size`` accesses; (uid, iterators) per access."""
    records = []
    for checkpoint_id, kind in events:
        records.append(Checkpoint(checkpoint_id, kind))
        records.append(Access(0x400000, 0, 4, False))
    builder = LoopTreeBuilder(cmap)
    seen = []
    for block in blocks_from_records(records, block_size):
        for start, end, node, iterators in builder.walk_block(block):
            seen.extend([(node.uid, iterators)] * (end - start))
    return builder, seen


def checkpoint_block(events):
    """One access-free block carrying ``events``."""
    return ColumnBlock.from_tuples(
        [], [(0, checkpoint_id, KIND_TO_CODE[kind])
             for checkpoint_id, kind in events]
    )


class TestBlockWalkParity:
    """The memoized block walk must build exactly the tree, and report
    exactly the iterators, that per-checkpoint processing does."""

    STREAMS = {
        "misnest": (2, MISNEST),
        "break-cleanup": (2, BREAK_CLEANUP),
        "re-entry": (1, REENTRY),
        "two-contexts": (2, TWO_CONTEXTS),
    }

    @pytest.mark.parametrize("repeats", (1, 3))
    @pytest.mark.parametrize("block_size", (1, 3, 4096))
    @pytest.mark.parametrize("stream", sorted(STREAMS))
    def test_same_tree_and_iterators(self, stream, block_size, repeats):
        num_loops, events = self.STREAMS[stream]
        events = events * repeats  # repeats replay memoized transitions
        expected, expected_seen = per_record(make_map(num_loops), events)
        builder, seen = walked(make_map(num_loops), events, block_size)
        assert seen == expected_seen
        assert tree_state(builder) == tree_state(expected)

    def test_checkpoint_only_block(self):
        expected, _ = per_record(make_map(2), TWO_CONTEXTS)
        builder = LoopTreeBuilder(make_map(2))
        assert builder.walk_block(checkpoint_block(TWO_CONTEXTS)) == []
        assert builder.current_iterators() == expected.current_iterators()
        assert tree_state(builder) == tree_state(expected)


class TestBlockWalkFaults:
    """Faulty checkpoints raise the same ValueError through the walk as
    through ``on_checkpoint`` — on a repeat too, so no error is ever
    served from the memo — and leave the builder in the same state."""

    FAULTS = {
        "unknown-id": (1, (99, S), "unknown checkpoint id 99"),
        "body-begin-without-loop": (
            2, (14, S),
            "body-begin checkpoint for loop 13 without a matching "
            "loop-begin",
        ),
        "body-end-without-loop": (
            2, (15, E),
            "body-end checkpoint for loop 13 without a matching loop-begin",
        ),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_same_error_first_and_repeat(self, fault):
        num_loops, bad, message = self.FAULTS[fault]
        prefix = [(10, B), (11, S), (12, E), (11, S)]
        expected = LoopTreeBuilder(make_map(num_loops))
        builder = LoopTreeBuilder(make_map(num_loops))
        # Each fault repeats at once and again after the prefix, so some
        # repeat meets it in the state of its first occurrence.
        for _ in range(2):
            for checkpoint_id, kind in prefix:
                expected.on_checkpoint(Checkpoint(checkpoint_id, kind))
            builder.walk_block(checkpoint_block(prefix))
            for _ in range(2):
                with pytest.raises(ValueError) as record_error:
                    expected.on_checkpoint(Checkpoint(*bad))
                with pytest.raises(ValueError) as walk_error:
                    builder.walk_block(checkpoint_block([bad]))
                assert str(record_error.value) == message
                assert str(walk_error.value) == message
                assert builder.current.uid == expected.current.uid
                assert (builder.current_iterators()
                        == expected.current_iterators())
        assert tree_state(builder) == tree_state(expected)
