"""Validation of a FORAY model against a (possibly different) trace.

The paper's future work asks how dependent the FORAY model is on the
profiling input. This module answers it operationally: replay any trace
against an extracted model and measure, per reference, how many accesses
the model's affine expression predicts exactly.

* Full references are predicted from the expression alone.
* Partial references are allowed to re-base their constant whenever an
  iterator outside the expression (or a context re-entry) changes — the
  semantics the paper gives them — and are scored on the accesses in
  between.

:class:`ValidationSink` implements the engines' columnar sink protocol
(``emit_columns``), so a replay can be scored *online* while the program
runs — the replayed trace is never materialized — one block at a time.
The ``validate`` pipeline stage (:mod:`repro.pipeline`) drives it over a
workload's whole input scenario matrix; :func:`validate_model` is the
offline entry point for stored record streams, batching them into
blocks for the same sink.

Typical use::

    model = extract_foray_model(source).model           # profile input A
    report = validate_model(model, records_b, cmap)     # replay input B
    assert report.overall_accuracy > 0.95

or, streaming (what the pipeline's ``validate`` stage does)::

    sink = ValidationSink(model, compiled.checkpoint_map)
    run_compiled(compiled, sinks=(sink,), config=scenario_config)
    report = sink.finish()
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter, mul
from typing import Any, Iterable

from repro.foray.looptree import LoopNode, LoopTreeBuilder, Segment
from repro.foray.model import ForayModel, ForayReference
from repro.sim.trace import (
    HAVE_NUMPY,
    LIB_PC_BASE,
    CheckpointMap,
    ColumnBlock,
    TraceRecord,
    blocks_from_records,
)

if HAVE_NUMPY:
    import numpy as _np


@dataclass
class ReferenceValidation:
    """Prediction accuracy of one model reference on one trace."""

    reference: ForayReference
    checked: int = 0
    predicted: int = 0

    @property
    def exercised(self) -> bool:
        """Whether the replayed trace reached this reference at all."""
        return self.checked > 0

    @property
    def accuracy(self) -> float:
        """Fraction of scored accesses predicted exactly.

        A reference the replayed trace never exercised scores 0.0 — it
        demonstrated nothing, so it must not read as perfectly predicted
        (it is also excluded from :attr:`ValidationReport.overall_accuracy`,
        which only aggregates scored accesses).
        """
        return self.predicted / self.checked if self.checked else 0.0


@dataclass
class ValidationReport:
    per_reference: list[ReferenceValidation] = field(default_factory=list)
    #: Model references never exercised by the replayed trace.
    unexercised: int = 0

    @property
    def total_checked(self) -> int:
        return sum(v.checked for v in self.per_reference)

    @property
    def total_predicted(self) -> int:
        return sum(v.predicted for v in self.per_reference)

    @property
    def overall_accuracy(self) -> float:
        checked = self.total_checked
        return self.total_predicted / checked if checked else 1.0

    @property
    def full_accuracy(self) -> float:
        """Accuracy over the model's *full* references only (the paper's
        strongest claim: one constant predicts every access)."""
        checked = predicted = 0
        for validation in self.per_reference:
            if validation.reference.is_full:
                checked += validation.checked
                predicted += validation.predicted
        return predicted / checked if checked else 1.0

    @property
    def unexercised_share(self) -> float:
        """Fraction of model references the replay never exercised."""
        if not self.per_reference:
            return 0.0
        return self.unexercised / len(self.per_reference)

    def exercised_references(self) -> list[ReferenceValidation]:
        return [v for v in self.per_reference if v.exercised]

    def worst_reference(self) -> ReferenceValidation | None:
        """The exercised reference with the lowest accuracy (None when
        nothing was exercised)."""
        exercised = self.exercised_references()
        if not exercised:
            return None
        return min(exercised, key=lambda v: v.accuracy)

    def summary(self) -> str:
        return (
            f"{self.total_predicted}/{self.total_checked} accesses predicted "
            f"({self.overall_accuracy:.1%}) across "
            f"{len(self.per_reference)} references; "
            f"{self.unexercised} unexercised "
            f"({self.unexercised_share:.0%} of references)"
        )

    def fingerprint(self) -> str:
        """Stable content hash of the scored outcome.

        Validation reports are persisted in the disk artifact store and
        replayed across processes; the fingerprint lets incremental runs
        assert that a disk-served report is *identical* to a recomputed
        one (per-reference identity, counts and exercised state), without
        comparing whole object graphs.
        """
        digest = hashlib.sha256()
        for validation in self.per_reference:
            reference = validation.reference
            path = ",".join(
                str(loop.begin_id) for loop in reference.loop_path
            )
            digest.update(
                f"{reference.pc}@{path}:{validation.checked}:"
                f"{validation.predicted};".encode()
            )
        digest.update(str(self.unexercised).encode())
        return digest.hexdigest()


#: Magnitude limit of exact int64 arithmetic.
_INT64_LIMIT = 2**63
#: Field readers of a :data:`repro.foray.looptree.Segment`.
_START, _END, _NODE, _ITERATORS = (itemgetter(i) for i in range(4))
_UID = attrgetter("uid")


class ValidationSink:
    """A columnar trace sink that scores a model online while an engine
    runs: attach it via ``run_compiled(..., sinks=(sink,))``, or replay
    stored records through :func:`validate_model`.

    References are matched by (loop-begin-id path, pc), which is stable
    across runs — and across input scenarios, whose sources share one AST
    skeleton by construction. Scoring is per block: the loop-tree walk
    splits the block into checkpoint-free segments, each access finds
    its reference through a (path id, pc) code, full references are
    scored with one vectorized predict-and-compare, and only partial
    references' accesses take the sequential re-anchoring loop (anchors
    carry across blocks). Library pcs are never scored, and a replayed
    nest shallower than an expression's M scores a misprediction.

    The model's constants and coefficients live in int64 arrays when
    their magnitudes allow, else in Python-int object arrays; a block
    whose iterators could overflow int64 is scored with Python ints, so
    scoring is always exact. Without numpy, each segment is scored
    access by access over :meth:`ColumnBlock.lists` with Python ints.
    """

    def __init__(self, model: ForayModel, checkpoint_map: CheckpointMap):
        references = model.references
        nref = len(references)
        self._report = ValidationReport(
            [ReferenceValidation(reference) for reference in references]
        )
        self._builder = LoopTreeBuilder(checkpoint_map)
        # A repeated (path, pc) key scores only its last reference.
        owner_of: dict[tuple[tuple[int, ...], int], int] = {}
        for index, reference in enumerate(references):
            path = tuple(loop.begin_id for loop in reference.loop_path)
            owner_of[(path, reference.pc)] = index
        #: Loop-begin-id path -> path id; node uid -> path id (-1: no
        #: reference lives under that node).
        self._path_ids: dict[tuple[int, ...], int] = {}
        self._node_paths: dict[int, int] = {}
        # User pcs lie in [0, LIB_PC_BASE), so pid * LIB_PC_BASE + pc
        # is a unique code per (path, pc).
        coded = []
        for (path, pc), index in owner_of.items():
            if 0 <= pc < LIB_PC_BASE:
                pid = self._path_ids.setdefault(path, len(self._path_ids))
                coded.append((pid * LIB_PC_BASE + pc, index))
        coded.sort()

        expressions = [reference.expression for reference in references]
        self._m = [expression.num_iterators for expression in expressions]
        width = max(self._m, default=0)
        self._width = width
        rows = [
            (expression.used_coefficients() + (0,) * width)[:width]
            for expression in expressions
        ]
        consts = [expression.const for expression in expressions]
        full = [reference.is_full for reference in references]
        #: Partial references' current anchor: the outer iterators and
        #: the re-based constant.
        self._anchors: list[tuple[int, ...] | None] = [None] * nref
        self._offsets: list[int] = [0] * nref
        self._vectorized = HAVE_NUMPY
        if not self._vectorized:
            self._owner_at = dict(coded)
            self._rows = rows
            self._consts = consts
            self._is_full = full
            self._checked: Any = [0] * nref
            self._predicted: Any = [0] * nref
            return

        self._codes: Any = _np.array([c for c, _ in coded], dtype=_np.int64)
        self._owners: Any = _np.array([i for _, i in coded], dtype=_np.intp)
        self._const_bound = max(map(abs, consts), default=0)
        self._coef_bound = max(
            (sum(map(abs, row)) for row in rows), default=0
        )
        dtype = (
            _np.int64
            if max(self._const_bound, self._coef_bound) < _INT64_LIMIT
            else object
        )
        self._const: Any = _np.array(consts, dtype=dtype)
        self._coef: Any = _np.array(rows, dtype=dtype).reshape(nref, width)
        self._m_arr: Any = _np.array(self._m, dtype=_np.int64)
        self._full: Any = _np.array(full, dtype=bool)
        self._checked = _np.zeros(nref, dtype=_np.int64)
        self._predicted = _np.zeros(nref, dtype=_np.int64)

    def _segment_paths(self, nodes: list[LoopNode]) -> list[int]:
        """The path id of each segment's node (-1: no references)."""
        uids = list(map(_UID, nodes))
        node_paths = self._node_paths
        for uid, node in dict(zip(uids, nodes)).items():
            if uid not in node_paths:
                path = tuple(loop.begin_id for loop in node.path_from_root())
                node_paths[uid] = self._path_ids.get(path, -1)
        return list(map(node_paths.__getitem__, uids))

    def emit_columns(self, block: ColumnBlock) -> None:
        segments = self._builder.walk_block(block)
        if not segments or not self._path_ids:
            return
        if not self._vectorized:
            self._score_lists(block, segments)
            return
        nseg = len(segments)
        # Per-segment columns, gathered without a Python-level loop.
        pids = _np.array(
            self._segment_paths(list(map(_NODE, segments))), dtype=_np.int64
        )
        starts = _np.fromiter(map(_START, segments), _np.intp, nseg)
        ends = _np.fromiter(map(_END, segments), _np.intp, nseg)
        seg_iters = list(map(_ITERATORS, segments))
        depths = _np.fromiter(map(len, seg_iters), _np.intp, nseg)

        # Segments cover the block in order, so this is each access's
        # segment; its (path id, pc) code finds its reference. A path
        # without references (pid -1) yields a negative code: no match.
        seg = _np.repeat(_np.arange(nseg), ends - starts)
        pcs = block.pc
        codes = pids[seg] * LIB_PC_BASE + pcs
        slot = _np.minimum(
            _np.searchsorted(self._codes, codes), len(self._codes) - 1
        )
        found = (self._codes[slot] == codes) & (pcs < LIB_PC_BASE)
        if not found.any():
            return
        ref = self._owners[slot[found]]
        seg = seg[found]
        addr = block.addr[found]

        # Iterator k of an access is flat[first + k] while k < depth
        # (the trailing pad keeps every index in range).
        width = self._width
        flat = _np.fromiter(
            chain(chain.from_iterable(seg_iters), (0,) * width), _np.int64
        )
        const, coef = self._const, self._coef
        max_iter = int(_np.abs(flat).max()) if flat.size else 0
        if const.dtype == object or (
            self._const_bound + self._coef_bound * max_iter >= _INT64_LIMIT
        ):
            const, coef = const.astype(object), coef.astype(object)
            flat, addr = flat.astype(object), addr.astype(object)
        depth = depths[seg]
        first = (_np.cumsum(depths) - depths)[seg]
        inner = _np.zeros(len(ref), dtype=flat.dtype)
        for k in range(width):
            inner += coef[ref, k] * _np.where(k < depth, flat[first + k], 0)

        shallow = depth < self._m_arr[ref]
        full = self._full[ref]
        nref = len(self._m)
        self._checked += _np.bincount(ref[full | shallow], minlength=nref)
        hit = full & ~shallow & (const[ref] + inner == addr)
        self._predicted += _np.bincount(ref[hit], minlength=nref)
        rebased = ~(full | shallow)
        if rebased.any():
            scored, predicted = self._score_rebased(
                ref[rebased].tolist(), seg[rebased].tolist(),
                addr[rebased].tolist(), inner[rebased].tolist(), seg_iters,
            )
            self._checked += _np.bincount(
                _np.array(scored, dtype=_np.intp), minlength=nref
            )
            self._predicted += _np.bincount(
                _np.array(predicted, dtype=_np.intp), minlength=nref
            )

    def _score_lists(self, block: ColumnBlock, segments: list[Segment]) -> None:
        """The numpy-free path: the same scoring, one access at a time."""
        pcs, addrs = block.lists()[:2]
        owner_at, ms, rows = self._owner_at, self._m, self._rows
        consts, is_full = self._consts, self._is_full
        checked, predicted = self._checked, self._predicted
        refs: list[int] = []
        segs: list[int] = []
        rebased_addrs: list[int] = []
        inners: list[int] = []
        seg_iters = list(map(_ITERATORS, segments))
        pids = self._segment_paths(list(map(_NODE, segments)))
        for s, (start, end, _, iterators) in enumerate(segments):
            if pids[s] < 0:
                continue
            base = pids[s] * LIB_PC_BASE
            for i in range(start, end):
                pc = pcs[i]
                r = owner_at.get(base + pc) if pc < LIB_PC_BASE else None
                if r is None:
                    continue
                if len(iterators) < ms[r]:
                    checked[r] += 1
                    continue
                inner = sum(map(mul, rows[r], iterators))
                if not is_full[r]:
                    refs.append(r)
                    segs.append(s)
                    rebased_addrs.append(addrs[i])
                    inners.append(inner)
                    continue
                checked[r] += 1
                if consts[r] + inner == addrs[i]:
                    predicted[r] += 1
        scored, hits = self._score_rebased(
            refs, segs, rebased_addrs, inners, seg_iters
        )
        for r in scored:
            checked[r] += 1
        for r in hits:
            predicted[r] += 1

    def _score_rebased(
        self,
        refs: list[int],
        segs: list[int],
        addrs: list[int],
        inners: list[int],
        seg_iters: list[tuple[int, ...]],
    ) -> tuple[list[int], list[int]]:
        """Partial references, in trace order: a new outer context
        re-anchors the constant (partial affine semantics) and is not
        scored; later accesses in that context are. Returns the scored
        and the predicted accesses' reference indices."""
        anchors, offsets, ms = self._anchors, self._offsets, self._m
        scored: list[int] = []
        predicted: list[int] = []
        for r, s, addr, inner in zip(refs, segs, addrs, inners):
            outer = seg_iters[s][ms[r]:]
            if anchors[r] != outer:
                anchors[r] = outer
                offsets[r] = addr - inner
                continue
            scored.append(r)
            if offsets[r] + inner == addr:
                predicted.append(r)
        return scored, predicted

    def finish(self) -> ValidationReport:
        report = self._report
        counts = zip(list(self._checked), list(self._predicted))
        for validation, (checked, predicted) in zip(
            report.per_reference, counts
        ):
            validation.checked = int(checked)
            validation.predicted = int(predicted)
        report.unexercised = sum(
            1 for validation in report.per_reference
            if not validation.exercised
        )
        return report


def validate_model(
    model: ForayModel,
    records: Iterable[TraceRecord],
    checkpoint_map: CheckpointMap,
) -> ValidationReport:
    """Replay stored ``records`` and score every model reference."""
    sink = ValidationSink(model, checkpoint_map)
    for block in blocks_from_records(records):
        sink.emit_columns(block)
    return sink.finish()


@dataclass(frozen=True)
class ScenarioValidation:
    """One cell of the scenario matrix: a model extracted on
    ``profile`` replayed against ``scenario``'s trace."""

    workload: str
    scenario: str
    profile: str
    engine: str
    report: ValidationReport


@dataclass(frozen=True)
class WorkloadValidation:
    """Cross-input stability of one workload's model over its matrix."""

    workload: str
    profile: str
    scenario_count: int
    #: The profile scenario replayed against its own model (sanity row:
    #: full references must score 100% here).
    self_validation: ValidationReport
    #: Every other scenario replayed against the profile model.
    cross: tuple[ScenarioValidation, ...]

    @property
    def min_accuracy(self) -> float:
        return min(
            (cell.report.overall_accuracy for cell in self.cross), default=1.0
        )

    @property
    def mean_accuracy(self) -> float:
        if not self.cross:
            return 1.0
        return sum(
            cell.report.overall_accuracy for cell in self.cross
        ) / len(self.cross)

    @property
    def max_unexercised(self) -> int:
        return max((cell.report.unexercised for cell in self.cross), default=0)

    def worst_reference(self) -> tuple[str, ReferenceValidation] | None:
        """(scenario, reference validation) of the least-predictable
        exercised reference across all cross-input replays."""
        worst: tuple[str, ReferenceValidation] | None = None
        for cell in self.cross:
            candidate = cell.report.worst_reference()
            if candidate is None:
                continue
            if worst is None or candidate.accuracy < worst[1].accuracy:
                worst = (cell.scenario, candidate)
        return worst

    def passes(self, threshold: float = 0.0) -> bool:
        """The CI gate: full references must self-validate perfectly and
        every cross-input replay must clear the accuracy threshold.

        A replay that scored nothing (``total_checked == 0``) demonstrated
        nothing — its vacuous 100% overall accuracy must not satisfy the
        gate, so such cells (self-validation included) fail it outright.
        """
        return (
            self.self_validation.full_accuracy == 1.0
            and self.self_validation.total_checked > 0
            and all(cell.report.total_checked > 0 for cell in self.cross)
            and self.min_accuracy >= threshold
        )
