"""Tests for model validation / cross-input prediction accuracy."""

from dataclasses import replace

import pytest

from repro.foray.extractor import ForayExtractor, extract_from_records
from repro.foray.filters import FilterConfig
from repro.foray.looptree import LoopTreeBuilder
from repro.foray.model import (
    AffineExpression,
    ForayLoop,
    ForayModel,
    ForayReference,
)
from repro.foray import validate as validate_module
from repro.foray.validate import (
    ReferenceValidation,
    ValidationReport,
    ValidationSink,
    validate_model,
)
from repro.sim.machine import EngineConfig, compile_program, run_compiled
from repro.sim.trace import (
    Access,
    Checkpoint,
    CheckpointInfo,
    CheckpointKind,
    CheckpointMap,
    TraceCollector,
    is_library_pc,
)
from repro.workloads.registry import MIBENCH_WORKLOADS

RELAXED = FilterConfig(nexec=1, nloc=1)


class _RefState:
    __slots__ = ("validation", "expression", "rebase", "offset", "anchor_iters")

    def __init__(self, validation):
        self.validation = validation
        self.expression = validation.reference.expression
        #: Partial expressions may re-anchor their constant per context.
        self.rebase = not validation.reference.is_full
        self.offset = None
        self.anchor_iters = None


def _score_access(state, addr, iterators):
    expression = state.expression
    m = expression.num_iterators
    if len(iterators) < m:
        # The replayed nest is shallower than the expression: the
        # prediction is undefined, so score a misprediction.
        state.validation.checked += 1
        return
    inner = iterators[:m]
    inner_part = sum(
        coefficient * value
        for coefficient, value in zip(expression.used_coefficients(), inner)
    )
    if state.rebase:
        outer = iterators[m:]
        if state.offset is None or state.anchor_iters != outer:
            # New outer context: re-anchor the constant (partial affine
            # semantics) and do not score this access.
            state.offset = addr - inner_part
            state.anchor_iters = outer
            return
        predicted = state.offset + inner_part
    else:
        predicted = expression.const + inner_part

    state.validation.checked += 1
    if predicted == addr:
        state.validation.predicted += 1


def scalar_validate(model, records, checkpoint_map):
    """The differential oracle: score ``records`` one access at a time
    with Python ints, the loop tree driven checkpoint by checkpoint."""
    report = ValidationReport(
        [ReferenceValidation(reference) for reference in model.references]
    )
    states = {}
    for validation in report.per_reference:
        reference = validation.reference
        path = tuple(loop.begin_id for loop in reference.loop_path)
        states[(path, reference.pc)] = _RefState(validation)
    builder = LoopTreeBuilder(checkpoint_map)
    for record in records:
        if isinstance(record, Checkpoint):
            builder.on_checkpoint(record)
            continue
        if is_library_pc(record.pc):
            continue
        node = builder.current
        path = tuple(loop.begin_id for loop in node.path_from_root())
        state = states.get((path, record.pc))
        if state is not None:
            _score_access(state, record.addr, builder.current_iterators())
    report.unexercised = sum(
        1 for validation in report.per_reference if not validation.exercised
    )
    return report


def profile(source, filter_config=None):
    compiled = compile_program(source)
    collector = TraceCollector()
    extractor = ForayExtractor(compiled.checkpoint_map, filter_config)
    run_compiled(compiled, sinks=(collector, extractor))
    return extractor.finish(), collector, compiled


AFFINE = """
int g[128];
int main() {
    int i, j;
    for (i = 0; i < 4; i++)
        for (j = 0; j < 32; j++)
            g[32 * i + j] = i + j;
    return 0;
}
"""

#: Partial references: one constant per call context (``lines[x]``).
PARTIAL = """
int A[4096];
int lines[8] = {0, 900, 140, 2100, 350, 2800, 490, 3500};
int acc;
int foo(int off) { int i; int r = 0;
    for (i = 0; i < 64; i++) r += A[i + off]; return r; }
int main() { int x; for (x = 0; x < 8; x++) acc += foo(lines[x]);
    return 0; }
"""


class TestSelfValidation:
    def test_full_model_predicts_its_own_trace(self):
        model, collector, compiled = profile(AFFINE)
        report = validate_model(model, collector.records, compiled.checkpoint_map)
        assert report.overall_accuracy == 1.0
        assert report.total_checked == 128
        assert report.unexercised == 0

    def test_partial_model_predicts_within_contexts(self):
        model, collector, compiled = profile(PARTIAL)
        assert model.partial_references()
        report = validate_model(model, collector.records, compiled.checkpoint_map)
        # Each context re-anchors once; everything else must be predicted.
        assert report.overall_accuracy == 1.0

    def test_summary_text(self):
        model, collector, compiled = profile(AFFINE)
        report = validate_model(model, collector.records, compiled.checkpoint_map)
        assert "128/128" in report.summary()


class TestCrossInputValidation:
    """The paper's future-work question: does the model transfer across
    profiling inputs? For data-independent access patterns it must."""

    TEMPLATE = """
    int g[256];
    int main() {{
        int i;
        for (i = 0; i < 256; i++) g[i] = i * {scale};
        return 0;
    }}
    """

    def test_model_transfers_when_pattern_is_data_independent(self):
        model_a, _, _ = profile(self.TEMPLATE.format(scale=3))
        _, collector_b, compiled_b = profile(self.TEMPLATE.format(scale=9))
        report = validate_model(model_a, collector_b.records,
                                compiled_b.checkpoint_map)
        assert report.overall_accuracy == 1.0

    def test_data_dependent_model_fails_to_transfer(self):
        source_a = """
        int g[256]; int n = 200;
        int main() { int i; for (i = 0; i < n; i++) g[i] = i; return 0; }
        """
        source_b = """
        int g[256]; int n = 200;
        int main() { int i; for (i = 0; i < n; i++) g[i + 7] = i; return 0; }
        """
        model_a, _, _ = profile(source_a)
        _, collector_b, compiled_b = profile(source_b)
        report = validate_model(model_a, collector_b.records,
                                compiled_b.checkpoint_map)
        # The base shifted: a full expression from run A mispredicts run B.
        assert report.overall_accuracy < 0.5

    def test_unexercised_references_counted(self):
        model_a, _, _ = profile(AFFINE)
        # Replay an empty trace.
        _, _, compiled = profile(AFFINE)
        report = validate_model(model_a, [], compiled.checkpoint_map)
        assert report.unexercised == len(model_a.references)
        assert report.overall_accuracy == 1.0  # vacuous: nothing scored
        # Regression: an unexercised reference demonstrated nothing, so
        # its per-reference accuracy must read 0.0, not a vacuous 1.0.
        assert all(v.accuracy == 0.0 for v in report.per_reference)
        assert not any(v.exercised for v in report.per_reference)
        assert report.unexercised_share == 1.0
        assert "100% of references" in report.summary()

    def test_library_accesses_ignored(self):
        source = """
        int a[64]; int b[64];
        int main() { int i; for (i = 0; i < 64; i++) a[i] = i;
            memcpy(b, a, 256); return 0; }
        """
        model, collector, compiled = profile(source)
        report = validate_model(model, collector.records, compiled.checkpoint_map)
        assert report.total_checked == 64  # only the user store


def _one_loop_map() -> CheckpointMap:
    cmap = CheckpointMap()
    cmap.add(CheckpointInfo(1, CheckpointKind.LOOP_BEGIN, 10, "for"))
    cmap.add(CheckpointInfo(2, CheckpointKind.BODY_BEGIN, 10, "for"))
    cmap.add(CheckpointInfo(3, CheckpointKind.BODY_END, 10, "for"))
    return cmap


def _one_loop_trace(pc, addrs):
    records = [Checkpoint(1, CheckpointKind.LOOP_BEGIN)]
    for addr in addrs:
        records.append(Checkpoint(2, CheckpointKind.BODY_BEGIN))
        records.append(Access(pc, addr, 4, True))
        records.append(Checkpoint(3, CheckpointKind.BODY_END))
    return records


class TestShallowTraceRegression:
    """A replayed nest shallower than the expression must score
    mispredictions, not zip-truncate into garbage matches."""

    PC = 0x400008

    def _deep_model(self):
        loop = ForayLoop(begin_id=1, kind="for", depth=1, max_trip=4,
                         min_trip=4, entries=1, total_iterations=4)
        # The expression claims two iterators, but the reference sits
        # under a single loop in the replayed trace.
        expression = AffineExpression(const=1000, coefficients=(4, 64),
                                      num_iterators=2)
        reference = ForayReference(pc=self.PC, loop_path=(loop,),
                                   expression=expression, exec_count=4,
                                   footprint=16, reads=0, writes=4)
        return ForayModel(references=[reference])

    def test_shallow_iterators_score_as_mispredictions(self):
        model = self._deep_model()
        # addr == const: the old zip-truncating code "predicted" the
        # first access (4*0 == 0) even though the second iterator is
        # missing entirely.
        records = _one_loop_trace(self.PC, [1000, 1004, 1008, 1012])
        report = validate_model(model, records, _one_loop_map())
        validation = report.per_reference[0]
        assert validation.checked == 4
        assert validation.predicted == 0
        assert validation.accuracy == 0.0
        assert report.unexercised == 0  # exercised, just unpredictable

    def test_shallow_partial_scores_without_anchoring(self):
        loop = ForayLoop(begin_id=1, kind="for", depth=1, max_trip=4,
                         min_trip=4, entries=1, total_iterations=4)
        # A partial expression (M = 2 of 3 iterators) under one loop.
        expression = AffineExpression(const=1000, coefficients=(4, 64, 8),
                                      num_iterators=2)
        reference = ForayReference(pc=self.PC, loop_path=(loop,),
                                   expression=expression, exec_count=4,
                                   footprint=16, reads=0, writes=4)
        model = ForayModel(references=[reference])
        assert not reference.is_full
        records = _one_loop_trace(self.PC, [1000, 1004, 1008, 1012])
        report = validate_model(model, records, _one_loop_map())
        assert report == scalar_validate(model, records, _one_loop_map())
        validation = report.per_reference[0]
        assert (validation.checked, validation.predicted) == (4, 0)

    def test_matching_depth_still_scores_normally(self):
        loop = ForayLoop(begin_id=1, kind="for", depth=1, max_trip=4,
                         min_trip=4, entries=1, total_iterations=4)
        expression = AffineExpression(const=1000, coefficients=(4,),
                                      num_iterators=1)
        reference = ForayReference(pc=self.PC, loop_path=(loop,),
                                   expression=expression, exec_count=4,
                                   footprint=16, reads=0, writes=4)
        model = ForayModel(references=[reference])
        records = _one_loop_trace(self.PC, [1000, 1004, 1008, 1012])
        report = validate_model(model, records, _one_loop_map())
        assert report.overall_accuracy == 1.0


class TestValidationSinkProtocol:
    """The block sink must agree with the scalar per-access oracle."""

    def test_live_sink_matches_scalar_oracle(self):
        model, collector, compiled = profile(AFFINE)
        offline = scalar_validate(model, collector.records,
                                  compiled.checkpoint_map)

        # Re-run the program with the sink attached live (columnar path).
        sink = ValidationSink(model, compiled.checkpoint_map)
        run_compiled(compiled, sinks=(sink,))
        online = sink.finish()
        assert online == offline
        assert online.fingerprint() == offline.fingerprint()
        assert online.total_checked == 128

    def test_full_accuracy_restricted_to_full_references(self):
        model, collector, compiled = profile(AFFINE)
        report = validate_model(model, collector.records,
                                compiled.checkpoint_map)
        assert model.full_references()
        assert report.full_accuracy == 1.0
        worst = report.worst_reference()
        assert worst is not None and worst.accuracy == 1.0


#: Cross-input replay of PARTIAL: other contexts, and one context whose
#: inner stride breaks (``2 * i``), so re-anchoring and misses both occur.
PARTIAL_CROSS = PARTIAL.replace(
    "{0, 900, 140, 2100, 350, 2800, 490, 3500}",
    "{7, 900, 900, 30, 350, 1, 490, 2}",
).replace("A[i + off]", "A[i + off + (off == 30) * i]")


def _replay(model, source, trace_block, config=None):
    """Run ``source`` once with a live ValidationSink, a live extractor
    and a collector attached, at ``trace_block`` accesses per block."""
    compiled = compile_program(source)
    cmap = compiled.checkpoint_map
    collector = TraceCollector()
    sink = ValidationSink(model, cmap)
    extractor = ForayExtractor(cmap, RELAXED)
    config = replace(config or EngineConfig(), trace_block_size=trace_block)
    run_compiled(compiled, sinks=(collector, sink, extractor), config=config)
    return sink.finish(), extractor.finish(), collector.records, cmap


class TestBlockBoundaryParity:
    """Reports and models must not depend on where blocks split the
    trace: segments and anchors carried across blocks, checkpoints at
    ``pos == n`` and empty blocks all occur at block sizes 1 and 3."""

    @pytest.mark.parametrize("engine", ("bytecode", "ast"))
    @pytest.mark.parametrize("trace_block", (1, 3, 4096))
    @pytest.mark.parametrize("profile_source, replay_source", [
        (AFFINE, AFFINE),
        (PARTIAL, PARTIAL),
        (PARTIAL, PARTIAL_CROSS),
    ], ids=("affine", "partial", "partial-cross"))
    def test_matches_scalar_oracle(self, profile_source, replay_source,
                                   trace_block, engine):
        # The AST engine also flushes many access-free blocks.
        model, _, _ = profile(profile_source, RELAXED)
        report, extracted, records, cmap = _replay(
            model, replay_source, trace_block, EngineConfig(engine=engine)
        )
        oracle = scalar_validate(model, records, cmap)
        assert report == oracle
        assert report.fingerprint() == oracle.fingerprint()
        assert extracted == extract_from_records(records, cmap, RELAXED)
        assert report.total_checked > 0
        if replay_source is PARTIAL_CROSS:
            assert 0 < report.overall_accuracy < 1

    @pytest.mark.parametrize("name", ("adpcm", "mpeg2"))
    def test_kernel_cross_scenario_at_small_blocks(self, name):
        workload = MIBENCH_WORKLOADS[name]
        profile_scenario, replay_scenario = workload.scenarios[:2]
        model, _, _ = profile(workload.source_for(profile_scenario), RELAXED)
        report, extracted, records, cmap = _replay(
            model, workload.source_for(replay_scenario), 3,
            EngineConfig(input=replay_scenario.input),
        )
        oracle = scalar_validate(model, records, cmap)
        assert report == oracle
        assert report.total_checked > 0
        assert extracted == extract_from_records(records, cmap, RELAXED)


class TestExactArithmetic:
    """Constants, coefficients and predictions beyond int64 must score
    exactly as Python ints do: no wrap-around may fake a hit."""

    PC = 0x400008

    def _model(self, const, coefficients, num_iterators):
        loop = ForayLoop(begin_id=1, kind="for", depth=1, max_trip=4,
                         min_trip=4, entries=1, total_iterations=4)
        expression = AffineExpression(const=const, coefficients=coefficients,
                                      num_iterators=num_iterators)
        reference = ForayReference(pc=self.PC, loop_path=(loop,),
                                   expression=expression, exec_count=4,
                                   footprint=4, reads=0, writes=4)
        return ForayModel(references=[reference])

    @pytest.mark.parametrize("const, coefficient, predicted", [
        # const + 4*i wraps (mod 2**64) onto the addresses: no hit.
        (2**64 + 1000, 4, 0),
        # The coefficient wraps to 4: only i == 0 really predicts.
        (1000, 2**64 + 4, 1),
        # Representable model, but 2**62 * i overflows from i == 2.
        (1000, 2**62, 2),
    ])
    def test_wide_values_score_exactly(self, const, coefficient, predicted):
        model = self._model(const, (coefficient,), 1)
        addrs = [(1000 + 4 * i) for i in range(4)]
        if coefficient == 2**62:
            # Where int64 arithmetic would land for i >= 2.
            addrs = [1000, 1000 + 2**62] + [
                (1000 + 2**62 * i + 2**63) % 2**64 - 2**63 for i in (2, 3)
            ]
        records = _one_loop_trace(self.PC, addrs)
        report = validate_model(model, records, _one_loop_map())
        oracle = scalar_validate(model, records, _one_loop_map())
        assert report == oracle
        assert report.per_reference[0].checked == 4
        assert report.per_reference[0].predicted == predicted


class _WithoutNumpy:
    """Mixin: run the inherited tests with numpy hidden from the
    validation module, so every sink takes the pure-Python scorer."""

    @pytest.fixture(autouse=True)
    def _hide_numpy(self, monkeypatch):
        monkeypatch.setattr(validate_module, "HAVE_NUMPY", False)
        monkeypatch.setattr(validate_module, "_np", None, raising=False)


class TestBlockBoundaryParityWithoutNumpy(_WithoutNumpy,
                                         TestBlockBoundaryParity):
    pass


class TestExactArithmeticWithoutNumpy(_WithoutNumpy, TestExactArithmetic):
    pass


class TestShallowTraceRegressionWithoutNumpy(_WithoutNumpy,
                                             TestShallowTraceRegression):
    pass


class TestValidationSinkProtocolWithoutNumpy(_WithoutNumpy,
                                             TestValidationSinkProtocol):
    pass
