"""Unit tests for the builtin library ("system library")."""

import pytest

from repro.lang.errors import MiniCRuntimeError
from repro.sim import builtins as libc
from repro.sim import specialize
from repro.sim.bytecode import BytecodeVM
from repro.sim.interpreter import Interpreter
from repro.sim.machine import compile_program, lower_compiled, run_and_trace
from repro.sim.trace import LIB_PC_BASE, expand_block, is_library_pc


def run(source):
    return run_and_trace(source)


def lib_accesses(collector):
    return [a for a in collector.accesses() if a.is_library]


class TestPrintf:
    def test_basic_formats(self):
        result, _, _ = run(
            'int main() { printf("%d %c %s %x", -5, 65, "ok", 255); return 0; }'
        )
        assert result.stdout == "-5 A ok ff"

    def test_float_format(self):
        result, _, _ = run('int main() { printf("%f", 1.5); return 0; }')
        assert result.stdout.startswith("1.5")

    def test_width_format(self):
        result, _, _ = run('int main() { printf("%04d", 7); return 0; }')
        assert result.stdout == "0007"

    def test_percent_escape(self):
        result, _, _ = run('int main() { printf("100%%"); return 0; }')
        assert result.stdout == "100%"

    def test_unsigned_format(self):
        result, _, _ = run('int main() { printf("%u", -1); return 0; }')
        assert result.stdout == str(2**32 - 1)

    def test_format_string_reads_are_library_traffic(self):
        _, collector, _ = run('int main() { printf("abc"); return 0; }')
        accesses = lib_accesses(collector)
        assert len(accesses) == 4  # 'a' 'b' 'c' NUL
        assert all(not a.is_write for a in accesses)

    def test_puts_appends_newline(self):
        result, _, _ = run('int main() { puts("hi"); return 0; }')
        assert result.stdout == "hi\n"

    def test_putchar(self):
        result, _, _ = run("int main() { putchar(88); return 0; }")
        assert result.stdout == "X"


class TestMemoryBuiltins:
    def test_memset(self):
        result, _, _ = run(
            "char b[8]; int main() { memset(b, 7, 8); return b[0] + b[7]; }"
        )
        assert result.exit_code == 14

    def test_memcpy(self):
        result, _, _ = run(
            "int a[4] = {1,2,3,4}; int b[4];"
            "int main() { memcpy(b, a, 16); return b[3]; }"
        )
        assert result.exit_code == 4

    def test_memcpy_traffic_is_library_tagged(self):
        _, collector, _ = run(
            "int a[8]; int b[8]; int main() { memcpy(b, a, 32); return 0; }"
        )
        accesses = lib_accesses(collector)
        assert len(accesses) == 16  # 8 word loads + 8 word stores
        assert all(a.pc >= LIB_PC_BASE for a in accesses)

    def test_calloc_zeroes(self):
        result, _, _ = run(
            "int main() { int *p = (int*)calloc(4, 4); return p[3]; }"
        )
        assert result.exit_code == 0

    def test_malloc_regions_disjoint(self):
        result, _, _ = run(
            "int main() { char *a = (char*)malloc(16); char *b = (char*)malloc(16);"
            " *a = 1; *b = 2; return *a + *b; }"
        )
        assert result.exit_code == 3

    def test_strlen(self):
        result, _, _ = run('int main() { return strlen("hello"); }')
        assert result.exit_code == 5

    def test_strcpy(self):
        result, _, _ = run(
            'char d[8]; int main() { strcpy(d, "ab"); return d[0] + d[2]; }'
        )
        assert result.exit_code == ord("a")

    def test_strcmp(self):
        result, _, _ = run('int main() { return strcmp("abc", "abd"); }')
        assert result.exit_code == -1


class TestMathBuiltins:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("sqrt(16.0)", 4),
            ("fabs(-2.5) * 2.0", 5),
            ("pow(2.0, 10.0)", 1024),
            ("floor(3.7)", 3),
            ("ceil(3.2)", 4),
            ("cos(0.0)", 1),
            ("exp(0.0)", 1),
        ],
    )
    def test_values(self, expr, expected):
        result, _, _ = run(f"int main() {{ return (int)({expr}); }}")
        assert result.exit_code == expected

    def test_math_reads_coefficient_tables(self):
        # Real libm reads polynomial tables; our model reproduces that as
        # library loads (the paper's fft system-call traffic).
        _, collector, _ = run("int main() { double d = sin(1.0); return 0; }")
        accesses = lib_accesses(collector)
        assert len(accesses) == 10
        assert all(not a.is_write for a in accesses)

    def test_abs(self):
        result, _, _ = run("int main() { return abs(-7) + labs(-3); }")
        assert result.exit_code == 10


class TestRandAndInput:
    def test_rand_deterministic(self):
        source = "int main() { srand(1); return rand() % 1000; }"
        first, _, _ = run(source)
        second, _, _ = run(source)
        assert first.exit_code == second.exit_code

    def test_srand_changes_sequence(self):
        one, _, _ = run("int main() { srand(1); return rand() % 1000; }")
        two, _, _ = run("int main() { srand(999); return rand() % 1000; }")
        assert one.exit_code != two.exit_code

    def test_read_samples_fills_buffer(self):
        result, _, _ = run(
            "int b[64]; int main() { int i; int nonzero = 0;"
            " read_samples(b, 64);"
            " for (i = 0; i < 64; i++) if (b[i] != 0) nonzero++;"
            " return nonzero > 32; }"
        )
        assert result.exit_code == 1

    def test_read_samples_traffic_is_library(self):
        _, collector, _ = run(
            "int b[16]; int main() { read_samples(b, 16); return 0; }"
        )
        writes = [a for a in lib_accesses(collector) if a.is_write]
        assert len(writes) == 16

    def test_read_samples_values_bounded(self):
        result, _, _ = run(
            "int b[128]; int main() { int i; read_samples(b, 128);"
            " for (i = 0; i < 128; i++)"
            "   if (b[i] < -512 || b[i] > 511) return 1;"
            " return 0; }"
        )
        assert result.exit_code == 0

    def test_read_samples_deterministic_across_runs(self):
        source = "int b[8]; int main() { read_samples(b, 8); return b[5] & 255; }"
        first, _, _ = run(source)
        second, _, _ = run(source)
        assert first.exit_code == second.exit_code


# ---------------------------------------------------------------------------
# Bulk library path vs. a per-word reference, on every engine tier
# ---------------------------------------------------------------------------

#: Engine tiers: the AST walker shares call_builtin with the VM, so AST
#: parity alone cannot show that the bulk path is right.
TIERS = {
    "specialized": {"fusion": True},
    "unfused": {"fusion": False},
    "ast": None,
}
BLOCK_SIZES = (1, 3, 4096)


def _ref_copy(name):
    def copy(machine, args):
        dst, src, count = (int(a) for a in args)
        offset = 0
        while offset < count:
            chunk = min(4, count - offset)
            value = machine.lib_load(name, src + offset, chunk)
            machine.lib_store(name, dst + offset, value, chunk)
            offset += chunk
        return dst
    return copy


def _ref_set(machine, name, dst, byte, count):
    byte &= 0xFF
    offset = 0
    while offset < count:
        chunk = min(4, count - offset)
        pattern = int.from_bytes(bytes([byte]) * chunk, "little")
        machine.lib_store(name, dst + offset, pattern, chunk)
        offset += chunk


def _ref_memset(machine, args):
    dst, byte, count = (int(a) for a in args)
    _ref_set(machine, "memset", dst, byte, count)
    return dst


def _ref_calloc(machine, args):
    total = int(args[0]) * int(args[1])
    addr = machine.heap_alloc(total)
    _ref_set(machine, "calloc", addr, 0, total)
    return addr


def _ref_read_samples(machine, args):
    buf, count = int(args[0]), int(args[1])
    for index in range(count):
        sample = machine.input_stream.next_sample()
        machine.lib_store("read_samples", buf + 4 * index, sample, 4)
    return count


def _ref_math(name):
    fn = libc._MATH_FUNCTIONS[name]

    def call(machine, args):
        values = [float(a) for a in args]
        table = libc.LIBDATA_BASE + 64 * libc.BUILTIN_INDEX[name]
        for term in range(10):
            machine.lib_load(name, table + 8 * term, 8)
        return fn(*values)
    return call


#: The per-word library: one lib_load/lib_store call per record.
PER_WORD = {
    "memcpy": _ref_copy("memcpy"),
    "memmove": _ref_copy("memmove"),
    "memset": _ref_memset,
    "calloc": _ref_calloc,
    "read_samples": _ref_read_samples,
    **{name: _ref_math(name) for name in libc._MATH_FUNCTIONS},
}


class BlockRecorder:
    def __init__(self):
        self.blocks = []

    def emit_block(self, accesses, checkpoints):
        self.blocks.append((list(accesses), list(checkpoints)))

    def records(self):
        return [record for accesses, checkpoints in self.blocks
                for record in expand_block(accesses, checkpoints)]


def observe(source, tier, block_size=4096, per_word=False):
    """Everything a run shows: outcome (exit code or fault), blocks,
    stats, stdout and the nonzero memory pages."""
    compiled = compile_program(source)
    recorder = BlockRecorder()
    options = TIERS[tier]
    with pytest.MonkeyPatch.context() as patch:
        if per_word:
            for name, handler in PER_WORD.items():
                patch.setitem(libc.BUILTINS, name, handler)
                patch.setitem(specialize._BUILTIN_ENV, f"_LB_{name}", handler)
        if options is None:
            machine = Interpreter(compiled.program, sinks=(recorder,),
                                  trace_block_size=block_size)
        else:
            machine = BytecodeVM(lower_compiled(compiled), sinks=(recorder,),
                                 trace_block_size=block_size, **options)
        try:
            outcome = ("exit", machine.run())
        except MiniCRuntimeError as exc:
            outcome = (type(exc).__name__, str(exc))
    pages = {index: bytes(page)
             for index, page in machine.memory._pages.items() if any(page)}
    return {"outcome": outcome, "recorder": recorder, "stats": machine.stats,
            "stdout": machine.stdout, "pages": pages}


def assert_matches_per_word(source, tier, block_size):
    bulk = observe(source, tier, block_size)
    ref = observe(source, tier, block_size, per_word=True)
    assert bulk["outcome"] == ref["outcome"]
    assert bulk["recorder"].blocks == ref["recorder"].blocks
    assert bulk["stats"] == ref["stats"]
    assert bulk["stdout"] == ref["stdout"]
    assert bulk["pages"] == ref["pages"]
    return bulk


def assert_tiers_agree(source, block_size=4096):
    """Same outcome, record stream, steps and stdout on every tier (block
    boundaries may differ: specialized code checks limits per block)."""
    runs = {tier: observe(source, tier, block_size) for tier in TIERS}
    ast = runs["ast"]
    for tier, run in runs.items():
        assert run["outcome"] == ast["outcome"], tier
        assert run["recorder"].records() == ast["recorder"].records(), tier
        assert run["stats"].steps == ast["stats"].steps, tier
        assert run["stdout"] == ast["stdout"], tier
    return ast


COPY_SOURCE = """
char src[64]; char dst[64]; char buf[64];
char big[40000]; char big2[40000];
int checksum(char *p, int n) {
    int i; int s = 0;
    for (i = 0; i < n; i++) s = s * 31 + p[i];
    return s;
}
int main() {
    int i;
    for (i = 0; i < 64; i++) { src[i] = i * 7 + 1; buf[i] = i + 100; }
    for (i = 0; i < 40000; i += 97) big[i] = i;
    memcpy(dst, src, 0);
    memcpy(dst, src, -3);
    memcpy(dst, src, 1);
    memcpy(dst + 1, src + 3, 2);
    memcpy(dst + 5, src + 9, 3);
    memcpy(dst + 9, src, 13);
    memcpy(dst + 30, src + 1, 32);
    memmove(buf + 1, buf, 9);
    memmove(buf + 20, buf + 17, 17);
    memmove(buf + 2, buf + 5, 11);
    memmove(buf + 40, buf + 40, 8);
    memcpy(big2, big, 33001);
    printf("%d %d %d\\n", checksum(dst, 64), checksum(buf, 64),
           checksum(big2, 40000));
    return 0;
}
"""

FILL_SOURCE = """
char b[64];
int main() {
    int *p; int *q; int w[8]; int i; int s = 0;
    memset(b, 300, 7);
    memset(b + 9, -1, 5);
    memset(b + 20, 65, 0);
    memset(b + 30, 1, -4);
    memset(b + 33, 2, 3);
    p = (int*)calloc(3, 5);
    q = (int*)calloc(-1, 4);
    s += read_samples(w, 0) + read_samples(w, -2) + read_samples(w, 5);
    s += read_samples(w + 5, 3);
    for (i = 0; i < 8; i++) s = s * 3 + w[i];
    for (i = 0; i < 64; i++) s = s * 3 + b[i];
    printf("%d %d\\n", s, p[2] + q[0]);
    return 0;
}
"""

# Several stores precede each call in one basic block: specialized code
# checks the buffer limit once per block, so at small block sizes the
# buffer is already past the limit when the builtin runs.
MATH_SOURCE = """
double d; int a[8];
int main() {
    int i; double acc = 0.0;
    d = 0.5;
    for (i = 0; i < 6; i++) {
        a[0] = i; a[1] = i + 1; a[2] = i + 2;
        acc = acc + sin(d) + cos(d);
        a[3] = i;
        acc = acc + pow(d, 2.0) + sqrt(acc) + atan2(d, 1.0);
        a[4] = i; a[5] = i;
        acc = acc + exp(d) + log(d + 1.0) + floor(acc) + fmod(acc, 3.0);
        d = d + 0.25;
    }
    printf("%f\\n", acc);
    return 0;
}
"""


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@pytest.mark.parametrize("tier", TIERS)
class TestBulkMatchesPerWord:
    def test_copies(self, tier, block_size):
        assert_matches_per_word(COPY_SOURCE, tier, block_size)

    def test_fills_and_samples(self, tier, block_size):
        assert_matches_per_word(FILL_SOURCE, tier, block_size)

    def test_math_table_loads(self, tier, block_size):
        run = assert_matches_per_word(MATH_SOURCE, tier, block_size)
        if tier == "specialized" and block_size < 4096:
            # The overfull-buffer case really happened.
            assert any(len(accesses) > block_size
                       for accesses, _ in run["recorder"].blocks)


class TestBulkTraceShape:
    def test_copy_interleaves_word_loads_and_stores(self):
        source = ("char a[16]; char b[16];"
                  " int main() { memcpy(b, a, 6); return 0; }")
        records = observe(source, "specialized")["recorder"].records()
        lib = [(r.pc - LIB_PC_BASE, r.size, r.is_write)
               for r in records if is_library_pc(r.pc)]
        base = 8 * libc.BUILTIN_INDEX["memcpy"]
        assert lib == [(base, 4, False), (base + 4, 4, True),
                       (base, 2, False), (base + 4, 2, True)]

    @pytest.mark.parametrize("source", [COPY_SOURCE, FILL_SOURCE, MATH_SOURCE])
    def test_tiers_agree(self, source):
        assert_tiers_agree(source, block_size=3)


FAULT_SOURCES = {
    "memcpy-dst": "memcpy(-8, a, 8);",
    "memcpy-src": "memcpy(a, -8, 8);",
    "memmove-dst": "memmove(-2, a, 7);",
    "memset": "memset(-4, 1, 6);",
    "read-samples": "read_samples(-16, 3);",
    "strlen": "strlen(-5);",
}


@pytest.mark.parametrize("call", FAULT_SOURCES.values(), ids=FAULT_SOURCES)
class TestFaultParity:
    @staticmethod
    def source(call):
        return ("int a[4]; int main() { a[0] = 1; a[1] = sqrt(4.0); "
                + call + " a[2] = 3; return 0; }")

    @pytest.mark.parametrize("block_size", (3, 4096))
    @pytest.mark.parametrize("tier", TIERS)
    def test_same_fault_as_per_word(self, call, tier, block_size):
        run = assert_matches_per_word(self.source(call), tier, block_size)
        assert run["outcome"][0] == "MemoryFault"

    def test_same_fault_on_every_tier(self, call):
        run = assert_tiers_agree(self.source(call))
        assert run["outcome"][0] == "MemoryFault"
        # The prefix: two user stores and sqrt's ten table loads.
        assert len(run["recorder"].records()) >= 12


# ---------------------------------------------------------------------------
# C results for libm domain and range errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize(
    "expr,expected",
    [
        ("exp(1000.0)", "inf"),
        ("exp(-1000.0)", "0.000000"),
        ("pow(-8.0, 0.5)", "nan"),
        ("pow(10.0, 400.0)", "inf"),
        ("pow(-10.0, 309.0)", "-inf"),
        ("pow(0.0, -1.0)", "inf"),
        ("pow(-0.0, -3.0)", "-inf"),
        ("sin(exp(1000.0))", "nan"),
        ("tan(-exp(1000.0))", "nan"),
        ("floor(exp(1000.0))", "inf"),
        ("ceil(pow(-8.0, 0.5))", "nan"),
        ("fmod(exp(1000.0), 2.0)", "nan"),
        ("sqrt(-1.0)", "nan"),
        ("log(0.0)", "-inf"),
    ],
)
def test_libm_domain_and_range_results(tier, expr, expected):
    run = observe(f'int main() {{ printf("%f", {expr}); return 0; }}', tier)
    assert run["outcome"] == ("exit", 0)
    assert run["stdout"] == expected


# ---------------------------------------------------------------------------
# Converting a NaN or an infinity to an integer
# ---------------------------------------------------------------------------

CONVERSIONS = {
    "cast": "int x; x = 1; return (int)sqrt(-1.0);",
    "declaration": "int x; x = 1; { int i = log(0.0); return i; }",
    "assignment": "int i; i = exp(1000.0); return i;",
    "array-store": "int a[2]; a[0] = 1; a[1] = sqrt(-1.0); return 0;",
    "char-store": "char c[2]; c[0] = log(0.0); return 0;",
    "argument": "return f(sqrt(-1.0));",
    "builtin-argument": "return abs(log(0.0));",
    "exit-code": "return log(0.0);",
    "dead-result": "int i; i = 0; (int)log(0.0); return i;",
    # Register-only statements around the conversion: step counts must
    # not be merged across it.
    "between-steps": ("int a; double d; int b; int c; int e; a = 1;"
                      " d = log(0.0); b = 2; c = (int)d; e = 3;"
                      " return a + b + c + e;"),
}


@pytest.mark.parametrize("body", CONVERSIONS.values(), ids=CONVERSIONS)
def test_nonfinite_conversion_is_a_runtime_error(body):
    source = "int f(int v) { return v; }\nint main() { " + body + " }"
    run = assert_tiers_agree(source, block_size=3)
    kind, message = run["outcome"]
    assert kind == "MiniCRuntimeError"
    assert "conversion of non-finite value" in message
