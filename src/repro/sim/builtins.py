"""Implementations of the MiniC library builtins ("system library").

Library trace contract
----------------------

Every memory access a builtin makes is traced with a pc in the library
range: loads at ``LIB_PC_BASE + 8*index``, stores at ``+ 4`` (``index``
is the builtin's position in :data:`BUILTIN_INDEX`). The paper's
Table III counts these references in its "system calls" column; our
pc-range tagging reproduces that classification.

* Bulk routines (``memcpy``/``memmove``, ``memset``, ``calloc``,
  ``read_samples``) work at 4-byte granularity, like word-oriented
  library code on a 32-bit target: one record per word, a 1-3-byte tail
  chunk last, and a copy interleaves each word's load with its store.
* String routines (``printf``'s format and ``%s`` arguments, ``puts``,
  ``strlen``, ``strcpy``, ``strcmp``) read and write one byte per record.
* Math builtins read :data:`_MATH_TABLE_TERMS` 8-byte coefficient words
  from a library data segment (:data:`LIBDATA_BASE`) per call, as real
  libm polynomial evaluation does.

The bookkeeping is done in bulk: builtins move memory with page-sliced
byte operations and hand the engine one precomputed flat run of records
(``[pc, addr, size, is_write, ...]``) through its ``lib_trace`` facade
method, which flushes blocks exactly where per-record emission would.
The records are the same ones the per-word ``lib_load``/``lib_store``
path produces; that path remains where it behaves differently — a
negative address, whose :class:`MemoryFault` must leave the exact traced
prefix, and a forward-overlapping copy, which replicates its source.

:data:`BUILTINS` maps each name to its ``handler(machine, args)``;
``machine`` is the engine facade (``memory``, ``lib_load``,
``lib_store``, ``lib_trace``, ``write_stdout``, ``heap_alloc``,
``rand_state``, ``input_stream``).
"""

from __future__ import annotations

import math
import struct
from typing import Any, Callable

from repro.lang.errors import MiniCRuntimeError, nonfinite_conversion
from repro.sim.trace import LIB_PC_BASE

#: glibc-style LCG constants for the deterministic rand().
_RAND_MULTIPLIER = 1103515245
_RAND_INCREMENT = 12345
_RAND_MASK = 0x7FFFFFFF

#: Library-internal data segment. Math builtins read their polynomial
#: coefficient tables from here (as real libm implementations do), which is
#: the main source of "system call" memory traffic in compute-heavy
#: benchmarks — the effect behind the paper's fft row of Table III, where
#: 96% of accesses happen inside the system library.
LIBDATA_BASE = 0x70000000
#: Coefficient words read per transcendental call.
_MATH_TABLE_TERMS = 10

#: Stable ordering of builtins; the index defines each builtin's lib pcs.
_BUILTIN_ORDER = [
    "printf", "putchar", "puts", "malloc", "calloc", "free",
    "memcpy", "memset", "memmove", "strlen", "strcpy", "strcmp",
    "abs", "labs", "rand", "srand", "exit", "read_samples",
    "sqrt", "fabs", "sin", "cos", "tan", "atan", "atan2",
    "exp", "log", "log10", "pow", "floor", "ceil", "fmod",
]

BUILTIN_INDEX: dict[str, int] = {name: i for i, name in enumerate(_BUILTIN_ORDER)}

#: Bytes a bulk routine moves per emitted run (a multiple of the word
#: size), which bounds the size of one run on large buffers.
_BULK_CHUNK = 1 << 14

_INF = float("inf")
_NAN = float("nan")

Handler = Callable[[Any, list], object]


class ExitSignal(Exception):
    """Raised by the exit() builtin; carries the exit code."""

    def __init__(self, code: int):
        self.code = code
        super().__init__(code)


def lib_pc(name: str) -> int:
    """The pc of builtin ``name``'s loads; its stores use ``+ 4``."""
    return LIB_PC_BASE + 8 * BUILTIN_INDEX[name]


def to_int(value: Any) -> int:
    """C's conversion of a number to an integer; a NaN or an infinity is a
    runtime error rather than a Python traceback."""
    try:
        return int(value)
    except (ValueError, OverflowError):
        raise nonfinite_conversion(value) from None


def exit_status(result: Any) -> int:
    """The exit code of a run whose entry function returned ``result``."""
    return 0 if result is None else to_int(result)


# ---------------------------------------------------------------------------
# Per-word reference path (faulting addresses, forward-overlapping copies)
# ---------------------------------------------------------------------------


def _word_copy(machine, name: str, dst: int, src: int, count: int) -> None:
    offset = 0
    while offset < count:
        chunk = min(4, count - offset)
        value = machine.lib_load(name, src + offset, chunk)
        machine.lib_store(name, dst + offset, value, chunk)
        offset += chunk


def _word_set(machine, name: str, dst: int, byte: int, count: int) -> None:
    offset = 0
    while offset < count:
        chunk = min(4, count - offset)
        pattern = int.from_bytes(bytes([byte]) * chunk, "little")
        machine.lib_store(name, dst + offset, pattern, chunk)
        offset += chunk


# ---------------------------------------------------------------------------
# Bulk path: page-sliced memory moves plus one flat record run per chunk
# ---------------------------------------------------------------------------


def _store_run(pc: int, addr: int, count: int) -> list[int]:
    """Word store records covering ``count`` bytes from ``addr`` (the
    last one ``count % 4`` bytes wide when the count is ragged)."""
    words, tail = divmod(count, 4)
    run = [1] * (4 * words)
    run[0::4] = [pc] * words
    run[1::4] = range(addr, addr + 4 * words, 4)
    run[2::4] = [4] * words
    if tail:
        run += (pc, addr + 4 * words, tail, 1)
    return run


def _copy_run(pc: int, dst: int, src: int, count: int) -> list[int]:
    """Interleaved word load/store records of a ``count``-byte copy."""
    words, tail = divmod(count, 4)
    run = [0] * (8 * words)
    run[0::8] = [pc] * words
    run[1::8] = range(src, src + 4 * words, 4)
    run[2::8] = [4] * words
    run[4::8] = [pc + 4] * words
    run[5::8] = range(dst, dst + 4 * words, 4)
    run[6::8] = [4] * words
    run[7::8] = [1] * words
    if tail:
        run += (pc, src + 4 * words, tail, 0, pc + 4, dst + 4 * words, tail, 1)
    return run


def _copy(machine, name: str, dst: int, src: int, count: int) -> None:
    if dst < 0 or src < 0 or src < dst < src + count:
        _word_copy(machine, name, dst, src, count)
        return
    # A backward or exact overlap reads every source word before any
    # store reaches it, so chunked snapshot copies equal the word loop.
    memory = machine.memory
    pc = lib_pc(name)
    for start in range(0, count, _BULK_CHUNK):
        size = min(_BULK_CHUNK, count - start)
        memory.write_bytes(dst + start, memory.read_bytes(src + start, size))
        machine.lib_trace(_copy_run(pc, dst + start, src + start, size))


def _fill(machine, name: str, dst: int, byte: int, count: int) -> None:
    byte &= 0xFF
    if dst < 0:
        _word_set(machine, name, dst, byte, count)
        return
    memory = machine.memory
    pc = lib_pc(name) + 4
    for start in range(0, count, _BULK_CHUNK):
        size = min(_BULK_CHUNK, count - start)
        memory.write_bytes(dst + start, bytes((byte,)) * size)
        machine.lib_trace(_store_run(pc, dst + start, size))


# ---------------------------------------------------------------------------
# String helpers
# ---------------------------------------------------------------------------


def _read_cstring(machine, name: str, addr: int) -> str:
    """Read a NUL-terminated string with traced per-byte library loads."""
    chars: list[str] = []
    offset = 0
    while True:
        byte = machine.lib_load(name, addr + offset, 1)
        if byte == 0:
            return "".join(chars)
        chars.append(chr(byte & 0xFF))
        offset += 1
        if offset > 1 << 20:
            raise MiniCRuntimeError("unterminated string passed to library")


def _format_printf(machine, fmt: str, args: list) -> str:
    out: list[str] = []
    arg_index = 0
    i = 0

    def next_arg():
        nonlocal arg_index
        if arg_index >= len(args):
            raise MiniCRuntimeError("printf: not enough arguments")
        value = args[arg_index]
        arg_index += 1
        return value

    while i < len(fmt):
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        # Collect the specifier: %[flags][width][.prec][length]conv
        j = i + 1
        spec = "%"
        while j < len(fmt) and fmt[j] in "-+ 0123456789.#lh":
            spec += fmt[j]
            j += 1
        if j >= len(fmt):
            out.append(spec)
            break
        conv = fmt[j]
        spec_body = spec[1:].replace("l", "").replace("h", "")
        if conv == "%":
            out.append("%")
        elif conv in "di":
            out.append(("%" + spec_body + "d") % to_int(next_arg()))
        elif conv == "u":
            out.append(("%" + spec_body + "d") % (to_int(next_arg()) & 0xFFFFFFFF))
        elif conv in "xX":
            out.append(("%" + spec_body + conv) % (to_int(next_arg()) & 0xFFFFFFFF))
        elif conv == "c":
            out.append(chr(to_int(next_arg()) & 0xFF))
        elif conv == "s":
            out.append(_read_cstring(machine, "printf", to_int(next_arg())))
        elif conv in "feEgG":
            out.append(("%" + spec_body + conv) % float(next_arg()))
        elif conv == "p":
            out.append(f"0x{to_int(next_arg()):x}")
        else:
            raise MiniCRuntimeError(f"printf: unsupported conversion %{conv}")
        i = j + 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------


def _printf(machine, args: list) -> object:
    fmt = _read_cstring(machine, "printf", to_int(args[0]))
    text = _format_printf(machine, fmt, args[1:])
    machine.write_stdout(text)
    return len(text)


def _putchar(machine, args: list) -> object:
    code = to_int(args[0])
    machine.write_stdout(chr(code & 0xFF))
    return code


def _puts(machine, args: list) -> object:
    text = _read_cstring(machine, "puts", to_int(args[0]))
    machine.write_stdout(text + "\n")
    return len(text) + 1


def _malloc(machine, args: list) -> object:
    return machine.heap_alloc(to_int(args[0]))


def _calloc(machine, args: list) -> object:
    total = to_int(args[0]) * to_int(args[1])
    addr = machine.heap_alloc(total)
    _fill(machine, "calloc", addr, 0, total)
    return addr


def _free(machine, args: list) -> object:
    return 0


def _copier(name: str) -> Handler:
    def copy(machine, args: list) -> object:
        dst = to_int(args[0])
        _copy(machine, name, dst, to_int(args[1]), to_int(args[2]))
        return dst
    return copy


def _memset(machine, args: list) -> object:
    dst = to_int(args[0])
    _fill(machine, "memset", dst, to_int(args[1]), to_int(args[2]))
    return dst


def _strlen(machine, args: list) -> object:
    return len(_read_cstring(machine, "strlen", to_int(args[0])))


def _strcpy(machine, args: list) -> object:
    dst, src = to_int(args[0]), to_int(args[1])
    text = _read_cstring(machine, "strcpy", src)
    for offset, ch in enumerate(text):
        machine.lib_store("strcpy", dst + offset, ord(ch), 1)
    machine.lib_store("strcpy", dst + len(text), 0, 1)
    return dst


def _strcmp(machine, args: list) -> object:
    left = _read_cstring(machine, "strcmp", to_int(args[0]))
    right = _read_cstring(machine, "strcmp", to_int(args[1]))
    return (left > right) - (left < right)


def _abs(machine, args: list) -> object:
    return abs(to_int(args[0]))


def _rand(machine, args: list) -> object:
    machine.rand_state = (
        machine.rand_state * _RAND_MULTIPLIER + _RAND_INCREMENT
    ) & _RAND_MASK
    return machine.rand_state


def _srand(machine, args: list) -> object:
    machine.rand_state = to_int(args[0]) & _RAND_MASK
    return 0


def _exit(machine, args: list) -> object:
    raise ExitSignal(to_int(args[0]))


def _read_samples(machine, args: list) -> object:
    buf, count = to_int(args[0]), to_int(args[1])
    stream = machine.input_stream
    if buf < 0:
        for index in range(count):
            sample = stream.next_sample()
            machine.lib_store("read_samples", buf + 4 * index, sample, 4)
        return count
    memory = machine.memory
    pc = lib_pc("read_samples") + 4
    next_sample = stream.next_sample
    for start in range(0, 4 * count, _BULK_CHUNK):
        words = min(_BULK_CHUNK, 4 * count - start) >> 2
        data = struct.pack(f"<{words}I", *[next_sample() & 0xFFFFFFFF
                                           for _ in range(words)])
        memory.write_bytes(buf + start, data)
        machine.lib_trace(_store_run(pc, buf + start, 4 * words))
    return count


# -- libm: C results for domain and range errors ----------------------------


def _odd_integer(y: float) -> bool:
    return y.is_integer() and math.fmod(y, 2.0) != 0.0


def _sqrt(x: float) -> float:
    return math.sqrt(x) if x >= 0 else _NAN


def _periodic(fn: Callable[[float], float]) -> Callable[[float], float]:
    # sin/cos/tan of an infinity is a domain error (NaN in C).
    return lambda x: fn(x) if math.isfinite(x) else _NAN


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return _INF


def _log(x: float) -> float:
    return math.log(x) if x > 0 else -_INF


def _log10(x: float) -> float:
    return math.log10(x) if x > 0 else -_INF


def _pow(x: float, y: float) -> float:
    try:
        return math.pow(x, y)
    except OverflowError:
        return -_INF if x < 0 and _odd_integer(y) else _INF
    except ValueError:
        if x == 0:  # pole error: 0 to a negative power
            return math.copysign(_INF, x) if _odd_integer(y) else _INF
        return _NAN  # a negative base to a non-integer power


def _rounding(fn: Callable[[float], int]) -> Callable[[float], object]:
    # floor/ceil of a NaN or an infinity is the argument itself.
    return lambda x: fn(x) if math.isfinite(x) else x


def _fmod(x: float, y: float) -> float:
    return math.fmod(x, y) if y != 0 and math.isfinite(x) else _NAN


_MATH_FUNCTIONS: dict[str, Callable[..., object]] = {
    "sqrt": _sqrt,
    "fabs": abs,
    "sin": _periodic(math.sin),
    "cos": _periodic(math.cos),
    "tan": _periodic(math.tan),
    "atan": math.atan,
    "atan2": math.atan2,
    "exp": _exp,
    "log": _log,
    "log10": _log10,
    "pow": _pow,
    "floor": _rounding(math.floor),
    "ceil": _rounding(math.ceil),
    "fmod": _fmod,
}


def _math_builtin(name: str, fn: Callable[..., object]) -> Handler:
    """A math builtin: its coefficient-table loads, then the function."""
    pc = lib_pc(name)
    table = LIBDATA_BASE + 64 * BUILTIN_INDEX[name]
    run = [field for term in range(_MATH_TABLE_TERMS)
           for field in (pc, table + 8 * term, 8, 0)]

    def call(machine, args: list) -> object:
        values = [float(arg) for arg in args]
        machine.lib_trace(run)
        return fn(*values)
    return call


#: name -> handler(machine, args), built once.
BUILTINS: dict[str, Handler] = {
    "printf": _printf,
    "putchar": _putchar,
    "puts": _puts,
    "malloc": _malloc,
    "calloc": _calloc,
    "free": _free,
    "memcpy": _copier("memcpy"),
    "memmove": _copier("memmove"),
    "memset": _memset,
    "strlen": _strlen,
    "strcpy": _strcpy,
    "strcmp": _strcmp,
    "abs": _abs,
    "labs": _abs,
    "rand": _rand,
    "srand": _srand,
    "exit": _exit,
    "read_samples": _read_samples,
    **{name: _math_builtin(name, fn) for name, fn in _MATH_FUNCTIONS.items()},
}


def call_builtin(machine, name: str, args: list) -> object:
    """Execute builtin ``name``; ``machine`` is the engine facade."""
    handler = BUILTINS.get(name)
    if handler is None:
        raise MiniCRuntimeError(f"unknown builtin {name!r}")
    return handler(machine, args)
