"""Error types and source locations for the MiniC frontend.

Every diagnostic raised by the lexer, parser, semantic analyzer or
interpreter carries a :class:`SourceLocation` so that tooling built on top
of the frontend (instrumentation, the FORAY-GEN extractor, the static
baseline) can point back into the original program text.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceLocation:
    """A position in a MiniC source file (1-based line and column)."""

    line: int = 0
    column: int = 0
    filename: str = "<minic>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class MiniCError(Exception):
    """Base class for all MiniC frontend and runtime errors."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.location = location or SourceLocation()
        self.message = message
        super().__init__(f"{self.location}: {message}")


class LexError(MiniCError):
    """Raised when the lexer encounters an invalid character or literal."""


class ParseError(MiniCError):
    """Raised when the parser encounters an unexpected token."""


class SemanticError(MiniCError):
    """Raised by the semantic analyzer (undeclared names, type errors...)."""


class MiniCRuntimeError(MiniCError):
    """Raised by the interpreter for runtime faults (bad memory access,
    division by zero, missing return value, stack overflow...)."""


class MemoryFault(MiniCRuntimeError):
    """Raised on an access to an unmapped simulated address."""


def nonfinite_conversion(value: object) -> MiniCRuntimeError:
    """The error for converting a NaN or an infinity to an integer type
    (undefined behaviour in C); every engine raises it at the conversion."""
    return MiniCRuntimeError(
        f"conversion of non-finite value {value} to an integer")
