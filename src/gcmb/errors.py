"""Exception hierarchy shared by all gcmb modules, and the input-line helpers."""

from __future__ import annotations

from typing import Iterator, Sequence


class GcmbError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(GcmbError):
    """Caller violated a documented precondition (bad input, mismatched specs)."""


class CapacityError(GcmbError):
    """A desk-scale enumeration guard was exceeded."""


class ParseError(GcmbError):
    """An input file is malformed; message carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InternalError(GcmbError):
    """An invariant that should be unbreakable was broken (bug signal)."""


def read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Numbered lines of `text`, `#` comments and whitespace stripped, blanks skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield lineno, stripped


_QUOTE_LIMIT = 100
_SHOWN_ELEMENTS = 8


def quote(token: str) -> str:
    """repr(token), cut after _QUOTE_LIMIT characters to keep a message short."""
    if len(token) <= _QUOTE_LIMIT:
        return repr(token)
    return f"{token[:_QUOTE_LIMIT]!r}... ({len(token)} characters)"


def magnitude(value: int) -> str:
    """str(value), or its size in bits past 10^30, which str() may refuse to print."""
    return str(value) if abs(value) < 10**30 else f"of {value.bit_length()} bits"


def element_list(elements: Sequence[int]) -> str:
    """'[a, b, ...]' naming at most the first _SHOWN_ELEMENTS elements."""
    more = ", ..." if len(elements) > _SHOWN_ELEMENTS else ""
    return f"[{', '.join(map(str, elements[:_SHOWN_ELEMENTS]))}{more}]"
