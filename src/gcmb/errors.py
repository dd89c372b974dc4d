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
    """A UTF-8 file's text less a leading byte-order mark, as utf-8-sig reads
    it; a byte that is not UTF-8 ends in a ParseError naming its offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        bad = f"byte {data[exc.start]:#04x} at offset {exc.start}"
        raise ParseError(f"{quote(str(path))} is not UTF-8 text: {bad}") from None


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


def magnitude(value: int, noun: str = "") -> str:
    """str(value) below 10^30; from there on, where str() may refuse to print
    it, its size: 'of N bits' after the `noun`, or 'a negative value of N bits'."""
    lead = "a negative value " if value < 0 else f"{noun} " if noun else ""
    return str(value) if abs(value) < 10**30 else f"{lead}of {value.bit_length()} bits"


def element_list(elements: Sequence[int]) -> str:
    """'[a, b, ...]' naming at most the first _SHOWN_ELEMENTS elements."""
    more = ", ..." if len(elements) > _SHOWN_ELEMENTS else ""
    return f"[{', '.join(map(str, elements[:_SHOWN_ELEMENTS]))}{more}]"
