"""Exception types shared across the package."""

from __future__ import annotations


class LshAuthError(Exception):
    """Base class for all package errors."""


class ValidationError(LshAuthError, ValueError):
    """A parameter or field failed validation; the message names the field."""


class DimensionMismatchError(LshAuthError, ValueError):
    """Vector dimensionality does not match the structure it is used with."""


class DuplicateRecordError(LshAuthError, ValueError):
    """A (tx_id, sample_id) pair is already present."""


class NotRegisteredError(LshAuthError, KeyError):
    """A transmitter id has no status in the registry."""

    __str__ = Exception.__str__  # KeyError's would quote the message


class ParseError(LshAuthError, ValueError):
    """A file could not be parsed.

    Carries the path and, where known, the 1-based line (text formats) or
    byte offset (binary formats) of the failure.
    """

    def __init__(self, path, message: str, *, line: int | None = None,
                 offset: int | None = None):
        self.path = str(path)
        self.line = line
        self.offset = offset
        where = self.path
        if line is not None:
            where += f":{line}"
        elif offset is not None:
            where += f" (offset {offset})"
        super().__init__(f"{where}: {message}")

