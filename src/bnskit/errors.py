"""Exception hierarchy shared by the whole package, and the check that an
integer parameter really is an int.

The split matters to the command line driver: parse problems exit with 1,
violated mathematical preconditions exit with 2.
"""

from __future__ import annotations


class BnsError(Exception):
    """Base class for every error raised by this package."""


class InputError(BnsError):
    """Malformed value handed to a library function (bad label, wrong basis...)."""


class DomainError(BnsError):
    """Value outside the mathematical domain of an operation (zero character...)."""


class PreconditionError(BnsError):
    """A stated hypothesis does not hold (non-commuting generators, bad n...)."""


class ParseError(BnsError):
    """Text input that does not parse.  Carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def require_int(value, what: str) -> int:
    """Pass an int through; anything else, a bool or a float included, is an InputError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an int, got {type(value).__name__}")
    return value
