"""Exception hierarchy shared by the whole package, the check that an
integer parameter really is an int, the quoting of input in error messages,
and the loader that runs a module on first use.

The split matters to the command line driver: parse problems exit with 1,
violated mathematical preconditions exit with 2.
"""

from __future__ import annotations

import sys
from types import ModuleType

# the most characters of input that an error message quotes
QUOTED_CHARS = 80


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


def _quote(text: str) -> str:
    """text quoted for an error message, as `repr` quotes it, cut to its
    first QUOTED_CHARS characters and followed by '...' when longer, so a
    long token, line or word does not make a long message."""
    if len(text) <= QUOTED_CHARS:
        return repr(text)
    return repr(text[:QUOTED_CHARS]) + "..."


def _lazy(name: str) -> ModuleType:
    """The module name (relative to this package when it starts with '.'),
    put in `sys.modules` now and run on its first attribute access, so a
    process compiles only the modules its command uses.  A module loaded
    already is returned as it is."""
    import importlib.util

    name = importlib.util.resolve_name(name, __package__)
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        parent, _, child = name.rpartition(".")
        if parent:
            setattr(sys.modules[parent], child, module)
    return module
