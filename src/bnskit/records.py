"""Immutable value records, the base of the package's data and result classes.

A record class lists its fields in ``__slots__``; a class with slots that are
not fields (a cache) names its fields in ``_fields`` instead.  Unless the
class body defines its own ``__init__`` (to check or convert its input), the
class gets a generated one that takes every field, positionally or by
keyword, in order and with no defaults.  Records of the same class with
equal fields are equal and hash alike, a record prints as
``Name(field=value, ...)``, assigning or deleting a field raises
``AttributeError``, and copy and pickle rebuild a record from its fields, so
each ``__init__`` takes the fields in order.  Each class has its own
``__init__``, so tracing a constructor sees that class alone.
"""

from __future__ import annotations

from operator import attrgetter

# the globals of every generated __init__
_INIT_GLOBALS = {"_set": object.__setattr__}


def _initialiser(cls):
    """``def __init__(self, f1, ...): _set(self, "f1", f1) ...`` for cls."""
    fields = cls._fields
    body = "".join([f"\n    _set(self, {name!r}, {name})" for name in fields])
    namespace = {}
    exec(f"def __init__(self, {', '.join(fields)}):{body}", _INIT_GLOBALS, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        if "_fields" not in vars(cls):
            cls._fields = cls.__slots__
        if "__init__" not in vars(cls):
            cls.__init__ = _initialiser(cls)
        # the field values, read at C speed: a tuple, or the value itself
        # when there is one field
        cls._key = property(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return self.__class__, tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
