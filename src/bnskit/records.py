"""Immutable value records, the base of the package's data and result classes.

A record class lists its fields in ``__slots__`` and stores them in its own
``__init__`` with ``object.__setattr__``; a class with slots that are not
fields (a cache) names its fields in ``_fields`` instead.  Records of the
same class with equal fields are equal and hash alike, a record prints as
``Name(field=value, ...)``, assigning or deleting a field raises
``AttributeError``, and copy and pickle rebuild a record from its fields, so
each ``__init__`` takes the fields in order.  Each class keeps its own
``__init__``, so tracing a constructor sees that class alone.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        if "_fields" not in vars(cls):
            cls._fields = cls.__slots__
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
