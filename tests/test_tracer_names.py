"""Every package name the benchmark's tracer wraps must exist, and every
class it counts must define its own `__init__`.

`bench/tracing.py` looks each name up with a plain getattr when it installs
its wrappers, so a deleted or renamed function would only surface as a crash
of `bench/run.py --trace 1`.  The tracer imports only the standard library,
so it is loaded here straight from its file.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    traced = [
        (module, name)
        for listed in (tracing.TIMED, tracing.COUNTED)
        for module, names in listed.items()
        for name in names
    ]
    assert len(traced) > 20
    missing = [
        f"bnskit.{module}.{name}"
        for module, name in traced
        if not hasattr(importlib.import_module(f"bnskit.{module}"), name)
    ]
    assert missing == []


def test_every_counted_class_has_its_own_init():
    """The tracer counts a class by wrapping `cls.__init__` wherever it is
    stored, so an inherited `__init__` would count every class sharing it."""
    tracing = _load_tracing()
    counted = [
        getattr(importlib.import_module(f"bnskit.{module}"), name)
        for module, names in tracing.COUNTED.items()
        for name in names
    ]
    classes = [value for value in counted if isinstance(value, type)]
    assert classes
    assert [cls.__qualname__ for cls in classes if "__init__" not in vars(cls)] == []
