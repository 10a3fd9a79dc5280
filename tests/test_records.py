"""The package's value records: plain slots classes with the value semantics
of frozen dataclasses, and no `dataclasses` import outside the command line.
"""

import ast
import copy
import dataclasses
import importlib
import inspect
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bnskit
from bnskit import Graph, braid, cli, loop, raag
from bnskit.characters import GeneratorBasis, generic_point_avoiding, kill_character, make_character, saturate
from bnskit.graphs import out_finiteness_predicates
from bnskit.projection import DeadSubspace, ProjectionFamily
from bnskit.records import Record
from bnskit.words import f2z, word

DATA = Path(__file__).resolve().parent / "data"

PROBE = """
import json, sys
import bnskit
after_package = "dataclasses" in sys.modules
from bnskit import braid, loop, raag
import bnskit.obstruction, bnskit.projection
print(json.dumps([after_package, "dataclasses" in sys.modules]))
"""


def test_no_dataclasses_import_outside_the_command_line():
    src = str(Path(bnskit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False, False]


def test_rendered_report_is_still_a_dataclass():
    report = cli.run(["--porcelain", "graph", "analyze", str(DATA / "p3.graph")])
    assert report.exit_code == 0
    changed = dataclasses.replace(report, porcelain=("status=edited",))
    assert changed.porcelain == ("status=edited",)
    assert (changed.human, changed.exit_code) == (report.human, report.exit_code)


def _instances():
    """Two equal, separately built instances of each record class, and the
    repr of the first one as a frozen dataclass printed it, except that an
    integral character value is an int."""
    ab = lambda: GeneratorBasis(("a", "b"))
    chi = lambda: make_character(ab(), {"a": Fraction(1, 2)})
    path = lambda: Graph("abc", [("a", "b"), ("b", "c")])
    b4 = braid.PureBraidBasis(4)
    yield (
        ab,
        "GeneratorBasis(names=('a', 'b'))",
    )
    yield (
        chi,
        "Character(basis=GeneratorBasis(names=('a', 'b')), values=(Fraction(1, 2), 0))",
    )
    yield (
        lambda: saturate(ab(), [(2, 0)]),
        "SaturatedLattice(basis=GeneratorBasis(names=('a', 'b')), annihilator=(((1, 1),),))",
    )
    yield (
        lambda: kill_character(saturate(ab(), [(2, 0)])),
        "VectorCharacter(basis=GeneratorBasis(names=('a', 'b')), "
        "rows=(Character(basis=GeneratorBasis(names=('a', 'b')), values=(0, 1)),))",
    )
    yield (
        lambda: generic_point_avoiding(ab(), [(1, 0)], [[(0, 1)]]),
        "GenericPoint(point=None, covering=0)",
    )
    yield (
        lambda: out_finiteness_predicates(path()),
        "OutFinitenessReport(separating_closed_star=None, link_in_star=('a', 'b'))",
    )
    yield (
        lambda: f2z(["A", ("B", -1)], 3),
        "F2ZElement(free_part=Word(alphabet=('A', 'B'), letters=(('A', 1), ('B', -1))), central=3)",
    )
    yield (
        lambda: braid.sigma_membership(4, make_character(b4.generators, {"S(1,2)": 1, "S(1,3)": -1})),
        "ProjectionVerdict(status='out', witness='projection', kept=(1, 2, 3), base='pb3-sum')",
    )
    yield (
        lambda: braid.witness_pair(4, make_character(b4.generators, {"S(1,2)": 1, "S(1,3)": -1})),
        "WitnessPair(u=Word(alphabet=('S(1,2)', 'S(1,3)', 'S(1,4)', 'S(2,3)', 'S(2,4)', 'S(3,4)'), "
        "letters=(('S(1,4)', 1),)), "
        "v=Word(alphabet=('S(1,2)', 'S(1,3)', 'S(1,4)', 'S(2,3)', 'S(2,4)', 'S(3,4)'), letters=(('S(2,4)', 1),)), "
        "designated=(1, 2, 4))",
    )
    yield (
        lambda: loop.FAMILY.small,
        "BaseGroup(kind='plb2-all', size=2, equations=(), sample={(1, 2): 1, (2, 1): 1})",
    )
    yield (
        lambda: raag.sigma_membership(path(), make_character(raag.vertex_basis(path()), {"a": 1, "c": 1})),
        "RaagSigmaVerdict(status='out', reason='living-disconnected', offending=('a', 'c'))",
    )
    yield (
        lambda: raag.virtual_split_report(path(), 1),
        "SplitReport(vertex_count=3, edge_count=2, is_clique=False, max_k=1, min_separating_clique=1, "
        "witness=('b',), verdicts=('certified-no-split', 'splits'), nf_certified=False, note=None)",
    )
    yield (
        lambda: raag.commensurability_compare(path(), Graph("ab", [("a", "b")])),
        "CompareResult(clique1=False, clique2=True, invariant1=1, invariant2=None, verdict='not-commensurable')",
    )
    yield (
        lambda: raag.kill_and_test(path(), [word("abc", "b")]),
        None,
    )
    yield (
        path,
        "Graph(vertices=('a', 'b', 'c'), edges=(('a', 'b'), ('b', 'c')))",
    )
    yield (
        lambda: word("ab", ["a", ("b", -1)]),
        "Word(alphabet=('a', 'b'), letters=(('a', 1), ('b', -1)))",
    )
    yield (
        lambda: braid.nf_obstruction_demo(4, [[1, 0, 0, 0, 0, 0]]),
        None,
    )
    yield (
        lambda: DeadSubspace("pb3-sum", (1, 2, 3), b4),
        None,
    )


CASES = list(_instances())


@pytest.mark.parametrize("build, expected_repr", CASES, ids=[type(b()).__name__ for b, _ in CASES])
def test_value_semantics(build, expected_repr):
    x, y = build(), build()
    assert isinstance(x, Record) and not hasattr(x, "__dict__")
    if expected_repr is not None:
        assert repr(x) == expected_repr
    assert repr(x).startswith(type(x).__name__ + "(" + x._fields[0] + "=")
    assert x == y and not x != y
    # a record whose fields are all hashable hashes by them
    try:
        hash(x._key)
    except TypeError:
        pass
    else:
        assert hash(x) == hash(y)
    # another class holding the same fields is unequal
    twin = type("Twin", (Record,), {"__slots__": x._fields, "__init__": lambda self: None})()
    for name in x._fields:
        object.__setattr__(twin, name, getattr(x, name))
    assert twin._key == x._key and x != twin and twin != x
    for name in x._fields:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.unknown_field = 1
    assert copy.copy(x) == x


# the last two hold a PairBasis, whose family holds lambdas, which pickle refuses
PICKLED = CASES[:-2]


@pytest.mark.parametrize("build, expected_repr", PICKLED, ids=[type(b()).__name__ for b, _ in PICKLED])
def test_pickle_round_trip(build, expected_repr):
    x = build()
    assert pickle.loads(pickle.dumps(x)) == x


def test_fields_set_equality_and_hash():
    ab = GeneratorBasis(("a", "b"))
    a = make_character(ab, {"a": 1})
    assert a != make_character(ab, {"b": 1})
    assert a != make_character(GeneratorBasis(("a", "c")), {"a": 1})
    assert len({a, make_character(ab, {"a": Fraction(2, 2)}), make_character(ab, {"b": 1})}) == 2
    assert f2z(["A"], 1) != f2z(["A"], 2) and f2z(["A"], 1) != f2z(["B"], 1)
    assert a != (ab, a.values) and a != "Character"


def test_projection_family_compares_by_identity():
    family = braid.FAMILY
    copy = ProjectionFamily(*[getattr(family, name) for name in family._fields])
    assert family == family and family != copy and family != loop.FAMILY
    assert hash(family) == object.__hash__(family)
    assert repr(family).startswith("ProjectionFamily(group='pure braid', unit='strand', letter='S', ")
    assert "_bases" not in repr(family)
    with pytest.raises(AttributeError):
        family.group = "other"
    # each family builds its pair basis on n strands once
    assert family.basis(4) is family.basis(4)
    assert copy.basis(4) is copy.basis(4) and copy.basis(4) is not family.basis(4)
    assert copy.basis(4).family is copy and copy.basis(4).names == family.basis(4).names


# the value methods that only the Record base defines, and the one class
# that replaces two of them, to compare by identity
VALUE_METHODS = {"__eq__", "__hash__", "__repr__"}
OWN_VALUE_METHODS = {("projection", "ProjectionFamily", "__eq__"), ("projection", "ProjectionFamily", "__hash__")}


def _bound_names(cls):
    """The names bound in a class definition, by def or by assignment."""
    for node in ast.walk(cls):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


def test_only_the_record_base_defines_equality_hashing_and_repr():
    src = Path(bnskit.__file__).resolve().parent
    found = {
        (path.stem, cls.name, name)
        for path in src.glob("*.py")
        if path.name != "records.py"
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for name in _bound_names(cls)
        if name in VALUE_METHODS
    }
    assert found == OWN_VALUE_METHODS


# the record classes whose own __init__ checks or converts its input
VALIDATING = {"GeneratorBasis", "Character", "VectorCharacter", "F2ZElement", "Graph", "Word"}
GENERATED = {
    "SaturatedLattice", "GenericPoint", "OutFinitenessReport", "WitnessPair", "ObstructionReport", "BaseGroup",
    "ProjectionFamily", "DeadSubspace", "ProjectionVerdict", "RaagSigmaVerdict", "KillTestResult", "SplitReport",
    "CompareResult",
}


def _package_records():
    modules = [importlib.import_module(f"bnskit.{m.name}") for m in pkgutil.iter_modules(bnskit.__path__)]
    found = {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Record) and value is not Record
        and value.__module__ == module.__name__
    }
    return sorted(found, key=lambda cls: cls.__name__)


RECORDS = _package_records()


def test_every_record_class_has_its_own_init():
    assert {cls.__name__ for cls in RECORDS} == VALIDATING | GENERATED
    assert [cls.__name__ for cls in RECORDS if "__init__" not in vars(cls)] == []


@pytest.mark.parametrize(
    "cls", [cls for cls in RECORDS if cls.__name__ in GENERATED], ids=lambda cls: cls.__name__
)
def test_generated_init_takes_exactly_the_fields(cls):
    parameters = inspect.signature(cls).parameters.values()
    assert tuple([p.name for p in parameters]) == cls._fields
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in parameters)
    values = {name: (i, name) for i, name in enumerate(cls._fields)}
    by_keyword = cls(**values)
    assert {name: getattr(by_keyword, name) for name in cls._fields} == values
    assert cls(*values.values())._key == by_keyword._key
    missing = dict(values)
    missing.pop(cls._fields[-1])
    with pytest.raises(TypeError):
        cls(**missing)
    with pytest.raises(TypeError):
        cls(**values, extra=None)
    with pytest.raises(TypeError):
        cls(*values.values(), None)
