import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bnskit

from bnskit import Graph, ParseError, make_character
from bnskit.braid import PureBraidBasis
from bnskit.characters import GeneratorBasis
from bnskit.cli import (
    RenderedReport,
    parse_character_file,
    parse_graph_file,
    parse_vector_file,
    parse_words_file,
    render_character_file,
    render_graph_file,
    run,
)

ABC = GeneratorBasis(("a", "b", "c"))


def test_parse_graph_file():
    g = parse_graph_file("vertices: a b\nedges: a-b\n")
    assert g == Graph("ab", [("a", "b")])
    g2 = parse_graph_file("# comment\nvertices: a b c\n\nvertices: d\nedges: a-b c-d\n")
    assert g2.vertices == ("a", "b", "c", "d")
    assert g2.edges == (("a", "b"), ("c", "d"))


@pytest.mark.parametrize(
    "text,lineno,fragment",
    [
        ("edges: a-b\n", 1, "undeclared"),
        ("vertices: a a\n", 1, "duplicate vertex"),
        ("vertices: a b\nedges: a-a\n", 2, "self-loop"),
        ("vertices: a b\nedges: a-b a-b\n", 2, "duplicate edge"),
        ("vertices: a b\nedges: ab\n", 2, "malformed edge"),
        ("vertices: a-b\n", 1, "may not contain"),
        ("points: a b\n", 1, "expected"),
        ("", 1, "missing"),
        ("vertices: a b\n# fine\nedges: a-q\n", 3, "undeclared"),
    ],
)
def test_parse_graph_file_errors(text, lineno, fragment):
    with pytest.raises(ParseError) as err:
        parse_graph_file(text)
    assert err.value.line == lineno
    assert fragment in err.value.message
    assert str(err.value).startswith(f"line {lineno}:")


def test_parse_character_file():
    c = parse_character_file("a = 1/2\nb = -3\n", ABC)
    assert c.values == (Fraction(1, 2), Fraction(-3), Fraction(0))
    assert parse_character_file("", ABC).is_zero()
    assert parse_character_file("# nothing\n", ABC).is_zero()


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("q = 1\n", 1),
        ("a = 1\na = 2\n", 2),
        ("a = 1/0\n", 1),
        ("a = x\n", 1),
        ("a : 1\n", 1),
        ("a = 0.5\n", 1),
    ],
)
def test_parse_character_file_errors(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_character_file(text, ABC)
    assert err.value.line == lineno


def test_parse_vector_file_requires_integers():
    basis = PureBraidBasis(3).generators
    assert parse_vector_file("S(1,3) = -2\n", basis) == (0, -2, 0)
    with pytest.raises(ParseError):
        parse_vector_file("S(1,3) = 1/2\n", basis)


def test_parse_words_file():
    words = parse_words_file("a b^-1\nc c'\n\n# blank and comment lines skipped\n", "abc")
    assert [str(w) for w in words] == ["a b^-1", "c c^-1"]
    with pytest.raises(ParseError) as err:
        parse_words_file("a\nq\n", "abc")
    assert err.value.line == 2


def test_graph_round_trip():
    for g in (
        Graph("ab", [("a", "b")]),
        Graph("abc"),
        Graph("wxyz", [("w", "x"), ("y", "z"), ("x", "y")]),
    ):
        assert parse_graph_file(render_graph_file(g)) == g


def test_character_round_trip():
    for values in ({}, {"a": Fraction(1, 2)}, {"a": -3, "c": Fraction(7, 5)}):
        c = make_character(ABC, values)
        assert parse_character_file(render_character_file(c), ABC) == c


def run_ok(argv):
    report = run(argv)
    assert report.exit_code == 0, report.human
    return report


def test_run_raag_sigma(tmp_path):
    graph = tmp_path / "p3.graph"
    graph.write_text("vertices: a b c\nedges: a-b b-c\n")
    char = tmp_path / "chi.chr"
    char.write_text("a = 1\nc = 1\n")
    report = run_ok(["raag", "sigma", str(graph), str(char)])
    assert report.human == "OUT living-disconnected {a,c}"
    assert report.porcelain == (
        "reason=living-disconnected",
        "status=out",
        "witness=a,c",
    )


def test_run_braid_sigma_full_set_label(tmp_path):
    char = tmp_path / "c.chr"
    char.write_text("S(1,2) = 1\nS(1,3) = 1\nS(2,3) = -2\n")
    report = run_ok(["braid", "sigma", "-n", "3", str(char)])
    assert report.human == "OUT pb3-sum"


def test_run_graph_analyze(tmp_path):
    graph = tmp_path / "g.graph"
    graph.write_text("vertices: a b c\nedges: a-b b-c\n")
    report = run_ok(["graph", "analyze", str(graph)])
    assert "min separating clique: 1 (witness {b})" in report.human
    assert "min_separating_clique=1" in report.porcelain
    assert "witness=b" in report.porcelain


def test_run_exit_codes(tmp_path):
    bad_graph = tmp_path / "bad.graph"
    bad_graph.write_text("edges: a-b\n")
    assert run(["graph", "analyze", str(bad_graph)]).exit_code == 1
    assert run(["graph", "analyze", str(tmp_path / "absent.graph")]).exit_code == 1
    assert run(["raag", "nonsense"]).exit_code == 1
    assert run([]).exit_code == 1

    char = tmp_path / "c.chr"
    char.write_text("S(1,2) = 1\n")
    assert run(["braid", "sigma", "-n", "2", str(char)]).exit_code == 2
    # witness of an alive character is a domain error
    alive = tmp_path / "alive.chr"
    alive.write_text("S(1,2) = 1\n")
    assert run(["braid", "witness", "-n", "5", str(alive)]).exit_code == 2
    # loop witness needs three loops
    two = tmp_path / "two.chr"
    two.write_text("A(1,2) = 1\n")
    assert run(["loop", "witness", "-n", "2", str(two)]).exit_code == 2


def test_error_report_shape():
    report = run(["graph", "analyze", "/nonexistent/x.graph"])
    assert isinstance(report, RenderedReport)
    assert report.exit_code == 1
    assert report.human.startswith("error:")
    assert len(report.porcelain) == 1 and report.porcelain[0].startswith("error=")


def test_porcelain_keys_sorted(tmp_path):
    graph = tmp_path / "g.graph"
    graph.write_text("vertices: a b\nedges: a-b\n")
    report = run_ok(["graph", "analyze", str(graph)])
    keys = [line.split("=", 1)[0] for line in report.porcelain]
    assert keys == sorted(keys)


def test_run_determinism(tmp_path):
    graph = tmp_path / "g.graph"
    graph.write_text("vertices: v1 v2 v3 v4 v5\nedges: v1-v2 v2-v3 v3-v4 v4-v5 v5-v1\n")
    words = tmp_path / "k.words"
    words.write_text("v1\n")
    first = run(["raag", "kill", str(graph), str(words)])
    second = run(["raag", "kill", str(graph), str(words)])
    assert first == second


def test_run_rejects_non_utf8_input(tmp_path, monkeypatch):
    bad = tmp_path / "bad.char"
    bad.write_bytes(b"S(1,2) = 1\n# caf\xe9\n")
    report = run(["braid", "sigma", "-n", "3", str(bad)])
    assert report.exit_code == 1
    assert report.porcelain == (f"error=cannot read {str(bad)!r}: not valid UTF-8",)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="utf-8"))
    report = run(["loop", "sigma", "-n", "3", "-"])
    assert report.exit_code == 1
    assert report.porcelain == ("error=cannot read '-': not valid UTF-8",)


def test_module_run_writes_nothing_to_stderr():
    src = str(Path(bnskit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    char = Path(__file__).parent / "data" / "pb3_dead.char"
    done = subprocess.run(
        [sys.executable, "-m", "bnskit.cli", "--porcelain", "braid", "sigma", "-n", "3", str(char)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0
    assert done.stderr == ""
    assert "status=out" in done.stdout.splitlines()
