import io
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bnskit

from bnskit import Graph, ParseError, PreconditionError, make_character, raag
from bnskit.braid import PureBraidBasis
from bnskit.loop import LoopBraidBasis
from bnskit.characters import GeneratorBasis
from bnskit.cli import (
    RenderedReport,
    main,
    parse_character_file,
    parse_graph_file,
    parse_vector_file,
    parse_words_file,
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
        ("vertices: a a' c\n", 1, "may not end in an apostrophe"),
        ("vertices: a\nvertices: b^-1\n", 2, "may not contain '-'"),
        ("vertices: a b=c\n", 1, "may not contain '='"),
        ("vertices: a,b\n", 1, "may not contain ','"),
        ("vertices: a:b\n", 1, "may not contain ':'"),
        ("vertices: a b|c\n", 1, "may not contain '|'"),
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


def _certificate(character):
    return ("branch=certificate", f"character={character}", "verdict_minus=in", "verdict_plus=in")


_IN = ("status=in",)
_ZERO = ("status=out", "witness=zero")
_HALF = ("error=line 2: integer required, got '3/2'",)
_LOOP_ONES = "A(1,2):1 A(1,3):1 A(1,4):1 A(2,1):1 A(2,3):{} A(2,4):1 A(3,1):1 A(3,2):1 A(3,4):1 A(4,1):1 A(4,2):1 A(4,3):1"

# value lines, with X for the family's generator letter, and the porcelain
# of `obstruct` (reading them as a vector file) and of `sigma` (reading them
# as a character file) on 4 strands
_VALUE_LINES = [
    ("X(1,2) = 4/2\nX(1,3) = -1\n", "braid", _certificate("S(1,2):1 S(1,3):2"), _IN),
    ("X(1,2) = 4/2\nX(1,3) = -1\n", "loop", _certificate("A(1,2):1 A(1,3):2"), _IN),
    ("X(1,2) = -0\nX(1,3) = +7\nX(2,3) = 1\n", "braid", _certificate("S(1,2):1"), _IN),
    ("X(1,2) = -0\nX(1,3) = +7\nX(2,3) = 1\n", "loop", _certificate(_LOOP_ONES.format(-7)), _IN),
    ("\n# a vector\n\nX(2,4) = 3  # trailing\n\n", "braid", _certificate("S(1,2):1"), _IN),
    (
        "\n# a vector\n\nX(2,4) = 3  # trailing\n\n",
        "loop",
        _certificate(_LOOP_ONES.format(1).replace(" A(2,4):1", "")),
        ("base=plb2-all", "kept=2,4", "status=out", "witness=projection"),
    ),
    ("X(1,2) = -0\n", "braid", _certificate("S(1,2):1"), _ZERO),
    ("X(1,2) = -0\n", "loop", _certificate(_LOOP_ONES.format(1)), _ZERO),
    ("X(1,2) = 1\nX(1,3) = 3/2\n", "braid", _HALF, _IN),
    ("X(1,2) = 1\nX(1,3) = 3/2\n", "loop", _HALF, _IN),
]
# lines both formats reject with the same message
_VALUE_LINES += [
    (text, family, (f"error={message}",), (f"error={message}",))
    for text, message in (
        ("X(1,2) = 1.0\n", "line 1: malformed rational '1.0'"),
        ("X(1,2) = 1/0\n", "line 1: malformed rational '1/0'"),
        ("X(1,2) = 1\n\nX(1,2) = 2\n", "line 3: generator 'X(1,2)' assigned twice"),
        ("X(1,9) = 1\n", "line 1: unknown generator 'X(1,9)'"),
        # an Arabic-Indic three: only ASCII digits are read
        ("X(1,2) = \u0663\n", "line 1: malformed rational '\u0663'"),
    )
    for family in ("braid", "loop")
]
# a number past the interpreter's digit limit matches the value pattern, so
# its conversion has to end in a parse error of its own
_LONG = "7" * 5000
_TOO_LONG = f"error=line 1: number longer than {sys.get_int_max_str_digits()} digits"
_VALUE_LINES += [
    pytest.param(text, family, (_TOO_LONG,), (_TOO_LONG,), id=f"{where}-{family}")
    for where, text in (("long-numerator", f"X(1,2) = {_LONG}\n"), ("long-denominator", f"X(1,2) = 1/{_LONG}\n"))
    for family in ("braid", "loop")
]


@pytest.mark.parametrize("text,family,obstruct,sigma", _VALUE_LINES)
def test_value_lines_through_run(tmp_path, text, family, obstruct, sigma):
    """Vector and character files share one line parser: pin what each
    format reads, and every error line, for both families."""
    letter = "S(" if family == "braid" else "A("
    path = tmp_path / "values.txt"
    path.write_text(text.replace("X(", letter), encoding="utf-8")
    for command, porcelain in (("obstruct", obstruct), ("sigma", sigma)):
        porcelain = tuple([line.replace("X(", letter) for line in porcelain])
        report = run([family, command, "-n", "4", str(path)])
        error = porcelain[0].startswith("error=")
        assert (report.exit_code, report.porcelain) == (int(error), porcelain)
        if error:
            assert report.human == "error: " + porcelain[0][len("error="):]


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
        text = "vertices: " + " ".join(g.vertices) + "\n"
        if g.edges:
            text += "edges: " + " ".join(f"{a}-{b}" for a, b in g.edges) + "\n"
        assert parse_graph_file(text) == g


def test_character_round_trip():
    for values in ({}, {"a": Fraction(1, 2)}, {"a": -3, "c": Fraction(7, 5)}):
        c = make_character(ABC, values)
        text = "".join(f"{name} = {value}\n" for name, value in zip(ABC.names, c.values) if value)
        assert parse_character_file(text, ABC) == c


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


def test_run_raag_sigma_number_past_digit_limit(tmp_path):
    graph = tmp_path / "p3.graph"
    graph.write_text("vertices: a b c\nedges: a-b b-c\n")
    char = tmp_path / "chi.chr"
    char.write_text(f"a = 1\nc = 1/{_LONG}\n")
    report = run(["raag", "sigma", str(graph), str(char)])
    limit = sys.get_int_max_str_digits()
    assert (report.exit_code, report.porcelain) == (1, (f"error=line 2: number longer than {limit} digits",))


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


def test_strand_count_limit(tmp_path):
    char = tmp_path / "c.chr"
    char.write_text("S(1,2) = 1\n")
    for family in ("braid", "loop"):
        for command in ("sigma", "witness", "obstruct"):
            report = run(["--porcelain", family, command, "-n", "65", str(char)])
            assert report.exit_code == 2
            assert report.porcelain[0].startswith("error=") and "at most 64" in report.porcelain[0]
    assert run(["braid", "sigma", "-n", "64", str(char)]).exit_code == 0


def test_split_report_rank_limit(tmp_path):
    graph = tmp_path / "p3.graph"
    graph.write_text("vertices: a b c\nedges: a-b b-c\n")
    report = run(["--porcelain", "raag", "split-report", str(graph), "--max-k", "1001"])
    assert report.exit_code == 2
    assert report.porcelain[0].startswith("error=") and "at most 1000" in report.porcelain[0]
    assert run(["raag", "split-report", str(graph), "--max-k", "1000"]).exit_code == 0
    with pytest.raises(PreconditionError):
        raag.virtual_split_report(Graph("ab"), 1001)


@pytest.mark.parametrize(
    "family,basis", [("braid", PureBraidBasis(4)), ("loop", LoopBraidBasis(3))], ids=["braid", "loop"]
)
def test_result_past_digit_limit(tmp_path, family, basis):
    # every input number is below the digit limit, but the certificate
    # character's values are products of them and pass it
    rng = random.Random(59)
    paths = []
    for k in range(2):
        vec = tmp_path / f"v{k}.vec"
        vec.write_text("".join(f"{name} = {rng.randrange(10**2999, 10**3000)}\n" for name in basis.names))
        paths.append(str(vec))
    report = run(["--porcelain", family, "obstruct", "-n", str(basis.n), *paths])
    message = f"result has a number longer than {sys.get_int_max_str_digits()} digits"
    assert (report.exit_code, report.porcelain, report.human) == (2, (f"error={message}",), f"error: {message}")


def test_porcelain_must_be_spelled_out(capsys):
    graph = str(Path(__file__).parent / "data" / "p3.graph")
    with pytest.raises(SystemExit) as done:
        main(["--porc", "graph", "analyze", graph])
    assert done.value.code == 1
    assert capsys.readouterr().out == "error: unrecognized arguments: --porc\n"
    with pytest.raises(SystemExit) as done:
        main(["--porcelain", "graph", "analyze", graph])
    assert done.value.code == 0
    assert "clique=false\n" in capsys.readouterr().out


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
