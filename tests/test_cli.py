import argparse
import contextlib
import errno
import io
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bnskit

from bnskit import Graph, ParseError, PreconditionError, cli, make_character, raag
from bnskit.words import Word
from bnskit.braid import PureBraidBasis
from bnskit.loop import LoopBraidBasis
from bnskit.characters import GeneratorBasis
from bnskit.cli import (
    RenderedReport,
    UsageError,
    main,
    parse_character_file,
    parse_graph_file,
    parse_vector_file,
    parse_words_file,
    run,
)

from . import oracles

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
        # a form feed or U+2028 does not end a line
        ("vertices: a b\x0c\nedges: a-q\n", 2, "undeclared"),
        ("vertices: a\u2028edges: a-b\n", 1, "may not contain ':'"),
    ],
)
def test_parse_graph_file_errors(text, lineno, fragment):
    with pytest.raises(ParseError) as err:
        parse_graph_file(text)
    assert err.value.line == lineno
    assert fragment in err.value.message
    assert str(err.value).startswith(f"line {lineno}:")


# vertex names, most of them valid, and edge tokens over them
GRAPH_NAMES = ["a", "b", "c", "d"] * 3 + ["a'", "b-c", "x=y", "p,q", "r:s", "t|u", "a'b"]
EDGE_TOKENS = ["a-b", "b-a", "a-c", "c-b", "b-d", "d-a", "a-a", "a-", "-b", "a-b-c", "ab", "a-q", "q-a"]


@st.composite
def graph_texts(draw):
    """Lines of a graph file: 'vertices:' and 'edges:' lines over the names
    and tokens above, comments, blank and unknown lines, in any order."""
    line = st.one_of(
        st.lists(st.sampled_from(GRAPH_NAMES), max_size=4).map(lambda t: "vertices: " + " ".join(t)),
        st.lists(st.sampled_from(EDGE_TOKENS), max_size=4).map(lambda t: "edges: " + " ".join(t)),
        st.sampled_from(["", "# comment", "points: a", "edges: a-b # c-d", "  vertices: d  "]),
    )
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(draw(st.lists(line, max_size=6)))


@settings(deadline=None, derandomize=True, database=None, max_examples=1500)
@given(graph_texts())
@example("vertices: a b\nvertices: a\n")  # a duplicate vertex on a later line
@example("vertices: a b-c\n")
@example("vertices: a a'\n")
@example("vertices: a b c\nedges: a-b-c\n")
@example("vertices: a b\nedges: a-\n")
@example("vertices: a b\nedges: -b\n")
@example("vertices: a b\nedges: a-q\n")
@example("vertices: a b\nedges: a-a\n")
@example("vertices: a b\nedges: a-b b-a\n")
@example("vertices: a b\nedges: a-b\nedges: a-b\n")
@example("edges: a-b\nvertices: a b\n")
@example("vertices: a b\nvertices: c d\nedges: d-a b-c\n")
def test_graph_reader_matches_two_pass_reader(text):
    """The one-pass reader builds the graph the old two-pass reader in
    `tests/oracles.py` and the checking constructor build, or raises its
    error at its line."""
    try:
        vertices, edges, masks = oracles.read_graph_file(text)
    except oracles.GraphFileError as expected:
        with pytest.raises(ParseError) as err:
            parse_graph_file(text)
        assert (err.value.line, err.value.message) == (expected.line, expected.message)
        return
    g = parse_graph_file(text)
    checked = Graph(vertices, edges)
    assert (g.vertices, g.edges, g._masks) == (checked.vertices, checked.edges, checked._masks)
    assert g._masks == masks and g == checked and hash(g) == hash(checked)
    assert [g.index(v) for v in vertices] == list(range(len(vertices)))


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
    assert parse_vector_file("S(1,3) = -2\n", basis) == ((1, -2),)
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


# the characters other than LF and CR that `str.splitlines` ends a line at
_NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_LINE_ENDS = [
    pytest.param(
        f"X(1,2) = 1{sep}X(1,3) = 2\nX(2,3) = 3/0\n",
        f"line 1: malformed rational {repr('1' + sep + 'X(1,3) = 2')}",
        id=f"inside-{ord(sep):x}",
    )
    for sep in _NOT_LINE_ENDS
] + [
    # at the end of a line it is trimmed like a space
    pytest.param(f"X(1,2) = 1{sep}\nX(1,3) = 3/0\n", "line 2: malformed rational '3/0'", id=f"trailing-{ord(sep):x}")
    for sep in _NOT_LINE_ENDS
] + [
    pytest.param("X(1,2) = 1\r\nX(1,3) = 1\rX(1,2) = 2\n", "line 3: generator 'X(1,2)' assigned twice", id="crlf-cr"),
    pytest.param("\r\n\r\rX(1,2) = 1/0", "line 4: malformed rational '1/0'", id="blank-crlf-cr"),
]


@pytest.mark.parametrize("family", ["braid", "loop"])
@pytest.mark.parametrize("text,message", _LINE_ENDS)
def test_lines_end_only_at_lf_or_cr(tmp_path, family, text, message):
    """The line number of an error counts only LF, CR LF and CR line ends."""
    letter = "S(" if family == "braid" else "A("
    path = tmp_path / "values.txt"
    path.write_bytes(text.replace("X(", letter).encode("utf-8"))
    for command in ("obstruct", "sigma"):
        report = run(["--porcelain", family, command, "-n", "4", str(path)])
        assert (report.exit_code, report.porcelain) == (1, ("error=" + message.replace("X(", letter),))


def test_parse_words_file():
    words = parse_words_file("a b^-1\nc c'\n\n# blank and comment lines skipped\n", "abc")
    assert [str(w) for w in words] == ["a b^-1", "c c^-1"]
    # only LF, CR LF and CR end a word's line; U+2028 separates letters
    words = parse_words_file("a\u2028b\r\nc\rb'\x85a", "abc")
    assert [str(w) for w in words] == ["a b", "c", "b^-1 a"]
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


_DATA = Path(__file__).parent / "data"
_SIGMA = ["braid", "sigma", str(_DATA / "pb3_dead.char")]
_SPLIT = ["raag", "split-report", str(_DATA / "c4.graph")]


@pytest.mark.parametrize(
    "argv,exit_code,line",
    [
        # an optional sign and ASCII digits, like a value line's integers
        (_SIGMA + ["-n", "4"], 0, "status=out"),
        (_SIGMA + ["-n", "+4"], 0, "status=out"),
        (_SPLIT + ["--max-k", "2"], 0, "min_separating_clique=none"),
        # an Arabic-Indic four and three, an underscore, spaces
        (_SIGMA + ["-n", "\u0664"], 1, "error=argument -n: invalid int value: '\u0664'"),
        (_SIGMA + ["-n", "-\u0663"], 1, "error=argument -n: invalid int value: '-\u0663'"),
        (_SIGMA + ["-n", "1_0"], 1, "error=argument -n: invalid int value: '1_0'"),
        (_SIGMA + ["-n", " 4 "], 1, "error=argument -n: invalid int value: ' 4 '"),
        (_SIGMA + ["-n", "abc"], 1, "error=argument -n: invalid int value: 'abc'"),
        (_SPLIT + ["--max-k", "\u0663"], 1, "error=argument --max-k: invalid int value: '\u0663'"),
        # past the interpreter's digit limit, with the same message
        (_SIGMA + ["-n", "7" * 5000], 1, f"error=argument -n: invalid int value: '{'7' * 5000}'"),
        # well-formed but out of range
        (_SIGMA + ["-n", "-3"], 2, "error=pure braid computations need at least 3 strands"),
        (_SPLIT + ["--max-k", "-1"], 2, "error=max_k must be nonnegative"),
        # options are spelled out: a prefix of --max-k is no --max-k
        (_SPLIT + ["--max", "2"], 1, "error=the following arguments are required: --max-k"),
        (_SPLIT + ["--max-", "2"], 1, "error=the following arguments are required: --max-k"),
    ],
    ids=["n", "plus", "max-k", "n-arabic", "n-minus-arabic", "n-underscore", "n-spaces", "n-word",
         "max-k-arabic", "n-long", "n-negative", "max-k-negative", "max-abbreviated", "max-dash-abbreviated"],
)
def test_integer_options(argv, exit_code, line):
    report = run(["--porcelain", *argv])
    assert report.exit_code == exit_code and line in report.porcelain
    if exit_code:
        assert report.porcelain == (line,)


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


def test_read_errors_are_unchanged(tmp_path, monkeypatch):
    """Each way a read can fail gives its one `error=` line, exactly."""
    missing = tmp_path / "missing.graph"
    directory = tmp_path / "dir.graph"
    directory.mkdir()
    empty = tmp_path / "empty.graph"
    empty.write_bytes(b"")
    latin = tmp_path / "latin.graph"
    latin.write_bytes(b"vertices: caf\xe9\n")
    for path, message in [
        (missing, f"cannot read {str(missing)!r}: {os.strerror(errno.ENOENT)}"),
        (directory, f"cannot read {str(directory)!r}: {os.strerror(errno.EISDIR)}"),
        (empty, "line 1: missing 'vertices:' line"),
        (latin, f"cannot read {str(latin)!r}: not valid UTF-8"),
    ]:
        report = run(["--porcelain", "graph", "analyze", str(path)])
        assert (report.exit_code, report.porcelain, report.human) == (1, (f"error={message}",), f"error: {message}")
    assert cli._read_file(str(empty)) == ""
    for data, line in [
        (b"vertices: a b\nedges: a-b\n", "vertices=a,b"),
        (b"", "error=line 1: missing 'vertices:' line"),
        (b"vertices: caf\xe9\n", "error=cannot read '-': not valid UTF-8"),
    ]:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert line in run(["graph", "analyze", "-"]).porcelain


def test_output_format_is_what_the_top_level_read(tmp_path):
    """Only a --porcelain that the top level reads picks porcelain output:
    after '--' it is a file name, and after the group it is an error."""
    graph = str(_DATA / "p3.graph")
    message = f"cannot read '--porcelain': {os.strerror(errno.ENOENT)}"
    for argv, out in [
        (["graph", "analyze", "--", "--porcelain"], f"error: {message}\n"),
        (["--porcelain", "graph", "analyze", "--", "--porcelain"], f"error={message}\n"),
        (["graph", "--porcelain", "analyze", graph], "error: unrecognized arguments: --porcelain\n"),
        (["--porcelain", "graph"], "error=the following arguments are required: command\n"),
    ]:
        done = _module_run(*argv, cwd=tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (1, out, ""), argv


def test_dash_dash_where_the_group_or_command_is_expected_is_an_invalid_choice(capsys):
    """The same answer on every interpreter: argparse 3.13.13 would drop
    such a '--' and read the next token.  Help or an option error before it
    still comes first, a positional token before it is the operand, and a
    last '--' leaves the operand missing."""
    groups = "choose from 'graph', 'raag', 'braid', 'loop'"
    commands = "choose from 'sigma', 'kill', 'complement', 'split-report', 'compare'"
    for argv, line in [
        (["--porcelain", "--", "graph", "analyze", "x"], f"error=argument group: invalid choice: '--' ({groups})"),
        (["--porc", "--", "-h"], f"error=argument group: invalid choice: '--' ({groups})"),
        (["raag", "--", "kill", "x", "y"], f"error=argument command: invalid choice: '--' ({commands})"),
        (["raag", "--porcelain", "--", "kill"], f"error=argument command: invalid choice: '--' ({commands})"),
        (["-", "--", "graph"], f"error=argument group: invalid choice: '-' ({groups})"),
        (["-3", "--", "graph"], f"error=argument group: invalid choice: '-3' ({groups})"),
        (["--porcelain=1", "--", "graph"], "error=argument --porcelain: ignored explicit argument '1'"),
        (["raag", "--"], "error=the following arguments are required: command"),
    ]:
        read = []
        report = cli._run(argv, read)
        assert (report.exit_code, report.porcelain) == (1, (line,)), argv
        assert read == ["--porcelain"] * (argv[0] == "--porcelain"), argv
    for argv, usage in [(["-h", "--", "graph"], "usage: bnskit [-h]"), (["raag", "-h", "--", "kill"], "usage: bnskit raag")]:
        with pytest.raises(SystemExit) as done:
            run(argv)
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith(usage), argv


def test_error_lines_quote_at_most_80_characters_of_input(tmp_path):
    """Tokens, lines, words and values read from files are quoted up to 80
    characters, then '...'; file paths are quoted whole."""
    cycle = tmp_path / "c8.graph"
    names = [f"v{i}" for i in range(8)]
    cycle.write_text(f"vertices: {' '.join(names)}\nedges: {' '.join(f'{a}-{b}' for a, b in zip(names, names[1:] + names[:1]))}\n")
    long_words = tmp_path / "long.words"
    long_words.write_text(" ".join(["v0"] * 4000) + "\n" + " ".join(["v2"] * 4000) + "\n")
    report = run(["--porcelain", "raag", "kill", str(cycle), str(long_words)])
    (line,) = report.porcelain
    u, v = (" ".join([name] * 40)[:80] for name in ("v0", "v2"))
    assert report.exit_code == 2
    assert line == f"error=generator words {u!r}... and {v!r}... do not commute"
    assert len(line.encode()) < 300
    commas = tmp_path / "commas.graph"
    listed = ",".join(f"v{i}" for i in range(1000))
    commas.write_text(f"vertices: {listed}\n")
    report = run(["--porcelain", "graph", "analyze", str(commas)])
    assert report.porcelain == (f"error=line 1: vertex name {listed[:80]!r}... may not contain ','",)
    assert len(report.porcelain[0].encode()) < 300
    edge = "-".join(["a"] * 50)
    for text, message in [
        ("vertices: a\nedges: " + edge, f"line 2: malformed edge {edge[:80]!r}..."),
        ("x" * 81, f"line 1: expected 'vertices:' or 'edges:', got {'x' * 80!r}..."),
        ("x" * 80, f"line 1: expected 'vertices:' or 'edges:', got {'x' * 80!r}"),
    ]:
        commas.write_text(text)
        assert run(["--porcelain", "graph", "analyze", str(commas)]).porcelain == (f"error={message}",)
    long_path = tmp_path / ("p" * 120)
    assert run(["--porcelain", "graph", "analyze", str(long_path)]).porcelain == (
        f"error=cannot read {str(long_path)!r}: {os.strerror(errno.ENOENT)}",
    )


def test_each_input_is_read_once(tmp_path, monkeypatch):
    """A run opens each input path once, the readers build their words and
    graphs without checking them a second time, and a vector keeps only its
    nonzero entries."""
    opened = Counter()

    def counting_open(path, *args, **kwargs):
        opened[path] += 1
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    vectors = []
    for k, text in enumerate(["S(1,2) = 1\n", "S(3,4) = 2\nS(1,3) = 0\n", "S(2,4) = -1\n"]):
        path = tmp_path / f"v{k}.vec"
        path.write_text(text)
        vectors.append(str(path))
    graph, words = str(_DATA / "c5.graph"), str(_DATA / "kill_v1.words")
    for argv, paths in [
        (["braid", "obstruct", "-n", "4", *vectors], vectors),
        (["raag", "kill", graph, words], [graph, words]),
        (["raag", "compare", graph, str(_DATA / "c4.graph")], [graph, str(_DATA / "c4.graph")]),
    ]:
        opened.clear()
        assert run(argv).exit_code == 0, argv
        assert opened == Counter(paths), argv

    built = Counter()
    for cls in (Graph, Word):
        init = cls.__init__

        def counted(self, *args, init=init, name=cls.__name__, **kwargs):
            built[name] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    g = parse_graph_file("vertices: a b c\nedges: a-b b-c\n")
    assert parse_words_file("a b\nc'\nb^-1 a\n", g.vertices)[2] == Word(g.vertices, [("b", -1), ("a", 1)])
    # the one Word built above, and one for the file's alphabet
    assert built == {"Word": 2}
    basis = PureBraidBasis(3).generators
    assert parse_vector_file("S(2,3) = 4\nS(1,2) = 0\nS(1,3) = -6/2\n", basis) == ((1, -3), (2, 4))
    assert parse_vector_file("S(1,2) = -0\nS(1,3) = 0/7\nS(2,3) = +0\n", basis) == ()


def _module_command(*argv, **env):
    """The command line and environment of a `python -m bnskit.cli` run of
    argv, with env added to the environment."""
    src = str(Path(bnskit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-m", "bnskit.cli", *argv], dict(os.environ, PYTHONPATH=path, **env)


def _module_run(*argv, cwd=None):
    command, env = _module_command(*argv)
    return subprocess.run(command, capture_output=True, text=True, env=env, cwd=cwd)


def test_module_run_writes_nothing_to_stderr():
    char = Path(__file__).parent / "data" / "pb3_dead.char"
    done = _module_run("--porcelain", "braid", "sigma", "-n", "3", str(char))
    assert done.returncode == 0
    assert done.stderr == ""
    assert "status=out" in done.stdout.splitlines()


def test_help_at_every_level_prints_a_usage():
    """The top level and a group print their own usage, listing the
    commands; a command prints argparse's help of its parser."""
    for argv, usage in [
        (["-h"], cli._usage(None)),
        (["-hh"], cli._usage(None)),
        (["raag", "--help"], cli._usage("raag")),
        (["raag", "kill", "-h"], None),
    ]:
        done = _module_run(*argv)
        assert (done.returncode, done.stderr) == (0, ""), argv
        if usage is None:
            assert done.stdout.startswith("usage: bnskit raag kill [-h] graph words\n"), argv
        else:
            assert done.stdout == usage, argv


def test_a_reader_closing_the_pipe_early_gets_no_traceback(tmp_path):
    """A reader that takes one line of a report longer than two pipe
    buffers and closes the pipe leaves nothing on stderr, and the run ends
    with the report's exit code.  So does help written to a pipe whose
    reader has closed it already.  Both hold with stdout buffered and
    unbuffered."""
    names = [f"vertex{i:014d}" for i in range(90)]
    edges = " ".join(f"{a}-{b}" for a, b in zip(names, names[1:] + names[:1]))
    graph = tmp_path / "c90.graph"
    graph.write_text(f"vertices: {' '.join(names)}\nedges: {edges}\n")
    argv = ["raag", "complement", str(graph)]
    report = run(argv)
    assert report.exit_code == 0
    assert len(report.human) > 128 * 1024
    for unbuffered in (True, False):
        command, env = _module_command(*argv)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as process:
            assert process.stdout.readline() == b"minimal always-dead supports: 3915\n"
            process.stdout.close()
            assert (process.wait(timeout=120), process.stderr.read()) == (0, b""), unbuffered
        for help_argv in (["-h"], ["raag", "--help"], ["raag", "kill", "-h"]):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                help_command = _module_command(*help_argv)[0]
                done = subprocess.run(help_command, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
            finally:
                os.close(write_end)
            assert (done.returncode, done.stderr) == (0, b""), (help_argv, unbuffered)


def test_standard_input_is_decoded_like_a_file(tmp_path):
    """Bytes that are not UTF-8 are an error on standard input as in a file,
    also in UTF-8 mode, where the interpreter's own stdin lets them through."""
    data = tmp_path / "latin.graph"
    data.write_bytes(b"vertices: a\xff b\n")
    command, env = _module_command("--porcelain", "graph", "analyze", "-", PYTHONUTF8="1")
    with open(data, "rb") as stdin:
        done = subprocess.run(command, env=env, capture_output=True, stdin=stdin)
    assert (done.returncode, done.stdout, done.stderr) == (1, b"error=cannot read '-': not valid UTF-8\n", b"")


def test_closed_standard_input_is_an_error():
    command, env = _module_command("--porcelain", "graph", "analyze", "-")
    # the child starts with descriptor 0 closed, as after '<&-' in a shell
    done = subprocess.run(command, env=env, capture_output=True, text=True, preexec_fn=lambda: os.close(0))
    message = f"error=cannot read '-': {os.strerror(errno.EBADF)}\n"
    assert (done.returncode, done.stdout, done.stderr) == (1, message, "")


def test_one_parse_and_one_parser_per_run(monkeypatch, capsys):
    """A plain line in the one spelling that scripts use builds no parser
    and makes no parse, and neither does help or an error read before the
    command; another spelling builds its own command's parser, once per
    process, and parses its command line once."""
    calls = Counter()

    def counted(name):
        original = getattr(argparse.ArgumentParser, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, name, wrapper)

    counted("__init__")
    counted("parse_known_args")
    cli._parser.cache_clear()
    graph = str(_DATA / "p3.graph")
    assert run(["--porcelain", "graph", "analyze", graph]).exit_code == 0
    assert run(["graph", "analyze", graph]).exit_code == 0
    with pytest.raises(SystemExit):
        run(["-h"])
    assert capsys.readouterr().out == cli._usage(None)
    assert run(["nosuch", "analyze", graph]).exit_code == 1
    assert run(["-x", "graph", "analyze", graph]).porcelain == ("error=unrecognized arguments: -x",)
    assert calls == {}
    assert run(["--porcelain", "raag", "split-report", "--max-k=3", graph]).exit_code == 0
    assert calls == {"__init__": 1, "parse_known_args": 1}
    assert run(["raag", "split-report", "--max-k=3", graph]).exit_code == 0
    assert calls == {"__init__": 1, "parse_known_args": 2}


def _table_lines():
    """A line in the table's spelling for each command, `obstruct` with 0
    and 3 vectors."""
    for group, commands in cli._COMMANDS.items():
        for command, (_, int_option, operands, _) in commands.items():
            option = [int_option, "12"] if int_option else []
            if operands[-1].endswith("*"):
                yield group, command, option
                yield group, command, option + ["a", "b b", "c"]
            else:
                yield group, command, option + [f"{o}.txt" for o in operands]


@pytest.mark.parametrize("group,command,tokens", list(_table_lines()))
def test_table_reading_is_the_command_parser_reading(group, command, tokens):
    """Read from the table, a plain line gives the namespace, handler,
    module and defaults included, that its command's own parser gives."""
    args = cli._table_args(group, command, tokens)
    assert args is not None and args == cli._parser(group, command).parse_args(tokens)


def test_reference_parser_has_the_command_table():
    table = {
        group: {command: (int_option, operands) for command, (_, int_option, operands, _) in commands.items()}
        for group, commands in cli._COMMANDS.items()
    }
    assert table == oracles.CLI_COMMANDS


# group and command names, options of each level, help options, and
# operands that look like options: a negative number, '-', '--', a token
# with a space
CLI_TOKENS = [
    *oracles.CLI_COMMANDS,
    *sorted({command for commands in oracles.CLI_COMMANDS.values() for command in commands}),
    "--porcelain", "--porcelain=1", "--porc", "-n", "-n5", "-n=4", "--max-k", "--max-k=2", "--max",
    "-h", "-hh", "-hx", "--help", "--help=1",
    "4", "-3", "-1.5", "1_0", "x", "-", "--", "-x", "a b",
]


# operands and option values that argparse reads as such
CLI_OPERANDS = ["x", "4", "-", "-3", "-1.5", "a b"]
CLI_VALUES = ["4", "-3", "0", "12"]


def command_line(choice, randint):
    """A well-formed line (an optional --porcelain, a group, one of its
    commands, its option with a value, and its operands), then up to two
    insertions, deletions or replacements of tokens drawn from CLI_TOKENS.
    choice(seq) picks an item of a list and randint(a, b) an int in a..b."""
    group = choice(list(oracles.CLI_COMMANDS))
    command = choice(list(oracles.CLI_COMMANDS[group]))
    int_option, operands = oracles.CLI_COMMANDS[group][command]
    tail = []
    for operand in operands:
        count = randint(0, 3) if operand.endswith("*") else 1
        tail += [choice(CLI_OPERANDS) for _ in range(count)]
    if int_option:
        value = choice(CLI_VALUES)
        option = choice([[int_option, value], [f"{int_option}={value}"]])
        # before or after the operands: argparse reads 'vectors*' from one run of tokens
        tail = option + tail if randint(0, 1) else tail + option
    argv = ["--porcelain"] * randint(0, 1) + [group, command] + tail
    for _ in range(randint(0, 2)):
        at = randint(0, len(argv))
        edit = choice(["insert", "delete", "replace"])
        if edit == "insert" or at == len(argv):
            argv.insert(at, choice(CLI_TOKENS))
        elif edit == "delete":
            del argv[at]
        else:
            argv[at] = choice(CLI_TOKENS)
    return argv


@st.composite
def command_lines(draw):
    return command_line(lambda seq: draw(st.sampled_from(seq)), lambda a, b: draw(st.integers(a, b)))


def _read(parse, argv):
    """What parse makes of argv: accepted with its reading, rejected with
    the message, or help, with the program named on the usage line."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            return "accepted", parse(argv)
    except (UsageError, oracles.CliUsageError) as e:
        return "rejected", str(e)
    except SystemExit as e:
        return "help", e.code, printed.getvalue().partition(" [")[0]


@settings(deadline=None, derandomize=True, database=None, max_examples=2000)
@given(command_lines())
# plain lines that the command table leaves to argparse: the option joined
# to its value, after the operands or repeated, a value that is not ASCII
# digits or is past the digit limit, help, an operand starting with '-',
# and a missing or an extra operand
@example(["braid", "sigma", "-n=4", "x"])
@example(["braid", "sigma", "-n4", "x"])
@example(["braid", "sigma", "x", "-n", "4"])
@example(["loop", "obstruct", "-n", "4", "x", "-n", "5"])
@example(["braid", "sigma", "-n", "+4", "x"])
@example(["braid", "sigma", "-n", "\u0664", "x"])
@example(["braid", "sigma", "-n", "9" * 5000, "x"])
@example(["graph", "analyze", "-h"])
@example(["raag", "sigma", "-", "x"])
@example(["raag", "split-report", "--max-k", "2", "-3"])
@example(["raag", "sigma", "x"])
@example(["raag", "compare", "x", "y", "z"])
@example(["braid", "witness", "-n", "4"])
# top- and group-level tokens that the draw never makes: -h given an
# argument or a run of h's, unknown options, a token with a space, a
# negative number in other digits, an empty token, --porcelain at the group
# level and given an empty argument, and a last '--'
@example(["-hhx"])
@example(["-h=1"])
@example(["-h="])
@example(["-h=hh"])
@example(["-hh=1"])
@example(["--help="])
@example(["-h x"])
@example(["raag", "-h-"])
@example(["raag", "-hhh"])
@example(["-x y", "graph"])
@example(["-\u0663", "graph"])
@example(["-1e5", "graph", "analyze", "x"])
@example(["-x", "raag", "-y", "kill", "a", "b", "-z"])
@example(["-x", "graph", "analyze"])
@example(["graph", "--porcelain=1", "analyze", "x"])
@example(["", "graph"])
@example(["--porcelain=", "graph"])
@example(["--porcelain", "graph", "--"])
def test_command_lines_read_as_by_nested_subparsers(argv):
    """`cli._parse` reads the top and group levels itself, and the tokens
    after the command from the command table or by the command's own
    parser; what is read, whether the top level read --porcelain, every
    error, and which level prints help must be what the nested argparse
    subparsers in `tests/oracles.py` give under argparse 3.10-3.12, whose
    reading `cli` keeps on every interpreter."""
    read = []
    flat = _read(lambda v: (oracles.cli_arguments(cli._parse(v, read)), "--porcelain" in read), argv)
    assert flat == _read(oracles.nested_cli_parse, argv)
    if flat[0] == "rejected":
        assert run(argv).porcelain == (f"error={flat[1]}",)
