"""Command line driver and the text formats shared with it.

Exit codes: 0 on success, 1 on parse or usage errors, 2 when a mathematical
precondition fails.  Every command renders both a human report and porcelain
key=value lines (keys sorted, rationals in lowest terms) so scripted callers
get byte-stable output.  A file argument of - reads standard input.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import re
import sys
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BnsError, DomainError, InputError, ParseError, PreconditionError, _lazy, _quote

braid = _lazy(".braid")
characters = _lazy(".characters")
fractions = _lazy("fractions")
graphs = _lazy(".graphs")
loop = _lazy(".loop")
obstruction = _lazy(".obstruction")
raag = _lazy(".raag")
words = _lazy(".words")


class UsageError(BnsError):
    """Bad command line (unknown command, missing argument, unreadable file)."""


# ---------------------------------------------------------------------------
# text formats

# ASCII digits only: \d alone also matches other scripts' digits
_VALUE_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$", re.ASCII)


def _content_lines(text: str) -> list[tuple[int, str]]:
    """Number and text of each line holding more than a comment.  A line
    ends only at LF, CR LF or CR; `str.splitlines` would also end one at a
    form feed, U+2028 and the like, and miscount the lines after it."""
    out = []
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            out.append((lineno, stripped))
    return out


def parse_graph_file(text: str) -> graphs.Graph:
    """Parse the graph format: 'vertices: a b c' and 'edges: a-b b-c' lines.
    The vertex positions and neighbour masks are built as the lines are
    checked, so the graph is made without checking them again."""
    vertices: list[str] = []
    index: dict[str, int] = {}
    # bit i of masks[j]: vertex i is adjacent to vertex j
    masks: list[int] = []
    saw_vertices = False
    for lineno, line in _content_lines(text):
        if line.startswith("vertices:"):
            saw_vertices = True
            for token in line[len("vertices:"):].split():
                # '-' splits edges and '=' value lines, and ',', ':' and '|'
                # split porcelain sets, fields and rows; a trailing
                # apostrophe (like '^-1') marks an inverse letter in words
                for mark in "-=,:|":
                    if mark in token:
                        raise ParseError(lineno, f"vertex name {_quote(token)} may not contain {mark!r}")
                if token.endswith("'"):
                    raise ParseError(lineno, f"vertex name {_quote(token)} may not end in an apostrophe")
                if token in index:
                    raise ParseError(lineno, f"duplicate vertex {_quote(token)}")
                index[token] = len(vertices)
                vertices.append(token)
                masks.append(0)
        elif line.startswith("edges:"):
            for token in line[len("edges:"):].split():
                parts = token.split("-")
                if len(parts) != 2 or not parts[0] or not parts[1]:
                    raise ParseError(lineno, f"malformed edge {_quote(token)}")
                i, j = index.get(parts[0]), index.get(parts[1])
                if i is None or j is None:
                    raise ParseError(lineno, f"edge {_quote(token)} uses an undeclared vertex")
                if i == j:
                    raise ParseError(lineno, f"self-loop {_quote(token)}")
                if masks[i] >> j & 1:
                    raise ParseError(lineno, f"duplicate edge {_quote(token)}")
                masks[i] |= 1 << j
                masks[j] |= 1 << i
        else:
            raise ParseError(lineno, f"expected 'vertices:' or 'edges:', got {_quote(line)}")
    if not saw_vertices:
        raise ParseError(1, "missing 'vertices:' line")
    return graphs.Graph._checked(tuple(vertices), index, masks)


def _assignments(
    text: str, basis: characters.GeneratorBasis
) -> Iterator[tuple[int, int, str, int | fractions.Fraction]]:
    """Line number, generator index, value text and value of each
    'name = value' line, once the checks both value formats share have
    passed.  A value without '/' is read as an int, one with '/' as a
    Fraction."""
    assigned = set()
    for lineno, line in _content_lines(text):
        if "=" not in line:
            raise ParseError(lineno, f"expected 'name = value', got {_quote(line)}")
        name, _, value_text = line.partition("=")
        name = name.strip()
        value_text = value_text.strip()
        try:
            index = basis.index(name)
        except InputError:
            raise ParseError(lineno, f"unknown generator {_quote(name)}") from None
        if index in assigned:
            raise ParseError(lineno, f"generator {_quote(name)} assigned twice")
        assigned.add(index)
        if not _VALUE_RE.match(value_text):
            raise ParseError(lineno, f"malformed rational {_quote(value_text)}")
        try:
            value = fractions.Fraction(value_text) if "/" in value_text else int(value_text)
        except ValueError:
            # the only failure left: a number past the interpreter's digit limit
            limit = sys.get_int_max_str_digits()
            raise ParseError(lineno, f"number longer than {limit} digits") from None
        yield lineno, index, value_text, value


def parse_character_file(text: str, basis: characters.GeneratorBasis) -> characters.Character:
    """Parse 'name = p/q' lines; generators not listed get the value zero."""
    values = [0] * basis.dim
    for _, index, _, value in _assignments(text, basis):
        values[index] = value
    return characters.Character(basis, tuple(values))


def _parse_letter(lineno: int, token: str, known: set[str]) -> tuple[str, int]:
    sign = 1
    if token.endswith("^-1"):
        token, sign = token[:-3], -1
    elif token.endswith("'"):
        token, sign = token[:-1], -1
    if token not in known:
        raise ParseError(lineno, f"unknown generator {_quote(token)}")
    return token, sign


def parse_words_file(text: str, alphabet: Sequence[str]) -> list[words.Word]:
    """Parse one word per line; letters are 'a', 'a^-1' or 'a'' separated by space."""
    alphabet = tuple(alphabet)
    known = set(alphabet)
    parsed = []
    for lineno, line in _content_lines(text):
        letters = tuple([_parse_letter(lineno, token, known) for token in line.split()])
        # each letter is checked already; the first word checks the alphabet
        parsed.append(words.Word._checked(alphabet, letters) if parsed else words.Word(alphabet, letters))
    return parsed


def parse_vector_file(text: str, basis: characters.GeneratorBasis) -> characters.Row:
    """An integer vector in character syntax: 'name = k' lines, as the
    (column, value) pairs of its nonzero entries, in column order.  A value
    written as a fraction is read as one and must be an integer."""
    entries = {}
    for lineno, index, value_text, value in _assignments(text, basis):
        if value.denominator != 1:
            raise ParseError(lineno, f"integer required, got {_quote(value_text)}")
        if value:
            entries[index] = value.numerator
    return tuple(sorted(entries.items()))


# ---------------------------------------------------------------------------
# rendering helpers


def _fmt_set(items: Iterable[str]) -> str:
    return ",".join(items)


def _fmt_braced(items: Iterable[str]) -> str:
    return "{" + ",".join(items) + "}"


def _fmt_rational(value: int | fractions.Fraction) -> str:
    try:
        return str(value)
    except ValueError:
        # a result can outgrow the interpreter's digit limit for printing
        # integers even when every input number is below it
        limit = sys.get_int_max_str_digits()
        raise PreconditionError(f"result has a number longer than {limit} digits") from None


def _fmt_pairs(names: Sequence[str], pairs: Iterable[tuple[int, int | fractions.Fraction]]) -> str:
    """The nonzero values at their generators' names, in column order."""
    parts = [f"{names[j]}:{_fmt_rational(value)}" for j, value in pairs]
    return " ".join(parts) if parts else "0"


def _fmt_character(c: characters.Character) -> str:
    return _fmt_pairs(c.basis.names, compress(enumerate(c.values), c.values))


def _fmt_opt(value: Optional[object]) -> str:
    return "none" if value is None else str(value)


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _raag_verdict_compact(v: raag.RaagSigmaVerdict) -> str:
    if v.inside:
        return "in"
    return f"out:{v.reason}:{_fmt_set(v.offending)}"


def _raag_verdict_human(v: raag.RaagSigmaVerdict) -> str:
    if v.inside:
        return "IN"
    return f"OUT {v.reason} {_fmt_braced(v.offending)}"


def _proj_verdict_compact(v) -> str:
    if v.inside:
        return "in"
    if v.witness == "zero":
        return "out:zero"
    kept = _fmt_set(str(i) for i in v.kept)
    return f"out:projection:{kept}:{v.base}"


def _proj_verdict_human(v, n: int) -> str:
    if v.inside:
        return "IN"
    if v.witness == "zero":
        return "OUT zero-character"
    if len(v.kept) == n:
        return f"OUT {v.base}"
    return f"OUT projection {_fmt_braced(str(i) for i in v.kept)} {v.base}"


@dataclass(frozen=True)
class RenderedReport:
    human: str
    porcelain: tuple[str, ...]
    exit_code: int


def _report(lines: Sequence[str], porcelain: dict[str, str], code: int = 0) -> RenderedReport:
    rendered = tuple([f"{key}={porcelain[key]}" for key in sorted(porcelain)])
    return RenderedReport("\n".join(lines), rendered, code)


def _error_report(code: int, message: str) -> RenderedReport:
    return _report([f"error: {message}"], {"error": message}, code)


# ---------------------------------------------------------------------------
# command implementations


def _read_file(path: str) -> str:
    """The text of a file, taken whole by one unbuffered `readall`, or of
    standard input for -, decoded alike."""
    try:
        if path != "-":
            with open(path, "rb", buffering=0) as handle:
                data = handle.readall()
        elif sys.stdin is None:  # the process started with no standard input
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            data = sys.stdin.buffer.read()
        return data.decode("utf-8")
    except OSError as e:
        raise UsageError(f"cannot read {path!r}: {e.strerror or e}") from None
    except UnicodeDecodeError:
        raise UsageError(f"cannot read {path!r}: not valid UTF-8") from None


def _cmd_graph_analyze(args) -> RenderedReport:
    g = parse_graph_file(_read_file(args.graph))
    witness = graphs.min_separating_clique_witness(g)
    predicates = graphs.out_finiteness_predicates(g)
    clique = graphs.is_clique(g, g.vertices)
    connected = graphs.is_connected(g)
    porcelain = {
        "vertices": _fmt_set(g.vertices),
        "edges": _fmt_set(f"{a}-{b}" for a, b in g.edges),
        "clique": _fmt_bool(clique),
        "connected": _fmt_bool(connected),
        "min_separating_clique": _fmt_opt(None if witness is None else len(witness)),
        "witness": _fmt_opt(None if witness is None else _fmt_set(witness)),
        "separating_closed_star": _fmt_opt(predicates.separating_closed_star),
        "link_in_star": _fmt_opt(
            None if predicates.link_in_star is None else _fmt_set(predicates.link_in_star)
        ),
        "finite_out": _fmt_bool(predicates.finite),
    }
    lines = [
        f"graph: {len(g.vertices)} vertices, {len(g.edges)} edges",
        f"clique: {_fmt_bool(clique)}",
        f"connected: {_fmt_bool(connected)}",
        "min separating clique: "
        + ("none" if witness is None else f"{len(witness)} (witness {_fmt_braced(witness)})"),
        f"separating closed star: {_fmt_opt(predicates.separating_closed_star)}",
        "link in star: "
        + ("none" if predicates.link_in_star is None else _fmt_braced(predicates.link_in_star)),
        f"finite outer automorphism group: {_fmt_bool(predicates.finite)}",
    ]
    return _report(lines, porcelain)


def _cmd_raag_sigma(args) -> RenderedReport:
    g = parse_graph_file(_read_file(args.graph))
    c = parse_character_file(_read_file(args.character), raag.vertex_basis(g))
    verdict = raag.sigma_membership(g, c)
    porcelain = {"status": verdict.status}
    if not verdict.inside:
        porcelain["reason"] = verdict.reason
        porcelain["witness"] = _fmt_set(verdict.offending)
    return _report([_raag_verdict_human(verdict)], porcelain)


def _cmd_raag_kill(args) -> RenderedReport:
    g = parse_graph_file(_read_file(args.graph))
    gens = parse_words_file(_read_file(args.words), g.vertices)
    result = raag.kill_and_test(g, gens)
    killing = [_fmt_pairs(g.vertices, row) for row in result.lattice.annihilator]
    specialized = _fmt_character(result.specialized)
    porcelain = {
        "lattice_rank": str(result.lattice.rank),
        "killing": "|".join(killing),
        "specialized": specialized,
        "dead": _fmt_set(result.dead),
        "verdict_plus": _raag_verdict_compact(result.verdict_plus),
        "verdict_minus": _raag_verdict_compact(result.verdict_minus),
    }
    lines = [
        f"lattice rank: {result.lattice.rank}",
        f"killing rows: {len(killing)}",
    ]
    lines += [f"  {row}" for row in killing]
    lines += [
        f"specialized: {specialized}",
        f"dead clique: {_fmt_braced(result.dead)}",
        f"plus ray: {_raag_verdict_human(result.verdict_plus)}",
        f"minus ray: {_raag_verdict_human(result.verdict_minus)}",
    ]
    return _report(lines, porcelain)


def _cmd_raag_complement(args) -> RenderedReport:
    g = parse_graph_file(_read_file(args.graph))
    supports = raag.sigma_complement_supports(g)
    porcelain = {
        "count": str(len(supports)),
        "supports": " ".join(_fmt_set(s) for s in supports),
    }
    lines = [f"minimal always-dead supports: {len(supports)}"]
    lines += [f"  {_fmt_braced(s)}" for s in supports]
    return _report(lines, porcelain)


def _cmd_raag_split_report(args) -> RenderedReport:
    g = parse_graph_file(_read_file(args.graph))
    report = raag.virtual_split_report(g, args.max_k)
    porcelain = {
        "clique": _fmt_bool(report.is_clique),
        "max_k": str(report.max_k),
        "min_separating_clique": _fmt_opt(report.min_separating_clique),
        "witness": _fmt_opt(
            None if report.witness is None else _fmt_set(report.witness)
        ),
        "verdicts": " ".join(
            f"{k}:{verdict}" for k, verdict in enumerate(report.verdicts)
        ),
        "nf_certified": _fmt_bool(report.nf_certified),
    }
    if report.note:
        porcelain["note"] = report.note
    lines = [
        f"graph: {report.vertex_count} vertices, {report.edge_count} edges",
        f"clique: {_fmt_bool(report.is_clique)}",
        "min separating clique: " + _fmt_opt(report.min_separating_clique),
    ]
    if report.witness is not None:
        lines.append(f"splitting witness: {_fmt_braced(report.witness)}")
    for k, verdict in enumerate(report.verdicts):
        lines.append(f"  Z^{k}: {verdict}")
    if report.nf_certified:
        lines.append(
            "certified: no finite-index subgroup splits over a subgroup "
            "without non-abelian free subgroups"
        )
    if report.note:
        lines.append(f"note: {report.note}")
    return _report(lines, porcelain)


def _cmd_raag_compare(args) -> RenderedReport:
    g1 = parse_graph_file(_read_file(args.graph1))
    g2 = parse_graph_file(_read_file(args.graph2))
    result = raag.commensurability_compare(g1, g2)
    porcelain = {
        "clique1": _fmt_bool(result.clique1),
        "clique2": _fmt_bool(result.clique2),
        "invariant1": _fmt_opt(result.invariant1),
        "invariant2": _fmt_opt(result.invariant2),
        "verdict": result.verdict,
    }
    lines = [
        f"invariants: {_fmt_opt(result.invariant1)} vs {_fmt_opt(result.invariant2)}",
        f"verdict: {result.verdict}",
    ]
    return _report(lines, porcelain)


def _projection_character(args) -> characters.Character:
    basis = args.module.FAMILY.basis(args.n)
    return parse_character_file(_read_file(args.character), basis.generators)


def _cmd_projection_sigma(args) -> RenderedReport:
    verdict = args.module.sigma_membership(args.n, _projection_character(args))
    porcelain = {"status": verdict.status}
    if not verdict.inside:
        porcelain["witness"] = verdict.witness
        if verdict.kept is not None:
            porcelain["kept"] = _fmt_set(str(i) for i in verdict.kept)
            porcelain["base"] = verdict.base
    return _report([_proj_verdict_human(verdict, args.n)], porcelain)


def _cmd_projection_witness(args) -> RenderedReport:
    module = args.module
    c = _projection_character(args)
    pair = module.witness_pair(args.n, c)
    # the pair is sound when both words die under c and their images in the
    # small base group generate a free subgroup
    image = lambda w: module.FAMILY.reduce(module.project_word(args.n, pair.designated, w))
    pairing_u = _fmt_rational(c.pair(characters.abelianize(c.basis, pair.u)))
    pairing_v = _fmt_rational(c.pair(characters.abelianize(c.basis, pair.v)))
    free = not words.free_commute(image(pair.u), image(pair.v))
    porcelain = {
        "u": str(pair.u),
        "v": str(pair.v),
        "designated": _fmt_set(str(i) for i in pair.designated),
        "pairing_u": pairing_u,
        "pairing_v": pairing_v,
        "free": _fmt_bool(free),
    }
    lines = [
        f"u: {pair.u}",
        f"v: {pair.v}",
        f"designated {module.FAMILY.unit}s: {_fmt_braced(str(i) for i in pair.designated)}",
        f"character pairing: {pairing_u}, {pairing_v}",
        f"projected images generate freely: {_fmt_bool(free)}",
    ]
    return _report(lines, porcelain)


def _cmd_projection_obstruct(args) -> RenderedReport:
    family = args.module.FAMILY
    basis = family.basis(args.n)
    rows = [parse_vector_file(_read_file(path), basis.generators) for path in args.vectors]
    report = obstruction.run_obstruction(family, args.n, rows)
    character = _fmt_character(report.character)
    porcelain = {"branch": report.branch, "character": character}
    lines = [f"branch: {report.branch}"]
    if report.branch == obstruction.CERTIFICATE:
        porcelain["verdict_plus"] = _proj_verdict_compact(report.verdict_plus)
        porcelain["verdict_minus"] = _proj_verdict_compact(report.verdict_minus)
        lines += [
            f"character: {character}",
            f"plus ray: {_proj_verdict_human(report.verdict_plus, args.n)}",
            f"minus ray: {_proj_verdict_human(report.verdict_minus, args.n)}",
        ]
    else:
        kept = _fmt_set(str(i) for i in report.covering.kept)
        porcelain["covering"] = f"{report.covering.kind}:{kept}"
        porcelain["u"] = str(report.witness.u)
        porcelain["v"] = str(report.witness.v)
        porcelain["designated"] = _fmt_set(str(i) for i in report.witness.designated)
        lines += [
            f"covering: {report.covering.kind} {{{kept}}}",
            f"sample character: {character}",
            f"u: {report.witness.u}",
            f"v: {report.witness.v}",
            f"designated: {{{_fmt_set(str(i) for i in report.witness.designated)}}}",
        ]
    lines.append(f"guidance: {report.guidance}")
    lines.append(f"note: {args.note}")
    return _report(lines, porcelain)


# command group -> (family module, note closing every obstruct report)
_PROJECTION_GROUPS = {
    "braid": (
        braid,
        "the full braid group abelianizes to a single infinite cyclic group, so "
        "its character sphere is two points killing the whole commutator "
        "subgroup; pure braid characters carry the content",
    ),
    "loop": (
        loop,
        "the full loop braid group has finite abelianization and therefore no "
        "nonzero characters at all; pure loop braid characters carry the content",
    ),
}


# ---------------------------------------------------------------------------
# argument parsing
#
# `bnskit [--porcelain] GROUP COMMAND [options] operands`.  `_parse` reads
# the tokens up to the command itself, with the help and the errors of
# argparse's nested subparsers; the rest is read from the command table
# when it takes the one spelling that scripts use, and by that command's own
# argparse parser otherwise.

# group -> command -> (handler, int option or None, operands, fixed defaults);
# an operand ending in * takes any number of files
_COMMANDS = {
    "graph": {"analyze": (_cmd_graph_analyze, None, ("graph",), {})},
    "raag": {
        "sigma": (_cmd_raag_sigma, None, ("graph", "character"), {}),
        "kill": (_cmd_raag_kill, None, ("graph", "words"), {}),
        "complement": (_cmd_raag_complement, None, ("graph",), {}),
        "split-report": (_cmd_raag_split_report, "--max-k", ("graph",), {}),
        "compare": (_cmd_raag_compare, None, ("graph1", "graph2"), {}),
    },
    **{
        group: {
            "sigma": (_cmd_projection_sigma, "-n", ("character",), {"module": module, "note": note}),
            "witness": (_cmd_projection_witness, "-n", ("character",), {"module": module, "note": note}),
            "obstruct": (_cmd_projection_obstruct, "-n", ("vectors*",), {"module": module, "note": note}),
        }
        for group, (module, note) in _PROJECTION_GROUPS.items()
    },
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _ascii_int(text: str) -> int:
    """An optional sign and ASCII digits, like a value line's integers;
    `int` alone also reads other scripts' digits, '_' and spaces."""
    if re.fullmatch(r"[+-]?[0-9]+", text):
        try:
            return int(text)
        except ValueError:  # past the interpreter's digit limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


@functools.cache
def _parser(group: str, command: str) -> _Parser:
    """The parser of one command's options and operands, built on first
    use and kept for the process."""
    handler, int_option, operands, defaults = _COMMANDS[group][command]
    # no abbreviations: '--max' is not '--max-k'
    parser = _Parser(prog=f"bnskit {group} {command}", allow_abbrev=False)
    if int_option:
        parser.add_argument(int_option, type=_ascii_int, required=True)
    for operand in operands:
        parser.add_argument(operand.rstrip("*"), nargs="*" if operand.endswith("*") else None)
    parser.set_defaults(handler=handler, group=group, command=command, **defaults)
    return parser


def _usage(group: Optional[str]) -> str:
    """The help of the top level or of one group: its grammar and that of
    each of its commands, in the style of an argparse usage."""
    head = f"bnskit {group} [-h]" if group else "bnskit [-h] [--porcelain] GROUP"
    lines = [f"usage: {head} COMMAND [options] operands", "", "commands:"]
    for name, commands in ({group: _COMMANDS[group]} if group else _COMMANDS).items():
        for command, (_, int_option, operands, _) in commands.items():
            words = [f"bnskit {name} {command}"]
            if int_option:
                words.append(f"{int_option} {int_option.lstrip('-').replace('-', '_').upper()}")
            words += [f"[{o[:-1]} ...]" if o.endswith("*") else o for o in operands]
            lines.append("  " + " ".join(words))
    return "\n".join(lines) + "\n"


def _table_args(group: str, command: str, tokens: list[str]) -> Optional[argparse.Namespace]:
    """The namespace that the command's own parser makes of tokens, read
    from the command table, when they take the one spelling that scripts
    use: the int option first as '-n 4', its value ASCII digits, then as
    many operands as the command takes, none starting with '-'.  None for
    any other spelling, which the command's argparse parser reads, with its
    help and errors."""
    handler, int_option, operands, defaults = _COMMANDS[group][command]
    args = argparse.Namespace(handler=handler, group=group, command=command, **defaults)
    if int_option:
        if len(tokens) < 2 or tokens[0] != int_option or not (tokens[1].isascii() and tokens[1].isdigit()):
            return None
        try:
            setattr(args, int_option.lstrip("-").replace("-", "_"), int(tokens[1]))
        except ValueError:  # past the interpreter's digit limit
            return None
        tokens = tokens[2:]
    star = operands[-1].endswith("*")
    count = len(operands) - star
    if len(tokens) < count or (len(tokens) > count and not star):
        return None
    for token in tokens:
        if token[:1] == "-":
            return None
    args.__dict__.update(zip(operands[:count], tokens))
    if star:
        setattr(args, operands[-1][:-1], tokens[count:])
    return args


def _parse(argv: list[str], read: list[str]) -> argparse.Namespace:
    """The arguments of one invocation, read as argparse 3.10-3.12 read
    nested subparsers: a top level and a group level above the command's
    own parser.  The tokens up to the command are read here: `--porcelain`
    at the top level only, help at either level, any other option held back
    until the command's own parse has succeeded, and the group, then the
    command.  The tokens after the command go to the command table or to
    the command's own parser.  The top-level options read go to read, also
    when a later token is an error."""
    group, choices, unknown = None, _COMMANDS, []
    for at, token in enumerate(argv):
        if token in choices:
            if group is None:
                group, choices = token, _COMMANDS[token]
                continue
            tokens = argv[at + 1:]
            args = _table_args(group, token, tokens)
            if args is None:
                args, rest = _parser(group, token).parse_known_args(tokens)
                unknown += rest
            if unknown:
                raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
            return args
        name, equals, argument = token.partition("=")
        if token == "--porcelain" and group is None:
            read.append(token)
        elif token == "--help" or token[:2] == "-h":
            # -h reads the h's after it, in the token or after '-h=', as
            # more -h flags, and refuses any other argument, an empty one too
            if token[:2] == "-h" and name != "-h":
                argument = token[2:]
            if argument.lstrip("h") or equals and not argument:
                raise UsageError(f"argument -h/--help: ignored explicit argument {argument.lstrip('h')!r}")
            # print, unlike sys.stdout.write, does nothing when the process
            # started with no standard output
            print(_usage(group), end="")
            raise SystemExit(0)
        elif equals and (name == "--help" or name == "--porcelain" and group is None):
            option = "-h/--help" if name == "--help" else name
            raise UsageError(f"argument {option}: ignored explicit argument {argument!r}")
        elif token[:1] != "-" or token in ("-", "--") or " " in token or re.match(r"-\d+$|-\d*\.\d+$", token):
            if token == "--" and at == len(argv) - 1:
                break  # a last '--' is no operand, so the operand is missing
            level, names = "command" if group else "group", ", ".join(map(repr, choices))
            raise UsageError(f"argument {level}: invalid choice: {token!r} (choose from {names})")
        else:
            unknown.append(token)
    raise UsageError(f"the following arguments are required: {'command' if group else 'group'}")


def run(argv: Sequence[str]) -> RenderedReport:
    """Parse and execute one invocation, capturing errors as exit codes."""
    return _run(argv, [])


def _run(argv: Sequence[str], read: list[str]) -> RenderedReport:
    """`run`, collecting in read the top-level options that the parse read."""
    try:
        args = _parse(list(argv), read)
    except UsageError as e:
        return _error_report(1, str(e))
    try:
        return args.handler(args)
    except (ParseError, UsageError) as e:
        return _error_report(1, str(e))
    except (InputError, DomainError, PreconditionError) as e:
        return _error_report(2, str(e))


def main(argv: Optional[Sequence[str]] = None) -> None:
    read: list[str] = []
    exit_code = 0
    try:
        try:
            report = _run(sys.argv[1:] if argv is None else argv, read)
        except SystemExit:
            # help, written by the parse, which exits 0: flushed here, where
            # a closed pipe is caught
            if sys.stdout is not None:
                sys.stdout.flush()
            raise
        exit_code = report.exit_code
        # the format is what the top level read: a later '--porcelain' is an
        # operand or an error
        if "--porcelain" in read:
            if report.porcelain:
                print("\n".join(report.porcelain), flush=True)
        elif report.human:
            print(report.human, flush=True)
    except BrokenPipeError:
        # the reader closed the pipe early: what is left goes to the null
        # device, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(exit_code)


if __name__ == "__main__":
    main()
