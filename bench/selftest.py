"""Show that no check is vacuous: each one rejects a deliberately corrupted output.

    python3 bench/run.py --self-test

For every case, the first operation of the named kinds whose real output the
corruption applies to is run once through bnskit; its real output must pass
the check and the corrupted copy must fail it.
"""

from __future__ import annotations

import dataclasses
import random

from bnskit import words

import oracles
import workloads


def fields(report):
    return oracles.porcelain_dict(report.porcelain)


def edit(report, **changes):
    """The report with some porcelain keys replaced (None removes a key)."""
    d = fields(report)
    d.update(changes)
    lines = tuple(f"{k}={v}" for k, v in sorted(d.items()) if v is not None)
    return dataclasses.replace(report, porcelain=lines)


def other_kept(kept_text):
    size = len(kept_text.split(","))
    alt = ",".join(map(str, range(1, size + 1)))
    return alt if alt != kept_text else ",".join(map(str, [*range(1, size), size + 1]))


# Each corruption takes the real output and the operation's subject, and
# returns a wrong output, or None when it does not apply to this output.


def flip_in_to_out(report, _):
    if fields(report).get("status") == "in":
        return edit(report, status="out", witness="zero")


def flip_out_to_in(report, _):
    if fields(report).get("status") == "out":
        return edit(report, status="in", witness=None, kept=None, base=None, reason=None)


def wrong_kept(report, _):
    f = fields(report)
    if f.get("witness") == "projection":
        return edit(report, kept=other_kept(f["kept"]))


def commuting_witness(report, _):
    f = fields(report)
    if "u" in f:
        return edit(report, u=f["v"])


def certificate_as_covered(report, _):
    if fields(report).get("branch") == "certificate":
        return edit(report, branch="covered")


def wrong_covering(report, _):
    f = fields(report)
    if f.get("branch") == "covered":
        kind, _, kept = f["covering"].partition(":")
        return edit(report, covering=f"{kind}:{other_kept(kept)}")


def wrong_dead(report, _):
    dead = fields(report)["dead"]
    return edit(report, dead=",".join(dead.split(",")[1:]) if dead else "v0")


def larger_separating_clique(report, g):
    """A separating clique one larger than the reported minimum."""
    f = fields(report)
    size = 0 if f["min_separating_clique"] == "none" else int(f["min_separating_clique"])
    n = len(g.vertices)
    for c in oracles.cliques_in_order(n, g.masks):
        if bin(c).count("1") == size + 1 and oracles.separating(n, g.masks, c):
            names = ",".join(g.vertices[i] for i in oracles.bits(c))
            return edit(report, min_separating_clique=str(size + 1), witness=names)


def edge_separates_cycle(report, g):
    neighbour = oracles.bits(g.masks[0])[0]
    return edit(report, min_separating_clique="2", witness=f"{g.vertices[0]},{g.vertices[neighbour]}")


def non_minimal_support(report, _):
    supports = fields(report)["supports"].split(" ")
    first = supports[0].split(",")
    extra = next(v for v in (f"v{i}" for i in range(64)) if v not in first)
    supports[0] = ",".join(sorted(first + [extra], key=lambda v: int(v[1:])))
    return edit(report, supports=" ".join(supports))


def flipped_split_verdict(report, _):
    verdicts = fields(report)["verdicts"].split(" ")
    k, _, verdict = verdicts[0].partition(":")
    verdicts[0] = f"{k}:{'certified-no-split' if verdict == 'splits' else 'splits'}"
    return edit(report, verdicts=" ".join(verdicts))


def flipped_compare(report, _):
    verdict = fields(report)["verdict"]
    return edit(report, verdict="not-commensurable" if verdict == "inconclusive" else "inconclusive")


def non_shortlex(word, wg):
    """Swap the first adjacent pair of distinct commuting letters: an equal
    geodesic word that is not ShortLex-least."""
    letters = list(word.letters)
    for k in range(len(letters) - 1):
        (a, _), (b, _) = letters[k], letters[k + 1]
        if a != b and wg.graph.adjacent(a, b):
            letters[k], letters[k + 1] = letters[k + 1], letters[k]
            return words.Word(word.alphabet, letters)


def not_reduced(word, _):
    g = word.alphabet[0]
    return words.Word(word.alphabet, [*word.letters, (g, 1), (g, -1)])


# (case, workload, operation kind prefix, corruption)
CASES = [
    ("flipped verdict, braid IN to OUT", "membership", "braid sigma", flip_in_to_out),
    ("flipped verdict, braid OUT to IN", "membership", "braid sigma", flip_out_to_in),
    ("flipped verdict, loop IN to OUT", "membership", "loop sigma", flip_in_to_out),
    ("flipped verdict, raag OUT to IN", "membership", "raag sigma", flip_out_to_in),
    ("wrong kept, braid", "membership", "braid sigma", wrong_kept),
    ("wrong kept, loop", "membership", "loop sigma", wrong_kept),
    ("commuting witness pair, braid", "membership", "braid witness", commuting_witness),
    ("commuting witness pair, loop", "membership", "loop witness", commuting_witness),
    ("certificate reported as covered", "obstruction", "braid obstruct", certificate_as_covered),
    ("wrong covering subspace", "obstruction", "loop obstruct", wrong_covering),
    ("commuting covered witness pair", "obstruction", "braid obstruct", commuting_witness),
    ("wrong dead clique", "obstruction", "raag kill", wrong_dead),
    ("non-minimal separating clique", "graph-structure", "graph analyze path", larger_separating_clique),
    ("separating clique claimed on a cycle", "graph-structure", "graph analyze cycle", edge_separates_cycle),
    ("non-minimal support", "graph-structure", "raag complement", non_minimal_support),
    ("flipped split verdict", "graph-structure", "raag split-report", flipped_split_verdict),
    ("flipped compare verdict", "graph-structure", "raag compare", flipped_compare),
    ("non-ShortLex word", "normal-form", "normal form", non_shortlex),
    ("non-reduced word", "normal-form", "normal form", not_reduced),
    ("flipped commute answer", "normal-form", "raag commute", lambda out, _: not out),
]


def main(directory: str) -> int:
    files = workloads.Files(directory)
    built = {name: builder(random.Random(0), files) for name, builder in workloads.BUILDERS.items()}
    outputs = {}
    failures = 0
    for case, name, prefix, corrupt in CASES:
        result = None
        for op in built[name].ops:
            if not op.kind.startswith(prefix):
                continue
            if id(op) not in outputs:
                outputs[id(op)] = op.call()
            real = outputs[id(op)]
            corrupted = corrupt(real, op.subject)
            if corrupted is not None:
                result = op.check(real), op.check(corrupted)
                break
        ok = result is not None and result[0] is None and result[1] is not None
        failures += not ok
        if result is None:
            detail = "no operation to corrupt"
        else:
            genuine, caught = result
            detail = (f"real output {'passes' if genuine is None else 'FAILS: ' + genuine}; "
                      f"corrupted {'rejected: ' + caught if caught else 'ACCEPTED'}")
        print(f"{'PASS' if ok else 'FAIL'}  {case}: {detail}")
    print(f"self-test: {len(CASES) - failures} of {len(CASES)} corruptions rejected")
    return 1 if failures else 0
