"""Independent checks for every benchmark operation.

Nothing here imports bnskit.  Inputs are plain data (strand pairs, Fraction
dicts, bitmask graphs, letter tuples) and each check re-derives the expected
answer from the mathematics, so agreement with the program is evidence.
Each ``check_*`` function returns None when the output is right and a short
description of the first mismatch otherwise.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import combinations

# ---------------------------------------------------------------------------
# families: braid bands are pairs i < j, loop moves are ordered pairs i != j

BRAID, LOOP = "braid", "loop"


def family_pairs(family: str, n: int) -> list[tuple[int, int]]:
    if family == BRAID:
        return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def generator_name(family: str, pair: tuple[int, int]) -> str:
    return f"{'S' if family == BRAID else 'A'}({pair[0]},{pair[1]})"


def parse_generator(token: str) -> tuple[int, int]:
    i, j = token[2:-1].split(",")
    return int(i), int(j)


def porcelain_dict(lines) -> dict[str, str]:
    return dict(line.split("=", 1) for line in lines)


def _dead_projection(family: str, kept: tuple[int, ...], nz: dict) -> bool:
    """Is the character supported on `kept` dead in the group on those strands?"""
    value = lambda i, j: nz.get((i, j), 0)
    if family == BRAID:
        if len(kept) == 3:
            return sum(value(i, j) for i, j in combinations(kept, 2)) == 0
        t1, t2, t3, t4 = kept
        exceptional = (
            value(t1, t2) == value(t3, t4)
            and value(t1, t3) == value(t2, t4)
            and value(t1, t4) == value(t2, t3)
            and value(t1, t2) + value(t1, t3) + value(t1, t4) == 0
        )
        return exceptional or any(
            _supported(nz, sub) and _dead_projection(family, sub, nz)
            for sub in combinations(kept, 3)
        )
    if len(kept) == 2:
        return True
    inflow = all(
        sum(value(s, t) for s in kept if s != t) == 0 for t in kept
    )
    return inflow or any(_supported(nz, sub) for sub in combinations(kept, 2))


def _supported(nz: dict, kept) -> bool:
    ks = set(kept)
    return all(i in ks and j in ks for i, j in nz)


def projection_verdict(family: str, n: int, values: dict) -> dict[str, str]:
    """Brute-force membership: the (size, lex)-first dead projection, if any.

    Returns the porcelain keys the program must print.
    """
    nz = {p: Fraction(v) for p, v in values.items() if v}
    if not nz:
        return {"status": "out", "witness": "zero"}
    sizes = (3, 4) if family == BRAID else (2, 3)
    bases = ("pb3-sum", "pb4-exceptional") if family == BRAID else ("plb2-all", "plb3-equations")
    for size, base in zip(sizes, bases):
        for kept in combinations(range(1, n + 1), size):
            if _supported(nz, kept) and _dead_projection(family, kept, nz):
                return {
                    "status": "out",
                    "witness": "projection",
                    "kept": ",".join(map(str, kept)),
                    "base": base,
                }
    return {"status": "in"}


def check_projection_sigma(family, n, values, exit_code, porcelain) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}"
    expected = projection_verdict(family, n, values)
    got = porcelain_dict(porcelain)
    return None if got == expected else f"expected {expected}, got {got}"


# ---------------------------------------------------------------------------
# free-group model for witness pairs


def _free_reduce(letters):
    stack = []
    for g, s in letters:
        if stack and stack[-1] == (g, -s):
            stack.pop()
        else:
            stack.append((g, s))
    return stack


def _inverse(letters):
    return [(g, -s) for g, s in reversed(letters)]


# images in (free group on A, B) modulo the centre; the 3-strand band S(2,3)
# is B^-1 A^-1 times the central full twist
_BRAID3_IMAGE = {(1, 2): [("A", 1)], (1, 3): [("B", 1)], (2, 3): [("B", -1), ("A", -1)]}
_LOOP2_IMAGE = {(1, 2): [("A", 1)], (2, 1): [("B", 1)]}


def parse_word(text: str) -> list[tuple[tuple[int, int], int]]:
    if text == "1":
        return []
    out = []
    for token in text.split():
        sign = 1
        if token.endswith("^-1"):
            token, sign = token[:-3], -1
        out.append((parse_generator(token), sign))
    return out


def _free_image(family, designated, word):
    relabel = {s: a + 1 for a, s in enumerate(designated)}
    table = _BRAID3_IMAGE if family == BRAID else _LOOP2_IMAGE
    letters = []
    for (i, j), sign in word:
        if i in relabel and j in relabel:
            image = table[(relabel[i], relabel[j])]
            letters += image if sign == 1 else _inverse(image)
    return _free_reduce(letters)


def witness_problem(family, values, u, v, designated) -> str | None:
    """u, v must die under the character and stay free after projection."""
    for name, w in (("u", u), ("v", v)):
        pairing = sum((Fraction(values.get(p, 0)) * s for p, s in w), Fraction(0))
        if pairing != 0:
            return f"{name} pairs to {pairing}, not 0"
    if len(designated) != (3 if family == BRAID else 2):
        return f"designated {designated} has the wrong size"
    x = _free_image(family, designated, u)
    y = _free_image(family, designated, v)
    if not _free_reduce(x + y + _inverse(x) + _inverse(y)):
        return "projected witnesses commute, so they do not generate freely"
    return None


def check_projection_witness(family, n, values, exit_code, porcelain) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}"
    got = porcelain_dict(porcelain)
    if projection_verdict(family, n, values)["status"] != "out":
        return "witness printed for a character inside the invariant"
    if (got.get("pairing_u"), got.get("pairing_v"), got.get("free")) != ("0", "0", "true"):
        return f"printed soundness fields wrong: {got}"
    designated = tuple(int(x) for x in got["designated"].split(","))
    return witness_problem(family, values, parse_word(got["u"]), parse_word(got["v"]), designated)


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals


def nullspace(rows: list[list], dim: int) -> list[list[Fraction]]:
    """Basis of {x : row . x = 0 for every row}, by reduced row echelon form."""
    mat = [[Fraction(a) for a in row] for row in rows]
    pivots = []
    r = 0
    for col in range(dim):
        pick = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pick is None:
            continue
        mat[r], mat[pick] = mat[pick], mat[r]
        p = mat[r][col]
        mat[r] = [a / p for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                q = mat[i][col]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * dim
        x[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            x[pc] = -mat[i][f]
        basis.append(x)
    return basis


def rank(rows: list[list], dim: int) -> int:
    return dim - len(nullspace(rows, dim))


# ---------------------------------------------------------------------------
# dead subspaces rebuilt from kind and kept


def subspace_equations(family: str, n: int, kind: str, kept: tuple[int, ...]) -> list[list[int]]:
    pairs = family_pairs(family, n)
    index = {p: k for k, p in enumerate(pairs)}
    ks = set(kept)
    eqs = []
    for k, (i, j) in enumerate(pairs):
        if i not in ks or j not in ks:
            row = [0] * len(pairs)
            row[k] = 1
            eqs.append(row)

    def combo(*terms):
        row = [0] * len(pairs)
        for coeff, pair in terms:
            row[index[pair]] += coeff
        return row

    if kind == "pb3-sum":
        eqs.append(combo(*((1, p) for p in combinations(kept, 2))))
    elif kind == "pb4-exceptional":
        t1, t2, t3, t4 = kept
        eqs.append(combo((1, (t1, t2)), (-1, (t3, t4))))
        eqs.append(combo((1, (t1, t3)), (-1, (t2, t4))))
        eqs.append(combo((1, (t1, t4)), (-1, (t2, t3))))
        eqs.append(combo((1, (t1, t2)), (1, (t1, t3)), (1, (t1, t4))))
    elif kind == "plb3-equations":
        for t in kept:
            eqs.append(combo(*((1, (s, t)) for s in kept if s != t)))
    elif kind != "plb2-all":
        raise ValueError(f"unknown dead subspace kind {kind!r}")
    return eqs


def dead_subspace_order(family: str, n: int):
    """(kind, kept) for every dead subspace, in the documented scan order."""
    if family == BRAID:
        sizes = ((3, "pb3-sum"), (4, "pb4-exceptional"))
    else:
        sizes = ((2, "plb2-all"), (3, "plb3-equations"))
    for size, kind in sizes:
        for kept in combinations(range(1, n + 1), size):
            yield kind, kept


def _satisfies(eqs, vec) -> bool:
    return all(sum(e * x for e, x in zip(eq, vec) if e) == 0 for eq in eqs)


def first_covering(family, n, annihilator) -> tuple[str, tuple[int, ...]] | None:
    for kind, kept in dead_subspace_order(family, n):
        eqs = subspace_equations(family, n, kind, kept)
        if all(_satisfies(eqs, x) for x in annihilator):
            return kind, kept
    return None


def parse_character_text(family, text) -> dict:
    """'S(1,2):3 S(2,3):-1/2' (or '0') into a pair -> Fraction dict."""
    if text == "0":
        return {}
    out = {}
    for token in text.split():
        name, _, value = token.rpartition(":")
        out[parse_generator(name)] = Fraction(value)
    return out


def check_obstruction(family, n, vectors, exit_code, porcelain) -> str | None:
    """vectors: list of pair -> int dicts, the integer lattice generators."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    got = porcelain_dict(porcelain)
    pairs = family_pairs(family, n)
    rows = [[vec.get(p, 0) for p in pairs] for vec in vectors]
    annihilator = nullspace(rows, len(pairs))
    cover = first_covering(family, n, annihilator)
    character = parse_character_text(family, got.get("character", "0"))
    if cover is None:
        if got.get("branch") != "certificate":
            return f"expected the certificate branch, got {got.get('branch')}"
        if not character:
            return "certificate character is zero"
        for row in rows:
            if sum(character.get(p, 0) * x for p, x in zip(pairs, row)):
                return "certificate character does not kill an input vector"
        for label, sign in (("verdict_plus", 1), ("verdict_minus", -1)):
            ray = {p: sign * x for p, x in character.items()}
            if projection_verdict(family, n, ray)["status"] != "in":
                return f"certificate ray {label} is not inside the invariant"
            if got.get(label) != "in":
                return f"{label} printed as {got.get(label)}"
        return None
    if got.get("branch") != "covered":
        return f"expected the covered branch by {cover}, got {got.get('branch')}"
    kind, _, kept_text = got["covering"].partition(":")
    kept = tuple(int(x) for x in kept_text.split(","))
    if (kind, kept) != cover:
        return f"covering {(kind, kept)} is not the first covering subspace {cover}"
    eqs = subspace_equations(family, n, kind, kept)
    if not all(_satisfies(eqs, x) for x in annihilator):
        return "annihilator escapes the covering subspace"
    sample = [character.get(p, 0) for p in pairs]
    if not character or not _satisfies(eqs, sample):
        return "sample character is not a nonzero point of the covering subspace"
    designated = tuple(int(x) for x in got["designated"].split(","))
    return witness_problem(family, character, parse_word(got["u"]), parse_word(got["v"]), designated)


# ---------------------------------------------------------------------------
# bitmask graphs: vertices 0..n-1, adjacency as neighbour masks


def masks_of(n: int, edges) -> list[int]:
    masks = [0] * n
    for i, j in edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


def connected(masks, subset: int) -> bool:
    if not subset:
        return False
    start = subset & -subset
    seen = start
    frontier = start
    while frontier:
        nxt = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            nxt |= masks[bit.bit_length() - 1]
        nxt &= subset & ~seen
        seen |= nxt
        frontier = nxt
    return seen == subset


def components(masks, subset: int) -> int:
    count = 0
    while subset:
        start = subset & -subset
        seen = frontier = start
        while frontier:
            nxt = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                nxt |= masks[bit.bit_length() - 1]
            nxt &= subset & ~seen
            seen |= nxt
            frontier = nxt
        subset &= ~seen
        count += 1
    return count


def dominating(n, masks, subset: int) -> bool:
    return all(subset >> i & 1 or masks[i] & subset for i in range(n))


def bits(subset: int) -> list[int]:
    return [i for i in range(subset.bit_length()) if subset >> i & 1]


def raag_verdict(n, masks, living: int) -> tuple[str, ...]:
    """(status,) or (status, reason, offending mask) for a living set."""
    if not living:
        return ("out", "zero-character", (1 << n) - 1)
    if not connected(masks, living):
        return ("out", "living-disconnected", living)
    undominated = sum(1 << i for i in range(n) if not (living >> i & 1 or masks[i] & living))
    if undominated:
        return ("out", "not-dominating", undominated)
    return ("in",)


def _names(vertices, subset) -> str:
    return ",".join(vertices[i] for i in bits(subset))


def raag_compact(vertices, masks, living) -> str:
    v = raag_verdict(len(vertices), masks, living)
    return "in" if v[0] == "in" else f"out:{v[1]}:{_names(vertices, v[2])}"


def check_raag_sigma(vertices, masks, values, exit_code, porcelain) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}"
    living = sum(1 << i for i, x in enumerate(values) if x)
    v = raag_verdict(len(vertices), masks, living)
    expected = {"status": v[0]}
    if v[0] == "out":
        expected.update(reason=v[1], witness=_names(vertices, v[2]))
    got = porcelain_dict(porcelain)
    return None if got == expected else f"expected {expected}, got {got}"


def check_raag_kill(vertices, masks, words, exit_code, porcelain) -> str | None:
    """words: list of (vertex index, sign) lists, pairwise commuting."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    got = porcelain_dict(porcelain)
    n = len(vertices)
    vecs = []
    for w in words:
        vec = [0] * n
        for i, s in w:
            vec[i] += s
        vecs.append(vec)
    r = rank(vecs, n)
    if got["lattice_rank"] != str(r):
        return f"lattice rank {got['lattice_rank']}, expected {r}"
    index = {name: i for i, name in enumerate(vertices)}

    def values_of(text):
        out = [Fraction(0)] * n
        if text != "0":
            for token in text.split():
                name, _, value = token.rpartition(":")
                out[index[name]] = Fraction(value)
        return out

    killing = [values_of(t) for t in got["killing"].split("|")] if got["killing"] else []
    if len(killing) != n - r or rank(killing, n) != n - r:
        return "killing rows do not span an annihilator of the right dimension"
    special = values_of(got["specialized"])
    for row in killing + [special]:
        if any(sum(a * b for a, b in zip(row, vec)) for vec in vecs):
            return "a killing character is nonzero on a generator"
    dying = [
        i for i in range(n)
        if rank(vecs + [[1 if k == i else 0 for k in range(n)]], n) == r
    ]
    zeros = [i for i in range(n) if special[i] == 0]
    dead = [index[x] for x in got["dead"].split(",")] if got["dead"] else []
    if not (dying == zeros == dead):
        return f"dead {dead}, zero set {zeros}, dying vertices {dying} differ"
    living = sum(1 << i for i in range(n) if special[i])
    if got["verdict_plus"] != raag_compact(vertices, masks, living):
        return f"verdict_plus {got['verdict_plus']} wrong"
    if got["verdict_minus"] != raag_compact(vertices, masks, living):
        return f"verdict_minus {got['verdict_minus']} wrong"
    return None


# ---------------------------------------------------------------------------
# separating cliques and Out finiteness


def cliques_in_order(n, masks) -> list[int]:
    """Every clique (the empty set included) ordered by size, then lex."""
    found = [0]

    def extend(clique, candidates):
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            bigger = clique | bit
            found.append(bigger)
            extend(bigger, candidates & masks[bit.bit_length() - 1])

    extend(0, (1 << n) - 1)
    return sorted(found, key=lambda c: (bin(c).count("1"), bits(c)))


def separating(n, masks, subset) -> bool:
    rest = ((1 << n) - 1) & ~subset
    return rest != 0 and components(masks, rest) >= 2


def min_separating_clique(n, masks) -> int | None:
    """Mask of the (size, lex)-first separating clique, or None."""
    return next((c for c in cliques_in_order(n, masks) if separating(n, masks, c)), None)


def analyze_expected(vertices, masks) -> dict[str, str]:
    n = len(vertices)
    full = (1 << n) - 1
    witness = min_separating_clique(n, masks)
    star = next(
        (vertices[v] for v in range(n) if separating(n, masks, masks[v] | 1 << v)), None
    )
    link = next(
        (
            (vertices[v], vertices[w])
            for v in range(n)
            for w in range(n)
            if w != v and masks[v] & ~(masks[w] | 1 << w) == 0
        ),
        None,
    )
    is_clique = all(masks[v] | 1 << v == full for v in range(n))
    edges = [f"{vertices[a]}-{vertices[b]}" for a, b in combinations(range(n), 2) if masks[a] >> b & 1]
    opt = lambda x: "none" if x is None else x
    return {
        "vertices": ",".join(vertices),
        "edges": ",".join(edges),
        "clique": "true" if is_clique else "false",
        "connected": "true" if connected(masks, full) else "false",
        "min_separating_clique": opt(None if witness is None else str(bin(witness).count("1"))),
        "witness": opt(None if witness is None else _names(vertices, witness)),
        "separating_closed_star": opt(star),
        "link_in_star": opt(None if link is None else ",".join(link)),
        "finite_out": "true" if star is None and link is None else "false",
    }


def check_analyze(vertices, masks, shape, exit_code, porcelain) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}"
    got = porcelain_dict(porcelain)
    n = len(vertices)
    index = {name: i for i, name in enumerate(vertices)}
    if got.get("witness", "none") != "none":
        w = sum(1 << index[x] for x in got["witness"].split(","))
        if not all(masks[a] >> b & 1 for a, b in combinations(bits(w), 2)):
            return "witness is not a clique"
        if not separating(n, masks, w):
            return "witness does not separate"
        size = bin(w).count("1")
        if any(separating(n, masks, c) for c in cliques_in_order(n, masks) if bin(c).count("1") < size):
            return "a smaller clique separates"
    if shape == "cycle" and got.get("min_separating_clique") != "none":
        return "a cycle has no separating clique"
    if shape == "path" and got.get("min_separating_clique") != "1":
        return "a path is separated by one vertex"
    expected = analyze_expected(vertices, masks)
    return None if got == expected else f"expected {expected}, got {got}"


def split_expected(vertices, masks, max_k) -> dict[str, str]:
    a = analyze_expected(vertices, masks)
    m = None if a["min_separating_clique"] == "none" else int(a["min_separating_clique"])
    verdicts = " ".join(
        f"{k}:{'certified-no-split' if m is None or k < m else 'splits'}" for k in range(max_k + 1)
    )
    return {
        "clique": a["clique"],
        "max_k": str(max_k),
        "min_separating_clique": a["min_separating_clique"],
        "witness": a["witness"],
        "verdicts": verdicts,
        "nf_certified": "true" if m is None else "false",
    }


def check_split_report(vertices, masks, max_k, exit_code, porcelain) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}"
    expected = split_expected(vertices, masks, max_k)
    got = porcelain_dict(porcelain)
    return None if got == expected else f"expected {expected}, got {got}"


def check_compare(graph1, graph2, exit_code, porcelain) -> str | None:
    """graph1, graph2: (vertices, masks); neither is a clique."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    inv = [analyze_expected(v, m)["min_separating_clique"] for v, m in (graph1, graph2)]
    expected = {
        "clique1": "false",
        "clique2": "false",
        "invariant1": inv[0],
        "invariant2": inv[1],
        "verdict": "inconclusive" if inv[0] == inv[1] else "not-commensurable",
    }
    got = porcelain_dict(porcelain)
    return None if got == expected else f"expected {expected}, got {got}"


def complement_supports(n, masks) -> list[int]:
    """Inclusion-minimal proper vertex sets W killing every living set outside W.

    Full enumeration: alive[L] is computed for every mask, then a subset DP
    says whether a set contains an alive living set.
    """
    size = 1 << n
    has_alive = [False] * size
    for m in range(1, size):
        if connected(masks, m) and dominating(n, masks, m):
            has_alive[m] = True
        else:
            low = m
            while low and not has_alive[m]:
                bit = low & -low
                low ^= bit
                has_alive[m] = has_alive[m ^ bit]
    full = size - 1
    bad = [not has_alive[full & ~w] for w in range(size)]
    minimal = [
        w for w in range(full)
        if bad[w] and not any(bad[w ^ (1 << i)] for i in bits(w))
    ]
    return sorted(minimal, key=lambda w: (bin(w).count("1"), bits(w)))


def check_complement(vertices, masks, exit_code, porcelain) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}"
    supports = complement_supports(len(vertices), masks)
    expected = {
        "count": str(len(supports)),
        "supports": " ".join(_names(vertices, w) for w in supports),
    }
    got = porcelain_dict(porcelain)
    return None if got == expected else f"expected {expected}, got {got}"


# ---------------------------------------------------------------------------
# graph-group normal forms; a word is a tuple of (generator index, sign)


def normal_form(n, masks, word) -> tuple[tuple[int, int], ...]:
    """ShortLex normal form by piling, then a least-letter-first topological sort.

    Piling keeps one stack per generator.  A letter goes on its own stack and
    leaves a marker on the stack of every generator it does not commute with;
    it cancels against the top of its own stack when that is its inverse, since
    then every letter after the partner commutes with it.  The surviving
    letters form a reduced word, whose geodesic rewritings are exactly its
    reorderings by commutation; the ShortLex-least one emits the least
    available letter first.
    """
    blockers = [((1 << n) - 1) & ~masks[g] & ~(1 << g) for g in range(n)]
    piles = [[] for _ in range(n)]
    alive = {}
    for pos, (g, s) in enumerate(word):
        top = piles[g][-1] if piles[g] else None
        if top is not None and top[0] == "letter" and alive[top[1]][1] == -s:
            piles[g].pop()
            del alive[top[1]]
            for b in bits(blockers[g]):
                pile = piles[b]
                for k in range(len(pile) - 1, -1, -1):
                    if pile[k] == ("marker", g):
                        del pile[k]
                        break
        else:
            piles[g].append(("letter", pos))
            alive[pos] = (g, s)
            for b in bits(blockers[g]):
                piles[b].append(("marker", g))
    reduced = [alive[p] for p in sorted(alive)]
    # dependence DAG: each letter waits for the last earlier letter of every
    # generator it does not commute with (its own generator included)
    last = [None] * n
    waiting = [0] * len(reduced)
    after = [[] for _ in reduced]
    for k, (g, _) in enumerate(reduced):
        for b in bits(blockers[g] | 1 << g):
            if last[b] is not None:
                after[last[b]].append(k)
                waiting[k] += 1
        last[g] = k
    heap = [((g, s == -1), k) for k, (g, s) in enumerate(reduced) if not waiting[k]]
    heapq.heapify(heap)
    out = []
    while heap:
        _, k = heapq.heappop(heap)
        out.append(reduced[k])
        for nxt in after[k]:
            waiting[nxt] -= 1
            if not waiting[nxt]:
                g, s = reduced[nxt]
                heapq.heappush(heap, ((g, s == -1), nxt))
    return tuple(out)


def exponent_sums(n, word) -> list[int]:
    sums = [0] * n
    for g, s in word:
        sums[g] += s
    return sums


def check_normal_form(n, masks, word, reduces, output) -> str | None:
    expected = normal_form(n, masks, word)
    if exponent_sums(n, output) != exponent_sums(n, word):
        return "exponent sums changed"
    if reduces and output:
        return "a word equal to the identity did not reduce to the empty word"
    return None if tuple(output) == expected else "not the ShortLex normal form"


def check_commute(n, masks, u, v, output) -> str | None:
    inv = lambda w: tuple((g, -s) for g, s in reversed(w))
    expected = not normal_form(n, masks, tuple(u) + tuple(v) + inv(u) + inv(v))
    return None if output is expected else f"commute returned {output}, expected {expected}"


def rewriting_canon(n, masks, max_len) -> dict:
    """Breadth-first oracle: ShortLex-least equivalent of every short word.

    Two moves generate equality on words of bounded length: swap adjacent
    commuting letters and delete an adjacent inverse pair.
    """
    codes = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + ((g, s),) for w in frontier for g in range(n) for s in (1, -1)]
        codes += frontier
    index = {w: k for k, w in enumerate(codes)}
    parent = list(range(len(codes)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for w, k in index.items():
        for pos in range(len(w) - 1):
            (a, sa), (b, sb) = w[pos], w[pos + 1]
            if a == b and sa == -sb:
                parent[find(k)] = find(index[w[:pos] + w[pos + 2:]])
            if a != b and masks[a] >> b & 1:
                parent[find(k)] = find(index[w[:pos] + (w[pos + 1], w[pos]) + w[pos + 2:]])
    key = lambda w: (len(w), [(g, s == -1) for g, s in w])
    best = {}
    for w in codes:
        root = find(index[w])
        if root not in best or key(w) < key(best[root]):
            best[root] = w
    return {w: best[find(index[w])] for w in codes}
