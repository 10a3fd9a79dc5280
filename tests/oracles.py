"""Independent brute-force implementations used to cross-check the library.

Everything here works on plain data (bitmasks, integer tuples) and never
calls into the package, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

from itertools import combinations


# ---------------------------------------------------------------------------
# bitmask graphs: vertices 0..n-1, adjacency as a tuple of neighbor masks


def adjacency_masks(n: int, edges) -> tuple[int, ...]:
    masks = [0] * n
    for i, j in edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return tuple(masks)


def mask_connected(n: int, masks, subset: int) -> bool:
    """Union-find connectivity of the induced subgraph on `subset`."""
    if subset == 0:
        return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        if not subset >> i & 1:
            continue
        reach = masks[i] & subset
        j = 0
        while reach >> j:
            if reach >> j & 1:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
            j += 1
    roots = {find(i) for i in range(n) if subset >> i & 1}
    return len(roots) == 1


def mask_dominating(n: int, masks, subset: int) -> bool:
    for i in range(n):
        if subset >> i & 1:
            continue
        if not masks[i] & subset:
            return False
    return True


def sigma_alive(n: int, masks, living: int) -> bool:
    """Independent membership call: living subgraph connected and dominating."""
    return mask_connected(n, masks, living) and mask_dominating(n, masks, living)


def mask_is_clique(n: int, masks, subset: int) -> bool:
    for i in range(n):
        if not subset >> i & 1:
            continue
        others = subset & ~(1 << i)
        if others & ~masks[i]:
            return False
    return True


def component_count(n: int, masks, subset: int) -> int:
    seen = 0
    count = 0
    for i in range(n):
        if not subset >> i & 1 or seen >> i & 1:
            continue
        count += 1
        stack = [i]
        seen |= 1 << i
        while stack:
            v = stack.pop()
            frontier = masks[v] & subset & ~seen
            j = 0
            while frontier >> j:
                if frontier >> j & 1:
                    seen |= 1 << j
                    stack.append(j)
                j += 1
    return count


def brute_min_separating_clique(n: int, masks):
    """Smallest clique whose removal leaves a disconnected nonempty remainder."""
    full = (1 << n) - 1
    for size in range(n):
        for combo in combinations(range(n), size):
            subset = 0
            for i in combo:
                subset |= 1 << i
            if not mask_is_clique(n, masks, subset):
                continue
            rest = full & ~subset
            if rest and component_count(n, masks, rest) >= 2:
                return size
    return None


def all_labeled_graphs(n: int):
    """Yield (edges, masks) over every labeled graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
        yield edges, adjacency_masks(n, edges)


# ---------------------------------------------------------------------------
# breadth-first rewriting oracle for graph-group words
#
# Letters are coded as gen*2 for a generator and gen*2+1 for its inverse, so
# code ^ 1 inverts.  Words are tuples of codes.  Two moves generate the
# rewriting relation: swap adjacent letters of commuting generators, and
# delete an adjacent inverse pair.  Cancellation never needs an insertion to
# reach the shortest form, so the length-bounded universe is closed.


def letter_codes(n_gens: int) -> range:
    return range(2 * n_gens)


def words_up_to(n_gens: int, max_len: int):
    """All code tuples of length <= max_len in shortlex order."""
    current = [()]
    yield ()
    for _ in range(max_len):
        nxt = []
        for w in current:
            for code in range(2 * n_gens):
                nw = w + (code,)
                nxt.append(nw)
                yield nw
        current = nxt


def rewriting_canon(n_gens: int, adjacent, max_len: int) -> dict:
    """Map every word of length <= max_len to its shortlex-least equivalent.

    adjacent[a][b] must say whether generators a and b commute (a != b).
    """
    commute = [
        [a != b and adjacent[a][b] for b in range(n_gens)] for a in range(n_gens)
    ]

    index = {}
    codes = []
    for w in words_up_to(n_gens, max_len):
        index[w] = len(codes)
        codes.append(w)

    parent = list(range(len(codes)))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for w, wi in index.items():
        for pos in range(len(w) - 1):
            a, b = w[pos], w[pos + 1]
            if b == a ^ 1:
                union(wi, index[w[:pos] + w[pos + 2:]])
            if a >> 1 != b >> 1 and commute[a >> 1][b >> 1]:
                union(wi, index[w[:pos] + (b, a) + w[pos + 2:]])

    canon_by_root = {}
    canon = {}
    for w in codes:  # shortlex enumeration order
        root = find(index[w])
        if root not in canon_by_root:
            canon_by_root[root] = w
        canon[w] = canon_by_root[root]
    return canon


# ---------------------------------------------------------------------------
# small catalogue of graphs up to isomorphism (<= 4 vertices)

ISO_CLASSES = {
    1: [[]],
    2: [[], [(0, 1)]],
    3: [
        [],
        [(0, 1)],
        [(0, 1), (1, 2)],
        [(0, 1), (1, 2), (0, 2)],
    ],
    4: [
        [],
        [(0, 1)],
        [(0, 1), (2, 3)],
        [(0, 1), (1, 2)],
        [(0, 1), (1, 2), (0, 2)],
        [(0, 1), (1, 2), (2, 3)],
        [(0, 1), (0, 2), (0, 3)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        [(0, 1), (1, 2), (0, 2), (2, 3)],
        [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)],
        [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3)],
    ],
}


# ---------------------------------------------------------------------------
# pure braid and pure loop braid membership by scanning every kept strand set
# characters are dicts (i, j) -> nonzero value; braid pairs have i < j


def _base_dead(family: str, kept, value) -> bool:
    """Is a character supported on `kept` dead in the group on those strands?"""
    if family == "braid":
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
            _supported_on(value, kept, sub) and _base_dead(family, sub, value)
            for sub in combinations(kept, 3)
        )
    if len(kept) == 2:
        return True  # the 2-loop group is free of rank 2
    inflow = all(sum(value(s, t) for s in kept if s != t) == 0 for t in kept)
    return inflow or any(_supported_on(value, kept, sub) for sub in combinations(kept, 2))


def _supported_on(value, kept, sub) -> bool:
    return all(
        value(i, j) == 0
        for i in kept
        for j in kept
        if i != j and not (i in sub and j in sub)
    )


def projection_sigma(family: str, n: int, values: dict):
    """(status, witness, kept, base) of the first dead projection of a
    "braid" or "loop" character in (size, lex) order over kept strand sets."""
    if not values:
        return ("out", "zero", None, None)
    sizes = {"braid": ((3, "pb3-sum"), (4, "pb4-exceptional")),
             "loop": ((2, "plb2-all"), (3, "plb3-equations"))}[family]

    def value(i, j):
        if family == "braid" and i > j:
            i, j = j, i
        return values.get((i, j), 0)

    for size, base in sizes:
        for kept in combinations(range(1, n + 1), size):
            if all(i in kept and j in kept for i, j in values) and _base_dead(family, kept, value):
                return ("out", "projection", kept, base)
    return ("in", None, None, None)
