"""Shared sweep lists and independently derived oracles for the test suite."""
from __future__ import annotations

import sys
from collections import Counter
from itertools import product
from math import factorial, prod
from operator import index, mul

from weyldecomp import (
    BadLetter,
    Matrix,
    NotARoot,
    Root,
    RootSystem,
    TooLarge,
    apply_matrix,
    compose,
    dominance_leq,
    evaluate_word,
    highest_root_of,
    identity_matrix,
    is_root,
    length_of,
    longest_element,
    pairing2,
    parabolic_embedding,
    reduced_word_of,
    simple_reflection,
)
from weyldecomp.rootsys import (
    _dot,
    _pair,
    _simple_coroots,
    _two_rho,
    negate,
)
from weyldecomp.words import classify_conjugation, positive_representative, predicted_conjugate

# The full sweep of admissible types exercised by the acceptance criteria.
FULL_SWEEP = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

# Every type build_root_system accepts, 257 in all: ranks up to 64.
SUPPORTED = (
    [f"A{n}" for n in range(1, 65)]
    + [f"{fam}{n}" for fam in "BC" for n in range(2, 65)]
    + [f"D{n}" for n in range(3, 65)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

SMALL_SWEEP = ["A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D3", "D4", "F4", "G2"]

# Frozen oracle: positive-root counts from the classical closed formulas
# n(n+1)/2, n^2, n^2, n(n-1), plus the five exceptional constants.
POSITIVE_ROOT_COUNT = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10, "A5": 15, "A6": 21, "A7": 28, "A8": 36,
    "B2": 4, "B3": 9, "B4": 16, "B5": 25, "B6": 36, "B7": 49, "B8": 64,
    "C2": 4, "C3": 9, "C4": 16, "C5": 25, "C6": 36, "C7": 49, "C8": 64,
    "D3": 6, "D4": 12, "D5": 20, "D6": 30, "D7": 42, "D8": 56,
    "E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6,
}

_EXCEPTIONAL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "G2": (2, 6),
}


def degrees(t: str) -> tuple[int, ...]:
    """The degrees of the basic polynomial invariants of the Weyl group
    (Humphreys, Reflection Groups and Coxeter Groups, 3.7-3.9): 2..n+1 in
    A_n, 2, 4, .., 2n in B_n and C_n, 2, 4, .., 2n-2 and n in D_n.  |W| is
    their product and the number of positive roots the sum of d - 1."""
    if t in _EXCEPTIONAL_DEGREES:
        return _EXCEPTIONAL_DEGREES[t]
    fam, n = t[0], int(t[1:])
    if fam == "A":
        return tuple(range(2, n + 2))
    if fam in "BC":
        return tuple(range(2, 2 * n + 1, 2))
    if fam == "D":
        return tuple(range(2, 2 * n - 1, 2)) + (n,)
    raise ValueError(f"no degrees for {t}")


# Weyl group orders from the degrees, for the types the exhaustive tests walk.
GROUP_ORDER = {
    t: prod(degrees(t)) for t in ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"]
}


def syt_count(shape) -> int:
    """Standard Young tableaux of a partition shape, by the hook-length formula."""
    column_heights = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j) + (column_heights[j] - i) - 1
    return factorial(sum(shape)) // hooks


def brute_force_reduced_word_count(rs: RootSystem, m: Matrix, length: int) -> int:
    """Count reduced words by trying every letter sequence of the given length."""
    hits = 0
    for word in product(range(1, rs.rank + 1), repeat=length):
        if evaluate_word(rs, word) == m:
            hits += 1
    return hits


def _ascents(coroots, x: Root):
    """s_i(x) = x - <x, a_i-check> a_i for every simple root a_i with
    <x, a_i-check> < 0, given the sparse simple Cartan rows: the simple
    reflections that move x up, towards the dominant chamber."""
    for i, row in enumerate(coroots):
        k = _pair(x, row)
        if k < 0:
            yield x[:i] + (x[i] - k,) + x[i + 1 :]


def tuple_positive_roots(rs: RootSystem) -> tuple[Root, ...]:
    """Reference for the root enumeration, which reads the positive roots off
    the greedy walk to w0: here the closure of the simple roots under
    ``_ascents``, on coefficient tuples; by height, then lexicographically."""
    coroots = _simple_coroots(rs.gram2)
    new = set(identity_matrix(rs.rank))
    roots = set(new)
    while new:
        new = {y for x in new for y in _ascents(coroots, x)} - roots
        roots |= new
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


def dense_coroot(gram2: Matrix, r) -> tuple:
    """Reference for ``rootsys._coroot``: the nonzero c_j = 2 (a_j, r) / (r, r)
    as (j, c_j) pairs, from the dense doubled Gram matrix alone, G r read row
    by row; each an exact division."""
    gr = [sum(map(mul, row, r)) for row in gram2]
    den = sum(map(mul, r, gr))
    pairs = []
    for j, g in enumerate(gr):
        q, rem = divmod(2 * g, den)
        assert rem == 0, (r, j)
        if q:
            pairs.append((j, q))
    return tuple(pairs)


def coroot_table(rs: RootSystem) -> dict[Root, tuple]:
    """The coroot ``dense_coroot(rs.gram2, r)`` of every positive root r."""
    return {r: dense_coroot(rs.gram2, r) for r in rs.positive_roots}


def full_sweep_reduced_word_count(rs: RootSystem, m: Matrix) -> int:
    """Count reduced words by sweeping all l(m) layers up from m(2 rho): each
    layer maps every vector to its ascents and adds up the ways, and the
    last layer holds only 2 rho."""
    coroots = _simple_coroots(rs.gram2)
    two_rho = _two_rho(rs)
    layer = Counter({apply_matrix(m, two_rho): 1})
    for _ in range(length_of(rs, m)):
        ways: Counter = Counter()
        for x, k in layer.items():
            for y in _ascents(coroots, x):
                ways[y] += k
        layer = ways
    return layer[two_rho]


def exhaustive_diagram_bijection(gram2: Matrix, outer: RootSystem, nodes: tuple[int, ...]):
    """Reference for ``rootsys._diagram_bijection``: the lexicographically
    smallest map p -> nodes[...] under which the Cartan integers of ``gram2``
    match those of ``outer``, as a tuple, or None.  Every free node is tried
    for every position, in ascending order, against the dense Cartan rows,
    expanded from the sparse ``dense_coroot(gram2, a_i)``, so the first
    complete map is the smallest."""

    def cartan_rows(g: Matrix) -> list[list[int]]:
        n = len(g)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j, c in dense_coroot(g, tuple(int(j == i) for j in range(n))):
                rows[i][j] = c
        return rows

    k = len(gram2)
    c_in = cartan_rows(gram2)
    c_out = cartan_rows(outer.gram2)
    assignment: list[int] = []

    def extend(p: int):
        if p > k:
            return tuple(assignment)
        for j in nodes:
            if j in assignment:
                continue
            if all(
                c_in[q - 1][p - 1] == c_out[jq - 1][j - 1]
                and c_in[p - 1][q - 1] == c_out[j - 1][jq - 1]
                for q, jq in enumerate(assignment, start=1)
            ):
                assignment.append(j)
                found = extend(p + 1)
                if found:
                    return found
                assignment.pop()
        return None

    return extend(1)


def sends_positive(col) -> bool:
    """Reference sign of a column, the image of a simple root: its first
    nonzero entry, which is how tuples compare with zero.  A zero column is
    the image of no root."""
    zero = (0,) * len(col)
    if col == zero:
        raise ValueError("matrix is not a Weyl group element")
    return col > zero


def reference_descents(rs: RootSystem, m) -> list[int]:
    """Reference for ``descents``: the columns that ``sends_positive`` calls
    negative, read one column at a time."""
    columns = (tuple(row[i - 1] for row in m) for i in range(1, rs.rank + 1))
    return [i for i, col in enumerate(columns, 1) if not sends_positive(col)]


def _cartan_integer(rs: RootSystem, j: int, i: int) -> int:
    """<a_j, a_i-check> = 2 g_ji / g_ii from the dense doubled Gram matrix
    (0-based nodes), exact."""
    c, rem = divmod(2 * rs.gram2[j][i], rs.gram2[i][i])
    if rem:
        raise AssertionError(f"Cartan integer <a_{j + 1}, a_{i + 1}-check> is not exact")
    return c


def reference_longest_element(rs: RootSystem) -> Matrix:
    """Reference for ``longest_element``: rescan every column at every step,
    and multiply on the right by the simple reflection of the smallest
    index that is still sent positive, as many times as there are positive
    roots.  m.s_i is taken by the definition s_i(a_j) = a_j - <a_j, a_i-check>
    a_i: column j of m.s_i is col_j - <a_j, a_i-check> col_i, with every
    Cartan integer read from the dense Gram matrix."""
    cols = list(identity_matrix(rs.rank))
    for _ in range(len(rs.positive_roots)):
        i = next(j for j, col in enumerate(cols) if sends_positive(col))
        col_i = cols[i]
        for j in range(rs.rank):
            if c := _cartan_integer(rs, j, i):
                cols[j] = tuple(x - c * y for x, y in zip(cols[j], col_i))
    if any(sends_positive(col) for col in cols):
        raise AssertionError("the greedy walk left a simple root positive")
    return tuple(zip(*cols))


def reference_greedy_walk(rs: RootSystem, heights, letters=None) -> tuple[list[int], list[int]]:
    """Reference for ``rootsys._greedy_walk``: at every step rescan the allowed
    nodes in ascending order for the first positive height, and update every
    height by h_j -= <a_j, a_i-check> h_i with the Cartan integers of the
    dense Gram matrix, for at most as many steps as there are positive roots.
    Returns the letters and the final heights."""
    heights = list(heights)
    nodes = range(1, rs.rank + 1) if letters is None else sorted(letters)
    cartan = [[_cartan_integer(rs, j, i) for j in range(rs.rank)] for i in range(rs.rank)]
    word: list[int] = []
    for _ in range(len(rs.positive_roots)):
        i = next((k for k in nodes if heights[k - 1] > 0), None)
        if i is None:
            break
        h_i = heights[i - 1]
        heights = [h - c * h_i for h, c in zip(heights, cartan[i - 1])]
        word.append(i)
    return word, heights


def dense_components(rs: RootSystem, indices) -> list[tuple[int, ...]]:
    """Reference for ``rootsys._components``: breadth-first search that scans
    the whole dense Gram row of every node it visits for nonzero entries;
    the components ascending, ordered by their smallest index."""
    rest = sorted(set(indices))
    components = []
    while rest:
        seen = [rest.pop(0)]
        for i in seen:
            linked = [j for j in rest if rs.gram2[i - 1][j - 1] != 0]
            rest = [j for j in rest if j not in linked]
            seen.extend(linked)
        components.append(tuple(sorted(seen)))
    return components


def reference_reduced_word(rs: RootSystem, m) -> tuple[int, ...]:
    """Reference for ``reduced_word_of``: strip the smallest descent, read by
    ``sends_positive`` from a rescan of every column, with a dense product,
    at most one more time than there are positive roots; a matrix that is
    not stripped to the identity is outside W."""
    gens = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
    m = tuple(map(tuple, m))
    letters = []
    for _ in range(len(rs.positive_roots) + 1):
        i = next((j for j, col in enumerate(zip(*m)) if not sends_positive(col)), None)
        if i is None:
            break
        m = compose(m, gens[i])
        letters.append(i + 1)
    if m != identity_matrix(rs.rank):
        raise ValueError("matrix is not a Weyl group element")
    return tuple(reversed(letters))


def _tuple_right_reflect(cols: list[Root], v: Root, row) -> None:
    for j, cj in row:
        cols[j] = tuple(x - cj * y for x, y in zip(cols[j], v))


def tuple_reflection_product(rs: RootSystem, roots) -> Matrix:
    """Reference for ``reflection_product``: the walk on columns kept as
    tuples, col_j - c_j v entry by entry per column rewrite, which the
    packed-integer walk replaced."""
    cols = list(identity_matrix(rs.rank))
    for r in roots:
        if not is_root(rs, r):
            raise NotARoot(f"{r} is not a root of {rs.type}")
        if sum(r) == 1:
            i = r.index(1)
            _tuple_right_reflect(cols, cols[i], rs.simple_coroots[i])
        else:
            v = tuple(sum(map(mul, r, entries)) for entries in zip(*cols))
            _tuple_right_reflect(cols, v, dense_coroot(rs.gram2, r))
    return tuple(zip(*cols))


def tuple_evaluate_word(rs: RootSystem, word) -> Matrix:
    """Reference for ``evaluate_word`` on the tuple-column walk."""
    cols = list(identity_matrix(rs.rank))
    for letter in word:
        i = index(letter)
        if not 1 <= i <= rs.rank:
            raise BadLetter(f"letter {letter} outside 1..{rs.rank}")
        _tuple_right_reflect(cols, cols[i - 1], rs.simple_coroots[i - 1])
    return tuple(zip(*cols))


def _cayley_distances(rs: RootSystem, gens: list[Matrix]) -> dict[Matrix, int]:
    """BFS over right multiplication by ``gens``: every element of the group
    they generate mapped to its distance from the identity."""
    seen: dict[Matrix, int] = {identity_matrix(rs.rank): 0}
    frontier = [identity_matrix(rs.rank)]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for m in frontier:
            for g in gens:
                mg = compose(m, g)
                if mg not in seen:
                    seen[mg] = depth
                    nxt.append(mg)
        frontier = nxt
    return seen


def generate_group(rs: RootSystem) -> dict[Matrix, int]:
    """Every element mapped to its word length l, in the simple reflections."""
    return _cayley_distances(rs, [simple_reflection(rs, i) for i in range(1, rs.rank + 1)])


def reflection_distances(rs: RootSystem) -> dict[Matrix, int]:
    """Every element mapped to its absolute length l_a, the fewest
    reflections whose product it is: the distance in the Cayley graph on all
    reflections, each built by ``tuple_reflection_product``."""
    reflections = [tuple_reflection_product(rs, [r]) for r in rs.positive_roots]
    return _cayley_distances(rs, reflections)


# Most nodes reference_max_orthogonal visits before it raises TooLarge.  The
# clique walk is exponential in the families B, C and D (D18 visits about
# 0.6 M nodes, D20 about 3 M).
_MAX_SEARCH_NODES = 10**6


def _candidate_pool(rs: RootSystem) -> list[Root]:
    """Highest roots of all connected standard parabolics, by height.  The
    positive roots are grouped by support; the highest root of a connected
    parabolic is the one root of greatest height in its group."""
    groups: dict[tuple[int, ...], list[Root]] = {}
    for r in rs.positive_roots:
        groups.setdefault(tuple(i for i, c in enumerate(r) if c), []).append(r)
    pool = []
    for roots in groups.values():
        top = max(map(sum, roots))
        (highest,) = [r for r in roots if sum(r) == top]
        pool.append(highest)
    return sorted(pool, key=lambda r: (sum(r), r))


def _compatibility_masks(rs: RootSystem, pool: list[Root]) -> list[int]:
    """Bit j of entry i is set when pool roots i < j may share a decomposition:
    orthogonal, and comparable under dominance unless one is simple.  For
    highest roots of connected supports, comparable means nested supports."""
    coroots = coroot_table(rs)
    supports = [sum(1 << k for k, c in enumerate(r) if c) for r in pool]

    def compatible(i: int, j: int) -> bool:
        si, sj = supports[i], supports[j]
        loose = (si & sj) in (si, sj) or si.bit_count() == 1 or sj.bit_count() == 1
        return loose and _pair(pool[j], coroots[pool[i]]) == 0

    return [
        sum(1 << j for j in range(i + 1, len(pool)) if compatible(i, j))
        for i in range(len(pool))
    ]


def dense_negated_pool(rs: RootSystem) -> list[Root]:
    """Reference for ``decompose._negated_pool``: the pool roots w0 negates,
    by height, tested by the literal product w0 r == -r."""
    w0 = longest_element(rs)
    return [r for r in _candidate_pool(rs) if apply_matrix(w0, r) == negate(r)]


def reference_max_orthogonal(rs: RootSystem) -> list[tuple[Root, ...]]:
    """Reference for ``enumerate_max_orthogonal``: its factor sequences, in
    its order, found by a bitmask clique walk.  The pool keeps the highest
    roots of connected parabolics that w0 negates; the walk intersects
    compatibility masks, lowest bit first, cuts a branch whose chosen roots
    plus remaining candidates number fewer than d, the size of a frame (see
    ``frames``), and checks each clique of d roots by the literal product,
    ``tuple_reflection_product``.  A walk that visits more than
    ``_MAX_SEARCH_NODES`` nodes raises TooLarge."""
    w0 = longest_element(rs)
    d = len(frames(rs, first=True)[0])
    pool = dense_negated_pool(rs)
    masks = _compatibility_masks(rs, pool)
    results: list[tuple[Root, ...]] = []
    nodes = 0

    def extend(cands: int, chosen: tuple[Root, ...]) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > _MAX_SEARCH_NODES:
            raise TooLarge(
                f"the search on {rs.type} visited {nodes} nodes, "
                f"over the limit of {_MAX_SEARCH_NODES}"
            )
        if len(chosen) == d:
            if tuple_reflection_product(rs, chosen) != w0:
                raise RuntimeError(
                    f"{rs.type}: the reflections in {chosen} do not multiply to w0"
                )
            results.append(chosen)
            return
        while len(chosen) + cands.bit_count() >= d:
            low = cands & -cands
            cands ^= low
            i = low.bit_length() - 1
            extend(cands & masks[i], chosen + (pool[i],))

    extend((1 << len(pool)) - 1, ())
    return sorted(
        tuple(sorted(roots, key=lambda r: (sum(r) > 1, sum(r), r))) for roots in results
    )


def frames(rs: RootSystem, first: bool = False) -> list[tuple[Root, ...]]:
    """The frames of rs: the largest sets of pairwise orthogonal positive
    roots that w0 negates, each in root order.  w0 = -sigma for the diagram
    involution sigma, so these are the sigma-fixed positive roots.  A bitmask
    clique walk over them, with w0 from ``reference_longest_element`` and
    orthogonality from the dense Gram matrix, takes the lowest candidate
    first and cuts a branch that cannot reach the largest size found so far.
    With ``first``, it stops at the first clique of dim E_-1(w0) =
    (rank - trace w0) / 2 roots, the most there can be: the roots lie in
    E_-1(w0), and pairwise orthogonal roots are linearly independent."""
    w0 = reference_longest_element(rs)
    negated = [
        r for r in rs.positive_roots if all(sum(map(mul, row, r)) == -c for row, c in zip(w0, r))
    ]
    gram_rows = [[sum(map(mul, row, r)) for row in rs.gram2] for r in negated]
    masks = [
        sum(1 << j for j, s in enumerate(negated) if j > i and sum(map(mul, s, gram_rows[i])) == 0)
        for i in range(len(negated))
    ]
    stop = (rs.rank - sum(w0[i][i] for i in range(rs.rank))) // 2 if first else None
    found: list[tuple[Root, ...]] = []

    def walk(cands: int, chosen: tuple[Root, ...]) -> bool:
        if not cands:  # chosen is a maximal clique
            if found and len(chosen) > len(found[0]):
                found.clear()
            if not found or len(chosen) == len(found[0]):
                found.append(chosen)
            return len(chosen) == stop
        while cands and len(chosen) + cands.bit_count() >= (len(found[0]) if found else 0):
            low = cands & -cands
            cands ^= low
            i = low.bit_length() - 1
            if walk(cands & masks[i], chosen + (negated[i],)):
                return True
        return False

    walk((1 << len(negated)) - 1, ())
    return found


def brute_force_largest_compatible_sets(rs: RootSystem, roots) -> set[frozenset[Root]]:
    """The largest sets of the given roots that are compatible by the
    definition: pairwise orthogonal (``pairing2 == 0``), and comparable under
    ``dominance_leq`` one way or the other unless one of the two is simple.
    Every compatible set is grown once, in list order."""
    roots = list(roots)

    def compatible(x: Root, y: Root) -> bool:
        comparable = sum(x) == 1 or sum(y) == 1 or dominance_leq(x, y) or dominance_leq(y, x)
        return comparable and pairing2(rs, x, y) == 0

    found: list[tuple[Root, ...]] = []

    def grow(chosen: tuple[Root, ...], start: int) -> None:
        found.append(chosen)
        for j in range(start, len(roots)):
            if all(compatible(x, roots[j]) for x in chosen):
                grow(chosen + (roots[j],), j + 1)

    grow((), 0)
    top = max(map(len, found))
    return {frozenset(c) for c in found if len(c) == top}


def clear_package_caches() -> None:
    """Empty every module-level functools cache of the package, so that a
    test starts from a cold process's state."""
    for name, mod in list(sys.modules.items()):
        if name == "weyldecomp" or name.startswith("weyldecomp."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def dense_pairing2(rs: RootSystem, x, y) -> int:
    """Reference for ``pairing2``: x^T G y with the dense doubled Gram matrix."""
    return sum(xi * sum(map(mul, row, y)) for xi, row in zip(x, rs.gram2) if xi)


def embedded_recursion_roots(rs: RootSystem) -> tuple[list[Root], list[Root]]:
    """Reference for the roots of ``recursion_relation_check``, by the
    embedded route: J is the largest component of the nodes orthogonal to
    the highest root, w0(J) is walked in the abstract system of J that
    ``parabolic_embedding`` identifies, and its letters are mapped back to
    simple roots of rs.  Returns those roots and the tail: the highest root,
    then the highest root of each other component."""
    theta = rs.highest_root
    simple = identity_matrix(rs.rank)
    perp = dense_components(rs, [i for i, a in enumerate(simple, 1) if pairing2(rs, a, theta) == 0])
    J = max(perp, key=len)
    inner, index_map = parabolic_embedding(rs, J)
    word = reduced_word_of(inner, longest_element(inner))
    embedded = [rs.simple_root(index_map[letter]) for letter in word]
    return embedded, [theta] + [highest_root_of(rs, K) for K in perp if K != J]


def formula_epsilon_factorization(rs: RootSystem) -> tuple[Root, ...]:
    """Reference for ``epsilon_factorization`` from the per-family formulas:
    the tail sums a_i + ... + a_n in B, and 2(a_i + ... + a_(n-1)) + a_n
    followed by a_n in C."""
    n = rs.rank
    if rs.family == "B":
        return tuple(tuple(int(j >= i) for j in range(1, n + 1)) for i in range(1, n + 1))
    assert rs.family == "C"
    roots = [
        tuple(2 if i <= j < n else int(j == n) for j in range(1, n + 1)) for i in range(1, n)
    ]
    return tuple(roots) + (tuple(int(j == n) for j in range(1, n + 1)),)


def _tuple_reflect(x: Root, r: Root, coroot) -> Root:
    """s_r(x) = x - <x, r-check> r, entry by entry, given r's coroot as
    (j, c_j) pairs."""
    c = sum(x[j] * cj for j, cj in coroot)
    return tuple(xi - c * ri for xi, ri in zip(x, r))


def tuple_conjugation_suite(rs: RootSystem) -> tuple[bool, int, int]:
    """Reference for ``words._conjugation_suite``: the sweep on tuple roots,
    which the packed-integer sweep replaced.  Each ordered pair of distinct
    positive roots takes the conjugate s_a(b), up to sign, by the coroot of a
    from its own table, the literal s_a(s_b(s_a(2 rho))) by two rank-one
    reflections against the conjugate's image of 2 rho, and
    ``predicted_conjugate`` for a case ``classify_conjugation`` names;
    returns (ok, pairs, named) at the first failure or the end."""
    roots = rs.positive_roots
    coroots = coroot_table(rs)
    two_rho = _two_rho(rs)
    moved = {r: _tuple_reflect(two_rho, r, coroots[r]) for r in roots}
    gram_row = {r: tuple(sum(map(mul, row, r)) for row in rs.gram2) for r in roots}
    pairs = 0
    named = 0
    for a in roots:
        a_coroot, a_row, a_moved = coroots[a], gram_row[a], moved[a]
        for b in roots:
            if a == b:
                continue
            pairs += 1
            conj = positive_representative(rs, _tuple_reflect(b, a, a_coroot))
            literal = _tuple_reflect(_tuple_reflect(a_moved, b, coroots[b]), a, a_coroot)
            if moved[conj] != literal:
                return False, pairs, named
            p_ab = _dot(b, a_row)
            if p_ab == 0:
                if conj != b:
                    return False, pairs, named
                continue
            case = classify_conjugation(rs, a, b)
            if case is not None:
                named += 1
                if predicted_conjugate(rs, a, b, case) != conj:
                    return False, pairs, named
    return True, pairs, named
