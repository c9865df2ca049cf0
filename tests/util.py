"""Shared sweep lists and independently derived oracles for the test suite."""
from __future__ import annotations

from collections import Counter
from itertools import product
from math import factorial, prod

from weyldecomp import (
    Matrix,
    RootSystem,
    apply_matrix,
    compose,
    evaluate_word,
    identity_matrix,
    length_of,
    simple_reflection,
    system,
)
from weyldecomp.rootsys import _ascents, _coroot, _simple_coroots, _two_rho

# The full sweep of admissible types exercised by the acceptance criteria.
FULL_SWEEP = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
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
    expanded from the sparse ``_coroot(gram2, a_i)``, so the first complete
    map is the smallest."""

    def cartan_rows(g: Matrix) -> list[list[int]]:
        n = len(g)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j, c in _coroot(g, tuple(int(j == i) for j in range(n))):
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


def reference_longest_element(rs: RootSystem) -> Matrix:
    """Reference for ``longest_element``: rescan every column at every step,
    and multiply on the right by the dense simple reflection of the smallest
    index that is still sent positive, as many times as there are positive
    roots."""
    gens = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
    m = identity_matrix(rs.rank)
    for _ in range(len(rs.positive_roots)):
        i = next(j for j, col in enumerate(zip(*m)) if sends_positive(col))
        m = compose(m, gens[i])
    if any(sends_positive(col) for col in zip(*m)):
        raise AssertionError("the greedy walk left a simple root positive")
    return m


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


def generate_group(rs: RootSystem) -> dict[Matrix, int]:
    """BFS over right multiplication: every element mapped to its word length."""
    gens = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
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


def build(t: str) -> RootSystem:
    return system(t)
