"""Weyl group elements as exact integer matrices in the simple-root basis.

An element is stored as a rank x rank tuple-of-tuples, row-major, whose i-th
column is the image of the i-th simple root.  Every element preserves the
doubled Gram matrix: ``M^T G M == G``.  Every product of reflections is one
walk on a list of columns: s_a(a_j) = a_j - c_j a with c_j = <a_j, a-check>,
so M.s_a rewrites only the columns j with c_j != 0, as col_j - c_j (M a).
For a simple root a_i, M a_i is column i, and only column i and those of
its Dynkin neighbours change; the RootSystem holds these rows as
``simple_coroots``.  A column is a root, positive exactly when its height (its
entry sum) is, so reduced words take their letters from the greedy walk on
the column heights, ``rootsys._greedy_walk``.  w0 is not walked here: the
RootSystem holds it and its reduced word, both from the root enumeration's
walk on packed columns, and ``reduced_word_of`` reads that word for w0.

A walk keeps its columns packed in 1-byte lanes (see ``rootsys``), so a
rewrite is one int operation; only the final columns, roots with coefficients
in -6..6, are decoded.  The reduced-word count keys an element u by the
Dynkin labels of u(2 rho), at most 254 in size, in 2-byte lanes, so each
step up is one int operation.
"""
from __future__ import annotations

from collections import Counter
from operator import mul

from .errors import BadLetter, DimensionMismatch, TooLarge
from .rootsys import (
    Matrix,
    Root,
    RootSystem,
    _Record,
    _coroot,
    _dot,
    _greedy_walk,
    _indices,
    _integers,
    _lanes,
    _pack,
    _pair,
    _pairing2,
    _root,
    _sequence,
    _shown,
    _sparse_columns,
    _two_rho,
    _units,
    _unpack,
)

__all__ = [
    "LongestClassification",
    "apply_matrix",
    "classify_longest",
    "compose",
    "count_reduced_words",
    "descents",
    "evaluate_word",
    "length_of",
    "longest_element",
    "preserves_form",
    "reduced_word_of",
    "reflection_of",
    "simple_reflection",
]


def _check_shape(n: int, m: Matrix) -> Matrix:
    """m as a tuple of int rows; DimensionMismatch unless it is a sequence of
    n rows of n integer entries (taken through ``index``)."""
    rows = tuple(_integers(row, "matrix row") for row in _sequence(m, "matrix"))
    if len(rows) != n or any(len(row) != n for row in rows):
        raise DimensionMismatch(f"rows of lengths {[*map(len, rows)]} where {n}x{n} is needed")
    return rows


def apply_matrix(m: Matrix, x: Root) -> Root:
    """Apply m to a coefficient vector (columns are images of simple roots).
    m must be square of x's size, with integer entries, or DimensionMismatch."""
    x = _integers(x, "vector")
    return tuple(_dot(row, x) for row in _check_shape(len(x), m))


def compose(u: Matrix, v: Matrix) -> Matrix:
    """The product u.v, i.e. apply v first and then u.  Both must be square
    of one size with integer entries, or DimensionMismatch is raised."""
    u = _sequence(u, "matrix")
    u, cols = _check_shape(len(u), u), list(zip(*_check_shape(len(u), v)))
    return tuple(tuple(_dot(row, col) for col in cols) for row in u)


def reflection_product(rs: RootSystem, roots) -> Matrix:
    """The product s_r1 . s_r2 ... of the reflections in the given roots,
    multiplied left to right (so the last root's reflection acts first)."""
    return _unpack(_reflection_columns(rs, [_root(rs, r) for r in _sequence(roots, "root list")]))


def _reflection_columns(rs: RootSystem, roots) -> list[int]:
    """``reflection_product``'s packed columns, on int-tuple roots of rs that callers built."""
    cols = _units(rs.rank, 1)
    for r in roots:
        if sum(r) == 1:
            i = r.index(1)
            v, row = cols[i], rs.simple_coroots[i]
        else:
            v, row = sum(map(mul, r, cols)), _coroot(rs, r)
        for j, c in row:
            cols[j] -= c * v
    return cols


def reflection_of(rs: RootSystem, a: Root) -> Matrix:
    """The reflection through the hyperplane orthogonal to the root a."""
    return reflection_product(rs, [a])


def evaluate_word(rs: RootSystem, word) -> Matrix:
    """Evaluate a word of simple-reflection letters, rightmost applied first.
    A letter is an integer in 1..rank; a bool is not a letter."""
    word = _sequence(word, "word", BadLetter)
    if bool in map(type, word):
        raise BadLetter(f"word {_shown(word)} has a bool, which is not a letter")
    return _unpack(_word_columns(rs, _indices(word, rs.rank, BadLetter, "word")))


def _word_columns(rs: RootSystem, word) -> list[int]:
    """``evaluate_word``'s packed columns, on letters it checked or a walk built."""
    cols, rows = _units(rs.rank, 1), rs.simple_coroots
    for i in word:
        v = cols[i - 1]
        for j, c in rows[i - 1]:
            cols[j] -= c * v
    return cols


def simple_reflection(rs: RootSystem, i: int) -> Matrix:
    """The simple reflection for the i-th simple root (1-based)."""
    return evaluate_word(rs, [i])


def length_of(rs: RootSystem, m: Matrix) -> int:
    """Coxeter length: the length of a reduced word for m, which is the number
    of positive roots m sends to negative roots.  A matrix outside W, even one
    that permutes the roots such as a diagram automorphism, raises ValueError."""
    return len(reduced_word_of(rs, m))


def descents(rs: RootSystem, m: Matrix) -> list[int]:
    """Letters i with l(m.S_i) < l(m), i.e. m sends the i-th simple root
    negative, to a root of negative height.  A matrix outside W raises
    ValueError, as in ``reduced_word_of``."""
    reduced_word_of(rs, m)
    return [i for i, col in enumerate(zip(*_check_shape(rs.rank, m)), 1) if sum(col) < 0]


def longest_element(rs: RootSystem) -> Matrix:
    """The longest element: the unique element sending every positive root
    negative.  The system holds it: the greedy walk that enumerates the
    positive roots ends at w0 (``rootsys._enumerate_positive_roots``)."""
    return rs.longest


class LongestClassification(_Record):
    """How the longest element acts: minus the identity, or minus a diagram
    automorphism given as a 1-based permutation of simple-root indices."""

    __slots__ = ("kind", "automorphism")
    kind: str  # "minus_identity" or "minus_automorphism"
    automorphism: tuple[int, ...]


def classify_longest(rs: RootSystem) -> LongestClassification:
    """Classify the longest element as -P for a diagram automorphism P."""
    w0 = longest_element(rs)
    n = rs.rank
    perm = []
    for col in zip(*w0):
        assert sum(map(abs, col)) == 1 and sum(col) == -1, (
            "minus the longest element must permute the simple roots"
        )
        perm.append(col.index(-1) + 1)
    sigma = tuple(perm)
    kind = "minus_identity" if sigma == tuple(range(1, n + 1)) else "minus_automorphism"
    return LongestClassification(kind=kind, automorphism=sigma)


def reduced_word_of(rs: RootSystem, m: Matrix) -> tuple[int, ...]:
    """A canonical reduced word for m: repeatedly strip the smallest descent,
    read from m's negated column heights; a matrix outside W fails to evaluate
    back to m.  For w0 it is the word the system keeps from the build's walk
    (``rootsys._enumerate_positive_roots``), which takes the same letters."""
    m = _check_shape(rs.rank, m)
    if m == rs.longest:
        return rs.longest_word
    word = tuple(_greedy_walk(rs.simple_coroots, [-sum(col) for col in zip(*m)]))[::-1]
    if _unpack(_word_columns(rs, word)) != m:
        raise ValueError("matrix is not a Weyl group element")
    return word


def _group_order(rs: RootSystem) -> int:
    """|W| as the product of e + 1 over the exponents e, which form the
    partition conjugate to the numbers of positive roots of each height
    (Kostant)."""
    per_height = Counter(sum(r) for r in rs.positive_roots).values()
    order = 1
    for i in range(1, rs.rank + 1):
        order *= 1 + sum(1 for k in per_height if k >= i)
    return order


def count_reduced_words(rs: RootSystem, m: Matrix, *, state_bound: int = 10**6) -> int:
    """The number of reduced words for m, counted one length at a time.

    An element u is keyed by the Dynkin labels p_i = <u(2 rho), a_i-check>,
    a linear bijection of u(2 rho), which determines u because 2 rho, the sum
    of the positive roots, is regular.  Its left descents are the i with
    p_i < 0, and s_i moves the labels up to p - p_i * A_i, where A_i, row i of
    the Cartan matrix, holds the labels of a_i.  Each layer maps every element
    to its ascents and adds up the ways; after l(m) layers from the labels of
    m(2 rho), only 2 rho, whose labels are all 2, is left.  The distinct
    elements visited, m among them, are bounded by ``state_bound``;
    exceeding it raises TooLarge.

    The labels are packed in 2-byte lanes (see ``rootsys``): a label of
    u(2 rho) is +-<2 rho, b-check> for a positive root b, at most 2(h - 1) for
    the Coxeter number h, 254 on B64.  Each layer has its labels decoded
    once, and lane i is read down the layer for each i.

    For the longest element w0 the sweep stops halfway.  After j layers the
    weight at u(2 rho) counts the paths from w0 down to u, and the paths from
    u on down to the identity are as many as the paths from w0 down to u.w0,
    which sits after N - j layers at u.w0(2 rho) = -u(2 rho), since
    w0(2 rho) = -2 rho, whose packed labels are -x.  So with N = l(w0) the
    count is the sum over x of W_ceil(N/2)[x] * W_floor(N/2)[-x], where W_j
    is the layer after j steps.  Every element lies below w0, so for w0 an
    order above the bound is refused at once.
    """
    m = _check_shape(rs.rank, m)
    (state_bound,) = _integers([state_bound], "state bound")
    longest = m == longest_element(rs)
    if longest and (order := _group_order(rs)) > state_bound:
        raise TooLarge(
            f"reduced-word search for the longest element of {rs.type} needs "
            f"{order} states, over the bound of {_shown(state_bound)}"
        )
    word = reduced_word_of(rs, m)
    n = rs.rank
    cartan = _sparse_columns(rs.simple_coroots, n, 2)
    image = apply_matrix(m, _two_rho(rs))
    layer = {_pack([_pair(image, row) for row in rs.simple_coroots], 2): 1}
    states = 1
    if states > state_bound:
        raise TooLarge(f"reduced-word search exceeded {_shown(state_bound)} states")
    for _ in range((len(word) + 1) // 2 if longest else len(word)):
        previous = layer
        ways: dict[int, int] = {}
        labels = _lanes(list(layer), n, 2)
        for i, a in enumerate(cartan):
            for x, k, p in zip(layer, layer.values(), labels[i::n]):
                if p < 0:
                    y = x - p * a
                    ways[y] = ways.get(y, 0) + k
        layer = ways
        states += len(layer)
        if states > state_bound:
            raise TooLarge(f"reduced-word search exceeded {_shown(state_bound)} states")
    if longest:
        half = previous if len(word) % 2 else layer
        return sum(k * half.get(-x, 0) for x, k in layer.items())
    return layer[_pack([2] * n, 2)]


def preserves_form(rs: RootSystem, m: Matrix) -> bool:
    """True iff m preserves the doubled Gram pairing (is an orthogonal map):
    the images of the simple roots pair as the Gram matrix says.  m is checked
    as the matrix walks check it, with DimensionMismatch."""
    images = list(zip(*_check_shape(rs.rank, m)))
    return all(
        _pairing2(rs, x, y) == g for x, row in zip(images, rs.gram2) for y, g in zip(images, row)
    )
