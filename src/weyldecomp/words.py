"""Closed forms for conjugating one reflection by another, plus two word
identities among simple reflections in the A family.

For roots a (the conjugator) and b, the conjugate s_a . s_b . s_a is the
reflection in s_a(b).  When a and b are non-orthogonal and non-proportional,
s_a(b) is b -/+ k*a with k determined entirely by the squared lengths of a and
b and the sign of their inner product; ``classify_conjugation`` names these
cases and ``conjugated_root`` computes the resulting (positive) root directly.

The identity checks compare exact products of reflections.  Only the sweep
over all pairs of roots compares by images of 2 rho, the sum of the positive
roots: 2 rho is regular, so two elements of W are equal exactly when they
send it to the same vector.  The test does not separate W from the diagram
automorphisms (in A2, -I and w0 both send 2 rho to -2 rho); in the sweep both
sides are products of reflections, so it is exact there.  The sweep packs
vectors in 2-byte lanes (see ``rootsys``): the images of 2 rho under W it
compares have entries at most those of 2 rho, at most 4158 (on C64), and the
literal side below stays under 4666 term by term.  With y = s_a(2 rho),
c = <b, a-check> and k1 = <y, b-check>, the literal product expands by
linearity of s_a: s_a(s_b(y)) = s_a(y) - k1*s_a(b), where s_a(b) = b - c*a is
also the key of the closed-form conjugate.  Multiplied out, that is the same
integer as y - k1*b - (<y, a-check> - k1*c)*a.  s_a(y) is formed once per
conjugator a, and c and k1 as two rows over all roots b (``_rows``), so a pair
costs one dict lookup and one product, plus up to two lookups for its named
case: about 1.2 us at rank 64 on a 2-core VM.
"""
from __future__ import annotations

from itertools import chain, islice, repeat
from operator import mul, sub

from .errors import BadRange, DimensionMismatch, NotARoot, Orthogonal, Proportional
from .rootsys import (
    Root,
    RootSystem,
    SparseRow,
    _Record,
    _coroot,
    _coroot_and_norm,
    _indices,
    _lanes,
    _pack,
    _pair,
    _pairing2,
    _root,
    _shown,
    _sparse_columns,
    _two_rho,
    identity_matrix,
    negate,
)
from .weyl import _reflection_columns, _word_columns, reflection_of, reflection_product

__all__ = [
    "ConjugationCase",
    "check_lambda_v",
    "check_permutation_lemma",
    "classify_conjugation",
    "conjugated_root",
    "conjugation_identity_holds",
    "positive_representative",
    "predicted_conjugate",
]


def positive_representative(rs: RootSystem, x: Root) -> Root:
    """The positive root among x and -x."""
    x = _root(rs, x)
    return x if x in rs.root_index else negate(x)


def _reflect(x: Root, r: Root, coroot: SparseRow) -> Root:
    """s_r(x) = x - <x, r-check> r, given the coroot of r."""
    c = _pair(x, coroot)
    return tuple(map(sub, x, map(mul, repeat(c), r))) if c else x


def conjugated_root(rs: RootSystem, delta: Root, tau: Root) -> Root:
    """The positive root r with s_delta . s_tau . s_delta == s_r."""
    delta, tau = _root(rs, delta), _root(rs, tau)
    return positive_representative(rs, _reflect(tau, delta, _coroot(rs, delta)))


class ConjugationCase(_Record):
    """A named conjugation pattern.

    ``rule`` records the squared-length pattern of (conjugator, target):
    LongLong, LongShort_B_F4, LongShort_G2, ShortLong_B_F4, ShortLong_C, or
    ShortLong_G2.  ``sign`` is Minus when the two roots have negative inner
    product (so the conjugate involves the sum b + k*a) and Plus otherwise
    (the difference b - k*a).  ``coefficient`` is that k.
    """

    __slots__ = ("rule", "sign", "coefficient")
    rule: str
    sign: str
    coefficient: int


# (2(a,a), 2(b,b), |2(a,b)|) -> (rule name, coefficient k in  b -/+ k*a).
_CASE_TABLE: dict[tuple[int, int, int], tuple[str, int]] = {
    (4, 4, 2): ("LongLong", 1),
    (4, 2, 2): ("LongShort_B_F4", 1),
    (6, 2, 3): ("LongShort_G2", 1),
    (2, 4, 2): ("ShortLong_B_F4", 2),
    (4, 8, 4): ("ShortLong_C", 2),
    (2, 6, 3): ("ShortLong_G2", 3),
}


def classify_conjugation(rs: RootSystem, a: Root, b: Root) -> ConjugationCase | None:
    """Name the conjugation pattern for conjugator a and target b.

    Returns None when the pair falls outside the six tabulated patterns (for
    example two short roots of squared length 1, or two G2 long roots), in
    which case ``conjugated_root`` still applies but no closed-form name does.
    Proportional or orthogonal pairs are rejected with exceptions since no
    conjugation pattern is defined for them at all.
    """
    a, b = _root(rs, a), _root(rs, b)
    if b == a or b == negate(a):
        raise Proportional(f"{a} and {b} are proportional")
    p_ab = _pairing2(rs, a, b)
    if p_ab == 0:
        raise Orthogonal(f"{a} and {b} are orthogonal")
    entry = _CASE_TABLE.get((_pairing2(rs, a, a), _pairing2(rs, b, b), abs(p_ab)))
    if entry is None:
        return None
    return ConjugationCase(entry[0], "Minus" if p_ab < 0 else "Plus", entry[1])


def predicted_conjugate(rs: RootSystem, a: Root, b: Root, case: ConjugationCase) -> Root:
    """The closed-form conjugate for a classified pair: b + k*a or b - k*a."""
    a, b = _root(rs, a), _root(rs, b)
    if not isinstance(case, ConjugationCase):
        raise DimensionMismatch(f"case {_shown(case)} is not a ConjugationCase")
    k = case.coefficient if case.sign == "Minus" else -case.coefficient
    return positive_representative(rs, tuple(bc + k * ac for bc, ac in zip(b, a)))


def _check_range(rs: RootSystem, k: int, n: int, *, allow_equal: bool = False) -> tuple[int, int]:
    if rs.family != "A":
        raise BadRange(f"identity defined in family A only, not {rs.type}")
    k, n = _indices((k, n), rs.rank, BadRange, "k and n")
    if k > n or k == n and not allow_equal:
        raise BadRange(f"need k {'<=' if allow_equal else '<'} n, got k={k}, n={n}")
    return k, n


def _interval_root(rs: RootSystem, k: int, n: int) -> Root:
    """The root a_k + a_(k+1) + ... + a_n."""
    return tuple(1 if k <= i <= n else 0 for i in range(1, rs.rank + 1))


def check_lambda_v(rs: RootSystem, k: int, n: int) -> bool:
    """Check the V-shaped rewriting of an interval word against its mirror.

    Compares  (s_k ... s_n)(s_(n-1) ... s_k)  with  (s_n ... s_k)(s_(k+1) ... s_n)
    as group elements, and checks that both equal the reflection in
    a_k + ... + a_n.  Requires an A-family system and 1 <= k <= n <= rank.
    """
    k, n = _check_range(rs, k, n, allow_equal=True)
    up_then_down = list(range(k, n + 1)) + list(range(n - 1, k - 1, -1))
    down_then_up = list(range(n, k - 1, -1)) + list(range(k + 1, n + 1))
    target = _reflection_columns(rs, [_interval_root(rs, k, n)])
    return _word_columns(rs, up_then_down) == target == _word_columns(rs, down_then_up)


def check_permutation_lemma(rs: RootSystem, k: int, n: int) -> bool:
    """Check the interval-reflection shuffle identity.

    Compares  s_(a_k+...+a_(n-1)) . (s_n s_(n-1) ... s_k)  with
    (s_(n-1) ... s_(k+1)) . s_(a_k+...+a_n)  as group elements.  Requires an
    A-family system and 1 <= k < n <= rank.
    """
    k, n = _check_range(rs, k, n)
    simple = identity_matrix(rs.rank)
    left = [_interval_root(rs, k, n - 1), *simple[k - 1 : n][::-1]]
    right = [*simple[k : n - 1][::-1], _interval_root(rs, k, n)]
    return _reflection_columns(rs, left) == _reflection_columns(rs, right)


def conjugation_identity_holds(rs: RootSystem, delta: Root, tau: Root) -> bool:
    """Dual-route check: closed-form conjugate vs literal conjugation
    s_delta . s_tau . s_delta, compared as exact matrices."""
    s_conj = reflection_of(rs, conjugated_root(rs, delta, tau))
    return reflection_product(rs, [delta, tau, delta]) == s_conj


def _positions(packed: list[int]) -> dict[int, int]:
    """The index of each packed root, keyed by the root and by its negative."""
    return {s * p: i for i, p in enumerate(packed) for s in (1, -1)}


def _rows(root_columns: list[int], coroot_columns: list[int], coroot: SparseRow, y: Root, n: int):
    """The n lanes of c = <b, a-check> and of k1 = <y, b-check> over all roots
    b, by one ``_lanes`` call.  Column m packs coordinate m of every root (or
    coroot), root b in lane b: c's row is the sum of c_m times root column m
    over a's sparse coroot, k1's the sum of y_m times coroot column m."""
    c = sum(c_m * root_columns[m] for m, c_m in coroot)
    k1 = sum(y_m * coroot_columns[m] for m, y_m in enumerate(y) if y_m)
    rows = _lanes([c, k1], n, 2)
    return rows[:n], rows[n:]


def _conjugation_suite(rs: RootSystem) -> tuple[bool, int, int]:
    """Sweep ordered pairs of distinct positive roots; return (ok, pairs, named).
    A, B and Y are a, b and y = s_a(2 rho) in 2-byte lanes.  Per conjugator a,
    c = <b, a-check> and k1 = <y, b-check> come as two rows over all b, and
    Z = s_a(y) once.  The conjugate is the root at X = B - c*A = s_a(b), and the
    literal s_a(s_b(y)) = Z - k1*X, the expansion regrouped, must give its image
    of 2 rho; a named case must give it at B -/+ k*A (about 1.2 us a pair)."""
    roots = rs.positive_roots
    coroots, norm = zip(*(_coroot_and_norm(rs, r) for r in roots))
    two_rho = _two_rho(rs)
    moved = [_reflect(two_rho, r, row) for r, row in zip(roots, coroots)]
    image = [_pack(y, 2) for y in moved]
    packed = [_pack(r, 2) for r in roots]
    positions = _positions(packed)
    # Per norm m of a, then per root b of norm n: c = <b, a-check> in -3..3 (the
    # range for roots that are not proportional) -> the signed k _CASE_TABLE names.
    cases: dict[tuple[int, int], dict[int, int]] = {}
    named_k = {m: [cases.setdefault((m, n), {}) for n in norm] for m in set(norm)}
    for (m, n), steps in cases.items():
        for c in (-3, -2, -1, 1, 2, 3):
            if (entry := _CASE_TABLE.get((m, n, abs(c * m // 2)))) is not None:
                steps[c] = entry[1] if c > 0 else -entry[1]
    root_columns = [_pack(column, 2) for column in zip(*roots)]
    coroot_columns = _sparse_columns(coroots, rs.rank, 2)
    count, named = len(roots), 0
    for i, (A, y, Y, a_norm, a_coroot) in enumerate(zip(packed, moved, image, norm, coroots)):
        Z = Y - _pair(y, a_coroot) * A
        c_row, k1_row = _rows(root_columns, coroot_columns, a_coroot, y, count)
        rest = zip(range(count), packed, c_row, k1_row, named_k[a_norm])
        try:
            for j, B, c, k1, ks in chain(islice(rest, i), islice(rest, 1, None)):  # b != a
                X = B - c * A
                conj = positions[X]
                if Z - k1 * X != image[conj]:  # pairs checked: i full rows, then b
                    return False, i * (count - 1) + j + (j < i), named
                k = ks.get(c)
                if k is not None:
                    named += 1
                    if positions[B - k * A] != conj:
                        return False, i * (count - 1) + j + (j < i), named
        except KeyError as missing:
            step = c if missing.args[0] == X else k
            raise NotARoot(f"{B:#x} - {step} * {A:#x} is not a packed root") from None
    return True, count * (count - 1), named


def _interval_suite(rs: RootSystem) -> tuple[bool, int]:
    """Check both interval identities for every 1 <= k < n <= rank; return
    (ok, pairs checked)."""
    checked = 0
    for n in range(2, rs.rank + 1):
        for k in range(1, n):
            checked += 1
            if not (check_lambda_v(rs, k, n) and check_permutation_lemma(rs, k, n)):
                return False, checked
    return True, checked
