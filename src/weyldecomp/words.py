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
vectors in 4-byte lanes (see ``rootsys``): it meets only roots and images of
2 rho under W, whose entries are at most those of 2 rho, below 2000 wherever
it runs.  The literal product expands by linearity: with y = s_a(2 rho),
c = <b, a-check> and k1 = <y, b-check>, s_a(s_b(y)) = y - k1*b -
(<y, a-check> - k1*c)*a.

The sweep computes c and k1 once per conjugator a, as two rows over all
roots b.  Coordinate m of every positive root, and of every coroot, is packed
across the roots into one int, root b in lane b.  c's row is the sum of c_m
times root column m over a's sparse coroot, k1's row the sum of y_m times
coroot column m, and each row is decoded once, so a pair costs one dict
lookup, the literal expansion and a table lookup: about 1.5 us on a 2-core
VM.
"""
from __future__ import annotations

from operator import index

from .errors import BadRange, NotARoot, Orthogonal, Proportional, TooLarge
from .rootsys import (
    Root,
    RootSystem,
    SparseRow,
    _Record,
    _coroot,
    _lanes,
    _pack,
    _pair,
    _pairing2,
    _root,
    _sparse_columns,
    _sub_multiple,
    _two_rho,
    identity_matrix,
    negate,
)
from .weyl import _reflection_product, evaluate_word, reflection_of, reflection_product


def positive_representative(rs: RootSystem, x: Root) -> Root:
    """The positive root among x and -x."""
    x = _root(rs, x)
    return x if x in rs.root_index else negate(x)


def _reflect(x: Root, r: Root, coroot: SparseRow) -> Root:
    """s_r(x) = x - <x, r-check> r, given the coroot of r."""
    c = _pair(x, coroot)
    return _sub_multiple(x, c, r) if c else x


def conjugated_root(rs: RootSystem, delta: Root, tau: Root) -> Root:
    """The positive root r with s_delta . s_tau . s_delta == s_r."""
    delta, tau = _root(rs, delta), _root(rs, tau)
    return positive_representative(rs, _reflect(tau, delta, _coroot(rs.gram2, delta)))


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
    k = case.coefficient if case.sign == "Minus" else -case.coefficient
    return positive_representative(rs, tuple(bc + k * ac for bc, ac in zip(b, a)))


def _check_range(rs: RootSystem, k: int, n: int, *, allow_equal: bool = False) -> tuple[int, int]:
    if rs.family != "A":
        raise BadRange(f"identity defined in family A only, not {rs.type}")
    try:
        k, n = index(k), index(n)
    except TypeError:
        raise BadRange(f"need integers k and n, got k={k!r}, n={n!r}") from None
    if not (1 <= k <= n <= rs.rank and (allow_equal or k < n)):
        op = "<=" if allow_equal else "<"
        raise BadRange(f"need 1 <= k {op} n <= {rs.rank}, got k={k}, n={n}")
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
    target = reflection_of(rs, _interval_root(rs, k, n))
    return (
        evaluate_word(rs, up_then_down) == target
        and evaluate_word(rs, down_then_up) == target
    )


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
    return _reflection_product(rs, left) == _reflection_product(rs, right)


def conjugation_identity_holds(rs: RootSystem, delta: Root, tau: Root) -> bool:
    """Dual-route check: closed-form conjugate vs literal conjugation
    s_delta . s_tau . s_delta, compared as exact matrices."""
    s_conj = reflection_of(rs, conjugated_root(rs, delta, tau))
    return reflection_product(rs, [delta, tau, delta]) == s_conj


# Most ordered pairs the conjugation sweep takes on.  At about 1.5 us a pair, check-identities
# answers D45 (3918420 pairs) in 6-8 s of CPU on a 2-core VM, and A62, the slowest, in 9-10 s.
_PAIR_BOUND = 4_000_000


def _position(positions: dict[int, int], b: int, c: int, a: int) -> int:
    """The index of the positive root +-(b - c*a), for packed roots b and a."""
    try:
        return positions[b - c * a]
    except KeyError:
        raise NotARoot(f"{b:#x} - {c} * {a:#x} is not a packed root") from None


def _row(columns: list[int], coefficients, count: int) -> memoryview:
    """The ``count`` lanes of the sum of c * columns[m] over the (m, c) pairs."""
    return _lanes([sum(c * columns[m] for m, c in coefficients if c)], count, 4)


def _conjugation_suite(rs: RootSystem) -> tuple[bool, int, int]:
    """Sweep ordered pairs of distinct positive roots; return (ok, pairs, named).
    More than ``_PAIR_BOUND`` pairs raise TooLarge before any is checked.
    A, B and Y are a, b and y = s_a(2 rho) packed.  For each conjugator a,
    c = <b, a-check> and k1 = <y, b-check> over all b come as two rows of
    lanes.  The closed-form conjugate is the root at B - c*A, the literal
    expansion must give its image of 2 rho, and a named case must give it at
    B -/+ k*A."""
    roots = rs.positive_roots
    if (total := len(roots) * (len(roots) - 1)) > _PAIR_BOUND:
        message = f"identity sweep of {rs.type} needs {total} pairs"
        raise TooLarge(f"{message}, over the bound of {_PAIR_BOUND}")
    coroots = [_coroot(rs.gram2, r) for r in roots]
    two_rho = _two_rho(rs)
    moved = [_reflect(two_rho, r, row) for r, row in zip(roots, coroots)]
    image = [_pack(y, 4) for y in moved]
    packed = [_pack(r, 4) for r in roots]
    positions = {s * p: i for i, p in enumerate(packed) for s in (1, -1)}
    norm = [_pairing2(rs, r, r) for r in roots]
    root_columns = [_pack(column, 4) for column in zip(*roots)]
    coroot_columns = _sparse_columns(coroots, rs.rank, 4)
    pairs = named = 0
    for i, (A, y, Y, a_norm, a_coroot) in enumerate(zip(packed, moved, image, norm, coroots)):
        y_a = _pair(y, a_coroot)
        c_row = _row(root_columns, a_coroot, len(roots))
        k1_row = _row(coroot_columns, enumerate(y), len(roots))
        for j, (B, c, k1, b_norm) in enumerate(zip(packed, c_row, k1_row, norm)):
            if i == j:
                continue
            pairs += 1
            conj = _position(positions, B, c, A)
            if Y - k1 * B - (y_a - k1 * c) * A != image[conj]:
                return False, pairs, named
            if not c:
                if conj != j:
                    return False, pairs, named
                continue
            entry = _CASE_TABLE.get((a_norm, b_norm, abs(c * a_norm // 2)))
            if entry is not None:
                named += 1
                if _position(positions, B, entry[1] if c > 0 else -entry[1], A) != conj:
                    return False, pairs, named
    return True, pairs, named


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
