"""Orthogonal reflection decompositions of the longest element.

The longest element of every Weyl group factors as a product of reflections
in mutually orthogonal positive roots, one factor per -1 eigenvalue of its
action.  This module constructs the canonical such decomposition as Kostant's
cascade of strongly orthogonal roots (B. Kostant, "The cascade of orthogonal
roots and the coadjoint structure of the nilradical of a Borel subgroup of a
semisimple Lie group", Moscow Math. J. 12, 2012): take the highest root of
each connected component of the Dynkin diagram, keep the nodes orthogonal to
it, and recurse.  It verifies candidate decompositions against five independent
conditions, enumerates all maximal-orthogonal decompositions by exhaustive
search on small systems, and exposes the cross-rank recursion that produces
each canonical decomposition from a smaller system's.
"""
from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations, product
from operator import le

from .errors import DimensionMismatch, NoRelation, NotARoot, TooLarge, WrongFamily
from .rootsys import (
    Matrix,
    Root,
    RootSystem,
    _Record,
    _components,
    _coroot,
    _greedy_walk,
    _highest_by_support,
    _integers,
    _pair,
    _pairing2,
    _root,
    _sequence,
    _shown,
    _support,
    _unpack,
    support,
)
from .weyl import (
    _reflection_columns,
    classify_longest,
    longest_element,
    reflection_product,
)

__all__ = [
    "Decomposition",
    "DecompositionFactor",
    "ParabolicTower",
    "VerificationReport",
    "canonical_decomposition",
    "decomposition_from_roots",
    "dn_orthogonality_pattern",
    "enumerate_max_orthogonal",
    "epsilon_factorization",
    "parabolic_tower",
    "recursion_relation_check",
    "verify_decomposition",
]


class DecompositionFactor(_Record):
    """One reflection factor: its (positive) root and what the root is.

    ``kind`` is "simple" for a simple root and "highest" for the highest root
    of the connected standard parabolic on ``span`` (the root's support).
    """

    __slots__ = ("root", "kind")
    root: Root
    kind: str  # "simple" or "highest"

    @property
    def span(self) -> tuple[int, ...]:
        return support(self.root)


class Decomposition(_Record):
    """An ordered tuple of mutually orthogonal reflection factors."""

    __slots__ = ("system", "factors")
    system: RootSystem
    factors: tuple[DecompositionFactor, ...]

    @property
    def roots(self) -> tuple[Root, ...]:
        """The factor roots; DimensionMismatch unless factors are DecompositionFactors."""
        factors = _sequence(self.factors, "factor list")
        for f in factors:
            if not isinstance(f, DecompositionFactor):
                raise DimensionMismatch(f"factor {_shown(f)} is not a DecompositionFactor")
        return tuple(f.root for f in factors)

    def product(self) -> Matrix:
        return reflection_product(self.system, self.roots)


def decomposition_from_roots(rs: RootSystem, roots) -> Decomposition:
    """Wrap positive roots as a Decomposition: a root of height 1 is a "simple"
    factor, any other a "highest" one."""
    checked = [_integers(r, "root") for r in _sequence(roots, "root list")]
    for r in checked:
        if r not in rs.root_index:
            raise NotARoot(f"{_shown(r)} is not a positive root of {rs.type}")
    factors = (DecompositionFactor(r, "simple" if sum(r) == 1 else "highest") for r in checked)
    return Decomposition(system=rs, factors=tuple(factors))


def _cascade(rs: RootSystem) -> Iterator[tuple[Root, list[tuple[int, ...]]]]:
    """Kostant's cascade, as (theta, components of theta-perp) steps.

    Each step takes the highest root theta of a connected index set J, splits
    the nodes of J orthogonal to theta into connected components, and queues
    them as later steps; the first step is the whole diagram's.  The thetas
    are the cascade's mutually orthogonal roots.
    """
    top = _highest_by_support(rs)
    queue = [tuple(range(1, rs.rank + 1))]
    for J in queue:
        theta = top[J]
        perp = _components(rs, [i for i in J if _pair(theta, rs.simple_coroots[i - 1]) == 0])
        queue.extend(perp)
        yield theta, perp


def _simple_factor_key(rs: RootSystem):
    """Listing order of the simple factors: ascending, except that the end
    nodes n of B and n-1, n of D (simple factors in odd B and even D) lead,
    in descending order."""
    lead = {"B": rs.rank, "D": rs.rank - 1}.get(rs.family, rs.rank + 1)

    def key(root: Root) -> tuple[bool, int]:
        i = root.index(1) + 1
        return (i < lead, i if i < lead else -i)

    return key


def canonical_decomposition(rs: RootSystem) -> Decomposition:
    """The canonical maximal-orthogonal decomposition of the longest element.

    Its factors are the roots of Kostant's cascade (Moscow Math. J. 12, 2012).
    Simple factors come first; the remaining factors are highest roots of a
    dominance-increasing chain of connected standard parabolics, listed by
    ascending height.
    """
    roots = [theta for theta, _ in _cascade(rs)]
    simples = sorted((r for r in roots if sum(r) == 1), key=_simple_factor_key(rs))
    chain = sorted((r for r in roots if sum(r) > 1), key=sum)
    return decomposition_from_roots(rs, simples + chain)


class VerificationReport(_Record):
    """Outcome of the five independent decomposition checks."""

    __slots__ = ("orthogonal", "highest_root_ok", "chain_ok", "product_is_w0", "count_ok")
    orthogonal: bool
    highest_root_ok: bool
    chain_ok: bool
    product_is_w0: bool
    count_ok: bool

    def all_ok(self) -> bool:
        return all(self._values())


def verify_decomposition(rs: RootSystem, dec: Decomposition) -> VerificationReport:
    """Run the five checks on a candidate Decomposition (DimensionMismatch
    for any other dec).

    orthogonal: the factor roots are pairwise orthogonal.
    highest_root_ok: every factor root is the highest root of the connected
        standard parabolic on its own support (simple roots trivially so).
    chain_ok: the non-simple factor roots are totally ordered by dominance.
    product_is_w0: the product of the factor reflections equals the longest
        element.
    count_ok: there are at most rank-many factors (pairwise orthogonal roots
        are linearly independent, so more can never occur in a valid set).
    """
    if not isinstance(dec, Decomposition):
        raise DimensionMismatch(f"decomposition {_shown(dec)} is not a Decomposition")
    roots = [_root(rs, r) for r in dec.roots]
    rows = [_coroot(rs, x) for x in roots]
    orthogonal = all(_pair(y, row) == 0 for i, row in enumerate(rows) for y in roots[i + 1 :])

    top = _highest_by_support(rs)
    highest_ok = all(top[_support(r)] == r for r in roots)

    non_simple = [r for r in roots if sum(r) > 1]
    chain_ok = all(
        all(map(le, x, y)) or all(map(le, y, x)) for x, y in combinations(non_simple, 2)
    )

    product_is_w0 = _unpack(_reflection_columns(rs, roots)) == longest_element(rs)
    count_ok = len(roots) <= rs.rank
    return VerificationReport(
        orthogonal=orthogonal,
        highest_root_ok=highest_ok,
        chain_ok=chain_ok,
        product_is_w0=product_is_w0,
        count_ok=count_ok,
    )


def _largest_compatible_sets(rs: RootSystem, pool) -> list[tuple[Root, ...]]:
    """The largest compatible sets of the (root, support) pairs in ``pool``, by
    enumerate_max_orthogonal's split of the diagram into regions (bitmasks,
    bit i - 1 for node i).  Each root theta_S keeps three masks: S; S and
    its neighbours, read off the simple coroots' rows; and Z(S), the nodes
    of S that theta_S pairs to 0.  A neighbour of S pairs negatively with
    theta_S and any other node outside S to 0, so no full coroot is needed."""
    coroots = rs.simple_coroots
    node_around = [sum(1 << j for j, _ in row) for row in coroots]
    starting: list[list] = [[] for _ in range(rs.rank)]
    for root, S in pool:
        mask = around = z = 0
        for i in S:
            bit = 1 << (i - 1)
            mask |= bit
            around |= node_around[i - 1]
            if not _pair(root, coroots[i - 1]):
                z |= bit
        starting[S[0] - 1].append((root, mask, around, z))

    # (region, chains) -> (size, choices): the choices at the region's lowest
    # node that reach the largest size, each as the roots taken and the
    # sub-regions left.
    memo = {(0, chains): (0, [((), ())]) for chains in (False, True)}

    def best(region: int, chains: bool) -> int:
        entry = memo.get((region, chains))
        if entry is None:
            low = region & -region
            rest = (region ^ low, chains)
            size, choices = best(*rest), [((), (rest,))]
            for root, mask, around, z in starting[low.bit_length() - 1]:
                outside = region & ~around
                if mask == low:
                    subs, n = ((outside, chains),), 1 + best(outside, chains)
                elif chains and region & mask == mask:
                    subs = ((z, True), (outside, False))
                    n = 1 + best(z, True) + best(outside, False)
                else:
                    continue
                if n > size:
                    size, choices = n, []
                if n == size:
                    choices.append(((root,), subs))
            entry = memo[region, chains] = size, choices
        return entry[0]

    def expand(region: int, chains: bool) -> list[tuple[Root, ...]]:
        return [
            roots + sum(rests, ())
            for roots, subs in memo[region, chains][1]
            for rests in product(*(expand(*sub) for sub in subs))
        ]

    full = (1 << rs.rank) - 1
    best(full, True)
    return expand(full, True)


def _negated_pool(rs: RootSystem, sigma: tuple[int, ...]) -> list[tuple[Root, tuple[int, ...]]]:
    """The (root, support) pairs of the highest roots of connected standard
    parabolics that w0 negates.  w0 = -sigma for the diagram involution
    sigma, and sigma sends theta_S to theta_sigma(S), so w0 negates theta_S
    exactly when sigma(S) = S: a test on the support, O(|S|), that a
    support with no node sigma moves passes at once."""
    image = (None, *sigma)
    moved = {i for i, s in enumerate(sigma, 1) if i != s}
    return [
        (r, S)
        for S, r in _highest_by_support(rs).items()
        if moved.isdisjoint(S) or set(S).issuperset(map(image.__getitem__, S))
    ]


def _minus_one_dimension(sigma: tuple[int, ...]) -> int:
    """dim E_-1(w0) for w0 = -sigma, sigma the diagram involution: the fixed
    space of sigma, one dimension per sigma-orbit {i, sigma(i)}."""
    return sum(i <= s for i, s in enumerate(sigma, 1))


def enumerate_max_orthogonal(
    rs: RootSystem, *, rank_bound: int = 4, size_bound: int = 40
) -> list[Decomposition]:
    """Exhaustively enumerate decompositions satisfying the structural checks.

    Finds all sets of pool roots (highest roots of connected standard
    parabolics) that are compatible, that is pairwise orthogonal with the
    non-simple members (the chain) on nested supports, and whose reflections
    multiply to the longest element.  Reflections in pairwise orthogonal
    roots commute, and their product is -1 on the span of the roots and +1
    on its orthogonal complement; w0 is an orthogonal involution.  So a
    compatible set multiplies to w0 exactly when w0 negates each root and
    there are d = dim E_-1(w0) of them, d being the number of orbits of the
    diagram involution sigma with w0 = -sigma.  The pool keeps the roots w0
    negates; compatible ones are independent in E_-1(w0), so no compatible
    set is larger than d, and the sets sought are the largest ones when
    those have d roots.

    They are found on regions of the diagram.  A set uses the lowest node v
    of a region in exactly one of three ways.  v is unused: recurse without
    v.  v is a simple factor: recurse without v and its neighbours.  v is
    the lowest node of the top chain support S, while no chain root is
    chosen in the region: theta_S counts 1, the chain goes on inside
    Z(S) = {j in S : (a_j, theta_S) = 0}, and the region outside S and its
    neighbours takes simple factors only, orthogonal to everything inside S.
    Each part of a largest set is largest in its own sub-region, or a swap
    would give a larger set; so a memo of the best choices per region and
    chain state, walked back, yields every largest set once (Kostant's
    cascade is its greedy path).  The literal product of each reported set
    is compared with w0 as a second route, and a mismatch raises
    RuntimeError.  Factors are ordered simples-first then by ascending
    height, and the result list is sorted by those factor sequences.

    Refuses systems that are large in both rank and root count: allowed when
    rank <= rank_bound or the positive root count is <= size_bound.
    """
    rank_bound, size_bound = _integers([rank_bound, size_bound], "search bounds")
    npos = len(rs.positive_roots)
    if rs.rank > rank_bound and npos > size_bound:
        raise TooLarge(
            f"{rs.type} has rank {rs.rank} > {_shown(rank_bound)} and {npos} > "
            f"{_shown(size_bound)} positive roots; raise the bounds to search anyway"
        )
    w0 = longest_element(rs)
    sigma = classify_longest(rs).automorphism
    d = _minus_one_dimension(sigma)
    largest = _largest_compatible_sets(rs, _negated_pool(rs, sigma))
    results = [roots for roots in largest if len(roots) == d]
    for roots in results:
        if reflection_product(rs, roots) != w0:
            raise RuntimeError(f"{rs.type}: the reflections in {roots} do not multiply to w0")
    ordered = sorted(sorted(roots, key=lambda r: (sum(r) > 1, sum(r), r)) for roots in results)
    return [decomposition_from_roots(rs, roots) for roots in ordered]


# Types outside the cross-rank recursion, by contract.  This is not derived
# from the cascade: the relation would also hold on B2, C2, D3, D5 and G2.
_NO_RELATION = frozenset({"A1", "A2", "B2", "B3", "C2", "D3", "D4", "D5", "G2"})


def recursion_relation_check(rs: RootSystem) -> bool:
    """Check that the canonical decomposition satisfies its recursion relation.

    Let theta be the highest root and J the largest connected component of
    the nodes orthogonal to theta (the first step of Kostant's cascade).  The
    longest element factors as the longest element w0(J) of the parabolic on
    J, times the reflection in theta and, in the families whose theta-perp
    has a second component (B and D, where it is the first node), the
    reflection in that component's highest root.  The tail roots are
    orthogonal to J and to each other, so all these reflections commute and
    one order suffices.  W_J is the Coxeter group on the simple reflections
    in J, so w0(J) is walked in rs's own letters, on the columns of the tail's
    product T.  T fixes the roots supported in J, so for j in J column j of
    T.w is column j of w: the walk with its letters taken from J picks those
    it picks from the identity, and stops at T.w0(J).  The w0 it is compared
    with comes from the unrestricted walk.
    """
    if str(rs.type) in _NO_RELATION:
        raise NoRelation(f"no cross-rank recursion is defined for {rs.type}")
    theta, perp = next(_cascade(rs))
    J = max(perp, key=len)
    top = _highest_by_support(rs)
    cols = _reflection_columns(rs, [theta] + [top[K] for K in perp if K != J])
    list(_greedy_walk(rs.simple_coroots, cols, J))  # cols end as T.w0(J)
    return _unpack(cols) == longest_element(rs)


class ParabolicTower(_Record):
    """The ascending chain of connected standard parabolics underlying the
    canonical decomposition, as 1-based index sets ending at the full set
    when the full diagram appears as a factor support."""

    __slots__ = ("system", "supports")
    system: RootSystem
    supports: tuple[tuple[int, ...], ...]


def _tower_is_seeded(rs: RootSystem) -> bool:
    """Whether the canonical tower starts from the singleton support of the
    first simple factor rather than from the smallest chain support."""
    fam, n = rs.family, rs.rank
    if fam in ("A", "B"):
        return n % 2 == 1
    if fam == "C" or fam == "F" or fam == "G":
        return True
    if fam == "E":
        return n in (6, 7)
    return False  # D even/odd and E8 start at their smallest chain support


def parabolic_tower(rs: RootSystem) -> ParabolicTower:
    """The dominance tower of supports behind the canonical decomposition.

    The tower lists the chain-factor supports in ascending order, led in
    some families by a seed: the singleton support of the decomposition's
    first simple factor.  The seed is a per-family convention, not a nesting
    rule.  It is present in odd A (the middle node), odd B and all C (node n),
    E6 ({4}), E7 ({2}), F4 ({2}) and G2 ({1}).  It is absent in even A (no
    simple factor), even B, D and E8, even where the first simple factor
    lies inside the smallest chain support (B2, D3, D4, even D, E8).
    """
    factors = canonical_decomposition(rs).factors
    seed = [next(f.span for f in factors if f.kind == "simple")] if _tower_is_seeded(rs) else []
    chains = [f.span for f in factors if f.kind == "highest"]
    return ParabolicTower(system=rs, supports=tuple(seed + chains))


def epsilon_factorization(rs: RootSystem) -> tuple[Root, ...]:
    """The coordinate-frame factorization of the longest element for B and C.

    Returns the positive roots of the squared length of a_n, by descending
    height: the short roots e_i = a_i + ... + a_n in family B and the long
    roots 2e_i = 2(a_i + ... + a_(n-1)) + a_n in family C.  They are mutually
    orthogonal and their reflections multiply to the longest element.  These
    are generally not highest roots of parabolics, so they form a second,
    different maximal orthogonal set.
    """
    if rs.family not in ("B", "C"):
        raise WrongFamily(f"coordinate-frame factorization needs B or C, not {rs.type}")
    return tuple(r for r in reversed(rs.positive_roots) if _pairing2(rs, r, r) == rs.gram2[-1][-1])


def dn_orthogonality_pattern(rs: RootSystem) -> bool:
    """Check the D-family cross-pairing parity pattern.

    In D_n (n >= 4), the simple root a_i for i < n-2 pairs non-trivially with
    exactly two of the non-simple canonical factor roots when i is even, and
    with none when i is odd.  Returns True iff the pattern holds.
    """
    if rs.family != "D" or rs.rank < 4:
        raise WrongFamily(f"pattern is defined for D with rank >= 4, not {rs.type}")
    chains = [f.root for f in canonical_decomposition(rs).factors if f.kind == "highest"]
    for i in range(1, rs.rank - 2):
        hits = sum(1 for r in chains if _pair(r, rs.simple_coroots[i - 1]) != 0)
        expected = 2 if i % 2 == 0 else 0
        if hits != expected:
            return False
    return True


def _frame_suite(rs: RootSystem) -> bool:
    """Check the coordinate-frame factorization: pairwise orthogonal roots
    whose reflections multiply to the longest element.  Not all_ok(): the
    frame roots are not highest roots of parabolics."""
    report = verify_decomposition(rs, decomposition_from_roots(rs, epsilon_factorization(rs)))
    return report.orthogonal and report.product_is_w0
