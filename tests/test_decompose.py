"""Canonical decompositions, verification, uniqueness, recursion, towers."""
from __future__ import annotations

import pytest

import weyldecomp.decompose as decompose
from weyldecomp import (
    Decomposition,
    DimensionMismatch,
    NoRelation,
    NotARoot,
    TooLarge,
    WrongFamily,
    canonical_decomposition,
    cli,
    compose,
    decomposition_from_roots,
    dn_orthogonality_pattern,
    enumerate_max_orthogonal,
    epsilon_factorization,
    highest_root_of,
    identity_matrix,
    longest_element,
    pairing2,
    parabolic_tower,
    recursion_relation_check,
    reflection_of,
    support,
    system,
    verify_decomposition,
)

from weyldecomp.decompose import (
    _cascade,
    _largest_compatible_sets,
    _minus_one_dimension,
    _negated_pool,
)
from weyldecomp.rootsys import _greedy_walk, _highest_by_support, build_root_system
from weyldecomp.weyl import classify_longest, evaluate_word, reflection_product

from util import (
    FULL_SWEEP,
    brute_force_largest_compatible_sets,
    clear_package_caches,
    dense_negated_pool,
    embedded_recursion_roots,
    formula_epsilon_factorization,
    reference_max_orthogonal,
)

# Every third A rank up to A30 (all 22 take about twice as long) and B, C,
# D 9-12, searched with their guards lifted.
BEYOND_THE_FULL_SWEEP = [f"A{n}" for n in range(9, 31, 3)] + [
    f"{fam}{n}" for fam in "BCD" for n in range(9, 13)
]


def b_chain_vector(n: int, m: int) -> tuple[int, ...]:
    """a_(n-m+1) + 2(a_(n-m+2) + ... + a_n)."""
    lo = n - m + 1
    return tuple(1 if i == lo else (2 if lo < i <= n else 0) for i in range(1, n + 1))


def c_chain_vector(n: int, m: int) -> tuple[int, ...]:
    """2(a_(n-m+1) + ... + a_(n-1)) + a_n."""
    lo = n - m + 1
    return tuple(2 if lo <= i < n else (1 if i == n else 0) for i in range(1, n + 1))


def d_chain_vector(n: int, m: int) -> tuple[int, ...]:
    """a_(n-m+1) + 2(a_(n-m+2) + ... + a_(n-2)) + a_(n-1) + a_n."""
    lo = n - m + 1
    return tuple(
        1 if i in (lo, n - 1, n) else (2 if lo < i <= n - 2 else 0)
        for i in range(1, n + 1)
    )


def simple_vector(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(1, n + 1))


def expected_roots(t: str) -> list[tuple[int, ...]]:
    """The canonical factor roots from the per-family closed formulas."""
    fam, n = t[0], int(t[1:])
    if fam == "A":
        k = n // 2
        if n % 2 == 0:
            return [
                tuple(1 if k - i + 1 <= j <= k + i else 0 for j in range(1, n + 1))
                for i in range(1, k + 1)
            ]
        return [simple_vector(n, k + 1)] + [
            tuple(1 if k - i + 1 <= j <= k + i + 1 else 0 for j in range(1, n + 1))
            for i in range(1, k + 1)
        ]
    if fam == "B":
        if n % 2 == 0:
            simples = [simple_vector(n, i) for i in range(1, n, 2)]
            tails = range(2, n + 1, 2)
        else:
            simples = [simple_vector(n, n)] + [
                simple_vector(n, i) for i in range(1, n - 1, 2)
            ]
            tails = range(3, n + 1, 2)
        return simples + [b_chain_vector(n, m) for m in tails]
    if fam == "C":
        return [simple_vector(n, n)] + [c_chain_vector(n, m) for m in range(2, n + 1)]
    if fam == "D":
        if n % 2 == 0:
            simples = [simple_vector(n, n), simple_vector(n, n - 1)] + [
                simple_vector(n, i) for i in range(1, n - 2, 2)
            ]
            tails = range(4, n + 1, 2)
        else:
            simples = [simple_vector(n, i) for i in range(1, n - 1, 2)]
            tails = range(3, n + 1, 2)
        return simples + [d_chain_vector(n, m) for m in tails]
    fixed = {
        "E6": [
            (0, 0, 0, 1, 0, 0),
            (0, 0, 1, 1, 1, 0),
            (1, 0, 1, 1, 1, 1),
            (1, 2, 2, 3, 2, 1),
        ],
        "E7": [
            (0, 1, 0, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0, 0),
            (0, 0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 0, 0, 1),
            (0, 1, 1, 2, 1, 0, 0),
            (0, 1, 1, 2, 2, 2, 1),
            (2, 2, 3, 4, 3, 2, 1),
        ],
        "E8": [
            (0, 1, 0, 0, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 1, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 1, 0),
            (0, 1, 1, 2, 1, 0, 0, 0),
            (0, 1, 1, 2, 2, 2, 1, 0),
            (2, 2, 3, 4, 3, 2, 1, 0),
            (2, 3, 4, 6, 5, 4, 3, 2),
        ],
        "F4": [(0, 1, 0, 0), (0, 1, 2, 0), (0, 1, 2, 2), (2, 3, 4, 2)],
        "G2": [(1, 0), (3, 2)],
    }
    return fixed[t]


def test_canonical_roots_match_closed_formulas():
    for t in FULL_SWEEP:
        dec = canonical_decomposition(system(t))
        assert list(dec.roots) == expected_roots(t), t


def test_factor_kinds_and_supports():
    dec = canonical_decomposition(system("F4"))
    kinds = [f.kind for f in dec.factors]
    assert kinds == ["simple", "highest", "highest", "highest"]
    assert dec.factors[1].span == (2, 3)
    assert dec.factors[3].span == (1, 2, 3, 4)
    dec = canonical_decomposition(system("A1"))
    assert [f.kind for f in dec.factors] == ["simple"]


def test_canonical_verifies_everywhere():
    for t in FULL_SWEEP:
        rs = system(t)
        report = verify_decomposition(rs, canonical_decomposition(rs))
        assert report.all_ok(), (t, report)


def test_the_canonical_decomposition_is_built_once_per_system(monkeypatch):
    # The tower, the D_n pattern and export (canonical, then tower) read the
    # cached decomposition, so the cascade runs once per system.
    clear_package_caches()
    walked = []
    monkeypatch.setattr(decompose, "_cascade", lambda rs: walked.append(rs) or _cascade(rs))
    d8 = system("D8")
    dec = canonical_decomposition(d8)
    parabolic_tower(d8)
    assert dn_orthogonality_pattern(d8)
    assert canonical_decomposition(d8) is dec
    assert cli.run(["export", "--type", "E8", "--json"])[0] == 0
    e8 = system("E8")
    assert canonical_decomposition(e8) is canonical_decomposition(e8)
    info = decompose._canonical_decomposition.cache_info()
    assert (info.misses, info.currsize) == (2, 2), info
    assert walked == [d8, e8]


def test_the_cached_decomposition_equals_a_fresh_build():
    fresh = decompose._canonical_decomposition.__wrapped__
    for t in FULL_SWEEP + ["A64", "B64", "C64", "D64"]:
        rs = system(t)
        assert canonical_decomposition(rs) == fresh(rs), t
        tower = parabolic_tower(rs)  # read off the cached decomposition
        decompose._canonical_decomposition.cache_clear()
        assert parabolic_tower(rs) == tower, t


def test_decomposition_product_is_the_longest_element():
    # Decomposition.product multiplies the factor reflections; on the
    # canonical decomposition it is w0, which the greedy walk builds apart.
    for t in FULL_SWEEP:
        rs = system(t)
        assert canonical_decomposition(rs).product() == longest_element(rs), t


def test_verify_refuses_a_value_that_is_not_a_decomposition():
    # It once raised AttributeError reading ``.roots`` off such a value.
    a3 = system("A3")
    for dec in (5, None, canonical_decomposition(a3).roots):
        with pytest.raises(DimensionMismatch, match="is not a Decomposition"):
            verify_decomposition(a3, dec)


def test_a_decomposition_of_values_that_are_not_factors_is_refused():
    # verify_decomposition and product() once raised AttributeError or
    # TypeError reading the roots of such a record.
    a3 = system("A3")
    refused = {
        (5,): "factor 5 is not a DecompositionFactor",
        ((1, 0, 0),): r"factor \(1, 0, 0\) is not a DecompositionFactor",
        5: "factor list 5 is not a sequence",
        None: "factor list None is not a sequence",
    }
    for factors, message in refused.items():
        dec = Decomposition(a3, factors)
        with pytest.raises(DimensionMismatch, match=message):
            verify_decomposition(a3, dec)
        with pytest.raises(DimensionMismatch, match=message):
            dec.product()


def test_factor_counts_formula():
    expected = {
        "A1": 1, "A2": 1, "A3": 2, "A4": 2, "A5": 3, "A6": 3, "A7": 4, "A8": 4,
        "B2": 2, "B3": 3, "B4": 4, "B5": 5, "B6": 6, "B7": 7, "B8": 8,
        "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6, "C7": 7, "C8": 8,
        "D3": 2, "D4": 4, "D5": 4, "D6": 6, "D7": 6, "D8": 8,
        "E6": 4, "E7": 7, "E8": 8, "F4": 4, "G2": 2,
    }
    for t, k in expected.items():
        assert len(canonical_decomposition(system(t)).factors) == k, t


def test_verify_detects_non_highest_factors():
    # The coordinate-frame factorization of B4 multiplies to the longest
    # element and is orthogonal, but its middle factors are not highest roots.
    rs = system("B4")
    dec = decomposition_from_roots(rs, epsilon_factorization(rs))
    report = verify_decomposition(rs, dec)
    assert report.orthogonal
    assert not report.highest_root_ok
    assert report.product_is_w0
    assert report.count_ok


def test_verify_detects_broken_chain():
    # Four mutually orthogonal highest roots of D4 whose product is the
    # longest element, yet the non-simple ones are dominance-incomparable.
    rs = system("D4")
    roots = [(0, 1, 0, 0), (0, 1, 1, 1), (1, 1, 1, 0), (1, 1, 0, 1)]
    dec = decomposition_from_roots(rs, roots)
    report = verify_decomposition(rs, dec)
    assert report.orthogonal
    assert report.highest_root_ok
    assert not report.chain_ok
    assert report.product_is_w0
    assert report.count_ok
    assert not report.all_ok()


def test_verify_detects_non_orthogonal():
    rs = system("F4")
    roots = [(1, 0, 0, 0), (0, 1, 2, 0), (0, 1, 2, 2), (2, 3, 4, 2)]
    report = verify_decomposition(rs, decomposition_from_roots(rs, roots))
    assert not report.orthogonal
    assert not report.all_ok()


def test_verify_detects_missing_factor():
    rs = system("F4")
    dec = canonical_decomposition(rs)
    short = decomposition_from_roots(rs, dec.roots[:-1])
    report = verify_decomposition(rs, short)
    assert not report.product_is_w0
    assert report.count_ok  # three factors still fit within rank four
    assert not report.all_ok()


def test_verify_detects_too_many_factors():
    # Repeating a factor exceeds the rank bound; the count check is the one
    # that refuses, independent of the product test.
    rs = system("A1")
    report = verify_decomposition(rs, decomposition_from_roots(rs, [(1,), (1,)]))
    assert not report.count_ok
    assert not report.all_ok()
    rs = system("B2")
    roots = [(1, 1), (1, 1), (0, 1)]
    report = verify_decomposition(rs, decomposition_from_roots(rs, roots))
    assert not report.count_ok


def test_canonical_factor_reflections_pairwise_commute():
    for t in FULL_SWEEP:
        rs = system(t)
        refs = [reflection_of(rs, r) for r in canonical_decomposition(rs).roots]
        for i, u in enumerate(refs):
            for v in refs[i + 1 :]:
                assert compose(u, v) == compose(v, u), t


def test_verify_rejects_non_roots():
    rs = system("A2")
    with pytest.raises(NotARoot):
        decomposition_from_roots(rs, [(2, 2)])



def test_decomposition_from_roots_refuses_entries_that_are_not_integers():
    # decomposition_from_roots once kept the float root (1.0, 1, 1) as a
    # factor, and a list root raised TypeError.
    a3 = system("A3")
    with pytest.raises(DimensionMismatch):
        decomposition_from_roots(a3, [(1.0, 1, 1), (0, 1, 0)])
    with pytest.raises(NotARoot, match="not a positive root"):
        decomposition_from_roots(a3, [(-1, -1, -1)])
    dec = decomposition_from_roots(a3, [[0, 1, 0], [1, 1, 1]])
    assert dec == canonical_decomposition(a3)
    assert verify_decomposition(a3, dec).all_ok()


def test_uniqueness_exhaustive_on_small_systems():
    for t in ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"]:
        rs = system(t)
        decs = enumerate_max_orthogonal(rs)
        assert len(decs) == 1, (t, len(decs))
        assert set(decs[0].roots) == set(canonical_decomposition(rs).roots), t
        assert verify_decomposition(rs, decs[0]).all_ok()


def test_uniqueness_exhaustive_on_the_full_sweep():
    for t in FULL_SWEEP:
        rs = system(t)
        decs = enumerate_max_orthogonal(
            rs, rank_bound=rs.rank, size_bound=len(rs.positive_roots)
        )
        assert len(decs) == 1, (t, len(decs))
        assert set(decs[0].roots) == set(canonical_decomposition(rs).roots), t
        assert verify_decomposition(rs, decs[0]).all_ok(), t


def test_uniqueness_exhaustive_beyond_the_full_sweep():
    for t in BEYOND_THE_FULL_SWEEP:
        rs = system(t)
        decs = enumerate_max_orthogonal(
            rs, rank_bound=rs.rank, size_bound=len(rs.positive_roots)
        )
        assert len(decs) == 1, (t, len(decs))
        assert set(decs[0].roots) == set(canonical_decomposition(rs).roots), t
        assert verify_decomposition(rs, decs[0]).all_ok(), t


@pytest.mark.parametrize("t", ["A64", "B64", "C64", "D64", "E8"])
def test_uniqueness_exhaustive_at_rank_64_and_on_e8(t):
    rs = system(t)
    decs = enumerate_max_orthogonal(rs, rank_bound=rs.rank, size_bound=len(rs.positive_roots))
    assert len(decs) == 1, (t, len(decs))
    assert set(decs[0].roots) == set(canonical_decomposition(rs).roots), t


def test_search_returns_the_clique_walks_factor_sequences():
    # The cascade is one of the search's paths, so comparing with it alone
    # would pass a search that returned only the cascade.  The reference is
    # the bitmask clique walk: the same factor sequences in the same order.
    types = FULL_SWEEP + BEYOND_THE_FULL_SWEEP + [
        f"{fam}{n}" for fam in "BCD" for n in range(13, 17)
    ]
    for t in types:
        rs = system(t)
        decs = enumerate_max_orthogonal(
            rs, rank_bound=rs.rank, size_bound=len(rs.positive_roots)
        )
        assert [dec.roots for dec in decs] == reference_max_orthogonal(rs), t


def test_largest_compatible_sets_of_the_unfiltered_pool():
    # Without the w0(r) = -r filter several largest sets exist, so the walk
    # back goes through more than one choice.  The reference grows every
    # compatible set straight from the definition.
    types = [f"A{n}" for n in range(1, 7)] + [
        "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "D5", "D6", "E6", "F4", "G2"
    ]
    counts = {}
    for t in types:
        rs = system(t)
        pool = [(r, S) for S, r in _highest_by_support(rs).items()]
        found = _largest_compatible_sets(rs, pool)
        sets = {frozenset(roots) for roots in found}
        assert len(sets) == len(found), t
        assert sets == brute_force_largest_compatible_sets(rs, [r for r, _ in pool]), t
        counts[t] = len(found)
    assert {t: counts[t] for t in ("A4", "A6", "D5", "E6")} == {
        "A4": 10, "A6": 33, "D5": 3, "E6": 10
    }


@pytest.mark.parametrize("t", FULL_SWEEP + ["A64", "B64", "C64", "D64"])
def test_the_sigma_fixed_pool_is_the_pool_w0_negates(t):
    rs = system(t)
    pool = _negated_pool(rs, classify_longest(rs).automorphism)
    assert all(S == support(r) for r, S in pool), t
    assert {r for r, _ in pool} == set(dense_negated_pool(rs)), t


def test_search_depth_is_the_canonical_factor_count():
    # The search takes d = dim E_-1(w0) from the diagram involution alone;
    # the cascade reaches the same number by its own route.
    for t in FULL_SWEEP:
        rs = system(t)
        d = _minus_one_dimension(classify_longest(rs).automorphism)
        assert d == len(canonical_decomposition(rs).factors), t


def test_search_checks_each_leaf_by_the_literal_product(monkeypatch):
    # A leaf whose product is not w0 contradicts the eigenspace argument the
    # search rests on, so it must stop the search (also under python -O).
    monkeypatch.setattr(
        decompose, "reflection_product", lambda rs, roots: identity_matrix(rs.rank)
    )
    with pytest.raises(RuntimeError, match="do not multiply to w0"):
        enumerate_max_orthogonal(system("B3"))


def test_enumeration_guard():
    with pytest.raises(TooLarge):
        enumerate_max_orthogonal(system("E7"))
    with pytest.raises(TooLarge):
        enumerate_max_orthogonal(system("B5"), size_bound=20)
    # rank over the bound is fine while the root count stays under it
    assert len(enumerate_max_orthogonal(system("A5"))) == 1
    # raising the size bound admits E7
    decs = enumerate_max_orthogonal(system("E7"), size_bound=63)
    assert len(decs) == 1


def test_enumeration_without_chain_condition_would_differ_on_d4():
    # The D4 set from test_verify_detects_broken_chain passes every check
    # except the chain, so the enumerator must not report it.
    rs = system("D4")
    decs = enumerate_max_orthogonal(rs)
    reported = {frozenset(d.roots) for d in decs}
    assert frozenset([(0, 1, 0, 0), (0, 1, 1, 1), (1, 1, 1, 0), (1, 1, 0, 1)]) not in reported


def test_recursion_relation_sweep():
    eligible = (
        [f"A{n}" for n in range(3, 9)]
        + [f"B{n}" for n in range(4, 9)]
        + [f"C{n}" for n in range(3, 9)]
        + [f"D{n}" for n in range(6, 9)]
        + ["E6", "E7", "E8", "F4"]
    )
    for t in eligible:
        assert recursion_relation_check(system(t)), t


def test_recursion_relation_undefined_types():
    for t in ["A1", "A2", "B2", "B3", "C2", "D3", "D4", "D5", "G2"]:
        with pytest.raises(NoRelation):
            recursion_relation_check(system(t))


def test_recursion_walks_w0_of_J_in_the_systems_own_letters():
    # The walk from the identity with its letters taken from J stops after
    # |positive roots of J| steps, at the element the embedded route builds
    # through the abstract system of J; both routes give the same verdict.
    eligible = [t for t in FULL_SWEEP if t not in decompose._NO_RELATION]
    for t in eligible + ["A64", "B64", "C64", "D64"]:
        rs = system(t)
        _, perp = next(_cascade(rs))
        J = max(perp, key=len)
        word = list(_greedy_walk(rs.simple_coroots, [1] * rs.rank, J))
        assert len(word) == sum(1 for r in rs.positive_roots if set(support(r)) <= set(J)), t
        embedded, tail = embedded_recursion_roots(rs)
        assert evaluate_word(rs, word) == reflection_product(rs, embedded), t
        holds = reflection_product(rs, embedded + tail) == longest_element(rs)
        assert recursion_relation_check(rs) is holds is True, t


def test_recursion_builds_no_inner_system():
    clear_package_caches()
    assert recursion_relation_check(system("A16"))
    assert build_root_system.cache_info().currsize == 1


def test_parabolic_towers():
    expected = {
        "A1": ((1,),),
        "A2": ((1, 2),),
        "A5": ((3,), (2, 3, 4), (1, 2, 3, 4, 5)),
        "B4": ((3, 4), (1, 2, 3, 4)),
        "B5": ((5,), (3, 4, 5), (1, 2, 3, 4, 5)),
        "C3": ((3,), (2, 3), (1, 2, 3)),
        "D3": ((1, 2, 3),),
        "D6": ((3, 4, 5, 6), (1, 2, 3, 4, 5, 6)),
        "E6": ((4,), (3, 4, 5), (1, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6)),
        "E7": ((2,), (2, 3, 4, 5), (2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7)),
        "E8": (
            (2, 3, 4, 5),
            (2, 3, 4, 5, 6, 7),
            (1, 2, 3, 4, 5, 6, 7),
            (1, 2, 3, 4, 5, 6, 7, 8),
        ),
        "F4": ((2,), (2, 3), (2, 3, 4), (1, 2, 3, 4)),
        "G2": ((1,), (1, 2)),
    }
    for t, exp in expected.items():
        assert parabolic_tower(system(t)).supports == exp, t


def test_towers_ascend_and_end_full():
    for t in FULL_SWEEP:
        rs = system(t)
        supports = parabolic_tower(rs).supports
        for a, b in zip(supports, supports[1:]):
            assert set(a) < set(b), (t, a, b)
        assert supports[-1] == tuple(range(1, rs.rank + 1)), t


def test_tower_supports_match_highest_factors():
    for t in FULL_SWEEP:
        rs = system(t)
        supports = set(parabolic_tower(rs).supports)
        for f in canonical_decomposition(rs).factors:
            if f.kind == "highest":
                assert f.span in supports, (t, f)


def test_epsilon_factorization_fixtures():
    assert epsilon_factorization(system("B2")) == ((1, 1), (0, 1))
    assert epsilon_factorization(system("C3")) == ((2, 2, 1), (0, 2, 1), (0, 0, 1))


def test_epsilon_factorization_properties():
    for t in ["B3", "B5", "C4", "C6"]:
        rs = system(t)
        roots = epsilon_factorization(rs)
        assert len(roots) == rs.rank
        for r in roots:
            assert r in rs.root_index, (t, r)
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                assert pairing2(rs, roots[i], roots[j]) == 0
        product = identity_matrix(rs.rank)
        for r in roots:
            product = compose(product, reflection_of(rs, r))
        assert product == longest_element(rs), t


def test_epsilon_factorization_is_the_per_family_formula_at_every_rank():
    for n in range(2, 65):
        for fam in "BC":
            rs = system(f"{fam}{n}")
            assert epsilon_factorization(rs) == formula_epsilon_factorization(rs), rs.type


def test_epsilon_factorization_wrong_family():
    for t in ["A3", "D4", "E6", "F4", "G2"]:
        with pytest.raises(WrongFamily):
            epsilon_factorization(system(t))


def test_epsilon_matches_canonical_roots_exactly_in_family_c():
    # In family C the coordinate-frame roots are the canonical factor roots;
    # in family B the two maximal orthogonal sets genuinely differ.
    for t in ["C2", "C3", "C4", "C5", "C6"]:
        rs = system(t)
        assert set(epsilon_factorization(rs)) == set(canonical_decomposition(rs).roots), t
    for t in ["B3", "B4", "B5"]:
        rs = system(t)
        assert set(epsilon_factorization(rs)) != set(canonical_decomposition(rs).roots), t


def test_dn_orthogonality_pattern_sweep():
    for n in range(4, 9):
        assert dn_orthogonality_pattern(system(f"D{n}")), n


def test_dn_orthogonality_pattern_details():
    # In D6 the even-index simple roots a2 and a4 each meet exactly two
    # non-simple factors, while a1 and a3 meet none.
    rs = system("D6")
    chains = [f.root for f in canonical_decomposition(rs).factors if f.kind == "highest"]
    for i, expected in [(1, 0), (2, 2), (3, 0)]:
        hits = sum(
            1
            for r in chains
            if pairing2(rs, tuple(1 if j == i else 0 for j in range(1, 7)), r) != 0
        )
        assert hits == expected


def test_dn_orthogonality_pattern_wrong_family():
    with pytest.raises(WrongFamily):
        dn_orthogonality_pattern(system("D3"))
    with pytest.raises(WrongFamily):
        dn_orthogonality_pattern(system("B4"))


def test_highest_factors_agree_with_parabolic_search():
    # dual route: each non-simple canonical factor equals the highest root
    # computed independently from its own support
    for t in ["B6", "C5", "D7", "E7", "F4"]:
        rs = system(t)
        for f in canonical_decomposition(rs).factors:
            if f.kind == "highest":
                assert highest_root_of(rs, f.span) == f.root
