"""Reflections, words, lengths, the longest element, reduced-word counting."""
from __future__ import annotations

import random
from functools import lru_cache, reduce
from itertools import islice
from math import prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyldecomp import (
    BadLetter,
    DimensionMismatch,
    NotARoot,
    TooLarge,
    apply_matrix,
    cartan_integer,
    classify_longest,
    compose,
    count_reduced_words,
    descents,
    evaluate_word,
    identity_matrix,
    canonical_decomposition,
    epsilon_factorization,
    length_of,
    longest_element,
    pairing2,
    preserves_form,
    reduced_word_of,
    reflection_of,
    simple_reflection,
    support,
    system,
)
from weyldecomp.rootsys import _greedy_walk, _two_rho, negate
from weyldecomp.weyl import _group_order, _word_columns, reflection_product

from util import (
    FULL_SWEEP,
    GROUP_ORDER,
    SUPPORTED,
    brute_force_reduced_word_count,
    degrees,
    full_sweep_reduced_word_count,
    generate_group,
    reference_descents,
    reference_greedy_walk,
    reference_longest_element,
    reference_reduced_word,
    syt_count,
    tuple_evaluate_word,
    tuple_reflection_product,
)


def test_reflection_is_involutive_and_form_preserving():
    for t in ["A3", "B3", "C3", "D4", "F4", "G2"]:
        rs = system(t)
        for r in rs.positive_roots:
            s = reflection_of(rs, r)
            assert compose(s, s) == identity_matrix(rs.rank)
            assert preserves_form(rs, s)
            assert apply_matrix(s, r) == tuple(-c for c in r)


def test_reflection_requires_a_root():
    with pytest.raises(NotARoot):
        reflection_of(system("A2"), (1, 2))


def test_reflection_columns_follow_the_definition():
    # column j of s_r is s_r(a_j) = a_j - <a_j, r-check> r
    for t in FULL_SWEEP:
        rs = system(t)
        for r in rs.positive_roots:
            s = reflection_of(rs, r)
            for j in range(1, rs.rank + 1):
                a_j = rs.simple_root(j)
                c = cartan_integer(rs, a_j, r)
                assert tuple(row[j - 1] for row in s) == tuple(
                    x - c * y for x, y in zip(a_j, r)
                )


def test_simple_reflection_columns():
    a2 = system("A2")
    s1 = simple_reflection(a2, 1)
    # column i is the image of the i-th simple root
    assert apply_matrix(s1, (1, 0)) == (-1, 0)
    assert apply_matrix(s1, (0, 1)) == (1, 1)
    assert s1 == ((-1, 1), (0, 1))


def test_compose_applies_right_factor_first():
    a2 = system("A2")
    s1, s2 = simple_reflection(a2, 1), simple_reflection(a2, 2)
    m = compose(s1, s2)
    # (s1 . s2)(a2) = s1(s2(a2)) = s1(-a2) = -a1 - a2... as vectors:
    assert apply_matrix(m, (0, 1)) == apply_matrix(s1, apply_matrix(s2, (0, 1)))
    with pytest.raises(DimensionMismatch):
        compose(s1, identity_matrix(3))


def test_compose_refuses_entries_that_are_not_integers():
    a2 = system("A2")
    s1 = simple_reflection(a2, 1)
    for bad in [((1.0, 0), (0, 1)), ((1, 0), (0, 0.5)), ("ab", (0, 1))]:
        with pytest.raises(DimensionMismatch):
            compose(bad, s1)
        with pytest.raises(DimensionMismatch):
            compose(s1, bad)
    assert compose([list(row) for row in s1], [[True, False], [0, 1]]) == s1



def test_compose_refuses_ragged_matrices():
    # compose(I, ((1, 0), (0,))) once returned the 2x1 ((1,), (0,)); an
    # over-long row of u was ignored and a short one raised IndexError.
    identity = identity_matrix(2)
    for ragged in [((1, 0), (0,)), ((1, 0), (0, 1, 0)), ((1,), (0, 1)), ((1, 0), 5)]:
        with pytest.raises(DimensionMismatch):
            compose(identity, ragged)
        with pytest.raises(DimensionMismatch):
            compose(ragged, identity)
    assert compose((), ()) == ()


def test_evaluate_word_is_right_to_left():
    a2 = system("A2")
    assert evaluate_word(a2, [1, 2]) == compose(
        simple_reflection(a2, 1), simple_reflection(a2, 2)
    )
    assert evaluate_word(a2, []) == identity_matrix(2)
    with pytest.raises(BadLetter):
        evaluate_word(a2, [1, 3])
    with pytest.raises(BadLetter):
        evaluate_word(a2, [0])


def test_evaluate_word_refuses_letters_that_are_not_integers():
    a2 = system("A2")
    for letter in [1.0, 1.5, "1", None]:
        with pytest.raises(BadLetter):
            evaluate_word(a2, [letter])
    # a bool is not a letter, although operator.index accepts it
    with pytest.raises(BadLetter):
        evaluate_word(a2, [True])
    with pytest.raises(BadLetter):
        evaluate_word(a2, [2, False])


def test_braid_relations_hold():
    a2 = system("A2")
    assert evaluate_word(a2, [1, 2, 1]) == evaluate_word(a2, [2, 1, 2])
    b2 = system("B2")
    assert evaluate_word(b2, [1, 2, 1, 2]) == evaluate_word(b2, [2, 1, 2, 1])
    g2 = system("G2")
    assert evaluate_word(g2, [1, 2, 1, 2, 1, 2]) == evaluate_word(g2, [2, 1, 2, 1, 2, 1])


def test_word_in_a2_gives_reflection_in_the_sum():
    a2 = system("A2")
    assert evaluate_word(a2, [1, 2, 1]) == reflection_of(a2, (1, 1))


def test_length_counts_inverted_positive_roots():
    for t in ["A3", "B3", "G2"]:
        rs = system(t)
        assert length_of(rs, identity_matrix(rs.rank)) == 0
        for i in range(1, rs.rank + 1):
            assert length_of(rs, simple_reflection(rs, i)) == 1
    g2 = system("G2")
    # reflections have odd length
    for r in g2.positive_roots:
        assert length_of(g2, reflection_of(g2, r)) % 2 == 1


def test_longest_element_inverts_every_positive_root():
    for t in FULL_SWEEP:
        rs = system(t)
        w0 = longest_element(rs)
        assert length_of(rs, w0) == sum(d - 1 for d in degrees(t))
        for r in rs.positive_roots[: min(len(rs.positive_roots), 12)]:
            image = apply_matrix(w0, r)
            assert all(c <= 0 for c in image)
        assert compose(w0, w0) == identity_matrix(rs.rank)


def test_reduced_word_of_w0_is_the_word_the_system_keeps():
    # For w0, in any shape the matrix reader takes, reduced_word_of returns
    # the word kept from the build's walk, which is the word the descent
    # walk from w0 finds; one changed entry takes the walk, which refuses it.
    for t in ["A1", "A4", "B3", "D5", "E6", "F4", "G2"]:
        rs = system(t)
        w0 = [list(row) for row in longest_element(rs)]
        walked = tuple(_greedy_walk(rs.simple_coroots, [-sum(col) for col in zip(*w0)]))
        assert reduced_word_of(rs, w0) is rs.longest_word == walked[::-1], t
        w0[-1][0] += 1
        with pytest.raises(ValueError):
            reduced_word_of(rs, w0)


def test_classification_full_table():
    minus_identity = (
        [f"B{n}" for n in range(2, 9)]
        + [f"C{n}" for n in range(2, 9)]
        + ["A1", "D4", "D6", "D8", "E7", "E8", "F4", "G2"]
    )
    for t in minus_identity:
        cls = classify_longest(system(t))
        assert cls.kind == "minus_identity", t
        assert cls.automorphism == tuple(range(1, system(t).rank + 1))
    for n in range(2, 9):
        cls = classify_longest(system(f"A{n}"))
        assert cls.kind == "minus_automorphism"
        assert cls.automorphism == tuple(range(n, 0, -1))
    for t, perm in [("D3", (1, 3, 2)), ("D5", (1, 2, 3, 5, 4)), ("D7", (1, 2, 3, 4, 5, 7, 6))]:
        cls = classify_longest(system(t))
        assert cls.kind == "minus_automorphism"
        assert cls.automorphism == perm
    cls = classify_longest(system("E6"))
    assert cls.kind == "minus_automorphism"
    assert cls.automorphism == (6, 2, 5, 4, 3, 1)


def test_longest_element_is_minus_permutation_matrix():
    for t in FULL_SWEEP:
        rs = system(t)
        cls = classify_longest(rs)
        n = rs.rank
        p = tuple(
            tuple(1 if cls.automorphism[j] == i + 1 else 0 for j in range(n))
            for i in range(n)
        )
        minus_p = tuple(tuple(-e for e in row) for row in p)
        assert longest_element(rs) == minus_p, t


def test_group_enumeration_matches_orders_and_descents():
    for t, order in GROUP_ORDER.items():
        rs = system(t)
        elements = generate_group(rs)
        assert len(elements) == order, t
        # BFS depth equals Coxeter length
        for m, depth in elements.items():
            assert length_of(rs, m) == depth
        # the longest element is the unique element of maximal length
        w0 = longest_element(rs)
        top = max(elements.values())
        assert elements[w0] == top == len(rs.positive_roots)
        assert sum(1 for d in elements.values() if d == top) == 1


def test_a3_length_histogram():
    # Frozen oracle: coefficients of (1+q)(1+q+q^2)(1+q+q^2+q^3).
    rs = system("A3")
    elements = generate_group(rs)
    histogram = [0] * (len(rs.positive_roots) + 1)
    for d in elements.values():
        histogram[d] += 1
    assert histogram == [1, 3, 5, 6, 5, 3, 1]


def test_walks_check_the_matrix_dimension():
    a3 = system("A3")
    too_small = identity_matrix(2)
    too_tall = identity_matrix(3) + ((0, 0, 0),)
    too_wide = tuple(row + (0,) for row in identity_matrix(3))
    ragged = ((1, 0, 0), (0, 1), (0, 0, 1))
    for m in [too_small, too_tall, too_wide, ragged]:
        for walk in [descents, length_of, reduced_word_of, count_reduced_words]:
            with pytest.raises(DimensionMismatch):
                walk(a3, m)


def test_walks_refuse_matrix_entries_that_are_not_integers():
    # The float identity once had length 0 and the float w0 16 reduced words;
    # a str entry ended descents in a TypeError.
    a3 = system("A3")
    float_identity = tuple(tuple(map(float, row)) for row in identity_matrix(3))
    float_w0 = tuple(tuple(map(float, row)) for row in longest_element(a3))
    half = ((0.5, 0, 0), (0, 1, 0), (0, 0, 1))
    with_str = ((1, 0, 0), (0, "1", 0), (0, 0, 1))
    for m in [float_identity, float_w0, half, with_str]:
        for walk in [descents, length_of, reduced_word_of, count_reduced_words]:
            with pytest.raises(DimensionMismatch, match="not an integer"):
                walk(a3, m)


def test_preserves_form_and_apply_matrix_refuse_entries_that_are_not_integers():
    # In A3, preserves_form once gave True for the float identity and
    # apply_matrix(I, (0.5, 0, 0)) returned (0.5, 0.0, 0.0).
    a3 = system("A3")
    identity = identity_matrix(3)
    float_identity = tuple(tuple(map(float, row)) for row in identity)
    half = ((0.5, 0, 0), (0, 1, 0), (0, 0, 1))
    with_str = ((1, 0, 0), (0, "1", 0), (0, 0, 1))
    for m in [float_identity, half, with_str]:
        with pytest.raises(DimensionMismatch, match="not an integer"):
            preserves_form(a3, m)
        with pytest.raises(DimensionMismatch, match="not an integer"):
            apply_matrix(m, (1, 0, 0))
    for x in [(0.5, 0, 0), (1.0, 0, 0), (0, "1", 0), (None, 0, 0)]:
        with pytest.raises(DimensionMismatch, match="not an integer"):
            apply_matrix(identity, x)
    assert preserves_form(a3, identity)
    assert apply_matrix(identity, [1, -2, 3]) == (1, -2, 3)


def test_apply_matrix_checks_every_row_length():
    a3 = system("A3")
    too_wide = tuple(row + (0,) for row in identity_matrix(3))
    ragged = ((1, 0, 0), (0, 1), (0, 0, 1))
    for m in [too_wide, ragged]:
        with pytest.raises(DimensionMismatch):
            apply_matrix(m, (1, 1, 1))
        with pytest.raises(DimensionMismatch):
            preserves_form(a3, m)


def test_descents_characterize_length_drops():
    for t in ["A3", "B3"]:
        rs = system(t)
        for m in generate_group(rs):
            expected = [
                i
                for i in range(1, rs.rank + 1)
                if length_of(rs, compose(m, simple_reflection(rs, i))) < length_of(rs, m)
            ]
            assert descents(rs, m) == expected


def test_reduced_word_roundtrip():
    for t in ["A3", "B3", "G2"]:
        rs = system(t)
        for m, depth in generate_group(rs).items():
            word = reduced_word_of(rs, m)
            assert len(word) == depth
            assert evaluate_word(rs, word) == m


def test_reduced_word_of_longest_element_in_g2():
    g2 = system("G2")
    word = reduced_word_of(g2, longest_element(g2))
    assert len(word) == 6
    assert evaluate_word(g2, word) == longest_element(g2)


def test_count_reduced_words_against_brute_force():
    for t in ["A2", "B2", "G2"]:
        rs = system(t)
        w0 = longest_element(rs)
        expected = brute_force_reduced_word_count(rs, w0, len(rs.positive_roots))
        assert count_reduced_words(rs, w0) == expected, t
    a3 = system("A3")
    w0 = longest_element(a3)
    assert count_reduced_words(a3, w0) == brute_force_reduced_word_count(a3, w0, 6) == 16


def test_count_reduced_words_of_identity_and_simple():
    a3 = system("A3")
    assert count_reduced_words(a3, identity_matrix(3)) == 1
    assert count_reduced_words(a3, simple_reflection(a3, 2)) == 1


def test_count_reduced_words_a5_fixture():
    a5 = system("A5")
    assert count_reduced_words(a5, longest_element(a5)) == 292864


def test_count_reduced_words_state_bound():
    a4 = system("A4")
    with pytest.raises(TooLarge):
        count_reduced_words(a4, longest_element(a4), state_bound=10)


def test_group_order_from_root_heights():
    for t, order in GROUP_ORDER.items():
        assert _group_order(system(t)) == order
    assert _group_order(system("E8")) == 696729600


def test_group_order_and_root_count_from_the_degrees():
    for t in FULL_SWEEP:
        rs = system(t)
        ds = degrees(t)
        assert len(ds) == rs.rank, t
        assert _group_order(rs) == prod(ds), t
        assert len(rs.positive_roots) == sum(d - 1 for d in ds), t


def _defined_reflection(rs, a):
    # column j is s_a(a_j) = a_j - <a_j, a-check> a, the Cartan integer
    # being 2(a_j, a)/(a, a) from the doubled pairing
    cols = []
    for j in range(1, rs.rank + 1):
        a_j = rs.simple_root(j)
        c, rem = divmod(2 * pairing2(rs, a_j, a), pairing2(rs, a, a))
        assert rem == 0
        cols.append(tuple(x - c * y for x, y in zip(a_j, a)))
    return tuple(zip(*cols))


def test_walks_equal_a_dense_fold_of_defined_reflections():
    for t in FULL_SWEEP + ["A15", "B12", "C13", "D12"]:
        rs = system(t)
        n = rs.rank

        def fold(roots):
            matrices = (_defined_reflection(rs, r) for r in roots)
            return reduce(compose, matrices, identity_matrix(n))

        w0 = longest_element(rs)
        word = reduced_word_of(rs, w0)
        assert len(word) == len(rs.positive_roots), t
        dense_w0 = fold(rs.simple_root(i) for i in word)
        assert w0 == dense_w0 == evaluate_word(rs, word), t
        assert all(apply_matrix(dense_w0, r) < (0,) * n for r in rs.positive_roots), t
        rng = random.Random(t)
        for _ in range(5):
            letters = [rng.randint(1, n) for _ in range(rng.randint(0, 3 * n))]
            assert evaluate_word(rs, letters) == fold(rs.simple_root(i) for i in letters), t
        for r in rs.positive_roots:
            s = _defined_reflection(rs, r)
            assert reflection_of(rs, r) == s == reflection_of(rs, negate(r)), (t, r)
        cascade = canonical_decomposition(rs).roots
        assert reflection_product(rs, cascade) == fold(cascade) == w0, t
        if rs.family in "BC":
            frame = epsilon_factorization(rs)
            assert reflection_product(rs, frame) == fold(frame) == w0, t


def test_column_kernel_equals_dense_compose_on_random_words():
    # Products of reflections in random roots, positive and negative, so the
    # kernel's update col_j - c_j v meets c_j = +-1, +-2 (B, C, F4) and
    # +-3 (G2), each against the dense fold of defined reflections.
    for t, top in {"A4": 1, "B4": 2, "C4": 2, "F4": 2, "G2": 3}.items():
        rs = system(t)
        roots = list(rs.positive_roots) + [negate(r) for r in rs.positive_roots]
        rng = random.Random(t)
        seen = set()
        for _ in range(30):
            word = [rng.choice(roots) for _ in range(rng.randint(1, 10))]
            dense = reduce(compose, (_defined_reflection(rs, r) for r in word))
            assert reflection_product(rs, word) == dense, (t, word)
            seen.update(
                cartan_integer(rs, rs.simple_root(j), r)
                for r in word
                for j in range(1, rs.rank + 1)
            )
        assert {1, -1, top, -top} <= seen, t


def test_packed_walk_equals_the_tuple_walk():
    # The longest element's word and random words of simple letters, and
    # random products of roots of either sign, the highest root included,
    # whose coefficients are the largest a column can take.
    for t in FULL_SWEEP + ["A64", "B64", "C64", "D64"]:
        rs = system(t)
        rng = random.Random(t)
        letters = range(1, rs.rank + 1)
        words = [reduced_word_of(rs, longest_element(rs)), []]
        words += [rng.choices(letters, k=rng.randint(1, 3 * rs.rank)) for _ in range(5)]
        for word in words:
            assert evaluate_word(rs, word) == tuple_evaluate_word(rs, word), (t, word)
        roots = list(rs.positive_roots) + [negate(r) for r in rs.positive_roots]
        for _ in range(5):
            chosen = rng.choices(roots, k=rng.randint(1, 8)) + [rs.highest_root]
            rng.shuffle(chosen)
            expected = tuple_reflection_product(rs, chosen)
            assert reflection_product(rs, chosen) == expected, (t, chosen)


def test_count_reduced_words_refuses_large_longest_element_at_once():
    e7 = system("E7")
    with pytest.raises(TooLarge, match="2903040"):
        count_reduced_words(e7, longest_element(e7))


def test_count_reduced_words_of_every_element():
    # Second route: count length-decreasing paths m -> m.s_i -> ... -> I over
    # the BFS depth map, and collect the elements each walk passes through,
    # whose number is what ``state_bound`` limits.
    for t in ["A4", "B3", "D4", "G2"]:
        rs = system(t)
        depth = generate_group(rs)
        gens = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
        paths = {}
        below = {}
        for m in sorted(depth, key=depth.get):
            lower = [mg for mg in (compose(m, g) for g in gens) if depth[mg] < depth[m]]
            paths[m] = sum(paths[mg] for mg in lower) if lower else 1
            below[m] = frozenset([m]).union(*(below[mg] for mg in lower))
        for m, expected in paths.items():
            assert count_reduced_words(rs, m, state_bound=len(below[m])) == expected, t
            if depth[m]:
                with pytest.raises(TooLarge):
                    count_reduced_words(rs, m, state_bound=len(below[m]) - 1)


def test_half_sweep_of_the_longest_element_equals_the_full_sweep():
    for t in FULL_SWEEP:
        if prod(degrees(t)) > 10**5:
            continue
        rs = system(t)
        w0 = longest_element(rs)
        assert count_reduced_words(rs, w0) == full_sweep_reduced_word_count(rs, w0), t


def test_longest_element_word_counts_equal_tableau_counts():
    # Stanley (1984): staircase tableaux in A_n; Haiman (1992): n x n square
    # tableaux in B_n and C_n.
    for n in range(1, 7):
        rs = system(f"A{n}")
        staircase = tuple(range(n, 0, -1))
        assert count_reduced_words(rs, longest_element(rs)) == syt_count(staircase), n
    for t in [f"{fam}{n}" for fam in "BC" for n in range(2, 6)]:
        rs = system(t)
        square = (rs.rank,) * rs.rank
        assert count_reduced_words(rs, longest_element(rs)) == syt_count(square), t


def test_non_elements_raise_value_error():
    a2 = system("A2")
    for m in [((0, 1), (1, 0)), ((-1, 0), (0, -1)), ((2, 0), (0, 2)), ((0, 0), (0, 0))]:
        with pytest.raises(ValueError, match="not a Weyl group element"):
            reduced_word_of(a2, m)
        with pytest.raises(ValueError, match="not a Weyl group element"):
            count_reduced_words(a2, m)
        with pytest.raises(ValueError, match="not a Weyl group element"):
            length_of(a2, m)
        with pytest.raises(ValueError, match="not a Weyl group element"):
            descents(a2, m)


def test_count_reduced_words_of_a_long_element_hits_the_state_bound():
    a32 = system("A32")
    m = compose(longest_element(a32), simple_reflection(a32, 1))
    with pytest.raises(TooLarge, match="exceeded 1000 states"):
        count_reduced_words(a32, m, state_bound=1000)


def test_a_state_bound_below_one_refuses_every_element():
    # The element the count starts from is its first state, so a bound below
    # 1 admits no element, the identity included; w0 keeps its own message.
    a3 = system("A3")
    for bound in (0, -5):
        for m in (identity_matrix(3), simple_reflection(a3, 1)):
            with pytest.raises(TooLarge, match=f"^reduced-word search exceeded {bound} states$"):
                count_reduced_words(a3, m, state_bound=bound)
        with pytest.raises(TooLarge, match=f"needs 24 states, over the bound of {bound}$"):
            count_reduced_words(a3, longest_element(a3), state_bound=bound)
    assert count_reduced_words(a3, identity_matrix(3), state_bound=1) == 1


def test_two_rho_separates_the_elements_of_the_group():
    for t in ["A3", "B3", "G2"]:
        rs = system(t)
        group = generate_group(rs)
        assert len(group) == GROUP_ORDER[t]
        images = {u: apply_matrix(u, _two_rho(rs)) for u in group}
        for u in group:
            for v in group:
                assert (u == v) == (images[u] == images[v]), t


def test_two_rho_does_not_separate_diagram_automorphisms():
    # -I is not in W(A2), yet it moves 2 rho exactly as w0 does.
    a2 = system("A2")
    minus_identity = ((-1, 0), (0, -1))
    w0 = longest_element(a2)
    assert minus_identity != w0
    two_rho = _two_rho(a2)
    assert apply_matrix(minus_identity, two_rho) == apply_matrix(w0, two_rho) == (-2, -2)


def _packed_label_pass(rs) -> tuple[bytes, bytes]:
    """The coefficients and the Dynkin labels <b, a_j-check> of the positive
    roots b, as bytes: the coefficients, non-negative, root after root, and
    the labels with 128 added to each, node after node, each node's labels in
    root order.  Coefficient k of every root is read as one int, and row j of
    the simple coroots combines those into the labels at node j."""
    n, count = rs.rank, len(rs.positive_roots)
    data = b"".join(map(bytes, rs.positive_roots))
    packed = [int.from_bytes(data[k::n], "little") for k in range(n)]
    half = int.from_bytes(b"\x80" * count, "little")
    rows = [sum(c * packed[k] for k, c in row) + half for row in rs.simple_coroots]
    return data, b"".join(x.to_bytes(count, "little") for x in rows)


def _largest_coroot_label(rs, labels: bytes) -> int:
    """The largest <2 rho, b-check> = 2 (2 rho, b) / (b, b) over positive roots
    b, given the labels of ``_packed_label_pass``.  <2 rho, a_j-check> = 2
    gives (2 rho, a_j) = (a_j, a_j), so with the doubled Gram matrix and
    w_j = b_j gram2[j][j] / 2, 2 (2 rho, b) = 2 sum_j w_j, and
    2 (b, b) = sum_j w_j <b, a_j-check>: the labels as read, 128 too large,
    give sum_j w_j p_j - 128 sum_j w_j."""
    half = [row[j] // 2 for j, row in enumerate(rs.gram2)]
    count = len(rs.positive_roots)
    largest = 0
    for k, b in enumerate(rs.positive_roots):
        w = list(map(mul, b, half))
        total = sum(w)
        largest = max(largest, 4 * total // (sum(map(mul, w, labels[k::count])) - 128 * total))
    return largest


def test_labels_of_images_of_two_rho_are_coroot_pairings():
    # <u(2 rho), a_i-check> = <2 rho, u^-1(a_i)-check>, and u^-1(a_i) runs
    # over every root, so the largest |label| of a W-image of 2 rho is the
    # largest pairing of 2 rho with a positive coroot.
    for t in GROUP_ORDER:
        rs = system(t)
        two_rho = _two_rho(rs)
        simple = [rs.simple_root(i) for i in range(1, rs.rank + 1)]
        largest = max(
            abs(cartan_integer(rs, apply_matrix(u, two_rho), a))
            for u in generate_group(rs)
            for a in simple
        )
        assert largest == _largest_coroot_label(rs, _packed_label_pass(rs)[1]), t


def test_labels_fit_a_signed_16_bit_lane_on_every_supported_type():
    # count_reduced_words packs the labels in 16-bit lanes.  The largest
    # pairing is twice the height of the highest coroot, 2(h - 1) for the
    # Coxeter number h = 2N / rank.  The root enumeration packs each root's
    # labels and coefficients in signed bytes.
    assert len(SUPPORTED) == 257
    largest = {}
    bounds = []
    for t in SUPPORTED:
        rs = system(t)
        twice_n = 2 * len(rs.positive_roots)
        assert twice_n % rs.rank == 0, t
        data, labels = _packed_label_pass(rs)
        largest[t] = _largest_coroot_label(rs, labels)
        assert largest[t] == 2 * (twice_n // rs.rank - 1), t
        bounds.append((min(labels) - 128, max(labels) - 128, min(data), max(data)))
    top = max(largest.values())
    assert top == 254 < 2**15
    assert [t for t, v in largest.items() if v == top] == ["B64", "C64"]
    low, high, least, most = zip(*bounds)
    assert (min(low), max(high), min(least), max(most)) == (-3, 3, 0, 6)


def test_count_reduced_words_at_rank_64_equals_the_full_sweep():
    # Short non-longest words: through node 64 of B and C, at the end of the
    # double bond, and through the fork of D at nodes 62, 63 and 64.
    words = {
        "A64": (1, 2, 1, 63, 64, 63, 32, 33),
        "B64": (64, 63, 64, 63, 62, 63, 1),
        "C64": (63, 64, 63, 64, 62, 61, 2),
        "D64": (62, 63, 64, 62, 61, 62, 60),
    }
    for t, word in words.items():
        rs = system(t)
        m = evaluate_word(rs, word)
        assert m != longest_element(rs)
        count = count_reduced_words(rs, m)
        assert count == full_sweep_reduced_word_count(rs, m) > 1, t


def test_count_reduced_words_takes_the_longest_element_as_lists():
    # w0 given as lists of lists is still w0: refused at once above the
    # bound, and counted by the half sweep below it.
    e7 = system("E7")
    with pytest.raises(TooLarge, match="needs 2903040 states"):
        count_reduced_words(e7, [list(row) for row in longest_element(e7)])
    a5 = system("A5")
    assert count_reduced_words(a5, [list(row) for row in longest_element(a5)]) == 292864


def test_walks_pick_the_reference_letters_on_every_element():
    for t in ["A3", "B3", "C3", "D4", "G2"]:
        rs = system(t)
        for m in generate_group(rs):
            assert reduced_word_of(rs, m) == reference_reduced_word(rs, m), (t, m)
            assert descents(rs, m) == reference_descents(rs, m), (t, m)


def test_longest_element_and_its_word_match_the_reference_walk():
    for t in FULL_SWEEP + ["A16", "B12", "C13", "D12"]:
        rs = system(t)
        w0 = longest_element(rs)
        assert w0 == reference_longest_element(rs), t
        assert reduced_word_of(rs, w0) == reference_reduced_word(rs, w0), t


@pytest.mark.parametrize("t", ["A64", "B64", "C64", "D64"])
def test_longest_element_matches_the_reference_walk_at_rank_64(t):
    rs = system(t)
    assert longest_element(rs) == reference_longest_element(rs), t


def test_reduced_words_of_random_elements_match_the_reference_walk():
    # Elements reached by random words of up to N letters on every type of
    # the sweep, where the exhaustive test above covers five small types.
    for t in FULL_SWEEP:
        rs = system(t)
        rng = random.Random(t)
        for _ in range(6):
            letters = rng.choices(range(1, rs.rank + 1), k=rng.randint(0, len(rs.positive_roots)))
            m = evaluate_word(rs, letters)
            assert reduced_word_of(rs, m) == reference_reduced_word(rs, m), (t, letters)


def test_greedy_walk_matches_the_linear_scan_reference():
    # Any set of allowed letters, connected or not, from the column heights
    # of a random element and from arbitrary integer heights.  Heights are
    # the labels <a_j, l> of a coweight l, and each step takes one root out
    # of {b > 0 : <b, l> > 0}, so every start stops within N steps, and
    # within N_J, the positive roots supported in J, on the letters J.  On
    # m's columns packed in 1-byte lanes the walk takes the letters it takes
    # on their heights, and ends at m times those letters.
    for t in FULL_SWEEP + ["A64", "B64", "C64", "D64"]:
        rs = system(t)
        rng = random.Random(t)
        nodes = range(1, rs.rank + 1)
        for _ in range(8 if rs.rank <= 8 else 2):
            J = sorted(rng.sample(nodes, rng.randint(0, rs.rank)))
            m_word = rng.choices(nodes, k=rng.randint(0, 2 * rs.rank))
            m = evaluate_word(rs, m_word)
            starts = [[1] * rs.rank, [sum(col) for col in zip(*m)]]
            starts.append([rng.randint(-3, 3) for _ in nodes])
            starts.append([rng.randint(-(10**6), 10**6) for _ in nodes])
            for letters in (None, J):
                allowed = set(nodes if letters is None else letters)
                bound = sum(1 for r in rs.positive_roots if set(support(r)) <= allowed)
                for start in starts:
                    heights = list(start)
                    walk = _greedy_walk(rs.simple_coroots, heights, letters)
                    word = list(islice(walk, bound + 1))  # a runaway walk fails, not hangs
                    assert len(word) <= bound, (t, J)
                    assert (word, heights) == reference_greedy_walk(rs, start, letters), (t, J)
                cols = _word_columns(rs, m_word)
                word = list(_greedy_walk(rs.simple_coroots, cols, letters))
                assert word == reference_greedy_walk(rs, starts[1], letters)[0], (t, J)
                assert cols == _word_columns(rs, m_word + word), (t, J)


@lru_cache(maxsize=None)
def _group_of(t: str) -> dict:
    return generate_group(system(t))


@st.composite
def small_matrices(draw):
    """A type in {A3, B3} and a 3x3 matrix with entries in -2..2: drawn at
    random, or a group element with at most one entry changed."""
    t = draw(st.sampled_from(["A3", "B3"]))
    entry = st.integers(-2, 2)
    if draw(st.booleans()):
        m = [list(row) for row in draw(st.sampled_from(sorted(_group_of(t))))]
        if draw(st.booleans()):
            m[draw(st.integers(0, 2))][draw(st.integers(0, 2))] = draw(entry)
    else:
        m = [[draw(entry) for _ in range(3)] for _ in range(3)]
    return t, tuple(map(tuple, m))


def _outcome(f, *args):
    """What f returns, or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(deadline=None, max_examples=300)
@given(small_matrices())
def test_random_matrices_are_judged_like_the_reference(drawn):
    t, m = drawn
    rs = system(t)
    refused = ("ValueError", "matrix is not a Weyl group element")
    expected = reference_reduced_word(rs, m) if m in _group_of(t) else refused
    assert _outcome(reduced_word_of, rs, m) == expected
    assert _outcome(length_of, rs, m) == (refused if expected == refused else len(expected))
    expected_descents = refused if expected == refused else reference_descents(rs, m)
    assert _outcome(descents, rs, m) == expected_descents
    as_lists = [list(row) for row in m]
    for f in (descents, length_of, reduced_word_of, count_reduced_words):
        assert _outcome(f, rs, as_lists) == _outcome(f, rs, m), f.__name__
