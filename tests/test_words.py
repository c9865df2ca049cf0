"""Conjugation closed forms and the interval word identities."""
from __future__ import annotations

from operator import mul

import pytest

from weyldecomp import (
    BadRange,
    DimensionMismatch,
    NotARoot,
    Orthogonal,
    Proportional,
    TooLarge,
    apply_matrix,
    check_lambda_v,
    check_permutation_lemma,
    classify_conjugation,
    compose,
    conjugated_root,
    conjugation_identity_holds,
    evaluate_word,
    length_of,
    pairing2,
    positive_representative,
    predicted_conjugate,
    reflection_of,
    system,
    words,
)
from weyldecomp.rootsys import _coroot, _pack, _pair, _sparse_columns, _two_rho

from util import FULL_SWEEP, coroot_table, tuple_conjugation_suite


def test_conjugated_root_fixtures():
    a2 = system("A2")
    assert conjugated_root(a2, (1, 0), (0, 1)) == (1, 1)
    assert conjugated_root(a2, (1, 1), (1, 0)) == (0, 1)
    g2 = system("G2")
    assert conjugated_root(g2, (1, 1), (0, 1)) == (3, 2)
    f4 = system("F4")
    assert conjugated_root(f4, (0, 1, 2, 0), (0, 0, 1, 0)) == (0, 1, 1, 0)


def test_conjugated_root_signed_images():
    # s_(a1+a2) sends a2 to -(3a1+2a2) in G2; the positive representative comes back.
    g2 = system("G2")
    s = reflection_of(g2, (1, 1))
    assert apply_matrix(s, (0, 1)) == (-3, -2)
    assert conjugated_root(g2, (1, 1), (0, 1)) == (3, 2)
    f4 = system("F4")
    s = reflection_of(f4, (0, 1, 2, 0))
    assert apply_matrix(s, (0, 0, 1, 0)) == (0, -1, -1, 0)


def test_conjugated_root_requires_roots():
    a2 = system("A2")
    with pytest.raises(NotARoot):
        conjugated_root(a2, (2, 1), (1, 0))
    with pytest.raises(NotARoot):
        conjugated_root(a2, (1, 0), (2, 1))


def test_positive_representative():
    a2 = system("A2")
    assert positive_representative(a2, (-1, -1)) == (1, 1)
    assert positive_representative(a2, (1, 0)) == (1, 0)
    with pytest.raises(NotARoot):
        positive_representative(a2, (2, 0))



def test_conjugation_checks_refuse_entries_that_are_not_integers():
    # conjugated_root(a3, (1.0, 0, 0), (0, 1, 0)) once returned (1.0, 1, 0),
    # and a list root raised TypeError.
    a3 = system("A3")
    for a, b in [((1.0, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1.0, 0)), ((1, 0, 0), "abc")]:
        with pytest.raises(DimensionMismatch):
            conjugated_root(a3, a, b)
        with pytest.raises(DimensionMismatch):
            classify_conjugation(a3, a, b)
    with pytest.raises(DimensionMismatch):
        positive_representative(a3, (-1.0, -1, 0))
    assert conjugated_root(a3, [1, 0, 0], [0, True, 0]) == (1, 1, 0)
    assert positive_representative(a3, [-1, -1, 0]) == (1, 1, 0)
    assert classify_conjugation(a3, [1, 0, 0], [0, 1, 0]) == classify_conjugation(
        a3, (1, 0, 0), (0, 1, 0)
    )


def test_classification_table_of_named_cases():
    cases = [
        ("A2", (1, 0), (0, 1), "LongLong", "Minus", (1, 1)),
        ("A3", (1, 0, 0), (1, 1, 0), "LongLong", "Plus", (0, 1, 0)),
        ("B2", (1, 0), (0, 1), "LongShort_B_F4", "Minus", (1, 1)),
        ("B2", (0, 1), (1, 0), "ShortLong_B_F4", "Minus", (1, 2)),
        ("C2", (1, 0), (0, 1), "ShortLong_C", "Minus", (2, 1)),
        ("C3", (1, 0, 0), (0, 1, 0), "LongLong", "Minus", (1, 1, 0)),
        ("G2", (0, 1), (1, 0), "LongShort_G2", "Minus", (1, 1)),
        ("G2", (1, 0), (0, 1), "ShortLong_G2", "Minus", (3, 1)),
        ("G2", (1, 0), (3, 1), "ShortLong_G2", "Plus", (0, 1)),
        ("F4", (0, 0, 1, 0), (0, 1, 0, 0), "ShortLong_B_F4", "Minus", (0, 1, 2, 0)),
        ("F4", (0, 1, 0, 0), (0, 0, 1, 0), "LongShort_B_F4", "Minus", (0, 1, 1, 0)),
    ]
    for t, a, b, rule, sign, conj in cases:
        rs = system(t)
        case = classify_conjugation(rs, a, b)
        assert case is not None, (t, a, b)
        assert case.rule == rule, (t, a, b, case)
        assert case.sign == sign, (t, a, b, case)
        assert conjugated_root(rs, a, b) == conj
        assert predicted_conjugate(rs, a, b, case) == conj


def test_classification_coefficients():
    assert classify_conjugation(system("A2"), (1, 0), (0, 1)).coefficient == 1
    assert classify_conjugation(system("B2"), (0, 1), (1, 0)).coefficient == 2
    assert classify_conjugation(system("C2"), (1, 0), (0, 1)).coefficient == 2
    assert classify_conjugation(system("G2"), (1, 0), (0, 1)).coefficient == 3


def test_pairs_outside_the_named_cases_return_none():
    g2 = system("G2")
    # two long roots of G2
    assert classify_conjugation(g2, (0, 1), (3, 1)) is None
    # two short roots of G2
    assert classify_conjugation(g2, (1, 0), (1, 1)) is None
    f4 = system("F4")
    # two short roots of F4
    assert classify_conjugation(f4, (0, 0, 1, 0), (0, 0, 0, 1)) is None
    # a long conjugator acting on a short root in C
    c3 = system("C3")
    assert classify_conjugation(c3, (0, 0, 1), (0, 1, 0)) is None


def test_proportional_and_orthogonal_rejected():
    a3 = system("A3")
    with pytest.raises(Proportional):
        classify_conjugation(a3, (1, 0, 0), (1, 0, 0))
    with pytest.raises(Proportional):
        classify_conjugation(a3, (1, 0, 0), (-1, 0, 0))
    with pytest.raises(Orthogonal):
        classify_conjugation(a3, (1, 0, 0), (0, 0, 1))


def test_conjugation_identity_across_systems():
    for t in ["A3", "B3", "C3", "D4", "F4", "G2"]:
        rs = system(t)
        for a in rs.positive_roots:
            for b in rs.positive_roots:
                if a == b:
                    continue
                assert conjugation_identity_holds(rs, a, b), (t, a, b)


def test_closed_forms_match_all_named_pairs():
    for t in ["A3", "B3", "C3", "D4", "F4", "G2"]:
        rs = system(t)
        for a in rs.positive_roots:
            for b in rs.positive_roots:
                if a == b:
                    continue
                try:
                    case = classify_conjugation(rs, a, b)
                except Orthogonal:
                    assert conjugated_root(rs, a, b) == b
                    continue
                if case is None:
                    continue
                assert predicted_conjugate(rs, a, b, case) == conjugated_root(rs, a, b)


def test_conjugate_keeps_the_target_length():
    for t in ["B3", "G2", "F4"]:
        rs = system(t)
        for a in rs.positive_roots:
            for b in rs.positive_roots:
                if a == b:
                    continue
                conj = conjugated_root(rs, a, b)
                assert pairing2(rs, conj, conj) == pairing2(rs, b, b)


def test_rank_one_reflection_equals_the_reflection_matrix():
    for t in FULL_SWEEP:
        rs = system(t)
        two_rho = _two_rho(rs)
        for r in rs.positive_roots:
            expected = apply_matrix(reflection_of(rs, r), two_rho)
            assert words._reflect(two_rho, r, _coroot(rs.gram2, r)) == expected, (t, r)


def test_lambda_v_identity_examples():
    a4 = system("A4")
    assert check_lambda_v(a4, 1, 4)
    a5 = system("A5")
    for k in range(1, 5):
        assert check_lambda_v(a5, k, 5)


def test_lambda_v_degenerate_interval():
    # k == n collapses both words to the single letter s_k.
    a5 = system("A5")
    for k in range(1, 6):
        assert check_lambda_v(a5, k, k)


def test_lambda_v_words_equal_interval_reflection():
    a6 = system("A6")
    for k in range(1, 7):
        for n in range(k, 7):
            word = list(range(k, n + 1)) + list(range(n - 1, k - 1, -1))
            interval = tuple(1 if k <= i <= n else 0 for i in range(1, 7))
            assert evaluate_word(a6, word) == reflection_of(a6, interval), (k, n)


def test_permutation_lemma_example_words():
    # In A5 with k=1, n=5 the identity reads
    # s_(a1+a2+a3+a4) . (s5 s4 s3 s2 s1) == (s4 s3 s2) . s_(a1+...+a5).
    a5 = system("A5")
    left = compose(
        reflection_of(a5, (1, 1, 1, 1, 0)), evaluate_word(a5, [5, 4, 3, 2, 1])
    )
    right = compose(
        evaluate_word(a5, [4, 3, 2]), reflection_of(a5, (1, 1, 1, 1, 1))
    )
    assert left == right
    assert check_permutation_lemma(a5, 1, 5)


def test_interval_identities_sweep():
    a7 = system("A7")
    for n in range(2, 8):
        for k in range(1, n):
            assert check_lambda_v(a7, k, n), (k, n)
            assert check_permutation_lemma(a7, k, n), (k, n)


def test_interval_identities_bad_ranges():
    a5 = system("A5")
    for k, n in [(0, 3), (4, 2), (1, 6), (-1, 2)]:
        with pytest.raises(BadRange):
            check_lambda_v(a5, k, n)
        with pytest.raises(BadRange):
            check_permutation_lemma(a5, k, n)
    # the degenerate interval is fine for the V-identity but not the shuffle
    with pytest.raises(BadRange):
        check_permutation_lemma(a5, 3, 3)
    with pytest.raises(BadRange):
        check_lambda_v(a5, 0, 0)
    with pytest.raises(BadRange):
        check_lambda_v(system("B3"), 1, 2)


def test_conjugation_length_parity():
    # every reflection has odd length, in particular each conjugate
    g2 = system("G2")
    for a in g2.positive_roots:
        for b in g2.positive_roots:
            if a == b:
                continue
            conj = conjugated_root(g2, a, b)
            assert length_of(g2, reflection_of(g2, conj)) % 2 == 1


def test_identity_checks_catch_a_wrong_conjugate(monkeypatch):
    a2 = system("A2")
    a, b = (1, 0), (0, 1)  # not orthogonal: the true conjugate is a + b
    assert pairing2(a2, a, b) != 0
    assert words._conjugation_suite(a2)[0] and conjugation_identity_holds(a2, a, b)
    true_conjugate = words.conjugated_root
    true_position = words._position

    def wrong(rs, delta, tau):
        return tau if pairing2(rs, delta, tau) else true_conjugate(rs, delta, tau)

    def wrong_position(positions, b, c, a):
        return true_position(positions, b, 0, a)  # b in place of b - c*a

    # The sweep's closed-form step is the packed lookup, the matrix route's
    # is conjugated_root: both give tau for a non-orthogonal pair.
    monkeypatch.setattr(words, "_position", wrong_position)
    monkeypatch.setattr(words, "conjugated_root", wrong)
    # The first pair fails on the literal route, before any case is named.
    assert words._conjugation_suite(a2) == (False, 1, 0)
    assert not conjugation_identity_holds(a2, a, b)


def test_identity_sweep_catches_a_wrong_case_coefficient(monkeypatch):
    # The first pair of B2 is short a2 acting on long a1, ShortLong_B_F4:
    # a1 + 2a2.  With k = 1 the case names the root a1 + a2 instead.
    b2 = system("B2")
    assert b2.positive_roots[:2] == ((0, 1), (1, 0))
    assert classify_conjugation(b2, (0, 1), (1, 0)).rule == "ShortLong_B_F4"
    assert words._conjugation_suite(b2) == (True, 12, 8)
    monkeypatch.setitem(words._CASE_TABLE, (2, 4, 2), ("ShortLong_B_F4", 1))
    assert words._conjugation_suite(b2) == (False, 1, 1)
    # a1 + 3a2 is no root: the packed lookup raises NotARoot, not KeyError
    monkeypatch.setitem(words._CASE_TABLE, (2, 4, 2), ("ShortLong_B_F4", 3))
    with pytest.raises(NotARoot):
        words._conjugation_suite(b2)


def test_identity_sweep_catches_a_wrong_image_of_two_rho(monkeypatch):
    # The first pair of A2 is a2 acting on a1, whose conjugate is a1 + a2:
    # a wrong image of 2 rho under s_(a1+a2) fails the literal route there.
    a2 = system("A2")
    assert a2.positive_roots == ((0, 1), (1, 0), (1, 1))
    true_reflect = words._reflect

    def wrong(x, r, coroot):
        image = true_reflect(x, r, coroot)
        return (image[0] + 1, image[1]) if r == (1, 1) else image

    monkeypatch.setattr(words, "_reflect", wrong)
    assert words._conjugation_suite(a2) == (False, 1, 0)


def test_packed_sweep_equals_the_tuple_sweep():
    for t in FULL_SWEEP + ["A20", "D16"]:
        rs = system(t)
        assert words._conjugation_suite(rs) == tuple_conjugation_suite(rs), t


def test_conjugated_root_is_the_reflected_target_on_every_swept_pair():
    # The pairs of test_packed_sweep_equals_the_tuple_sweep, whose reference
    # reflects b by a from its own coroot table.
    for t in FULL_SWEEP + ["A20", "D16"]:
        rs = system(t)
        coroots = coroot_table(rs)
        for a in rs.positive_roots:
            for b in rs.positive_roots:
                if a != b:
                    expected = positive_representative(rs, words._reflect(b, a, coroots[a]))
                    assert conjugated_root(rs, a, b) == expected, (t, a, b)


def test_packed_sweep_quantities_fit_a_signed_32_bit_lane():
    """Every root, every image of 2 rho and every k1*b and k2*a term of the
    sweep has entries in (-2**31, 2**31) on the largest admitted type of each
    family.  k1 = <s_a(2 rho), b-check> = <2 rho, s_a(b)-check> and
    k2 = <s_b(s_a(2 rho)), a-check> = <2 rho, s_a(s_b(a))-check> are each
    <2 rho, r-check> for a root r, so N roots bound them.  Images of 2 rho
    under W, the literal side included, have entries at most those of 2 rho:
    w(2 rho) is a signed sum of the positive roots."""
    for t, refused in [("A62", "A63"), ("B44", "B45"), ("C44", "C45"), ("D45", "D46"), ("E8", "")]:
        rs = system(t)
        assert len(rs.positive_roots) * (len(rs.positive_roots) - 1) <= words._PAIR_BOUND
        if refused:
            with pytest.raises(TooLarge):
                words._conjugation_suite(system(refused))
        coroots = coroot_table(rs)
        two_rho = _two_rho(rs)
        largest_root = max(max(map(abs, r)) for r in rs.positive_roots)
        largest_image = max(
            max(map(abs, words._reflect(two_rho, r, coroots[r]))) for r in rs.positive_roots
        )
        largest_k = max(abs(_pair(two_rho, coroots[r])) for r in rs.positive_roots)
        assert largest_image == max(two_rho), t
        assert max(largest_root, largest_image, largest_k * largest_root) < 2**31, t


def test_row_lanes_equal_the_pairings_at_the_largest_admitted_types():
    """The sweep's rows of c = <b, a-check> and k1 = <s_a(2 rho), b-check>,
    decoded from 32-bit lanes, equal the pairings over every positive root b,
    for the first, a middle and the last conjugator a: negative lanes and the
    byte order come back exactly."""
    for t in ["A62", "B44", "C44", "D45", "E8"]:
        rs = system(t)
        roots = rs.positive_roots
        coroots = coroot_table(rs)
        dense = [[dict(coroots[b]).get(m, 0) for m in range(rs.rank)] for b in roots]
        root_columns = [_pack(column, 4) for column in zip(*roots)]
        coroot_columns = _sparse_columns([coroots[b] for b in roots], rs.rank, 4)
        assert coroot_columns == [_pack(column, 4) for column in zip(*dense)], t
        two_rho = _two_rho(rs)
        lowest = [0, 0]
        for a in (roots[0], roots[len(roots) // 2], roots[-1]):
            y = words._reflect(two_rho, a, coroots[a])
            c_row = words._row(root_columns, coroots[a], len(roots))
            k1_row = words._row(coroot_columns, enumerate(y), len(roots))
            assert list(c_row) == [_pair(b, coroots[a]) for b in roots], (t, a)
            assert list(k1_row) == [sum(map(mul, y, row)) for row in dense], (t, a)
            lowest = [min(lowest[0], min(c_row)), min(lowest[1], min(k1_row))]
        assert max(lowest) < 0, t  # both rows have negative lanes


def test_permutation_lemma_catches_a_wrong_interval_root(monkeypatch):
    a3 = system("A3")
    assert check_permutation_lemma(a3, 1, 3)
    true_root = words._interval_root

    def wrong(rs, k, n):
        # a1 in place of a1 + a2 on the left-hand side of k = 1, n = 3
        return rs.simple_root(k) if n == 2 else true_root(rs, k, n)

    monkeypatch.setattr(words, "_interval_root", wrong)
    assert not check_permutation_lemma(a3, 1, 3)


def test_interval_identities_refuse_indices_that_are_not_integers():
    a5 = system("A5")
    for k, n in [(1.0, 2), (1, 2.0), ("1", 2), (None, 3)]:
        with pytest.raises(BadRange):
            check_lambda_v(a5, k, n)
        with pytest.raises(BadRange):
            check_permutation_lemma(a5, k, n)
