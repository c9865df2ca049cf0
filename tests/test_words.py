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

from util import FULL_SWEEP, SUPPORTED, coroot_table, degrees, tuple_conjugation_suite


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


def test_predicted_conjugate_reads_its_roots_and_case_at_the_boundary():
    # a and b were read unchecked: 5 raised TypeError, and (1, 0, 0, 9) lost
    # its extra entry to zip and answered (1, 1, 0).
    a3 = system("A3")
    case = classify_conjugation(a3, (1, 0, 0), (0, 1, 0))
    assert predicted_conjugate(a3, [1, 0, 0], [0, 1, 0], case) == (1, 1, 0)
    with pytest.raises(NotARoot):
        predicted_conjugate(a3, (1, 0, 0, 9), (0, 1, 0), case)
    with pytest.raises(DimensionMismatch):
        predicted_conjugate(a3, 5, (0, 1, 0), case)
    for bad in (5, None, ("LongLong", "Minus", 1)):
        with pytest.raises(DimensionMismatch, match="is not a ConjugationCase"):
            predicted_conjugate(a3, (1, 0, 0), (0, 1, 0), bad)


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
            assert words._reflect(two_rho, r, _coroot(rs, r)) == expected, (t, r)


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
    true_positions = words._positions

    def wrong(rs, delta, tau):
        return tau if pairing2(rs, delta, tau) else true_conjugate(rs, delta, tau)

    def wrong_positions(packed):
        # each root at the index of the one before it
        return {key: (i - 1) % len(packed) for key, i in true_positions(packed).items()}

    # The sweep's closed-form step is the packed lookup, the matrix route's
    # is conjugated_root.  Both give tau for the first pair, a2 acting on a1:
    # its conjugate a1 + a2 is the root after a1.
    monkeypatch.setattr(words, "_positions", wrong_positions)
    monkeypatch.setattr(words, "conjugated_root", wrong)
    # The first pair fails on the literal route, before any case is named.
    assert words._conjugation_suite(a2) == (False, 1, 0)
    assert not conjugation_identity_holds(a2, a, b)
    # B2 with orthogonal a2 and a1 + a2 at each other's index: for c = 0 the
    # lookup key is b itself, so the literal route fails at the second pair,
    # a2 acting on a1 + a2, after the first pair's case.
    b2 = system("B2")
    assert b2.positive_roots[0::2] == ((0, 1), (1, 1)) and pairing2(b2, (0, 1), (1, 1)) == 0

    def swapped_positions(packed):
        return {key: (2 - i if i in (0, 2) else i) for key, i in true_positions(packed).items()}

    monkeypatch.setattr(words, "_positions", swapped_positions)
    assert words._conjugation_suite(b2) == (False, 2, 1)
    # A lookup that misses names b, c and a: here c = <a1, a2-check> = -1.
    monkeypatch.setattr(words, "_positions", lambda packed: {})
    with pytest.raises(NotARoot, match=r"^0x[0-9a-f]+ - -1 \* 0x[0-9a-f]+ is not a packed root$"):
        words._conjugation_suite(a2)


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
    with pytest.raises(NotARoot, match=r"^0x[0-9a-f]+ - -3 \* 0x[0-9a-f]+ is not a packed root$"):
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


def _sweep_counts(t: str) -> tuple[int, int]:
    """(P, K) of the conjugation sweep by closed forms: P = N(N - 1) ordered
    pairs of distinct positive roots, N the sum of d - 1 over the degrees d,
    and K of them named by ``_CASE_TABLE``, by family, with the Coxeter
    number h the largest degree.

    ADE: for a root a, the sum of <b, a-check>^2 over all roots b is 4h.
    b = +-a gives 8, so 4h - 8 roots pair with a to +-1, one of each pair
    +-b positive: 2h - 4 positive partners, all named LongLong, and
    K = N(2h - 4).  B_n: the long roots form D_n, n(n - 1)(4n - 8) pairs;
    each long root e_i +- e_j meets the short roots e_i and e_j, named both
    ways, 4n(n - 1) more; short roots are mutually orthogonal.  C_n: the
    short roots form D_n; short e_i +- e_j to long 2e_i and 2e_j is named
    ShortLong_C, 2n(n - 1) pairs, but long to short is not; long roots are
    mutually orthogonal.  G2: each of the 3 short roots is orthogonal to one
    of the 3 long roots, and only short-long pairs are named, both ways: 12.
    F4: the 12 positive long roots e_i +- e_j form D4, which gives
    12 * (2*6 - 4) = 96 pairs.  Each long root e_i +- e_j pairs non-trivially
    with 6 of the 12 positive short roots: e_i, e_j, and the 4 of the 8
    half-spin roots (x_1, .., x_4)/2 with x_i +- x_j != 0, so 72 long-short
    and 72 short-long pairs are named.  Two short roots pair to
    |2(a, b)| = 1 at most, which the table does not name: K = 240."""
    d = degrees(t)
    fam, n, h, N = t[0], int(t[1:]), max(d), sum(d) - len(d)
    named = {"B": 4 * n * (n - 1) ** 2, "C": n * (n - 1) * (4 * n - 6), "F": 240, "G": 12}
    return N * (N - 1), N * (2 * h - 4) if fam in "ADE" else named[fam]


def test_sweep_counts_match_their_closed_forms_up_to_rank_20():
    # A second route for check-identities' "(P pairs, K named cases)";
    # scripts/check_verbs.py checks the same forms at the rank limit.
    for t in SUPPORTED:
        if int(t[1:]) <= 20:
            assert words._conjugation_suite(system(t)) == (True, *_sweep_counts(t)), t


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


@pytest.fixture(scope="module")
def largest_types():
    """The largest supported type of each family, its system and its coroot
    table (a dense table takes about a second at rank 64)."""
    return [(t, system(t), coroot_table(system(t))) for t in ["A64", "B64", "C64", "D64", "E8"]]


def test_packed_sweep_quantities_fit_a_signed_16_bit_lane(largest_types):
    """Every root, every image of 2 rho, and the entries of the literal side
    Z - k1*X = s_a(y) - k1*s_a(b) of the sweep, even term by term, lie in
    (-2**15, 2**15) on the largest supported type of each family, so no two
    of the vectors the sweep compares or looks up share a packed int.
    k1 = <s_a(2 rho), b-check> = <2 rho, s_a(b)-check> is <2 rho, r-check> for
    a root r, so N roots bound it.  Images of 2 rho under W, s_a(y) = 2 rho
    and the literal side included, have entries at most those of 2 rho:
    w(2 rho) is a signed sum of the positive roots."""
    for t, rs, coroots in largest_types:
        two_rho = _two_rho(rs)
        largest_root = max(max(map(abs, r)) for r in rs.positive_roots)
        largest_image = max(
            max(map(abs, words._reflect(two_rho, r, coroots[r]))) for r in rs.positive_roots
        )
        largest_k = max(abs(_pair(two_rho, coroots[r])) for r in rs.positive_roots)
        assert largest_image == max(two_rho), t
        assert max(largest_root, largest_image + largest_k * largest_root) < 2**15, t


def test_row_lanes_equal_the_pairings_at_the_largest_types(largest_types):
    """The sweep's rows of c = <b, a-check> and k1 = <s_a(2 rho), b-check>,
    decoded from 16-bit lanes, equal the pairings over every positive root b,
    for the first, a middle and the last conjugator a: negative lanes and the
    byte order come back exactly."""
    for t, rs, coroots in largest_types:
        roots = rs.positive_roots
        dense = [[dict(coroots[b]).get(m, 0) for m in range(rs.rank)] for b in roots]
        root_columns = [_pack(column, 2) for column in zip(*roots)]
        coroot_columns = _sparse_columns([coroots[b] for b in roots], rs.rank, 2)
        assert coroot_columns == [_pack(column, 2) for column in zip(*dense)], t
        two_rho = _two_rho(rs)
        lowest = [0, 0]
        for a in (roots[0], roots[len(roots) // 2], roots[-1]):
            y = words._reflect(two_rho, a, coroots[a])
            c_row, k1_row = words._rows(root_columns, coroot_columns, coroots[a], y, len(roots))
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
