"""Acceptance gate: one printed pass/fail line per criterion."""
from __future__ import annotations

from time import perf_counter

from weyldecomp import (
    Orthogonal,
    canonical_decomposition,
    check_lambda_v,
    check_permutation_lemma,
    classify_conjugation,
    classify_longest,
    compose,
    conjugated_root,
    count_reduced_words,
    dn_orthogonality_pattern,
    enumerate_max_orthogonal,
    evaluate_word,
    identity_matrix,
    length_of,
    longest_element,
    parabolic_embedding,
    predicted_conjugate,
    recursion_relation_check,
    reflection_of,
    system,
    verify_decomposition,
)

from util import FULL_SWEEP, degrees


def report(number: int, description: str, ok: bool, elapsed: float | None = None) -> bool:
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"criterion {number}: {status} - {description}{timing}")
    return ok


def test_criterion_01_canonical_decompositions_verify():
    start = perf_counter()
    ok = True
    for t in FULL_SWEEP:
        rs = system(t)
        if not verify_decomposition(rs, canonical_decomposition(rs)).all_ok():
            ok = False
            break
    elapsed = perf_counter() - start
    ok = ok and elapsed < 5.0
    assert report(1, "canonical decomposition passes all five checks on every type", ok, elapsed)


def test_criterion_02_factor_counts():
    def expected(fam: str, n: int) -> int:
        if fam == "A":
            return (n + 1) // 2
        if fam in ("B", "C"):
            return n
        if fam == "D":
            return n - (n % 2)
        return {("E", 6): 4, ("E", 7): 7, ("E", 8): 8, ("F", 4): 4, ("G", 2): 2}[(fam, n)]

    ok = all(
        len(canonical_decomposition(system(t)).factors) == expected(t[0], int(t[1:]))
        for t in FULL_SWEEP
    )
    assert report(2, "factor counts match the per-family formulas", ok)


def test_criterion_03_longest_element_classification():
    def expected_perm(fam: str, n: int) -> tuple[int, ...]:
        if fam == "A" and n >= 2:
            return tuple(range(n, 0, -1))
        if fam == "D" and n % 2 == 1:
            return tuple(range(1, n - 1)) + (n, n - 1)
        if fam == "E" and n == 6:
            return (6, 2, 5, 4, 3, 1)
        return tuple(range(1, n + 1))

    ok = True
    for t in FULL_SWEEP:
        rs = system(t)
        n = rs.rank
        perm = expected_perm(rs.family, n)
        minus_p = tuple(
            tuple(-1 if perm[j] == i + 1 else 0 for j in range(n)) for i in range(n)
        )
        cls = classify_longest(rs)
        expected_kind = (
            "minus_identity" if perm == tuple(range(1, n + 1)) else "minus_automorphism"
        )
        if longest_element(rs) != minus_p or cls.kind != expected_kind or cls.automorphism != perm:
            ok = False
            break
    assert report(3, "longest element equals minus the expected diagram automorphism", ok)


def test_criterion_04_longest_length_is_positive_root_count():
    # N = sum(d - 1) over the degrees: the build's walk yields both the
    # positive roots and w0's word, so their count is no second route.
    ok = all(
        length_of(system(t), longest_element(system(t))) == sum(d - 1 for d in degrees(t))
        for t in FULL_SWEEP
    )
    assert report(4, "longest-element length equals the positive-root count on every type", ok)


def test_criterion_05_reduced_word_count_fixture():
    start = perf_counter()
    rs = system("A5")
    count = count_reduced_words(rs, longest_element(rs))
    elapsed = perf_counter() - start
    ok = count == 292864 and elapsed < 1.0
    assert report(5, "the A5 longest element has 292864 reduced words", ok, elapsed)


def test_criterion_06_recursion_relations():
    eligible = (
        [f"A{n}" for n in range(3, 9)]
        + [f"B{n}" for n in range(4, 9)]
        + [f"C{n}" for n in range(3, 9)]
        + [f"D{n}" for n in range(6, 9)]
        + ["E6", "E7", "E8", "F4"]
    )
    ok = all(recursion_relation_check(system(t)) for t in eligible)
    inner, index_map = parabolic_embedding(system("F4"), (2, 3, 4))
    ok = ok and str(inner.type) == "C3" and index_map == {1: 4, 2: 3, 3: 2}
    assert report(6, "cross-rank recursions hold, with the reversed C3 embedding into F4", ok)


def test_criterion_07_uniqueness_by_exhaustive_search():
    start = perf_counter()
    ok = True
    for t in ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"]:
        rs = system(t)
        decs = enumerate_max_orthogonal(rs)
        if len(decs) != 1 or set(decs[0].roots) != set(canonical_decomposition(rs).roots):
            ok = False
            break
    elapsed = perf_counter() - start
    ok = ok and elapsed < 60.0
    assert report(7, "exhaustive search finds exactly the canonical decomposition", ok, elapsed)


def test_criterion_08_conjugation_suite():
    start = perf_counter()
    ok = True
    for t in ["A3", "B3", "C3", "D4", "F4", "G2"]:
        rs = system(t)
        refl = {r: reflection_of(rs, r) for r in rs.positive_roots}
        for a in rs.positive_roots:
            for b in rs.positive_roots:
                if a == b:
                    continue
                conj = conjugated_root(rs, a, b)
                literal = compose(compose(refl[a], refl[b]), refl[a])
                if refl[conj] != literal:
                    ok = False
                    break
                try:
                    case = classify_conjugation(rs, a, b)
                except Orthogonal:
                    if conj != b:
                        ok = False
                    continue
                if case is not None and predicted_conjugate(rs, a, b, case) != conj:
                    ok = False
                length = length_of(rs, literal)
                if length % 2 != 1 or length != length_of(rs, refl[conj]):
                    ok = False
            if not ok:
                break
        if not ok:
            break
    elapsed = perf_counter() - start
    ok = ok and elapsed < 5.0
    assert report(8, "conjugation identities, closed forms, and lengths on all root pairs", ok, elapsed)


def test_criterion_09_long_word_fixtures():
    ok = True

    e6 = system("E6")
    w1_e6 = [2, 4, 5, 3, 4, 6, 5, 2, 4, 3, 1, 3, 4, 2, 5, 6, 4, 3, 5, 4, 2]
    ok = ok and evaluate_word(e6, w1_e6) == reflection_of(e6, e6.highest_root)

    e7 = system("E7")
    w2_e7 = [1, 3, 4, 5, 2, 4, 6, 5, 7, 6, 3, 4, 5, 2, 4, 3, 1, 3, 4, 2, 5, 4,
             3, 6, 7, 5, 6, 4, 2, 5, 4, 3, 1]
    ok = ok and evaluate_word(e7, w2_e7) == reflection_of(e7, e7.highest_root)

    e8 = system("E8")
    w1 = [8, 7, 8, 6, 7, 8, 5, 6, 7, 8, 4, 5, 6, 7, 8, 3, 4, 5, 6, 7, 8]
    w2 = [2, 4, 5, 6, 3, 4, 5, 7, 6, 2, 4, 3, 5, 4, 2, 8, 7, 6, 5, 4, 3, 1,
          3, 4, 5, 6, 7, 8, 2, 4, 5, 3, 4, 2, 6, 7, 5, 4, 3, 6, 5, 4, 2]
    w3 = [1, 3, 4, 2, 5, 4, 3, 6, 5, 4, 7, 6, 8, 7, 5, 6, 2, 4, 5, 3, 4, 2]
    w4 = [1, 3, 4, 5, 6, 2, 4, 5, 3, 4, 7, 6, 5, 2, 4, 3, 8, 1, 3, 4, 2, 5, 6,
          7, 4, 3, 5, 4, 2, 6, 5, 4, 3, 1]
    factor_roots = {
        1: [(0, 0, 0, 0, 1, 1, 0, 0), (0, 0, 0, 1, 1, 1, 1, 0), (0, 0, 1, 1, 1, 1, 1, 1)],
        2: [(1, 3, 3, 5, 4, 3, 2, 1)],
        3: [(1, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 1, 0, 0, 0, 0), (0, 0, 1, 1, 1, 0, 0, 0),
            (0, 1, 1, 2, 1, 1, 0, 0), (0, 1, 1, 1, 1, 1, 1, 0), (0, 0, 0, 0, 0, 0, 1, 1),
            (0, 0, 0, 0, 0, 1, 0, 0), (0, 1, 0, 1, 1, 0, 0, 0)],
        4: [(1, 0, 1, 1, 1, 1, 1, 1), (2, 2, 3, 4, 3, 2, 1, 0)],
    }
    assert sum(len(v) for v in factor_roots.values()) == 14
    for word, roots in zip((w1, w2, w3, w4), (factor_roots[i] for i in (1, 2, 3, 4))):
        product = identity_matrix(8)
        for r in roots:
            product = compose(product, reflection_of(e8, r))
        ok = ok and evaluate_word(e8, word) == product
    ok = ok and evaluate_word(e8, w1 + w2 + w3 + w4) == longest_element(e8)

    g2 = system("G2")
    ok = ok and evaluate_word(g2, [2, 1, 2, 1, 2, 1]) == longest_element(g2)

    assert report(9, "long word fixtures reproduce their reflection products", ok)


def test_criterion_10_interval_identities_and_d_pattern():
    a7 = system("A7")
    ok = all(
        check_lambda_v(a7, k, n) for n in range(1, 8) for k in range(1, n + 1)
    )
    ok = ok and all(
        check_permutation_lemma(a7, k, n) for n in range(2, 8) for k in range(1, n)
    )
    ok = ok and all(dn_orthogonality_pattern(system(f"D{n}")) for n in range(4, 9))
    assert report(10, "interval word identities on A7 and the D-family parity pattern", ok)
