"""Property-based invariants over random systems, roots, and words."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weyldecomp
from weyldecomp import (
    ConjugationCase,
    Decomposition,
    DimensionMismatch,
    RootSystem,
    RootSystemType,
    WeylError,
    apply_matrix,
    build_root_system,
    cartan_integer,
    check_lambda_v,
    check_permutation_lemma,
    classify_conjugation,
    compose,
    conjugated_root,
    conjugation_identity_holds,
    count_reduced_words,
    decomposition_from_roots,
    dominance_leq,
    enumerate_max_orthogonal,
    errors,
    evaluate_word,
    format_root,
    height,
    highest_root_of,
    identity_matrix,
    is_connected,
    is_root,
    length_of,
    longest_element,
    pairing2,
    parabolic_embedding,
    parse_type,
    positive_representative,
    predicted_conjugate,
    preserves_form,
    reduced_word_of,
    reflection_of,
    simple_reflection,
    support,
    system,
    verify_decomposition,
)
from weyldecomp.rootsys import negate

TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D3", "D4", "D5", "F4", "G2", "E6"]

systems = st.sampled_from(TYPES).map(system)


@st.composite
def system_and_word(draw, max_len: int = 10):
    rs = draw(systems)
    word = draw(st.lists(st.integers(1, rs.rank), max_size=max_len))
    return rs, word


@st.composite
def system_and_two_roots(draw):
    rs = draw(systems)
    a = draw(st.sampled_from(rs.positive_roots))
    b = draw(st.sampled_from(rs.positive_roots))
    return rs, a, b


@given(system_and_word())
def test_words_evaluate_to_form_preserving_matrices(data):
    rs, word = data
    m = evaluate_word(rs, word)
    assert preserves_form(rs, m)


@given(system_and_word())
def test_word_evaluation_is_multiplicative(data):
    rs, word = data
    cut = len(word) // 2
    left, right = word[:cut], word[cut:]
    assert evaluate_word(rs, word) == compose(
        evaluate_word(rs, left), evaluate_word(rs, right)
    )


@given(system_and_word())
def test_reduced_word_roundtrip_and_minimality(data):
    rs, word = data
    m = evaluate_word(rs, word)
    reduced = reduced_word_of(rs, m)
    assert evaluate_word(rs, reduced) == m
    assert len(reduced) == length_of(rs, m)
    assert len(reduced) <= len(word)


@given(system_and_word())
def test_length_is_subadditive_and_parity_preserving(data):
    rs, word = data
    m = evaluate_word(rs, word)
    assert length_of(rs, m) % 2 == len(word) % 2
    assert length_of(rs, m) <= len(word)


@given(system_and_word())
def test_longest_element_length_duality(data):
    rs, word = data
    m = evaluate_word(rs, word)
    w0 = longest_element(rs)
    assert length_of(rs, compose(w0, m)) == length_of(rs, w0) - length_of(rs, m)


@given(system_and_two_roots())
def test_pairing_is_symmetric(data):
    rs, a, b = data
    assert pairing2(rs, a, b) == pairing2(rs, b, a)


@given(system_and_two_roots())
def test_reflection_fixes_orthogonal_and_negates_own_root(data):
    rs, a, b = data
    s = reflection_of(rs, a)
    assert apply_matrix(s, a) == tuple(-c for c in a)
    if pairing2(rs, a, b) == 0:
        assert apply_matrix(s, b) == b


@given(system_and_two_roots())
def test_reflections_send_roots_to_roots(data):
    rs, a, b = data
    image = apply_matrix(reflection_of(rs, a), b)
    assert is_root(rs, image)
    assert pairing2(rs, image, image) == pairing2(rs, b, b)


@given(system_and_two_roots())
def test_conjugation_identity_property(data):
    rs, a, b = data
    if a == b:
        return
    assert conjugation_identity_holds(rs, a, b)


@given(system_and_two_roots())
def test_dominance_is_a_partial_order_on_roots(data):
    rs, a, b = data
    assert dominance_leq(a, a)
    if dominance_leq(a, b) and dominance_leq(b, a):
        assert a == b
    # every positive root sits below the highest root
    assert dominance_leq(a, rs.highest_root)


@given(systems)
@settings(max_examples=30)
def test_longest_element_is_an_involution_inverting_all_positives(rs):
    w0 = longest_element(rs)
    assert compose(w0, w0) == identity_matrix(rs.rank)
    for r in rs.positive_roots:
        assert all(c <= 0 for c in apply_matrix(w0, r))


@given(system_and_word())
def test_inverse_via_reversed_word(data):
    rs, word = data
    m = evaluate_word(rs, word)
    inv = evaluate_word(rs, list(reversed(word)))
    assert compose(m, inv) == identity_matrix(rs.rank)
    assert length_of(rs, m) == length_of(rs, inv)


def _vectors(rs):
    """Roots of rs, their negatives, small lattice vectors, and vectors one
    entry too long or too short."""
    roots = st.sampled_from(rs.positive_roots)
    return st.one_of(
        roots,
        roots.map(negate),
        st.tuples(*[st.integers(-2, 2)] * rs.rank),
        roots.map(lambda r: r + (0,)),
        roots.map(lambda r: r[1:]),
    )


@st.composite
def _matrices(draw, rs, outside_w=True):
    """Reflections of rs and, unless ``outside_w`` is False, small integer
    matrices; the rank square, or with one row or one entry of a row too many
    or too few."""
    reflections = st.sampled_from(rs.positive_roots).map(lambda r: reflection_of(rs, r))
    square = st.tuples(*[st.tuples(*[st.integers(-2, 2)] * rs.rank)] * rs.rank)
    rows = list(draw(reflections | square if outside_w else reflections))
    i = draw(st.integers(0, rs.rank - 1))
    edit = draw(st.sampled_from(["none", "short row", "long row", "extra row", "no row"]))
    if edit == "short row":
        rows[i] = rows[i][1:]
    elif edit == "long row":
        rows[i] = rows[i] + (0,)
    elif edit == "extra row":
        rows.append(rows[i])
    elif edit == "no row":
        del rows[i]
    return tuple(rows)


def _index_sets(rs):
    return st.lists(st.integers(-1, rs.rank + 1), max_size=4).map(tuple)


def _words(rs):
    return st.lists(st.integers(0, rs.rank + 1), max_size=6).map(tuple)


def _named(name: str, f):
    """f under the public name it calls, for the coverage check below."""
    f.__name__ = name
    return f


_ARGUMENTS = {
    "vector": _vectors,
    "vectors": lambda rs: st.lists(_vectors(rs), max_size=3),
    "matrix": _matrices,
    # length_of raises ValueError for a square integer matrix outside W
    "element": lambda rs: _matrices(rs, outside_w=False),
    "indices": _index_sets,
    "word": _words,
    # one simple-root index or letter; 5 is outside 1..rank on every system drawn
    "index": lambda rs: st.integers(-1, rs.rank + 1),
    "bound": lambda rs: st.integers(-2, 50),
    "size": lambda rs: st.integers(-1, 5),
    "family": lambda rs: st.sampled_from("ABEFGQ"),
    "rank": lambda rs: st.integers(-1, 9),
    "text": lambda rs: st.sampled_from(["A3", "E5", "Q2", "A", "", "A65", "G2"]),
    "type": lambda rs: st.sampled_from([rs.type, RootSystemType("A", 65)]),
    # Records, not rewritten entry by entry: only 5 and None replace them.
    "decomposition": lambda rs: st.lists(st.sampled_from(rs.positive_roots), max_size=3).map(
        lambda roots: decomposition_from_roots(rs, roots)
    ),
    "case": lambda rs: st.builds(
        ConjugationCase,
        st.sampled_from(["LongLong", "ShortLong_C"]),
        st.sampled_from(["Minus", "Plus"]),
        st.integers(1, 3),
    ),
}
def _not_integers(rs):
    return [None, "3", 3.0, [3]]


# What replaces an argument that is not rewritten entry by entry: for a
# record 5 and None, and for a Decomposition also records whose factors are
# not a sequence of DecompositionFactor records; for a family, a type text or
# a RootSystemType 5 and None; and for an integer whose value sets the answer
# (a bound, a size, a rank), where 5 would be a valid other question, values
# that are not integers.
_RECORDS = {
    "decomposition": lambda rs: [
        5,
        None,
        *(Decomposition(rs, junk) for junk in (5, None, (5,), (None,), (rs.positive_roots[0],))),
    ],
    "case": lambda rs: [5, None],
    "family": lambda rs: [5, None],
    "text": lambda rs: [5, None],
    "type": lambda rs: [5, None],
    "bound": _not_integers,
    "size": _not_integers,
    "rank": _not_integers,
}
# Hostile in place of any argument: an int Python will not convert to a
# string (over 4300 digits), alone and in a list.
_HOSTILE = [10**5000, [10**5000]]

# (function, whether it takes the system first, its other arguments' kinds)
_BOUNDARY = [
    (is_root, True, ["vector"]),
    (reflection_of, True, ["vector"]),
    (cartan_integer, True, ["vector", "vector"]),
    (classify_conjugation, True, ["vector", "vector"]),
    (conjugated_root, True, ["vector", "vector"]),
    (positive_representative, True, ["vector"]),
    (conjugation_identity_holds, True, ["vector", "vector"]),
    (decomposition_from_roots, True, ["vectors"]),
    (compose, False, ["matrix", "matrix"]),
    (apply_matrix, False, ["matrix", "vector"]),
    (is_connected, True, ["indices"]),
    (pairing2, True, ["vector", "vector"]),
    (dominance_leq, False, ["vector", "vector"]),
    (evaluate_word, True, ["word"]),
    (length_of, True, ["element"]),
    (verify_decomposition, True, ["decomposition"]),
    (predicted_conjugate, True, ["vector", "vector", "case"]),
    (RootSystem.simple_root, True, ["index"]),
    (simple_reflection, True, ["index"]),
    (format_root, False, ["vector"]),
    (support, False, ["vector"]),
    (height, False, ["vector"]),
    (highest_root_of, True, ["indices"]),
    (parabolic_embedding, True, ["indices"]),
    (check_lambda_v, True, ["index", "index"]),
    (check_permutation_lemma, True, ["index", "index"]),
    (preserves_form, True, ["matrix"]),
    (identity_matrix, False, ["size"]),
    (parse_type, False, ["text"]),
    (system, False, ["text"]),
    (build_root_system, False, ["type"]),
    (
        _named("RootSystemType", lambda family, rank: str(RootSystemType(family, rank))),
        False,
        ["family", "rank"],
    ),
    (
        _named("count_reduced_words", lambda rs, m, b: count_reduced_words(rs, m, state_bound=b)),
        True,
        ["element", "bound"],
    ),
    (
        _named(
            "enumerate_max_orthogonal",
            lambda rs, r, s: enumerate_max_orthogonal(rs, rank_bound=r, size_bound=s),
        ),
        True,
        ["bound", "bound"],
    ),
]

# Public names left out of the table, each with its reason.
_EXEMPT = {
    **dict.fromkeys(errors.__all__, "an exception class"),
    **dict.fromkeys(["Matrix", "Root"], "a type alias"),
    **dict.fromkeys(
        [
            "ConjugationCase",
            "Decomposition",
            "DecompositionFactor",
            "LongestClassification",
            "ParabolicTower",
            "RootSystem",
            "VerificationReport",
        ],
        "a record: the functions that read its fields check them",
    ),
    **dict.fromkeys(
        [
            "canonical_decomposition",
            "classify_longest",
            "dn_orthogonality_pattern",
            "epsilon_factorization",
            "longest_element",
            "parabolic_tower",
            "recursion_relation_check",
        ],
        "reads no value but the system",
    ),
    **dict.fromkeys(
        ["descents", "reduced_word_of"],
        "a matrix outside W raises ValueError, as documented (length_of and "
        "count_reduced_words, in the table, are given elements of W only)",
    ),
}

_ENTRY = {
    "list": lambda c: c,
    "float": float,
    "bool": lambda c: bool(c) if c in (0, 1) else c,
    "str": str,
}


def _rewritten(value, how: str):
    """value with every int entry, at any depth, rewritten by ``_ENTRY[how]``;
    under "list" every tuple becomes a list."""
    if isinstance(value, int):
        return _ENTRY[how](value)
    items = [_rewritten(v, how) for v in value]
    return items if how == "list" else tuple(items)


def _outcome(f, args):
    """f(*args), or the WeylError it raises; any other exception escapes."""
    try:
        return f(*args)
    except WeylError as exc:
        return exc


@given(st.data())
@settings(max_examples=1000, deadline=None)
def test_public_inputs_are_read_as_int_tuples_or_refused(data):
    # Lists are read as tuples and bools as 0 and 1; float and str entries,
    # wrong lengths, ragged rows, an argument that is not a sequence (5,
    # None), 5 or None in place of a record (a Decomposition, a
    # ConjugationCase) and a Decomposition of values that are not factors
    # raise a WeylError.  An answer is compared by repr, so
    # a float that equals its int does not pass for it.  The checks raise
    # AssertionError explicitly, so python -O keeps them.  A 5001-digit int,
    # alone or in a list, in place of any argument ends in an answer or a
    # WeylError, never in the ValueError of converting it to a string.
    rs = data.draw(st.sampled_from(["A3", "B3", "C3", "D4", "G2"]).map(system))
    f, takes_system, kinds = data.draw(st.sampled_from(_BOUNDARY))
    args = [data.draw(_ARGUMENTS[kind](rs)) for kind in kinds]
    head = [rs] if takes_system else []
    expected = repr(_outcome(f, head + args))
    for k, kind in enumerate(kinds):
        if kind in _RECORDS:
            replacements = _RECORDS[kind](rs)
        else:
            replacements = [*(_rewritten(args[k], how) for how in _ENTRY), 5, None]
        for arg in replacements:
            changed = args[:k] + [arg] + args[k + 1 :]
            got = _outcome(f, head + changed)
            if not isinstance(got, WeylError) and repr(got) != expected:
                raise AssertionError(f"{f.__name__}{tuple(changed)}: {got!r}, not {expected}")
        for arg in _HOSTILE:  # an answer or a WeylError; any other exception escapes
            _outcome(f, head + args[:k] + [arg] + args[k + 1 :])


def test_every_public_name_is_in_the_boundary_table_or_exempt():
    covered = {f.__name__ for f, _, _ in _BOUNDARY}
    public = set(weyldecomp.__all__)
    assert not public - covered - set(_EXEMPT), sorted(public - covered - set(_EXEMPT))
    assert not covered & set(_EXEMPT), sorted(covered & set(_EXEMPT))
    assert set(_EXEMPT) <= public, sorted(set(_EXEMPT) - public)


def test_keyword_bounds_are_read_as_integers_or_refused():
    # The bounds once bypassed the boundary: "x" and None ended in TypeError,
    # a float bound was taken, and on A3 (rank <= 4 passes the guard first)
    # size_bound=None answered.
    a3, e7 = system("A3"), system("E7")
    w0 = longest_element(a3)
    refused = [
        lambda: count_reduced_words(a3, w0, state_bound="x"),
        lambda: count_reduced_words(a3, w0, state_bound=None),
        lambda: count_reduced_words(a3, w0, state_bound=2.5),
        lambda: enumerate_max_orthogonal(e7, rank_bound="x"),
        lambda: enumerate_max_orthogonal(e7, size_bound=None),
        lambda: enumerate_max_orthogonal(a3, size_bound=None),
        lambda: enumerate_max_orthogonal(a3, rank_bound=4.0),
    ]
    for call in refused:
        with pytest.raises(DimensionMismatch):
            call()
    assert count_reduced_words(a3, w0, state_bound=24) == 16
    assert len(enumerate_max_orthogonal(a3, rank_bound=True, size_bound=6)) == 1


def test_a_failing_property_test_reports_its_falsifying_example(tmp_path):
    # Under the repository's warning filters, Hypothesis's failure report
    # once imported libcst into a DeprecationWarning turned error, and the
    # run ended in INTERNALERROR instead of the falsifying example.
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 5\n"
    )
    config = Path(__file__).parents[1] / "pyproject.toml"
    command = [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path)]
    run = subprocess.run(
        [*command, "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout, run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout + run.stderr
