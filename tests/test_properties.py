"""Property-based invariants over random systems, roots, and words."""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from weyldecomp import (
    WeylError,
    apply_matrix,
    cartan_integer,
    classify_conjugation,
    compose,
    conjugated_root,
    conjugation_identity_holds,
    decomposition_from_roots,
    dominance_leq,
    evaluate_word,
    identity_matrix,
    is_connected,
    is_root,
    length_of,
    longest_element,
    pairing2,
    positive_representative,
    preserves_form,
    reduced_word_of,
    reflection_of,
    system,
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
def _matrices(draw, rs):
    """Reflections of rs and small integer matrices, the rank square, or
    with one row or one entry of a row too many or too few."""
    reflections = st.sampled_from(rs.positive_roots).map(lambda r: reflection_of(rs, r))
    square = st.tuples(*[st.tuples(*[st.integers(-2, 2)] * rs.rank)] * rs.rank)
    rows = list(draw(reflections | square))
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


_ARGUMENTS = {
    "vector": _vectors,
    "vectors": lambda rs: st.lists(_vectors(rs), max_size=3),
    "matrix": _matrices,
    "indices": _index_sets,
}

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
]

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
@settings(max_examples=300, deadline=None)
def test_public_inputs_are_read_as_int_tuples_or_refused(data):
    # Lists are read as tuples and bools as 0 and 1; float and str entries,
    # wrong lengths and ragged rows raise a WeylError.  An answer is compared
    # by repr, so a float that equals its int does not pass for it.  The
    # checks raise AssertionError explicitly, so python -O keeps them.
    rs = data.draw(st.sampled_from(["A3", "B3", "C3", "D4", "G2"]).map(system))
    f, takes_system, kinds = data.draw(st.sampled_from(_BOUNDARY))
    args = [data.draw(_ARGUMENTS[kind](rs)) for kind in kinds]
    head = [rs] if takes_system else []
    expected = repr(_outcome(f, head + args))
    for k in range(len(args)):
        for how in _ENTRY:
            changed = args[:k] + [_rewritten(args[k], how)] + args[k + 1 :]
            got = _outcome(f, head + changed)
            if not isinstance(got, WeylError) and repr(got) != expected:
                raise AssertionError(f"{f.__name__}{tuple(changed)}: {got!r}, not {expected}")
