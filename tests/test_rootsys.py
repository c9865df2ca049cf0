"""Root-system construction, pairings, parabolic subsystems, dominance."""
from __future__ import annotations

import random
from operator import mul

import pytest

from weyldecomp import (
    DimensionMismatch,
    DisconnectedSubset,
    InvalidType,
    NotARoot,
    RootSystemType,
    TooLarge,
    UnrecognizedDiagram,
    build_root_system,
    cartan_integer,
    dominance_leq,
    format_root,
    height,
    highest_root_of,
    is_connected,
    is_root,
    pairing2,
    parabolic_embedding,
    parse_type,
    support,
    system,
)
from weyldecomp.rootsys import (
    _build_root_system,
    _components,
    _coroot,
    _diagram_bijection,
    _gram2_for,
    _lanes,
    _pack,
    _pair,
    _simple_coroots,
    negate,
)

from util import (
    FULL_SWEEP,
    POSITIVE_ROOT_COUNT,
    SUPPORTED,
    dense_components,
    dense_coroot,
    dense_pairing2,
    exhaustive_diagram_bijection,
    tuple_positive_roots,
)


def test_admissible_types_parse():
    for t in FULL_SWEEP:
        assert str(parse_type(t)) == t


@pytest.mark.parametrize("bad", ["A0", "B1", "C1", "D2", "E5", "E9", "F3", "F5", "G3", "G1"])
def test_inadmissible_types_rejected(bad):
    with pytest.raises(InvalidType):
        parse_type(bad)


def test_unparseable_type_strings_rejected():
    for text in ["H3", "X2", "A", "4F", "a3", ""]:
        with pytest.raises(InvalidType):
            parse_type(text)


def test_a_rank_of_more_than_4300_digits_is_an_invalid_type():
    # Some interpreters refuse to read so long a digit string (ValueError)
    # and others read it, so parse_type refuses it by its length alone.
    with pytest.raises(InvalidType, match="5000 digits"):
        parse_type("A" + "9" * 5000)
    assert parse_type("A" + "0" * 4298 + "64") == parse_type("A64")


def test_a_rank_of_more_than_4300_digits_is_named_by_its_first_digits():
    # Python will not convert so long an int to a string (ValueError), so
    # the messages show its first 12 digits and its digit count instead.
    with pytest.raises(InvalidType, match=r"type Q100000000000\.\.\. \(5001 digits\)$"):
        RootSystemType("Q", 10**5000)
    with pytest.raises(TooLarge, match=r"has rank 999999999999\.\.\. \(5000 digits\), over"):
        build_root_system(RootSystemType("A", 10**5000 - 1))
    with pytest.raises(TooLarge, match=r"^A999999999999 has rank 999999999999, over"):
        build_root_system(RootSystemType("A", 10**12 - 1))


def test_positive_root_counts_match_classical_formulas():
    for t, expected in POSITIVE_ROOT_COUNT.items():
        assert len(system(t).positive_roots) == expected, t


def test_positive_roots_equal_the_tuple_closure():
    for t in FULL_SWEEP + ["A64", "B64", "C64", "D64"]:
        rs = system(t)
        assert rs.positive_roots == tuple_positive_roots(rs), t


def test_lanes_read_back_packed_vectors_at_every_width():
    # Both ends of each signed range, negative lanes between positive ones
    # (a borrow into the lane above) and at the top lane (a negative int).
    for width in (1, 2):
        low, high = -(1 << 8 * width - 1), (1 << 8 * width - 1) - 1
        vectors = [(low, high), (high, low), (1, low, -1, high, 2), (3, 0, -1), (low,), (high,)]
        for v in vectors:
            assert list(_lanes([_pack(v, width)], len(v), width)) == list(v), (width, v)
        packed = [_pack(v, width) for v in vectors[:2]]
        assert list(_lanes(packed, 2, width)) == [low, high, high, low], width


def test_simple_roots_come_first_and_heights_ascend():
    for t in FULL_SWEEP:
        rs = system(t)
        roots = rs.positive_roots
        assert set(roots[: rs.rank]) == {rs.simple_root(i) for i in range(1, rs.rank + 1)}
        heights = [height(r) for r in roots]
        assert heights == sorted(heights)
        # within one height, lexicographic order
        for h in set(heights):
            level = [r for r in roots if height(r) == h]
            assert level == sorted(level)


def test_all_coefficients_nonnegative():
    for t in FULL_SWEEP:
        for r in system(t).positive_roots:
            assert all(c >= 0 for c in r)


def test_highest_roots():
    expected = {
        "A5": (1, 1, 1, 1, 1),
        "B5": (1, 2, 2, 2, 2),
        "C5": (2, 2, 2, 2, 1),
        "D5": (1, 2, 2, 1, 1),
        "E6": (1, 2, 2, 3, 2, 1),
        "E7": (2, 2, 3, 4, 3, 2, 1),
        "E8": (2, 3, 4, 6, 5, 4, 3, 2),
        "F4": (2, 3, 4, 2),
        "G2": (3, 2),
    }
    for t, v in expected.items():
        rs = system(t)
        assert rs.highest_root == v
        # the highest root dominates every positive root
        assert all(dominance_leq(r, v) for r in rs.positive_roots)


def test_g2_positive_roots_in_order():
    assert system("G2").positive_roots == (
        (0, 1), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2),
    )


def test_doubled_gram_diagonals():
    assert [system("A4").gram2[i][i] for i in range(4)] == [4, 4, 4, 4]
    assert [system("B4").gram2[i][i] for i in range(4)] == [4, 4, 4, 2]
    assert [system("C4").gram2[i][i] for i in range(4)] == [4, 4, 4, 8]
    assert [system("F4").gram2[i][i] for i in range(4)] == [4, 4, 2, 2]
    assert [system("G2").gram2[i][i] for i in range(2)] == [2, 6]
    assert [system("E6").gram2[i][i] for i in range(6)] == [4] * 6


def test_d3_is_the_relabelled_three_chain():
    # D3 carries the A3 diagram with the branch node labelled 1: 2 - 1 - 3.
    rs = system("D3")
    g = rs.gram2
    assert g[0][1] == g[0][2] == -2
    assert g[1][2] == 0


def _epsilon_simple_roots(fam: str, n: int) -> list[tuple[int, ...]]:
    """Bourbaki's simple roots in epsilon-coordinates (Lie Groups and Lie
    Algebras, Ch. VI, Plates I-IX), those of E8 and F4 doubled so that every
    entry is an integer.  E6 and E7 are the first six and seven roots of E8."""

    def vector(dim: int, *entries: tuple[int, int]) -> tuple[int, ...]:
        v = [0] * dim
        for i, c in entries:
            v[i - 1] += c
        return tuple(v)

    if fam in "ABCD":
        dim = n + 1 if fam == "A" else n
        last = {
            "A": [(n, 1), (n + 1, -1)],
            "B": [(n, 1)],
            "C": [(n, 2)],
            "D": [(n - 1, 1), (n, 1)],
        }[fam]
        return [vector(dim, (i, 1), (i + 1, -1)) for i in range(1, n)] + [vector(dim, *last)]
    if fam == "E":
        e8 = [(1, -1, -1, -1, -1, -1, -1, 1), vector(8, (1, 2), (2, 2))]
        return (e8 + [vector(8, (i - 1, -2), (i, 2)) for i in range(2, 8)])[:n]
    if fam == "F":
        return [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
    return [(1, -1, 0), (-2, 1, 1)]


# The squared length of the longest simple root in the module docstring's
# normalization: C long 4, G2 long 3, and 2 for every other family.
_LONGEST_SQUARE = {"A": 2, "B": 2, "C": 4, "D": 2, "E": 2, "F": 2, "G": 3}


def test_gram_matrices_equal_the_epsilon_coordinate_dot_products():
    # Scaling the dot products so that the longest simple root has its
    # squared length fixes every entry, 2*(a_i, a_j), as an exact integer.
    assert len(SUPPORTED) == 257
    for t in SUPPORTED:
        roots = _epsilon_simple_roots(t[0], int(t[1:]))
        longest = max(sum(map(mul, a, a)) for a in roots)
        gram2 = []
        for a in roots:
            row = []
            for b in roots:
                entry, rem = divmod(2 * _LONGEST_SQUARE[t[0]] * sum(map(mul, a, b)), longest)
                assert rem == 0, (t, a, b)
                row.append(entry)
            gram2.append(tuple(row))
        assert system(t).gram2 == tuple(gram2), t


def test_pairing_fixtures():
    g2 = system("G2")
    assert pairing2(g2, (1, 0), (0, 1)) == -3
    assert pairing2(g2, (3, 2), (3, 2)) == 6
    f4 = system("F4")
    assert pairing2(f4, (0, 1, 2, 2), (0, 0, 1, 0)) == 0
    a2 = system("A2")
    assert pairing2(a2, (1, 1), (1, 1)) == 4


def test_pairing_equals_the_dense_gram_form():
    # pairing2 reads the sparse simple Cartan rows; on roots and on lattice
    # vectors off the root lattice's roots it equals x^T G y.
    for rs in map(system, FULL_SWEEP + ["A64", "B64", "C64", "D64"]):
        roots = rs.positive_roots
        step = max(1, len(roots) // 40)
        picks = list(roots[::step]) + [tuple(range(-2, rs.rank - 2)), (3,) * rs.rank]
        for x in picks:
            for y in picks:
                assert pairing2(rs, x, y) == dense_pairing2(rs, x, y), (rs.type, x, y)


def test_pairing_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pairing2(system("A2"), (1, 0, 0), (0, 1))


def test_cartan_integer_fixtures():
    g2 = system("G2")
    assert cartan_integer(g2, (0, 1), (1, 0)) == -3
    assert cartan_integer(g2, (1, 0), (0, 1)) == -1
    e6 = system("E6")
    assert cartan_integer(e6, e6.highest_root, (0, 1, 0, 0, 0, 0)) == 1
    b3 = system("B3")
    assert cartan_integer(b3, (0, 0, 1), (0, 1, 0)) == -1
    assert cartan_integer(b3, (0, 1, 0), (0, 0, 1)) == -2


def test_cartan_integer_requires_a_root():
    with pytest.raises(NotARoot):
        cartan_integer(system("A2"), (1, 0), (2, 1))


def test_cartan_integer_accepts_negative_roots():
    a2 = system("A2")
    assert cartan_integer(a2, (1, 0), (-1, -1)) == -1



def test_root_checks_refuse_entries_that_are_not_integers():
    # A float root once passed the root check, as (1.0, 0, 0) equals and
    # hashes as (1, 0, 0): in A3 cartan_integer gave -1.0 for it, and 0.0
    # for the lattice vector (0.5, 1, 0), which was never checked.
    a3 = system("A3")
    with pytest.raises(DimensionMismatch):
        cartan_integer(a3, (0, 1, 0), (1.0, 0, 0))
    with pytest.raises(DimensionMismatch):
        cartan_integer(a3, (0.5, 1, 0), (1, 0, 0))
    with pytest.raises(DimensionMismatch):
        cartan_integer(a3, (0, "1", 0), (1, 0, 0))
    for x in [(1.0, 0, 0), (0, "1", 0), "abc"]:
        with pytest.raises(DimensionMismatch):
            is_root(a3, x)
    # lists are read as their tuples, bools as 0 and 1
    assert is_root(a3, [1, True, 0])
    assert not is_root(a3, [1, 0, 1])
    assert cartan_integer(a3, [0, 1, 0], [True, 0, 0]) == -1


def test_cartan_integer_on_a_fresh_system_equals_the_dense_coroot_pairing():
    # One pairing computes the coroot of one root, on a system built afresh.
    for t in ["B4", "G2"]:
        rs = system(t)
        roots = rs.positive_roots + tuple(negate(r) for r in rs.positive_roots)
        expected = [_pair(x, dense_coroot(rs.gram2, a)) for a in roots for x in rs.positive_roots]
        fresh = _build_root_system.__wrapped__(parse_type(t))
        got = [cartan_integer(fresh, x, a) for a in roots for x in fresh.positive_roots]
        assert got == expected, t


def test_is_root_and_support():
    b3 = system("B3")
    assert is_root(b3, (1, 2, 2))
    assert is_root(b3, (-1, -2, -2))
    assert not is_root(b3, (2, 2, 2))
    assert support((0, 1, 2, 0)) == (2, 3)
    assert support((0, 0, 0)) == ()


def test_connectivity():
    e6 = system("E6")
    assert is_connected(e6, (1, 3, 4))
    assert not is_connected(e6, (1, 2))  # nodes 1 and 2 are not adjacent
    assert is_connected(e6, (2, 4))
    assert not is_connected(e6, ())



def test_is_connected_refuses_indices_outside_the_diagram():
    # (1, 5) once raised IndexError and (1.5, 2) TypeError, where
    # highest_root_of raises DisconnectedSubset.
    a3 = system("A3")
    for J in [(1, 5), (0, 1), (1.5, 2), (1.0,), ("1",), "12", [None]]:
        with pytest.raises(DisconnectedSubset):
            is_connected(a3, J)
    assert not is_connected(a3, ())
    assert is_connected(a3, [True, 2])
    assert is_connected(a3, {3, 2})


def test_highest_root_of_fixtures():
    f4 = system("F4")
    assert highest_root_of(f4, (2, 3)) == (0, 1, 2, 0)
    assert highest_root_of(f4, (1, 2, 3, 4)) == (2, 3, 4, 2)
    b5 = system("B5")
    assert highest_root_of(b5, (4, 5)) == (0, 0, 0, 1, 2)
    c5 = system("C5")
    assert highest_root_of(c5, (3, 4, 5)) == (0, 0, 2, 2, 1)
    e7 = system("E7")
    assert highest_root_of(e7, (2, 3, 4, 5)) == (0, 1, 1, 2, 1, 0, 0)
    assert highest_root_of(e7, (2, 3, 4, 5, 6, 7)) == (0, 1, 1, 2, 2, 2, 1)


def test_highest_root_of_rejects_bad_index_sets():
    e6 = system("E6")
    with pytest.raises(DisconnectedSubset):
        highest_root_of(e6, (1, 2))
    with pytest.raises(DisconnectedSubset):
        highest_root_of(e6, ())
    with pytest.raises(DisconnectedSubset):
        highest_root_of(e6, (0, 1))
    with pytest.raises(DisconnectedSubset):
        highest_root_of(e6, (5, 6, 7))


def test_parabolic_embedding_fixtures():
    f4 = system("F4")
    inner, idx = parabolic_embedding(f4, (2, 3, 4))
    assert str(inner.type) == "C3"
    assert idx == {1: 4, 2: 3, 3: 2}

    e8 = system("E8")
    inner, idx = parabolic_embedding(e8, tuple(range(1, 8)))
    assert str(inner.type) == "E7"
    assert idx == {i: i for i in range(1, 8)}

    d6 = system("D6")
    inner, idx = parabolic_embedding(d6, (3, 4, 5, 6))
    assert str(inner.type) == "D4"
    assert idx == {1: 3, 2: 4, 3: 5, 4: 6}

    a5 = system("A5")
    inner, idx = parabolic_embedding(a5, (2,))
    assert str(inner.type) == "A1"
    assert idx == {1: 2}


def test_parabolic_embedding_of_a_whole_exceptional_diagram():
    # No D, E or F system has rank 2 and no E system rank 4, so the family
    # walk passes over those ranks before it reaches G2 and F4.
    for t in ("G2", "F4"):
        rs = system(t)
        nodes = tuple(range(1, rs.rank + 1))
        inner, idx = parabolic_embedding(rs, nodes)
        assert str(inner.type) == t
        assert idx == {i: i for i in nodes}


def test_parabolic_embedding_prefers_earliest_family():
    # The rank-2 double-bond diagram is reported in its B labelling.
    c3 = system("C3")
    inner, idx = parabolic_embedding(c3, (2, 3))
    assert str(inner.type) == "B2"
    assert idx == {1: 3, 2: 2}
    # A three-chain inside D4 is reported as A3, not D3.
    d4 = system("D4")
    inner, _ = parabolic_embedding(d4, (1, 2, 3))
    assert str(inner.type) == "A3"


def test_parabolic_embedding_preserves_cartan_integers():
    for t, J in [("E7", (2, 3, 4, 5)), ("F4", (2, 3, 4)), ("B5", (3, 4, 5))]:
        rs = system(t)
        inner, idx = parabolic_embedding(rs, J)
        for p in range(1, inner.rank + 1):
            for q in range(1, inner.rank + 1):
                lhs = cartan_integer(inner, inner.simple_root(q), inner.simple_root(p))
                rhs = cartan_integer(
                    rs, rs.simple_root(idx[q]), rs.simple_root(idx[p])
                )
                assert lhs == rhs


def test_pruned_diagram_match_equals_the_exhaustive_walk():
    # Every family of the subset's rank against every connected subset: the
    # pruned walk and the exhaustive reference agree, on misses (None) too,
    # and every subset matches some family.
    subsets = 0
    for t in ["A6", "B6", "C6", "D4", "D6", "E6", "E7", "E8", "F4", "G2"]:
        rs = system(t)
        for bits in range(1, 1 << rs.rank):
            nodes = tuple(i for i in range(1, rs.rank + 1) if bits >> (i - 1) & 1)
            if not is_connected(rs, nodes):
                continue
            matches = []
            for fam in "ABCDEFG":
                try:
                    inner = RootSystemType(fam, len(nodes))
                except InvalidType:
                    continue
                gram2 = _gram2_for(inner)
                match = _diagram_bijection(gram2, rs, nodes)
                assert match == exhaustive_diagram_bijection(gram2, rs, nodes), (t, nodes, fam)
                matches.append(match)
            assert any(matches), (t, nodes)
            subsets += 1
    assert subsets == 214


def test_parabolic_embedding_rejects_disconnected():
    with pytest.raises(UnrecognizedDiagram):
        parabolic_embedding(system("A4"), (1, 3))


def test_index_sets_of_non_integers_are_refused():
    # A string or float entries are no index set: a library error, not a
    # TypeError from comparing or indexing with them.
    a3 = system("A3")
    for J in ("12", [1.0, 2.0], [1, "2"], [None], 3):
        with pytest.raises(DisconnectedSubset):
            highest_root_of(a3, J)
        with pytest.raises(UnrecognizedDiagram):
            parabolic_embedding(a3, J)
    # integer-like entries keep their meaning
    assert highest_root_of(a3, [True, 2]) == (1, 1, 0)
    assert parabolic_embedding(a3, {3, 2})[1] == {1: 2, 2: 3}


def test_simple_root_refuses_indices_that_are_not_integers():
    a3 = system("A3")
    for i in (1.0, 1.5, "1", None):
        with pytest.raises(DimensionMismatch):
            a3.simple_root(i)
    assert a3.simple_root(3) == (0, 0, 1)


def test_simple_root_refuses_indices_outside_one_to_rank():
    a3 = system("A3")
    for i in (0, 4, -1):
        with pytest.raises(DimensionMismatch, match=f"index {i} outside 1..3"):
            a3.simple_root(i)


def test_every_root_of_every_supported_type_fits_a_signed_byte():
    # The packed walk in weyl keeps one signed byte (-128..127) per
    # coefficient of a column, and every column it decodes is a root.  A_n,
    # B_n, C_n and D_n have the Cartan rows of the last n nodes of rank 64, so
    # their roots, the closure of the simple roots under those rows, are the
    # roots of rank 64 on those nodes: rank 64 bounds every rank.
    for fam, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        top = system(f"{fam}64")
        for n in range(low, 64):
            shift = 64 - n
            tail = tuple(
                tuple((j - shift, c) for j, c in row if j >= shift)
                for row in top.simple_coroots[shift:]
            )
            assert _simple_coroots(_gram2_for(RootSystemType(fam, n))) == tail, (fam, n)
        padded = {(0,) * 56 + r for r in system(f"{fam}8").positive_roots}
        assert padded <= set(top.positive_roots), fam
        assert max(map(max, top.positive_roots)) == {"A": 1, "B": 2, "C": 2, "D": 2}[fam]
    for t, top_coefficient in {"E6": 3, "E7": 4, "E8": 6, "F4": 4, "G2": 3}.items():
        assert max(map(max, system(t).positive_roots)) == top_coefficient, t


def test_every_root_packs_in_signed_bytes_to_an_int_of_its_sign():
    # The greedy walk's sign test reads a packed column as a root: its
    # coefficients share one sign and lie in -6..6, so the top nonzero lane
    # gives the int's sign.
    for t in SUPPORTED:
        for r in system(t).positive_roots:
            assert _pack(r, 1) > 0 > _pack(negate(r), 1), (t, r)


def test_dominance():
    assert dominance_leq((0, 1, 0), (1, 1, 1))
    assert not dominance_leq((1, 1, 1), (0, 1, 0))
    assert dominance_leq((0, 1, 0), (0, 1, 0))
    assert not dominance_leq((1, 0, 0), (0, 1, 1))
    with pytest.raises(DimensionMismatch):
        dominance_leq((1, 0), (1, 0, 0))


def test_format_root():
    assert format_root((0, 1, 2, 0)) == "a2+2a3"
    assert format_root((1, 0)) == "a1"
    assert format_root((-1, -2)) == "-a1-2a2"
    assert format_root((0, 0)) == "0"


def test_pairing_refuses_entries_that_are_not_integers():
    a3 = system("A3")
    for x, y in [((0.5, 0, 0), (1, 0, 0)), ((1, 0, 0), (0, 0.5, 0)), ((1, 0, 0), "abc")]:
        with pytest.raises(DimensionMismatch):
            pairing2(a3, x, y)
    assert pairing2(a3, [True, 0, 0], [1, False, 0]) == pairing2(a3, (1, 0, 0), (1, 0, 0)) == 4


def test_dominance_refuses_entries_that_are_not_integers():
    for x, y in [((0.5,), (1,)), ((0,), (0.5,)), ((1, 0), "ab")]:
        with pytest.raises(DimensionMismatch):
            dominance_leq(x, y)
    assert dominance_leq([0, True], (1, 1))
    assert not dominance_leq((1, 1), [True, False])


def test_height_refuses_entries_that_are_not_integers():
    for x in [(0.5, 0, 0), "abc"]:
        with pytest.raises(DimensionMismatch):
            height(x)
    assert height([1, True, 2]) == 4


def test_format_root_refuses_entries_that_are_not_integers():
    for x in [(0.5, 1, 2), "abc"]:
        with pytest.raises(DimensionMismatch):
            format_root(x)
    assert format_root([True, 0, -2]) == "a1-2a3"


def test_support_refuses_entries_that_are_not_integers():
    for x in ["abc", (0.5, 1, 0)]:
        with pytest.raises(DimensionMismatch):
            support(x)
    assert support([True, 0, 2]) == (1, 3)


def test_root_system_instances_are_shared():
    assert system("F4") is build_root_system(RootSystemType("F", 4))


def test_simple_cartan_rows_read_off_the_gram_matrix_equal_the_coroots():
    for rs in map(system, FULL_SWEEP + ["A64", "B64", "C64", "D64"]):
        for i, row in enumerate(_simple_coroots(rs.gram2)):
            assert row == dense_coroot(rs.gram2, rs.simple_root(i + 1)), (rs.type, i)
            assert len(row) <= 4


def test_coroot_of_every_root_and_its_negative_matches_the_dense_gram_form():
    # Every root up to rank 8; at rank 64, where G a sums the most sparse
    # rows, every root on a stride of about 40 roots.
    for t in FULL_SWEEP + ["A64", "B64", "C64", "D64"]:
        rs = system(t)
        roots = rs.positive_roots
        for r in roots[:: max(1, len(roots) // 40)] if rs.rank == 64 else roots:
            assert _coroot(rs, r) == dense_coroot(rs.gram2, r), (t, r)
            assert _coroot(rs, negate(r)) == dense_coroot(rs.gram2, negate(r)), (t, r)


def test_components_match_the_dense_gram_search():
    # Every subset of the nodes up to rank 8, in any order, and random
    # subsets at rank 64, where the forks and double bonds sit at the end.
    for t in FULL_SWEEP:
        rs = system(t)
        for mask in range(1 << rs.rank):
            nodes = [i for i in range(rs.rank, 0, -1) if mask >> (i - 1) & 1]
            assert _components(rs, nodes) == dense_components(rs, nodes), (t, nodes)
    for t in ["A64", "B64", "C64", "D64"]:
        rs = system(t)
        rng = random.Random(t)
        for _ in range(200):
            nodes = rng.sample(range(1, 65), rng.randint(0, 64))
            assert _components(rs, nodes) == dense_components(rs, nodes), (t, nodes)
