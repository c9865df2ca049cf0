"""The paper's uniqueness as one frame out of N.  A frame is a set of d
pairwise orthogonal positive roots that w0 negates; the minimal reflection
factorizations of w0 are exactly the orderings of the frames, and of all
frames, only the canonical one passes the five checks of
``verify_decomposition``.  The frames come from the reference clique walk
``util.frames``, not from the package's search."""
from __future__ import annotations

from itertools import combinations, product
from math import factorial, prod

import pytest

from weyldecomp import (
    canonical_decomposition,
    decomposition_from_roots,
    system,
    verify_decomposition,
)

from util import (
    dense_pairing2,
    frames,
    generate_group,
    reference_longest_element,
    reflection_distances,
    tuple_reflection_product,
)

FRAME_TYPES = (
    [f"A{n}" for n in range(1, 10)]
    + [f"{fam}{n}" for fam in "BC" for n in range(2, 7)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

# Frame counts of the exceptional types, recorded from the clique walk.
_EXCEPTIONAL_FRAMES = {"E6": 3, "E7": 135, "E8": 2025, "F4": 24, "G2": 3}


def _involutions(n: int) -> int:
    """The involutions of n points, I(n) = I(n - 1) + (n - 1) I(n - 2)."""
    before, count = 1, 1
    for k in range(2, n + 1):
        before, count = count, count + (k - 1) * before
    return count


def expected_frame_count(t: str) -> int:
    """In A_n the one frame is the cascade.  In B_n and C_n a frame is a
    partial matching of 1..n: e_i - e_j and e_i + e_j for each matched pair,
    and the root along e_k for each fixed point.  In D_n it is a perfect
    matching of the 2 floor(n/2) coordinates that w0 negates, (2 floor(n/2)
    - 1)!! of them."""
    if t in _EXCEPTIONAL_FRAMES:
        return _EXCEPTIONAL_FRAMES[t]
    fam, n = t[0], int(t[1:])
    if fam == "A":
        return 1
    if fam in "BC":
        return _involutions(n)
    return prod(range(2 * (n // 2) - 1, 0, -2))


def test_the_closed_forms_give_the_known_counts():
    assert [_involutions(n) for n in range(2, 7)] == [2, 4, 10, 26, 76]
    assert [expected_frame_count(f"D{n}") for n in range(4, 9)] == [3, 3, 15, 15, 105]


@pytest.mark.parametrize("t", FRAME_TYPES)
def test_frame_count_is_the_closed_form(t):
    rs = system(t)
    found = frames(rs)
    assert len(found) == expected_frame_count(t), t
    assert {len(frame) for frame in found} == {len(canonical_decomposition(rs).factors)}, t


@pytest.mark.parametrize("t", FRAME_TYPES)
def test_exactly_one_frame_passes_the_five_checks_and_it_is_the_canonical_set(t):
    # Every frame multiplies to w0 and is orthogonal; the highest-root and
    # chain checks rule out all but one.
    rs = system(t)
    passing = [
        frame
        for frame in frames(rs)
        if verify_decomposition(rs, decomposition_from_roots(rs, frame)).all_ok()
    ]
    assert len(passing) == 1, (t, len(passing))
    assert set(passing[0]) == set(canonical_decomposition(rs).roots), t


@pytest.mark.parametrize("t", ["A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"])
def test_the_reflection_factorizations_of_w0_of_length_d_are_the_orderings_of_the_frames(t):
    # By brute force over every d-tuple of reflections, one per positive root.
    rs = system(t)
    found = frames(rs)
    d = len(found[0])
    w0 = reference_longest_element(rs)
    factorizations = [
        roots
        for roots in product(rs.positive_roots, repeat=d)
        if tuple_reflection_product(rs, roots) == w0
    ]
    assert len(factorizations) == factorial(d) * len(found), t
    assert {frozenset(roots) for roots in factorizations} == {frozenset(f) for f in found}, t
    for roots in factorizations:
        assert all(dense_pairing2(rs, x, y) == 0 for x, y in combinations(roots, 2)), (t, roots)


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"])
def test_absolute_length_of_w0_is_the_factor_count_and_is_at_most_the_length(t):
    # The paper's two length functions: l in the simple reflections, l_a in
    # all reflections, each a BFS distance over the whole group.
    rs = system(t)
    length = generate_group(rs)
    absolute = reflection_distances(rs)
    assert absolute.keys() == length.keys(), t
    w0 = max(length, key=length.get)
    assert absolute[w0] == len(canonical_decomposition(rs).factors), t
    for m, l in length.items():
        assert absolute[m] <= l and (l - absolute[m]) % 2 == 0, (t, m)
