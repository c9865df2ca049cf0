"""The package's frozen records: construction, repr, equality and hashing,
immutability, pickling and copying."""
from __future__ import annotations

import copy
import pickle

import pytest

from weyldecomp import (
    InvalidType,
    canonical_decomposition,
    parabolic_tower,
    system,
    verify_decomposition,
)
from weyldecomp.decompose import (
    Decomposition,
    DecompositionFactor,
    ParabolicTower,
    VerificationReport,
)
from weyldecomp.rootsys import RootSystem, RootSystemType, build_root_system, parse_type
from weyldecomp.weyl import LongestClassification, classify_longest
from weyldecomp.words import ConjugationCase, classify_conjugation

A2 = system("A2")
A2_REPR = "RootSystem(type=RootSystemType(family='A', rank=2), gram2=((4, -2), (-2, 4)))"
FACTOR = DecompositionFactor((1, 1), "highest")

# (class, field names, field values, repr), one row per record class.
RECORDS = [
    (RootSystemType, ("family", "rank"), ("A", 2), "RootSystemType(family='A', rank=2)"),
    (
        RootSystem,
        (
            "type",
            "gram2",
            "simple_coroots",
            "positive_roots",
            "root_index",
            "longest",
            "longest_word",
        ),
        (
            A2.type,
            A2.gram2,
            A2.simple_coroots,
            A2.positive_roots,
            A2.root_index,
            A2.longest,
            A2.longest_word,
        ),
        A2_REPR,
    ),
    (
        LongestClassification,
        ("kind", "automorphism"),
        ("minus_automorphism", (2, 1)),
        "LongestClassification(kind='minus_automorphism', automorphism=(2, 1))",
    ),
    (
        ConjugationCase,
        ("rule", "sign", "coefficient"),
        ("LongShort_B_F4", "Minus", 1),
        "ConjugationCase(rule='LongShort_B_F4', sign='Minus', coefficient=1)",
    ),
    (
        DecompositionFactor,
        ("root", "kind"),
        ((1, 1), "highest"),
        "DecompositionFactor(root=(1, 1), kind='highest')",
    ),
    (
        Decomposition,
        ("system", "factors"),
        (A2, (FACTOR,)),
        f"Decomposition(system={A2_REPR}, "
        "factors=(DecompositionFactor(root=(1, 1), kind='highest'),))",
    ),
    (
        VerificationReport,
        ("orthogonal", "highest_root_ok", "chain_ok", "product_is_w0", "count_ok"),
        (True, False, True, True, False),
        "VerificationReport(orthogonal=True, highest_root_ok=False, chain_ok=True, "
        "product_is_w0=True, count_ok=False)",
    ),
    (
        ParabolicTower,
        ("system", "supports"),
        (A2, ((1, 2),)),
        f"ParabolicTower(system={A2_REPR}, supports=((1, 2),))",
    ),
]
IDS = [row[0].__name__ for row in RECORDS]
# Records whose fields hold a RootSystem, which compares by identity.
HOLDS_SYSTEM = (RootSystem, Decomposition, ParabolicTower)


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_construction_by_position_and_by_keyword(cls, names, values, text):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for record in (by_position, by_keyword):
        assert [getattr(record, name) for name in names] == list(values)
        assert repr(record) == text


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_a_missing_or_extra_field_is_a_type_error(cls, names, values, text):
    keywords = dict(zip(names, values))
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(**{name: keywords[name] for name in names[1:]})
    with pytest.raises(TypeError):
        cls(**keywords, extra=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_equality_and_hash(cls, names, values, text):
    first, second = cls(*values), cls(*values)
    assert first == first and hash(first) == hash(first)
    assert first != tuple(values)
    if cls is RootSystem:
        assert first != second
        assert len({first, second}) == 2
    else:
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, values, text):
    record = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is values[names.index(name)]
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_round_trips(cls, names, values, text):
    record = cls(*values)
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(twin) is cls and twin is not record
        assert repr(twin) == text
        if cls in HOLDS_SYSTEM:
            # a copied RootSystem is a new system, unequal to the original
            assert twin != record
        else:
            assert twin == record and hash(twin) == hash(record)
    rs = pickle.loads(pickle.dumps(A2))
    assert (rs.simple_coroots, rs.positive_roots, rs.root_index, rs.longest_word) == (
        A2.simple_coroots,
        A2.positive_roots,
        A2.root_index,
        A2.longest_word,
    )


def test_root_system_type_validates():
    with pytest.raises(InvalidType):
        RootSystemType("Z", 3)
    with pytest.raises(InvalidType):
        RootSystemType(family="E", rank=5)
    assert str(RootSystemType("E", 8)) == "E8"


def test_the_repr_of_a_record_with_a_huge_rank_returns():
    # repr once formatted each field with !r, which raises ValueError for an
    # int of more than 4300 digits; it now shows fields as messages do.
    t = RootSystemType("A", 10**5000)
    assert repr(t) == "RootSystemType(family='A', rank=100000000000... (5001 digits))"
    assert str(t) == "A100000000000... (5001 digits)"


def test_a_rank_is_read_as_an_int_and_a_type_text_as_a_str_or_refused():
    # A bool rank once stayed a bool: RootSystemType("A", True) equals and
    # hashes as A1, so the system built for it, printed as ATrue with rank
    # True, was the one system("A1") then returned from the cache.
    t = RootSystemType("A", True)
    assert type(t.rank) is int and t == RootSystemType("A", 1) and str(t) == "A1"
    assert type(build_root_system(t).rank) is int
    bad = [
        lambda: RootSystemType("B", 3.0),
        lambda: RootSystemType("A", "3"),
        lambda: RootSystemType(["A"], 3),
        lambda: parse_type(5),
        lambda: parse_type(b"A3"),
        lambda: system(None),
    ]
    for make in bad:
        with pytest.raises(InvalidType):
            make()


def test_the_library_returns_these_records():
    dec = canonical_decomposition(A2)
    assert repr(dec) == RECORDS[5][3]
    assert repr(parabolic_tower(A2)) == RECORDS[7][3]
    assert repr(classify_longest(A2)) == RECORDS[2][3]
    assert repr(verify_decomposition(A2, dec)) == (
        "VerificationReport(orthogonal=True, highest_root_ok=True, chain_ok=True, "
        "product_is_w0=True, count_ok=True)"
    )
    assert verify_decomposition(A2, dec).all_ok()
    assert not VerificationReport(True, True, True, False, True).all_ok()
    case = classify_conjugation(system("B2"), (1, 0), (0, 1))
    assert repr(case) == "ConjugationCase(rule='LongShort_B_F4', sign='Minus', coefficient=1)"
    assert FACTOR.span == (1, 2)
