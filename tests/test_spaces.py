import itertools
from fractions import Fraction
from math import comb

import pytest

from modulicones import spaces
from modulicones.linalg import primitive, rank
from modulicones.spaces import (
    BoundaryLabel,
    SpaceId,
    boundary_class,
    boundary_count,
    canonical_label,
    enumerate_boundaries,
    express_in_basis,
    fully_pointed,
    picard_number,
    relabel_sum,
    relations_and_basis,
    sum_to_vector,
    transport_sum,
)
from attaching_oracle import keel_relations
from transport_oracle import forgetful_pullback_sum, quotient_pushforward_sum

F = Fraction

BOUNDARY_COUNTS = {0: lambda n: n // 2 - 1, 1: lambda n: n - 3, 2: lambda n: 2 * n - 6, 3: lambda n: 4 * n - 13}
PICARD = {0: lambda n: n // 2 - 1, 1: lambda n: n - 3, 2: lambda n: 2 * n - 7, 3: lambda n: 4 * n - 16}


@pytest.mark.parametrize("n", range(5, 13))
@pytest.mark.parametrize("m", range(4))
def test_boundary_and_picard_counts(n, m):
    s = SpaceId(n, m)
    assert len(enumerate_boundaries(s)) == BOUNDARY_COUNTS[m](n)
    assert picard_number(s) == PICARD[m](n)


@pytest.mark.parametrize("s", [SpaceId(n, m) for n in range(4, 15) for m in range(n + 1)], ids=str)
def test_boundary_count_matches_the_enumerated_labels(s):
    assert boundary_count(s) == len(enumerate_boundaries(s))


def _relation_rank(s):
    """The rank of Keel's relations pushed down to ``s``, over its labels:
    the reference the closed form of `picard_number` is checked against."""
    full = fully_pointed(s.n)
    labels = enumerate_boundaries(full)
    rows = [
        sum_to_vector(s, transport_sum(full, {l: c for l, c in zip(labels, row) if c}, s))
        for row in keel_relations(s.n)
    ]
    return rank(rows)


def _closed_form_rank(s):
    return comb(s.m, 2) if s.m <= s.n - 2 else s.n * (s.n - 3) // 2


@pytest.mark.parametrize("s", [SpaceId(n, m) for n in range(4, 11) for m in range(n + 1)], ids=str)
def test_picard_number_is_the_boundary_count_less_the_pushed_relation_rank(s):
    r = _relation_rank(s)
    assert r == _closed_form_rank(s)
    assert picard_number(s) == len(enumerate_boundaries(s)) - r


@pytest.mark.parametrize("s", [SpaceId(n, m) for n in range(4, 13) for m in range(min(n, 3) + 1)], ids=str)
def test_stored_relations_number_the_closed_form_rank(s):
    spec = relations_and_basis(s)
    assert len(spec.relations) == _closed_form_rank(s)
    assert picard_number(s) == len(spec.ordered_basis)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_keel_relations_count_and_rank(n):
    rels = keel_relations(n)
    assert len(rels) == n * (n - 3) // 2  # == C(n,2) - n
    boundaries = enumerate_boundaries(fully_pointed(n))
    assert len(boundaries) == 2 ** (n - 1) - 1 - n
    assert rank(rels) == len(rels)
    assert len(boundaries) - rank(rels) == 2 ** (n - 1) - 1 - n * (n - 1) // 2


def test_canonical_label_identifies_complements():
    s = SpaceId(8, 3)
    a = canonical_label(s, 3, frozenset({1, 3}))
    b = canonical_label(s, 5, frozenset({2}))
    assert a == b


def test_pushforward_degree_rule():
    src, dst = fully_pointed(6), SpaceId(6, 3)

    def lab(*pts):
        return canonical_label(src, len(pts), frozenset(pts))

    moved = transport_sum(src, {lab(3, 6): F(1)}, dst)
    assert moved == {canonical_label(dst, 2, {3}): F(2)}
    fixed = transport_sum(src, {lab(1, 2): F(1)}, dst)
    assert fixed == {canonical_label(dst, 2, {1, 2}): F(6)}


def test_basis_reduction_x52():
    s = SpaceId(5, 2)
    b2 = boundary_class(s, canonical_label(s, 2, {1, 2}))
    assert b2.coords == (F(-1, 3), F(1, 3), F(1, 3))


def test_basis_reduction_x63():
    s = SpaceId(6, 3)
    v = boundary_class(s, canonical_label(s, 2, {1, 2}))
    assert v.coords == tuple(F(c, 3) for c in (-1, 1, 1, 0, -3, 1, 1, -1))


def test_basis_reduction_x73():
    s = SpaceId(7, 3)
    v = boundary_class(s, canonical_label(s, 2, {1, 2}))
    assert v.coords == tuple(F(c, 12) for c in (-2, 3, 3, 0, -6, 4, 4, -2, -6, 3, 3, -12))


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("m", range(4))
def test_relations_collapse_in_every_quotient(n, m):
    full = fully_pointed(n)
    labels = enumerate_boundaries(full)
    s = SpaceId(n, m)
    for relation in keel_relations(n):
        formal = {l: c for l, c in zip(labels, relation) if c}
        cls = express_in_basis(s, transport_sum(full, formal, s))
        assert all(c == 0 for c in cls.coords), (n, m)


def _ftau_sum():
    src = fully_pointed(6)

    def lab(*pts):
        return canonical_label(src, len(pts), frozenset(pts))

    out: dict = {}
    for sgn, pts in [
        (1, (3, 6)), (1, (4, 6)), (1, (5, 6)), (-1, (1, 6)), (-1, (2, 6)),
        (-1, (1, 3, 6)), (-1, (1, 4, 6)), (-1, (2, 3, 6)), (-1, (2, 4, 6)),
        (1, (3, 4, 6)), (1, (3, 5, 6)), (1, (1, 2)),
    ]:
        out[lab(*pts)] = out.get(lab(*pts), F(0)) + sgn
    return out


def test_moving_divisor_pushdown_n6():
    s = SpaceId(6, 3)
    pushed = express_in_basis(s, transport_sum(fully_pointed(6), _ftau_sum(), s))
    assert pushed.coords == tuple(2 * F(c) for c in (1, 0, 0, 1, -3, -1, -1, 1))


def test_moving_divisor_transport_to_n7():
    formal = quotient_pushforward_sum(fully_pointed(6), _ftau_sum(), SpaceId(6, 3))
    lifted = forgetful_pullback_sum(SpaceId(6, 3), formal, SpaceId(7, 4))
    pushed = express_in_basis(SpaceId(7, 3), quotient_pushforward_sum(SpaceId(7, 4), lifted, SpaceId(7, 3)))
    # the preimage where point 4 joins the two-point undistinguished side
    # carries 2 (tests/test_fcurve_oracle.py confirms this vector)
    assert pushed.coords == tuple(F(c) for c in (4, 0, 0, 6, 0, -4, -4, 8, 6, -6, -6, -24))


def test_cotangent_class_symmetrization():
    # psi at the last point, symmetrized keeping that point distinguished
    src = fully_pointed(7)
    formal: dict = {}
    for k in range(1, 5):
        for extra in itertools.combinations((3, 4, 5, 6), k):
            members = frozenset((7,) + extra)
            lbl = canonical_label(src, len(members), members)
            formal[lbl] = formal.get(lbl, F(0)) + 1
    assert len(formal) == 15 and all(v == 1 for v in formal.values())
    swapped = relabel_sum(7, formal, {1: 7, 7: 1})
    cls = express_in_basis(SpaceId(7, 1), transport_sum(src, swapped, SpaceId(7, 1)))
    assert cls.coords == tuple(48 * F(c) for c in (10, 6, 3, 1))
    assert primitive(cls.coords) == (10, 6, 3, 1)


def test_boundary_classes_against_the_ordered_basis():
    s = SpaceId(7, 1)
    assert relations_and_basis(s).ordered_basis == ("b2", "b3", "b4", "b5")
    marked = [canonical_label(s, size, {1}) for size in (2, 3, 4)]
    assert [boundary_class(s, lbl).coords for lbl in marked] == [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
    ]
    # the unmarked size-2 boundary is the branch divisor: twice the top
    # half-class of the basis
    branch = canonical_label(s, 2, frozenset())
    assert boundary_class(s, branch).coords == (0, 0, 0, 2)


def test_express_in_basis_is_linear():
    s = SpaceId(7, 1)
    l2 = canonical_label(s, 2, {1})
    l5 = canonical_label(s, 2, frozenset())
    combined = express_in_basis(s, {l2: F(3), l5: F(-1, 2)})
    assert combined.coords == (3, 0, 0, -1)


def test_space_id_validation():
    with pytest.raises(ValueError):
        SpaceId(3, 0)
    with pytest.raises(ValueError):
        SpaceId(6, 7)


@pytest.mark.parametrize("n, m", [(9.0, 1), (9, 1.0), (9, True), (True, 0), ("9", 1)])
def test_space_id_takes_only_int_counts(n, m):
    with pytest.raises(TypeError):
        SpaceId(n, m)


@pytest.mark.parametrize(
    "s, label",
    [
        (SpaceId(7, 1), BoundaryLabel(6, frozenset())),
        (SpaceId(7, 2), BoundaryLabel(2, frozenset({3}))),
        (SpaceId(7, 0), BoundaryLabel(6, frozenset())),
        (SpaceId(7, 3), BoundaryLabel(1, frozenset({1}))),
    ],
)
def test_express_in_basis_rejects_foreign_labels(s, label):
    with pytest.raises(ValueError):
        express_in_basis(s, {label: F(1)})


@pytest.mark.parametrize("m", range(4))
def test_express_in_basis_accepts_mirror_labels(m):
    s = SpaceId(7, m)
    for label in enumerate_boundaries(s):
        mirror = BoundaryLabel(s.n - label.size, s.distinguished - label.marks)
        assert express_in_basis(s, {mirror: F(1)}) == boundary_class(s, label)


@pytest.mark.parametrize("m", range(4))
def test_sum_to_vector_accepts_mirror_labels(m):
    s = SpaceId(7, m)
    for label in enumerate_boundaries(s):
        mirror = BoundaryLabel(s.n - label.size, s.distinguished - label.marks)
        assert sum_to_vector(s, {mirror: F(2), label: F(1)}) == sum_to_vector(s, {label: F(3)})
    if m == 1:  # D5 on X(7,1) is the mirror of D2_1
        assert sum_to_vector(s, {BoundaryLabel(5, frozenset()): F(1)}) == sum_to_vector(
            s, {canonical_label(s, 2, {1}): F(1)}
        )


@pytest.mark.parametrize(
    "s, label",
    [
        (SpaceId(7, 1), BoundaryLabel(6, frozenset())),
        (SpaceId(7, 2), BoundaryLabel(2, frozenset({3}))),
    ],
)
def test_sum_to_vector_rejects_foreign_labels(s, label):
    with pytest.raises(ValueError):
        sum_to_vector(s, {label: F(1)})


@pytest.mark.parametrize("n", [5, 7, 9])
def test_forgetful_pullback_counts_an_even_split_once(n):
    """On X(2k,0) -> X(2k+1,1) both preimages of D_k are one label."""
    src, dst = SpaceId(n - 1, 0), SpaceId(n, 1)
    k = (n - 1) // 2
    label = canonical_label(src, k, ())
    pulled = forgetful_pullback_sum(src, {label: F(1)}, dst)
    assert pulled == {canonical_label(dst, k, ()): F(1)}


@pytest.mark.parametrize("s", [SpaceId(n, m) for n in (4, 5, 7, 10) for m in (2, 3) if m < n - 1])
def test_relations_build_only_the_halved_entries(s, count_fractions):
    expected = relations_and_basis(s)
    # constructions in `spaces` itself, not inside `Fraction` arithmetic
    built = count_fractions(spaces)
    relations_and_basis.cache_clear()
    spec = relations_and_basis(s)
    assert spec == expected
    # the halved coefficients of ramified labels are ints too
    assert built == []
    assert all(type(c) is int for row in spec.relations for c in row)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_keel_relations_are_int_rows(n, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a Keel relation built a Fraction")

    monkeypatch.setattr(spaces, "Fraction", forbidden)
    assert all(type(c) is int for row in keel_relations(n) for c in row)
