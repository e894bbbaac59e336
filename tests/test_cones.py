import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from modulicones import cones, linalg
from modulicones.bridge import m21_cones, mg1_inequality_family
from modulicones.cones import (
    Certificate,
    Cone,
    certify,
    dual_description,
)
from modulicones.curves import eff_cone, nem_hrep
from modulicones.linalg import vec
from modulicones.porta import cone_json_dumps
from modulicones.spaces import SpaceId, picard_number

from dd_oracle import brute_force_vrep, rows_after_start

F = Fraction

FIRST_QUADRANT = Cone.from_hrep(2, [(1, 0), (0, 1)])


def test_quadrant_rays():
    assert FIRST_QUADRANT.rays == ((0, 1), (1, 0))


def test_rays_are_primitive_and_sorted_regardless_of_input():
    a = Cone.from_vrep(2, [(2, 4), (3, 0)])
    b = Cone.from_vrep(2, [(1, 0), (1, 2), (4, 8)])
    assert a.canonical_vrep() == b.canonical_vrep() == (((1, 0), (1, 2)), ())


def test_hrep_vrep_round_trip():
    back = Cone.from_vrep(2, FIRST_QUADRANT.rays)
    assert Cone.from_hrep(2, back.inequalities).canonical_vrep() == FIRST_QUADRANT.canonical_vrep()


def test_membership_certificate_verifies():
    c = Cone.from_vrep(2, [(1, 0), (1, 2)])
    cert = c.contains(vec([3, 2]))
    assert cert
    assert cert.kind == "membership"
    assert cert.verify((3, 2), c.rays)


def test_non_membership_certificate_verifies():
    c = Cone.from_vrep(2, [(1, 0), (1, 2)])
    cert = c.contains(vec([-1, 1]))
    assert not cert
    assert cert.kind == "non-membership"
    assert cert.verify((-1, 1), c.rays)


@pytest.mark.parametrize(
    "make, point, member, solves",
    [
        (lambda: Cone.from_vrep(2, [(1, 0), (1, 2)]), (3, 2), True, 1),
        (lambda: Cone.from_vrep(2, [(1, 0), (1, 2)]), (-1, 1), False, 1),
        (lambda: Cone.from_vrep(2, [(1, 0)], [(0, 1)]), (2, -3), True, 1),
        (lambda: Cone.from_vrep(2, [(1, 0)], [(0, 1)]), (-1, 5), False, 1),
        (lambda: Cone.from_hrep(2, [(2, -1), (0, 1)]), (3, 2), True, 1),
        # a stored inequality row is already the certificate: no solve at all
        (lambda: Cone.from_hrep(2, [(2, -1), (0, 1)]), (-1, 1), False, 0),
    ],
    ids=["vrep-in", "vrep-out", "lineality-in", "lineality-out", "hrep-in", "hrep-out"],
)
def test_contains_solves_at_most_once(monkeypatch, make, point, member, solves):
    calls = []
    phase1 = cones._phase1
    monkeypatch.setattr(cones, "_phase1", lambda *args: calls.append(args) or phase1(*args))
    cone = make()
    cert = cone.contains(vec(point))
    assert bool(cert) is member
    assert cert.verify(point, cone.generators)
    assert len(calls) == solves


READ_ORDER_CONES = pytest.mark.parametrize(
    "make",
    [
        lambda: Cone.from_vrep(eff_cone(SpaceId(10, 2)).ambient_dim, eff_cone(SpaceId(10, 2)).rays),
        lambda: m21_cones()["push_nem"],
    ],
    ids=["eff-x10-2", "push-nem"],
)


@READ_ORDER_CONES
def test_certificates_do_not_depend_on_read_order(make):
    cone = make()  # built from rays, nothing read yet
    rng = random.Random(0)
    points = [tuple(rng.randint(-6, 12) for _ in range(cone.ambient_dim)) for _ in range(40)]
    before = [cone.contains(p) for p in points]
    assert sum(not cert for cert in before) >= 10
    cone.inequalities
    assert [cone.contains(p) for p in points] == before


@READ_ORDER_CONES
def test_json_and_built_from_do_not_depend_on_read_order(make):
    cone = make()
    text = cone_json_dumps(cone)
    assert (cone.has_hrep, cone.has_vrep) == (False, True)
    cone.inequalities
    cone.canonical_vrep()
    assert cone_json_dumps(cone) == text
    assert (cone.has_hrep, cone.has_vrep) == (False, True)


def test_certify_is_falsy_outside_and_truthy_inside():
    gens = [vec([1, 0]), vec([1, 2])]
    assert not certify(vec([0, -1]), gens)
    cert = certify(vec([2, 2]), gens)
    assert cert and cert.verify((2, 2), gens)


def test_certify_outside_returns_a_farkas_functional():
    gens = [vec([1, 0]), vec([1, 2])]
    cert = certify(vec([0, -1]), gens)
    assert not cert
    phi = cert.functional
    assert all(sum(p * g for p, g in zip(phi, gen)) >= 0 for gen in gens)
    assert sum(p * t for p, t in zip(phi, (0, -1))) < 0


def test_contains_cone_and_equals():
    smaller = Cone.from_vrep(2, [(1, 1), (1, 2)])
    assert all(FIRST_QUADRANT.contains(r) for r in smaller.rays)
    assert not all(smaller.contains(r) for r in FIRST_QUADRANT.rays)
    assert smaller.canonical_vrep() != FIRST_QUADRANT.canonical_vrep()


def test_lineality_in_halfplane():
    halfplane = Cone.from_hrep(2, [(1, 0)])
    rays, lin = halfplane.canonical_vrep()
    assert lin == ((0, 1),)
    assert halfplane.contains(vec([0, -5]))
    assert not halfplane.contains(vec([-1, 0]))


def test_zero_dim_edge():
    point = Cone.from_hrep(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert point.canonical_vrep() == ((), ())


def test_dual_description_module_fn():
    rays, lin = dual_description(2, [(1, 0), (0, 1)])
    assert tuple(rays) == ((0, 1), (1, 0))
    assert tuple(lin) == ()


def test_facets_from_vrep():
    c = Cone.from_vrep(2, [(1, 0), (1, 2)])
    assert len(c.inequalities) == 2
    back = Cone.from_hrep(2, c.inequalities, c.equations)
    assert back.canonical_vrep() == (c.rays, ())


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        Cone.from_hrep(3, [(1, 0)])


@pytest.mark.parametrize(
    "inequalities, equations, message",
    [
        ([(1, 0, 0), (1, 0)], [], "inequality has length 2, expected 3"),
        ([(1, 0, 0)], [(0, 1, 0, 0)], "equation has length 4, expected 3"),
    ],
)
def test_dual_description_rejects_wrong_length_rows(inequalities, equations, message):
    with pytest.raises(ValueError, match=message):
        dual_description(3, inequalities, equations)


@pytest.mark.parametrize("u, v", [((1, 2), (1, 2, 0)), ((1, 2, 0), (1, 2)), ((), (0,))])
def test_int_dot_rejects_mismatched_lengths(u, v):
    with pytest.raises(ValueError):
        cones._int_dot(u, v)


@pytest.mark.parametrize(
    "cert, target, generators",
    [
        # the generator is longer than the target: a truncating zip dropped the 5
        (Certificate("membership", ((0, F(1)),)), (1, 0), [(1, 0, 5)]),
        (Certificate("membership", ((0, F(1)),)), (1, 0, 0), [(1, 0)]),
        (Certificate("non-membership", functional=(1, 0)), (-1, 0), [(1, 0, 5)]),
    ],
    ids=["membership-long-generator", "membership-short-generator", "non-membership"],
)
def test_certificate_verify_rejects_mismatched_lengths(cert, target, generators):
    with pytest.raises(ValueError):
        cert.verify(target, generators)


def test_certify_rejects_a_column_of_the_wrong_length():
    with pytest.raises(ValueError, match="column has length 3, expected 2"):
        certify((1, 1), [(1, 0), (0, 1, 0)])


@pytest.mark.parametrize(
    "target, generators",
    [
        ((F(1, 2), F(-1, 3), 2), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),  # no
        ((F(1, 2), F(1, 3), 2), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),  # yes
        ((F(5, 6), F(1, 3), F(7, 4)), [(1, 1, 0), (0, 1, 1), (1, 0, 1)]),  # yes
    ],
)
def test_certificate_verify_builds_no_fraction_for_a_rational_target(target, generators, count_fractions):
    cert = certify(target, generators)
    built = count_fractions()
    assert cert.verify(target, generators)
    assert built == []


def _hrep_args(cone):
    return cone.ambient_dim, cone.inequalities, cone.equations


# One equation and four inequalities.  Sorted, the inequalities run
# (0,1,-1,0), (0,1,0,0), (0,1,1,0), (1,0,0,0): the third lies in the span of
# the first two, and the last is independent of every row before it.
CUT = (4, [(0, 1, 0, 0), (0, 1, 1, 0), (0, 1, -1, 0), (1, 0, 0, 0)], [(0, 0, 1, 1)])


@pytest.mark.parametrize(
    "case, lineality",
    [
        (lambda: _hrep_args(nem_hrep(SpaceId(9, 1))), 0),
        (lambda: _hrep_args(mg1_inequality_family(3, 2, "mg1")), 2),
        (lambda: CUT, 0),
    ],
    ids=["nem-x9-1", "mg1-g3-n2-mg1", "cut"],
)
def test_dual_description_eliminates_once(monkeypatch, case, lineality):
    """One `rref` starts the run and yields the lineality; no row cuts it
    later, so no second elimination follows."""
    args = case()
    calls = []
    real = cones.rref
    monkeypatch.setattr(cones, "rref", lambda m: calls.append(m) or real(m))
    rays, lin = dual_description(*args)
    assert rays and len(lin) == lineality
    assert len(calls) == 1


def test_dual_description_builds_no_fraction(monkeypatch):
    eff = eff_cone(SpaceId(8, 2))
    cases = [_hrep_args(nem_hrep(SpaceId(9, 1))), (eff.ambient_dim, eff.rays, eff.lineality), CUT]
    expected = [dual_description(*case) for case in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("double description built a Fraction")

    for module, name in [(linalg, "vec"), (cones, "Fraction"), (linalg, "Fraction")]:
        monkeypatch.setattr(module, name, forbidden)
    assert [dual_description(*case) for case in cases] == expected
    assert len(expected[0][0]) == 80
    assert expected[2] == ([(0, 1, -1, 1), (0, 1, 1, -1), (1, 0, 0, 0)], [])


def test_certificates_build_no_fraction_in_the_pivot_loop(monkeypatch):
    eff = eff_cone(SpaceId(10, 2))
    lined = Cone.from_vrep(4, [(1, 0, 0, 0), (1, 2, 0, 0), (0, 1, 3, 0)], [(0, 0, 1, 1)])
    r = eff.rays
    facet = eff_cone(SpaceId(10, 2)).inequalities[0]  # the same cached cone, still V-built: a Cone never changes
    queries = [
        (eff, tuple(3 * a + 2 * b + c for a, b, c in zip(r[0], r[5], r[-1])), True),
        (eff, tuple(-x for x in r[3]), False),
        (eff, tuple(-x for x in facet), False),
        (lined, (2, 5, -1, -4), True),
        (lined, (-1, 0, 0, 0), False),
    ]
    built = []

    class Counted(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return Fraction(*args)

    monkeypatch.setattr(cones, "Fraction", Counted)
    monkeypatch.setattr(linalg, "Fraction", Counted)
    for cone, point, member in queries:
        built.clear()
        cert = cone.contains(point)
        assert bool(cert) is member
        # one Fraction per returned coefficient at most: none in the tableau,
        # the ratio test, the Farkas functional or the re-verification
        assert len(built) <= len(cert.coefficients)


# --------------------------------------------------------------------------
# conversion of simplicial and circuit cones
# --------------------------------------------------------------------------

SHAPES = ("simplicial", "circuit", "zero-entry", "one-signed", "rank-deficient", "extra-vector")


@st.composite
def shaped_vectors(draw):
    """``(shape, dim, vectors)``: ``dim`` independent vectors, or ``dim``
    such vectors followed by ``sum l_r v_r`` for an int relation ``l``
    (circuit: every ``l_r`` nonzero, some positive; zero-entry: one
    ``l_r == 0``; one-signed: every ``l_r < 0``), or ``dim`` vectors of rank
    ``dim - 1``, or ``dim + 2`` arbitrary vectors.  The vectors come in a
    drawn order, so the sum is not always last."""
    shape = draw(st.sampled_from(SHAPES))
    low = {"circuit": 2, "zero-entry": 3, "rank-deficient": 2}.get(shape, 1)
    dim = draw(st.integers(min_value=low, max_value=6))
    entries = st.integers(min_value=-3, max_value=3)
    square = st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    if shape == "extra-vector":
        vectors = draw(st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=dim + 2, max_size=dim + 2))
    elif shape == "rank-deficient":
        basis = draw(square)[: dim - 1]
        coeffs = draw(square)
        vectors = [[sum(c * x for c, x in zip(cs, col)) for col in zip(*basis)] for cs in coeffs]
    else:
        vectors = draw(square)
        assume(linalg.rank(vectors) == dim)
        if shape != "simplicial":
            l = draw(st.lists(st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)), min_size=dim, max_size=dim))
            k = draw(st.integers(min_value=0, max_value=dim - 1))
            if shape == "circuit":
                l[k] = abs(l[k])
            elif shape == "zero-entry":
                l[k] = 0
            else:
                l = [-abs(x) for x in l]
            vectors.append([sum(c * x for c, x in zip(l, col)) for col in zip(*vectors)])
    return shape, dim, draw(st.permutations(vectors))


@settings(max_examples=400, deadline=None)
@given(shaped_vectors())
def test_shaped_conversions_match_the_brute_force_oracle(shaped):
    shape, dim, vectors = shaped
    event(shape)
    v_built = Cone.from_vrep(dim, vectors)
    if shape == "extra-vector":
        assume(len(v_built.rays) == dim + 2)  # no duplicate or zero vector
    # By polarity the facets of the cone the vectors span (V->H) and the
    # extreme rays of the cone they cut out (H->V) are both this.
    rows, lin = brute_force_vrep(dim, vectors, ())
    expected = (tuple(rows), tuple(lin))
    h_built = Cone.from_hrep(dim, vectors)
    ranked = []
    with mock.patch.object(cones, "rank", lambda m: ranked.append(m) or linalg.rank(m)):
        assert (v_built.inequalities, v_built.equations) == expected
        assert h_built.canonical_vrep() == expected
    # each direction is one double description of the same rows, whose
    # final sweep ranks every ray it returns once a second row after the
    # start has been processed, and runs not at all before
    past = rows_after_start(vectors, ())
    assert len(ranked) == (2 * len(rows) if past > 1 else 0)
    if shape not in ("rank-deficient", "extra-vector"):
        assert ranked == []


@pytest.fixture
def count_dd(monkeypatch):
    """The list of `dual_description` calls made from now on."""
    calls = []
    real = cones.dual_description
    monkeypatch.setattr(cones, "dual_description", lambda *args: calls.append(args) or real(*args))
    return calls


EFF_SPACES = [SpaceId(n, 2) for n in range(5, 17)] + [SpaceId(n, m) for m in (0, 1) for n in range(4, 21)]


@pytest.mark.parametrize("s", EFF_SPACES, ids=str)
def test_eff_facets_are_counted_in_closed_form(monkeypatch, s, count_dd):
    """The facet count has a closed form: Eff X(n, 2) is a circuit with
    (n-3)^2 facets, and Eff X(n, m <= 1) is simplicial, one facet per basis
    class.  One double description finds those facets from its start and at
    most one row after it: one elimination and no rank sweep."""
    cone = eff_cone.__wrapped__(s)  # a fresh cone: nothing converted yet
    calls = []
    for name in ("rref", "rank"):
        real = getattr(cones, name)
        monkeypatch.setattr(cones, name, lambda m, name=name, real=real: calls.append(name) or real(m))
    expected = (s.n - 3) ** 2 if s.m == 2 else picard_number(s)
    assert (len(cone.inequalities), cone.equations) == (expected, ())
    assert len(count_dd) == 1
    assert calls == ["rref"]


def test_nem_cone_still_runs_double_description_once(count_dd):
    nem = nem_hrep(SpaceId(8, 1))
    cone = Cone.from_hrep(nem.ambient_dim, nem.inequalities, nem.equations)
    cone.canonical_vrep()
    cone.rays
    assert len(count_dd) == 1
