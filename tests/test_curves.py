import hashlib
import itertools
import math
import re
from fractions import Fraction

import pytest

from modulicones import cones, curves, fixtures, linalg, spaces, verify
from modulicones.bridge import hyperelliptic_pushforward, pointed_pushforward
from modulicones.cones import certify
from modulicones.curves import (
    counterexample_ftau,
    curve_ck,
    eff_cone,
    eff_xn2_derivation,
    ftau_sum,
    nem_hrep,
    nem_rays_inductive,
    nem_xn1_full_rows,
    nem_xn1_subsumption,
    pi_star_map,
)
from modulicones.curves import _boundary_rays, _row
from modulicones.linalg import primitive, rank, vec
from modulicones.spaces import (
    CurveClass,
    SpaceId,
    boundary_class,
    canonical_label,
    enumerate_boundaries,
    express_in_basis,
    fully_pointed,
    picard_number,
    psi_sum,
    relations_and_basis,
)
from attaching_oracle import q_map, r_map, s_map
from transport_oracle import forgetful_pullback_sum, quotient_pushforward_sum

F = Fraction


def ray_set(rows):
    return sorted(primitive(r) for r in rows)


# --- the two curve-class families -------------------------------------------


def test_moving_family_classes():
    s71 = SpaceId(7, 1)
    assert curve_ck(s71, 2).coords == vec([-3, 5, 0, 0])
    assert curve_ck(s71, 1).coords == vec([6, 0, 0, 0])
    assert curve_ck(SpaceId(7, 0), 3).coords == vec([0, 2])  # index folding


def test_curve_index_bounds():
    with pytest.raises(ValueError):
        curve_ck(SpaceId(7, 1), 5)


# --- nem cone, unpointed -----------------------------------------------------


@pytest.mark.parametrize("s", [s for s in fixtures.NEM_RAYS if s.m == 0])
def test_nem_unpointed_frozen_rays(s):
    assert ray_set(nem_hrep(s).rays) == ray_set(fixtures.NEM_RAYS[s])


@pytest.mark.parametrize("n", range(6, 15))
def test_nem_unpointed_branching_matches_double_description(n):
    ind = nem_rays_inductive(n)
    assert len(ind) == 2 ** (n // 2 - 2)
    assert ray_set(nem_hrep(SpaceId(n, 0)).rays) == ray_set(ind)


def _branching_rays_in_fractions(n):
    """The branching rule as stated: running products of `Fraction` ratios."""
    d = n // 2 - 1
    rays = set()
    for choices in itertools.product((0, 1), repeat=d - 1):
        entries = [Fraction(1)]
        for i, pick in zip(range(2, d + 1), choices):
            ratio = Fraction(n - i - 2, n - i) if pick == 0 else Fraction(i + 1, i - 1)
            entries.append(entries[-1] * ratio)
        den = math.lcm(*(e.denominator for e in entries))
        ints = [e.numerator * (den // e.denominator) for e in entries]
        g = math.gcd(*ints)
        rays.add(tuple(x // g for x in ints))
    return tuple(sorted(rays))


@pytest.mark.parametrize("n", range(5, 21))
def test_branching_rays_are_the_fraction_products_built_in_ints(n, count_fractions):
    built = count_fractions()
    got = nem_rays_inductive(n)
    assert built == []
    assert got == _branching_rays_in_fractions(n)


def test_distinguished_extremal_rays():
    """The rays r_i, tight on the lower bounds right of position i and on
    the upper bounds left of it, are branching rays."""
    for n, ray in ((8, (15, 10, 6)), (8, (5, 15, 9)), (8, (1, 3, 6)), (9, (21, 15, 10))):
        assert ray in nem_rays_inductive(n), (n, ray)


def test_nem_unpointed_needs_six_points():
    with pytest.raises(ValueError):
        nem_hrep(SpaceId(5, 0))


# --- nem cone, one marked point ----------------------------------------------


@pytest.mark.parametrize("s", [s for s in fixtures.NEM_RAYS if s.m == 1])
def test_nem_pointed_frozen_rays(s):
    assert ray_set(nem_hrep(s).rays) == ray_set(fixtures.NEM_RAYS[s])


# Counts and digest recorded while double description still decided
# adjacency through the rank of the common tight rows; they pin the
# combinatorial test to the same output.
@pytest.mark.parametrize("n, count", [(8, 34), (9, 80), (10, 289), (11, 864)])
def test_nem_pointed_ray_counts(n, count):
    assert len(nem_hrep(SpaceId(n, 1)).rays) == count


def test_nem_x10_1_ray_list_digest():
    rays = nem_hrep(SpaceId(10, 1)).rays
    assert hashlib.sha256(repr(rays).encode()).hexdigest() == (
        "e3e73a3a5635c9d2c6b54f02765cd38eca6c2c29a09ce107715772c68cc3f2fd"
    )


@pytest.mark.parametrize("n", range(5, 13))
def test_full_system_equals_reduced_system(n):
    full = nem_xn1_full_rows(n)
    reduced = {primitive(r) for r in nem_hrep(SpaceId(n, 1)).inequalities}
    assert len(reduced) == (n - 1) * (n - 4) // 2
    # low-index rows appear verbatim in the reduced system; everything else
    # is rewritten by the closed-form subsumption identities
    for (i, j, l), row in full.items():
        if i <= 2:
            assert primitive(row) in reduced, (n, i, j, l)
    for r in reduced:
        assert any(primitive(row) == r for row in full.values()), (n, r)
    nem_xn1_subsumption(n)  # raises on any failed rewriting


@pytest.mark.parametrize("n", range(5, 13))
def test_nonnegativity_of_low_coordinate(n):
    # the second basis coordinate is pinned nonnegative by the system itself
    full = nem_xn1_full_rows(n)
    s = SpaceId(n, 1)
    e2 = [F(0)] * picard_number(s)
    e2[0] = F(1)
    if n % 2 == 1:
        l = (n + 1) // 2
        row = full[(2, 2, l)]
        assert primitive(row) == tuple(e2)
        assert row[0] == (l - 1) ** 2 * (l - 2)
    else:
        h = n // 2
        combo = tuple(h * a + (h - 2) * b for a, b in zip(full[(2, 2, h)], full[(2, 2, h + 1)]))
        assert combo == tuple(h * (h - 1) * (h - 2) * (n - 1) * x for x in e2)


# --- attachment pushforwards --------------------------------------------------


@pytest.mark.parametrize("n", range(5, 13))
@pytest.mark.parametrize("m", [0, 1, 2])
def test_unmarked_attach_images_in_closed_form(n, m):
    if m == 0 and n < 6:
        pytest.skip("no unpointed cone below six points")
    t = SpaceId(n, m)
    for l in range(3, n - 1):
        q = q_map(n, l, m)
        src = SpaceId(l + 1, 1)
        for k in range(1, l - 1):
            pushed = q.push_curve(curve_ck(src, k))
            direct = _row(t, (n - l + k, l - k + 1), (n - l + k - 1, -(l - k - 1)))
            assert pushed == direct, ("q", n, m, l, k)


@pytest.mark.parametrize("n", range(5, 13))
def test_fibre_images_are_the_simple_rows(n):
    full = nem_xn1_full_rows(n)
    for l in range(3, n - 1):
        q = q_map(n, l, 1)
        fibre = q.push_curve(curve_ck(SpaceId(l + 1, 1), 1))
        assert fibre == full[(1, 0, l)]


@pytest.mark.parametrize("n", range(6, 13))
def test_marked_attach_images_match_the_full_rows(n):
    full = nem_xn1_full_rows(n)
    for l in range(4, n - 1):
        smap = s_map(n, l)
        names = smap.source_names
        for j in range(2, l):
            col = smap.column(f"b*{j}")
            assert tuple((l - 1) ** 2 * (l - 2) * x for x in col) == full[(2, j, l)]
        for i in range(3, l):
            for j in range(2, l):
                coeffs = {name: F(0) for name in names}
                coeffs[f"b{i}"] = F((j - 1) * (l - j))
                coeffs[f"b*{j}"] = F((l - i + 1) * (l - i))
                img = smap([coeffs[name] for name in names])
                assert tuple((l - 1) * x for x in img) == full[(i, j, l)], (n, l, i, j)
        # the unstarred i = 2 column agrees with the k = 1 column one level
        # down on the unmarked side: same glued geometry
        qprev = q_map(n, l - 1, 1)
        assert smap.column("b3") == qprev.column("b2")


@pytest.mark.parametrize("n", range(6, 11))
def test_two_marked_attach_derives_the_effective_system(n):
    fams, multipliers = eff_xn2_derivation(n)
    rmap = r_map(n, n - 2)
    for j in range(2, n - 2):
        col = rmap.column(f"b*{j}")
        assert tuple((n - 4) * (n - 3) * x for x in col) == fams["ineq1"][j - 2]
    assert sorted(multipliers) == list(range(2, n - 1))
    assert all(type(c) is int and c >= 1 for cs in multipliers.values() for c in cs)


@pytest.mark.parametrize("n", range(5, 16))
def test_two_marked_ineq2_is_ineq1_with_the_marked_points_swapped(n):
    """Swapping points 1 and 2 sends ``b*_k`` to ``b*_{n-k}`` and fixes
    ``b_k``; it takes each ``ineq1_j`` to ``ineq2_j``."""
    names = relations_and_basis(SpaceId(n, 2)).ordered_basis
    slot = {name: i for i, name in enumerate(names)}
    swap = [slot[f"b*{n - int(name[2:])}"] if name.startswith("b*") else slot[name] for name in names]
    fams, _ = eff_xn2_derivation(n)
    assert len(fams["ineq1"]) == len(fams["ineq2"]) == n - 3
    for row1, row2 in zip(fams["ineq1"], fams["ineq2"]):
        assert tuple(row1[i] for i in swap) == row2


@pytest.mark.parametrize("n", range(5, 13))
def test_two_marked_derivation_is_a_stated_combination(n, monkeypatch, count_fractions):
    """The derivation checks its stated int combination: no simplex solve
    and no `Fraction` built in `curves`."""
    calls, phase1 = [], cones._phase1
    monkeypatch.setattr(cones, "_phase1", lambda *args: calls.append(args) or phase1(*args))
    built = count_fractions(curves)
    eff_xn2_derivation(n)
    assert calls == [] and built == []


def test_two_marked_rows_and_pi_star_columns_are_pinned():
    """The bytes of the m = 2 rows `_row` builds and of the ``pi_star``
    columns, n = 5..30 and n = 5..40, recorded before `_row` read the
    basis slots of `spaces`."""
    families = repr([eff_xn2_derivation(n) for n in range(5, 31)])
    columns = repr([(m.source_names, m.ints) for m in map(pi_star_map, range(5, 41))])
    assert hashlib.sha256(families.encode()).hexdigest() == (
        "267a53fcb9cd1a133b36284e6a9716a2907f156e9290eb1f6470d9a618e883de"
    )
    assert hashlib.sha256(columns.encode()).hexdigest() == (
        "61412eb6e074c8765fa06f5ada915a89344b183ff667e031a59d60da0e57bbc3"
    )


def _folded_b_name(n, m, i):
    """The independent rule for the basis name of ``b_i``: folded to the
    smaller side on m = 0, as it is otherwise."""
    return f"b{min(i, n - i)}" if m == 0 else f"b{i}"


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_row_places_each_b_i_by_the_fold(m):
    for n in range(4, 41):
        s = SpaceId(n, m)
        names = relations_and_basis(s).ordered_basis
        for name in ("b1", "b*1", 1, n - 1):
            with pytest.raises(ValueError):
                _row(s, (name, 1))
        for i in range(2, n - 1):
            if m == 3:
                with pytest.raises(ValueError):
                    _row(s, (i, 1))
                continue
            expected = [0] * len(names)
            if (m, i) != (2, 2):  # the formal b_2 is zero on two marks
                expected[names.index(_folded_b_name(n, m, i))] = 1
            assert _row(s, (i, 1)) == tuple(expected), (n, m, i)


@pytest.mark.parametrize("n", range(5, 11))
@pytest.mark.parametrize("m", [0, 1])
def test_pushed_curves_are_valid_on_nem(n, m):
    if m == 0 and n < 6:
        pytest.skip("no unpointed cone below six points")
    t = SpaceId(n, m)
    rows = list(nem_hrep(t).inequalities)
    for l in range(3, n - 1):
        q = q_map(n, l, m)
        for k in range(1, l - 1):
            pushed = q.push_curve(curve_ck(SpaceId(l + 1, 1), k))
            assert certify(pushed, rows), (n, m, l, k)


@pytest.mark.parametrize(
    "linear_map",
    [
        q_map(8, 4, 1),
        r_map(8, 6),
        s_map(8, 5),
        pi_star_map(8),
        hyperelliptic_pushforward(3),
        pointed_pushforward(3, 2, "mg1"),
    ],
    ids=["q", "r", "s", "pi_star", "hyperelliptic", "pointed"],
)
def test_unknown_basis_name_names_the_source(linear_map):
    with pytest.raises(KeyError, match=re.escape(str(linear_map.source))):
        linear_map.column("b*9")


def test_a_map_on_a_partial_basis_refuses_a_curve_class():
    # r names only the starred block of X(7, 2); a curve class has all seven
    # coordinates, so the call sees the length mismatch
    r = r_map(8, 6)
    with pytest.raises(ValueError):
        r.push_curve(CurveClass(r.source, (0,) * picard_number(r.source)))


@pytest.mark.parametrize("n", range(5, 12))
def test_pi_star_columns_are_the_forgetful_pullbacks(n):
    src, dst = SpaceId(n - 1, 0), SpaceId(n, 1)
    pi = pi_star_map(n)
    for name in pi.source_names:
        l = int(name[1:])
        pulled = express_in_basis(dst, forgetful_pullback_sum(src, {canonical_label(src, l, ()): F(1)}, dst))
        half = F(1, 2) if l == 2 else 1  # b_2 is half of D_2
        assert tuple(half * c for c in pulled.coords) == pi.column(name), (n, name)


@pytest.mark.parametrize(
    "build, args, message",
    [
        (q_map, (8, 2), "q requires"),
        (q_map, (8, 7), "q requires"),
        (q_map, (8, 4, 3), "q maps into"),
        (q_map, (8, 4, -1), "q maps into"),
        (r_map, (8, 2), "r requires"),
        (r_map, (8, 7), "r requires"),
        (s_map, (8, 2), "s requires"),
        (s_map, (8, 7), "s requires"),
        (pi_star_map, (4,), "pi_star needs"),
    ],
)
def test_attach_maps_refuse_out_of_range_parameters(build, args, message):
    with pytest.raises(ValueError, match=message):
        build(*args)


@pytest.mark.parametrize(
    "build, args, source",
    [
        (q_map, (8, 3), SpaceId(4, 1)),
        (q_map, (8, 6, 0), SpaceId(7, 1)),
        (q_map, (8, 6, 2), SpaceId(7, 1)),
        (r_map, (8, 3), SpaceId(4, 2)),
        (r_map, (8, 6), SpaceId(7, 2)),
        (s_map, (8, 3), SpaceId(4, 2)),
        (s_map, (8, 6), SpaceId(7, 2)),
        (pi_star_map, (5,), SpaceId(4, 0)),
    ],
)
def test_attach_maps_build_at_the_range_boundary(build, args, source):
    assert build(*args).source == source


def test_attach_map_coordinates_follow_the_target_basis():
    q = q_map(8, 4, 1)
    assert q.target_names == relations_and_basis(SpaceId(8, 1)).ordered_basis
    assert all(len(col) == len(q.target_names) for col in q.columns)


# --- effective cones -----------------------------------------------------------


@pytest.mark.parametrize("n", range(4, 13))
@pytest.mark.parametrize("m", [0, 1])
def test_effective_cones_are_simplicial(n, m):
    c = eff_cone(SpaceId(n, m))
    assert rank(c.rays) == len(c.rays)
    if m == 1:
        assert len(c.rays) == n - 3


def test_effective_cone_two_marks_surface():
    c = eff_cone(SpaceId(5, 2))
    assert ray_set(c.rays) == ray_set(fixtures.EFF_X52_RAYS)
    assert rank(c.rays) < len(c.rays)


def test_effective_cone_refuses_three_marks():
    with pytest.raises(ValueError):
        eff_cone(SpaceId(6, 3))


# --- decomposition over the unpointed quotient ----------------------------------


@pytest.mark.parametrize("n", range(6, 11))
def test_pointed_cone_decomposes_over_the_base(n):
    verify.fibration_face(n)  # raises with the data on any failure


def test_decomposition_face_n6():
    assert verify.fibration_face(6) == ((0, 1, 1),)


# --- distinguished classes -------------------------------------------------------


# tests/test_fcurve_oracle.py confirms these vectors independently
@pytest.mark.parametrize(
    "n, coords",
    [
        (6, (2, 0, 0, 2, -6, -2, -2, 2)),
        (7, (4, 0, 0, 6, 0, -4, -4, 8, 6, -6, -6, -24)),
        (8, (12, 0, 0, 24, 12, -12, -12, 36, 24, -24, -24, -120, -24, -24, -24, 36)),
    ],
)
def test_moving_but_not_boundary_generated(n, coords):
    cls, cert, rays = counterexample_ftau(n)
    assert cls.coords == vec(coords)
    assert cert.kind == "non-membership"
    s = SpaceId(n, 3)
    gens = [
        primitive(boundary_class(s, lbl).coords) for lbl in enumerate_boundaries(s)
    ]
    assert list(rays) == gens
    assert cert.verify(cls.coords, gens)


def test_cotangent_symmetrization_is_extremal_input():
    s = SpaceId(7, 1)
    ray = primitive(express_in_basis(s, psi_sum(s)).coords)
    assert ray == vec([10, 6, 3, 1])
    assert certify(ray, nem_hrep(s).rays)


# --- recorded nef data stays inside the computed cone ----------------------------


@pytest.mark.parametrize("s", [s for s in fixtures.NEF_RAYS if s.m <= 1])
def test_nef_fixture_inside_computed_nem(s):
    nem = nem_hrep(s)
    for ray in fixtures.NEF_RAYS[s]:
        cert = certify(vec(ray), nem.rays)
        assert cert and cert.verify(ray, nem.rays), (s, ray)


# --- integer rows ----------------------------------------------------------------


def _all_ints(rows):
    return all(type(x) is int for row in rows for x in row)


@pytest.mark.parametrize("n", range(5, 11))
def test_integral_rows_are_built_as_ints(n):
    assert _all_ints(nem_xn1_full_rows(n).values())
    families, _ = eff_xn2_derivation(n)
    assert _all_ints(row for family in families.values() for row in family)
    for m in (0, 1):
        s = SpaceId(n + 1, m)
        assert _all_ints(curve_ck(s, k).coords for k in range(1, s.n - 2))


def test_fixture_rays_are_int_tuples():
    rays = [r for family in fixtures.NEF_RAYS.values() for r in family]
    rays += [r for family in fixtures.NEM_RAYS.values() for r in family]
    rays += [*fixtures.EFF_X52_RAYS, *fixtures.EFF_X52_FACETS]
    rays += [fixtures.M21_A, fixtures.M21_B, fixtures.M21_C, fixtures.M21_D, fixtures.M21_E]
    assert all(type(r) is tuple for r in rays)
    assert _all_ints(rays)


def _ftau_transport(n, terms):
    """The route first: the one sum `counterexample_ftau` builds, by
    `transport_sum` from the fully pointed six-point space to ``X(n, 3)``.
    Then, for reference, the sums of the label-by-label oracle route through
    ``X(6, 3)`` and ``X(n, n - 3)``."""
    sum6 = quotient_pushforward_sum(fully_pointed(6), terms, SpaceId(6, 3))
    lifted = forgetful_pullback_sum(SpaceId(6, 3), sum6, SpaceId(n, n - 3))
    return [
        spaces.transport_sum(fully_pointed(6), terms, SpaceId(n, 3)),
        sum6,
        lifted,
        quotient_pushforward_sum(SpaceId(n, n - 3), lifted, SpaceId(n, 3)),
    ]


def test_boundary_rays_and_transport_build_no_fraction(monkeypatch):
    grid = [SpaceId(n, m) for n in range(8, 17) for m in range(4)]
    rays = {
        s: tuple(primitive(boundary_class(s, label).coords) for label in enumerate_boundaries(s))
        for s in grid
    }
    as_fractions = {l: F(c) for l, c in ftau_sum().items()}
    sums = {n: _ftau_transport(n, as_fractions) for n in range(6, 10)}
    built = []

    class Counted(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return Fraction(*args)

    for module in (spaces, curves, linalg):
        monkeypatch.setattr(module, "Fraction", Counted)
    # the int multiplicities add up in ints: no Fraction, and int values
    for n, expected in sums.items():
        got = _ftau_transport(n, ftau_sum())
        assert got == expected
        assert all(type(c) is int for formal in got for c in formal.values())
    # with the `_columns` table warm, a ray is its int column made primitive
    assert [_boundary_rays(s) for s in grid] == list(rays.values())
    assert built == []
