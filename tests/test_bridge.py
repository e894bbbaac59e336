import hashlib
from fractions import Fraction

import pytest

from modulicones import bridge, cli, cones, fixtures, linalg, porta
from modulicones.bridge import (
    hyperelliptic_curve_image,
    hyperelliptic_pullback_cone,
    hyperelliptic_pushforward,
    m21_cones,
    m21_pushforward,
    mg1_inequality_family,
    mg1_witnesses,
    mg1_basis,
    mg_basis,
    pointed_curve_image,
    pointed_pushforward,
    x71_mori_data,
)
from modulicones.curves import (
    curve_ck,
    nem_hrep,
    nem_xn1_full_rows,
    pi_star_map,
)
from modulicones.linalg import primitive, rank, vec
from modulicones.porta import porta_write
from modulicones.spaces import SpaceId

from attaching_oracle import q_map, r_map, s_map

F = Fraction


def test_basis_layouts():
    assert mg_basis(2) == ("delta_irr", "delta_1")
    assert mg_basis(3) == ("lambda", "delta_irr", "delta_1")
    assert mg_basis(6) == ("lambda", "delta_irr", "delta_1", "delta_2", "delta_3")
    assert mg1_basis(2) == ("delta_irr", "delta_1", "omega")
    assert mg1_basis(4) == ("lambda", "delta_irr", "delta_1", "delta_2", "delta_3", "omega")


def test_double_cover_columns_genus_three():
    h = hyperelliptic_pushforward(3)
    assert h.column("b2") == vec((F(3, 14), 2, 0))
    assert h.column("b3") == vec((F(1, 7), 0, F(1, 2)))
    assert h.column("b4") == vec((F(2, 7), 2, 0))


# up to the largest genus of the benchmark's hyperelliptic jobs
@pytest.mark.parametrize("g", range(2, 13))
def test_double_cover_curve_images_two_routes(g):
    hmap = hyperelliptic_pushforward(g)
    src = SpaceId(2 * g + 2, 0)
    for k in range(1, 2 * g):
        assert hyperelliptic_curve_image(g, k) == hmap.push_curve(curve_ck(src, k)), k


@pytest.mark.parametrize("g", range(2, 7))
def test_pullback_cone_rows_are_transported_rows(g):
    hmap = hyperelliptic_pushforward(g)
    images = {primitive(hmap(row)) for row in nem_hrep(SpaceId(2 * g + 2, 0)).inequalities}
    cone_rows = {primitive(row) for row in hyperelliptic_pullback_cone(g).inequalities}
    assert images == cone_rows


def test_pullback_cone_frozen_rows():
    assert {primitive(r) for r in hyperelliptic_pullback_cone(2).inequalities} == {
        (121, -8),
        (-2, 1),
    }
    assert {primitive(r) for r in hyperelliptic_pullback_cone(3).inequalities} == {
        (1, 12, -1),
        (0, -2, 1),
        (2, 20, -3),
        (0, -8, 3),
    }


# every n at each genus, so the benchmark's transported families, n <= 13 and
# g <= n + 3, are all covered
@pytest.mark.parametrize("g", range(2, 17))
@pytest.mark.parametrize("target", ["mg", "mg1"])
def test_pointed_cover_curve_images_two_routes(g, target):
    hi = g - 1 if target == "mg" else g
    for n in range(1, hi + 1):
        pmap = pointed_pushforward(g, n, target)
        src = SpaceId(2 * n + 3, 1)
        for k in range(1, 2 * n + 1):
            direct = pointed_curve_image(g, n, k, target)
            assert direct == pmap.push_curve(curve_ck(src, k)), (n, k)


def test_dualizing_readback_at_the_boundary_case():
    # the omega-components of the four transported columns, times thirty
    pmap = pointed_pushforward(2, 2, "mg1")
    omega = pmap.target_names.index("omega")
    assert vec(30 * col[omega] for col in pmap.columns) == vec((5, 12, 6, 2))


def _pointed_nem_key(key):
    """The ``(i, j, l)`` row of ``X(2n+3, 1)`` whose push gives family row ``key``."""
    kind, k, *rest = key
    if kind == "a":
        return (1, 0, 2 * k + 2)
    if kind == "b":
        return (1, 0, 2 * k + 1)
    (m,) = rest
    return {"c": (2, 2 * m + 2, 2 * k + 2), "e": (2, 2 * m + 3, 2 * k + 2), "d": (2, 2 * m + 2, 2 * k + 3)}[kind]


def test_family_rows_are_pushed_nem_rows():
    """The transcribed family rows are the pointed nem rows pushed along the cover."""
    for g in range(2, 9):
        for target in ("mg", "mg1"):
            for n in range(1, (g - 1 if target == "mg" else g) + 1):
                pmap = pointed_pushforward(g, n, target)
                full = nem_xn1_full_rows(2 * n + 3)
                for key, row in bridge._mg1_rows(g, n, target).items():
                    pushed = pmap(full[_pointed_nem_key(key)])
                    assert primitive(row) == primitive(pushed), (g, n, target, key)


@pytest.mark.parametrize("n", range(2, 21))
def test_inequality_family_witnesses(n):
    witnesses = mg1_witnesses(n, n, "mg1")
    assert len(witnesses) == n * (n - 1) // 2
    for c1, c2, _ in witnesses.values():
        assert c1 >= 0 and c2 >= 0


def test_inequality_family_on_the_unpointed_target():
    witnesses = mg1_witnesses(6, 3, "mg")
    assert set(witnesses) == {(1, 0), (2, 0), (2, 1)}
    cone = mg1_inequality_family(5, 4, "mg")
    assert cone.ambient_dim == len(mg_basis(5))


def test_degenerate_two_tail_multipliers():
    witnesses = mg1_witnesses(2, 2, "mg1")
    assert witnesses[(1, 0)][:2] == (1, 2)


def test_pushforward_to_the_pointed_genus_two_space():
    assert m21_pushforward((5, 12, 6, 2)) == vec((1, 6, 5))
    assert primitive(m21_pushforward((10, 6, 3, 6))) == (3, 3, 10)
    assert primitive(m21_pushforward((0, 2, 1, 2))) == (1, 1, 0)
    assert primitive(m21_pushforward((10, 6, 3, 1))) == (1, 6, 20)


def test_genus_two_cone_comparison():
    cones = m21_cones()
    A, B, C, D, E = (
        fixtures.M21_A,
        fixtures.M21_B,
        fixtures.M21_C,
        fixtures.M21_D,
        fixtures.M21_E,
    )
    assert set(cones["push_nem"].canonical_vrep()[0]) == {A, B, D, E}
    assert set(cones["push_nef"].canonical_vrep()[0]) == {A, B, D}
    assert set(cones["nef"].canonical_vrep()[0]) == {A, B, C}
    assert rank(cones["eff"].rays) == len(cones["eff"].rays)
    assert tuple(3 * b + d for b, d in zip(B, D)) == tuple(4 * c for c in C)
    # chain: nef inside pushed-nef inside pushed-nem inside effective
    for inner, outer in (("nef", "push_nef"), ("push_nef", "push_nem"), ("push_nem", "eff")):
        assert all(cones[outer].contains(r) for r in cones[inner].rays), (inner, outer)


def test_extremal_contraction_data():
    md = x71_mori_data()
    assert md.canonical == vec((F(-1, 3), 0, 0, F(-4, 3)))
    assert md.contracted_curve.coords == (2, -1, 0, 1)
    assert md.extremal_curve.coords == (0, -2, 4, 0)
    assert sum(a * x for a, x in zip(md.canonical, md.extremal_curve.coords)) == 0
    assert sum(a * x for a, x in zip(md.canonical, md.contracted_curve.coords)) == -2
    assert md.contracted_curve.coords[1] == -1
    assert set(md.nef_face_rays) == {(0, 2, 1, 2), (5, 12, 6, 2), (10, 6, 3, 1)}


@pytest.mark.parametrize(
    "call",
    [
        lambda: mg_basis(1),
        lambda: hyperelliptic_pushforward(1),
        lambda: hyperelliptic_curve_image(3, 6),
        lambda: pointed_pushforward(3, 3, "mg"),
        lambda: pointed_pushforward(3, 4, "mg1"),
        lambda: pointed_curve_image(3, 2, 5, "mg"),
        lambda: mg1_inequality_family(3, 1, "mg1"),
        lambda: m21_pushforward((1, 2, 3)),
        lambda: mg1_witnesses(3, 1, "mg1"),
        lambda: mg1_witnesses(3, 3, "mg"),
    ],
)
def test_parameter_validation(call):
    with pytest.raises(ValueError):
        call()


# SHA-256 of the PORTA H-representation, recorded before the rows became
# integer: the integer row builder must cut out byte-identical cones.  The
# text keeps the row order, which the row-set and ray-pin tests do not see.
FAMILY_HREP_SHA256 = {
    (2, 2, "mg1"): "494834aa7112b7c858d3ce57cfd7ca7d39c2fcb17339ebf5ab9c3212037fbb70",
    (3, 2, "mg"): "de404f1575eb2ac9623400051259fabb58a1593a9baa5087b0e418b9b72a9647",
    (3, 3, "mg1"): "a89906679cb809cb5918d3e3e911876169498f4f01ed413a1f5aa73ade33ed56",
    (8, 7, "mg"): "2bd090686a7833159c4c7936602da69f4765eb8c58bb36505c2f4c179630a2e4",
    (8, 8, "mg1"): "adcb5b49a809d1093ec5f366f9ef54d6fc21368761dd0437ae31039bd593ccde",
    (14, 13, "mg"): "2f1f16d91b6d426b0410c4cba80bc3ed7a3227e8f4036886b6790212e165ef67",
}

HYPERELLIPTIC_HREP_SHA256 = {
    2: "1307f26bbdc29675e1823ee51a974e9a3e9d408aa356ca16f60d9d38bd9a4917",
    3: "25668ef45967fb45e1f365d852eb07b49912f9372d9ec4914e601af83e5e41ba",
    4: "eedf2c9db1451a073d36004ab4ad1514e4f2522b93ccca36d342fcd0a74cc19a",
    5: "7f8aa09e841a4a73235764c028f1baec294b893543e4f9074ecd71e28ad980fc",
    6: "f943dd03096ce831492bbdfe7dd1be85e18e02696c5230f2e1c62257302e2e76",
    7: "32ecf12dcf17d45dd3367af0b923843a07053b71be88aafc325af30601e51557",
    8: "288bddc77d4560c056c48794dc3ad46daff506e45418fb95c46a19e7d7c8ed74",
    9: "db8a5493f19ba9d8c26327b4758cac67c05270520ce5fcd02752c1dc8fc838f0",
    10: "6f3272e9f581e1b3cd7f3674bef4f16d902b335af99224bc58be928dbb66e51d",
    11: "30755bc5fe4807e4ff45259f37f52f6494406d4450f7737a4c37a440e0cbe979",
    12: "a7de6f87bd9aa3b209457a4575321515fda896e9a1d19df49b5bd888c201f818",
}


def _hrep_sha256(cone):
    return hashlib.sha256(porta_write(cone, "hrep").encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(FAMILY_HREP_SHA256))
def test_inequality_family_hrep_digest(key):
    cone = mg1_inequality_family(*key)
    assert _hrep_sha256(cone) == FAMILY_HREP_SHA256[key]


@pytest.mark.parametrize("g", sorted(HYPERELLIPTIC_HREP_SHA256))
def test_pullback_cone_hrep_digest(g):
    assert _hrep_sha256(hyperelliptic_pullback_cone(g)) == HYPERELLIPTIC_HREP_SHA256[g]


def test_witness_values_at_genus_two():
    # g = 2 is the one target where lambda is eliminated (1/10 and 1/5 of
    # lambda on delta_irr and delta_1): the row comes scaled by 10
    witnesses = mg1_witnesses(2, 2, "mg1")
    assert {k: (c1, c2, tuple(F(x, 10) for x in row)) for k, (c1, c2, row) in witnesses.items()} == {
        (1, 0): (1, 2, (F(101, 5), F(2, 5), F(0))),
    }


def test_witness_values_at_genus_five():
    witnesses = mg1_witnesses(5, 4, "mg1")
    tail = (0,) * 5
    assert witnesses == {
        (1, 0): (68, 0, (2, 20) + tail),
        (2, 0): (90, 2, (3, 28) + tail),
        (2, 1): (60, 24, (6, 36) + tail),
        (3, 0): (112, 4, (4, 36) + tail),
        (3, 1): (56, 36, (8, 44) + tail),
        (3, 2): (0, 68, (12, 52) + tail),
    }


def test_failed_multiplier_identity_raises(monkeypatch):
    real_slope_rows = bridge._slope_rows

    def perturbed(target, g, k):
        a, b = real_slope_rows(target, g, k)
        return ((a[0] + 1,) + a[1:] if k == 1 else a), b

    monkeypatch.setattr(bridge, "_slope_rows", perturbed)
    for g, n, target in ((2, 2, "mg1"), (5, 4, "mg1"), (6, 3, "mg")):
        with pytest.raises(ArithmeticError):
            mg1_inequality_family(g, n, target)


@pytest.mark.parametrize("g", [2, 3, 8])
def test_inequality_rows_are_machine_integers(g, monkeypatch):
    built = []
    monkeypatch.setattr(
        bridge.Cone, "from_hrep", classmethod(lambda cls, dim, rows: built.append(rows))
    )
    hyperelliptic_pullback_cone(g)
    for target in ("mg", "mg1"):
        for n in range(2, (g - 1 if target == "mg" else g) + 1):
            built.append(tuple(bridge._mg1_rows(g, n, target).values()))
    assert built
    for rows in built:
        assert all(type(x) is int for row in rows for x in row)


@pytest.mark.parametrize("target", ["mg", "mg1"])
@pytest.mark.parametrize("n", range(2, 13))
def test_int_witnesses_are_the_public_witnesses(n, target):
    for g in range(n + 1 if target == "mg" else max(n, 2), 14):
        witnesses = mg1_witnesses(g, n, target)
        for key, (c1, c2, row) in witnesses.items():
            assert all(type(x) is int for x in (c1, c2, *row)), (g, key)


@pytest.mark.parametrize("g, n", [(14, 13), (2, 2)])
def test_cli_family_builds_no_fraction(g, n, monkeypatch, capsys):
    built = []

    class Counted(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return Fraction(*args)

    # `porta` imports no `Fraction` today, so the name may be missing there
    for module in (bridge, cones, linalg, porta, cli):
        monkeypatch.setattr(module, "Fraction", Counted, raising=False)
    argv = ["cone", "--which", "mg1", "--g", str(g), "--n", str(n), "--target", "mg1", "--rep", "hrep"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
    assert built == []


MAP_BUILDS = [
    ("q0", lambda: q_map(9, 5, 0)),
    ("q1", lambda: q_map(9, 5, 1)),
    ("q2", lambda: q_map(9, 5, 2)),
    ("r", lambda: r_map(9, 6)),
    ("s", lambda: s_map(9, 6)),
    ("pi_star", lambda: pi_star_map(9)),
    ("hyperelliptic2", lambda: hyperelliptic_pushforward(2)),
    ("hyperelliptic5", lambda: hyperelliptic_pushforward(5)),
    ("pointed2", lambda: pointed_pushforward(2, 2, "mg1")),
    ("pointed6", lambda: pointed_pushforward(6, 4, "mg")),
    ("m21", lambda: bridge._M21),
]


def test_map_builders_and_m21_cones_build_no_fraction(count_fractions):
    # the first round warms the basis and nem caches
    maps = [build() for _, build in MAP_BUILDS]
    cones_before = {k: c.rays for k, c in m21_cones().items()}
    built = count_fractions()
    assert [build() for _, build in MAP_BUILDS] == maps
    assert {k: c.rays for k, c in m21_cones().items()} == cones_before
    assert built == []
    assert all(type(x) is int for linear_map in maps for col in linear_map.ints for x in col)


@pytest.mark.parametrize("build", [build for _, build in MAP_BUILDS], ids=[k for k, _ in MAP_BUILDS])
def test_map_call_on_ints_builds_one_fraction_per_target_coordinate_at_most(build, count_fractions):
    linear_map = build()
    point = tuple(range(1, len(linear_map.source_names) + 1))
    expected = tuple(
        sum(F(c) * col[j] for c, col in zip(point, linear_map.columns))
        for j in range(len(linear_map.target_names))
    )
    built = count_fractions()
    assert linear_map(point) == expected
    assert len(built) <= len(linear_map.target_names)
    if linear_map.den == 1:
        assert built == []


def test_m21_pushforward_is_one_map_call(count_fractions):
    point = (10, 6, 3, 1)
    expected = (F(1, 2), 3, 10)
    built = count_fractions()
    assert m21_pushforward(point) == expected
    assert len(built) <= len(fixtures.M21_BASIS)
