"""Numbered end-to-end checks freezing the package's headline computations.

Fourteen checks re-derive everything the package treats as a fixed point --
table counts, printed ray sets, redundancy identities, the fibration of the
pointed nem cone over the unpointed one, the transport maps, and the
serialization round trips -- and compare the results against the recorded
expectations.  Each check raises :class:`AssertionError` carrying
the computed-versus-recorded data; :func:`run_checks` collects the outcomes
into a line-per-check report for the command-line ``verify-paper`` verb.

Checks carry a thematic group number so a run can be restricted to one area
(the ``--sections`` flag); group 4, for instance, selects the counterexample
checks.  The expectations of check 2 are the values an F-curve oracle on the
fully pointed space confirms (``tests/test_fcurve_oracle.py``); see
:func:`check_counterexample` for the values they replaced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Sequence

from . import fixtures
from .bridge import (
    hyperelliptic_curve_image,
    hyperelliptic_pushforward,
    m21_cones,
    m21_pushforward,
    mg1_witnesses,
    pointed_curve_image,
    pointed_pushforward,
    x71_mori_data,
)
from .curves import (
    counterexample_ftau,
    curve_ck,
    eff_cone,
    eff_xn2_derivation,
    nem_hrep,
    nem_rays_inductive,
    nem_xn1_full_rows,
    nem_xn1_subsumption,
    pi_star_map,
)
from .linalg import IntVec, primitive
from .porta import cone_from_json, cone_json_dumps, porta_read, porta_write
from .spaces import (
    SpaceId,
    boundary_class,
    canonical_label,
    enumerate_boundaries,
    express_in_basis,
    picard_number,
    psi_sum,
)

__all__ = [
    "CHECKS",
    "Check",
    "CheckResult",
    "report_lines",
    "run_checks",
]


def _ray_set(rows: Iterable[Sequence]) -> list:
    return sorted(primitive(r) for r in rows)


def _fmt(coords: Sequence) -> str:
    return "(" + ", ".join(map(str, coords)) + ")"


# --------------------------------------------------------------------------
# the checks


def check_table_counts() -> None:
    """Boundary and Picard counts match the closed forms for 5 <= n <= 12."""
    boundaries = {
        0: lambda n: n // 2 - 1,
        1: lambda n: n - 3,
        2: lambda n: 2 * n - 6,
        3: lambda n: 4 * n - 13,
    }
    picard = {
        0: lambda n: n // 2 - 1,
        1: lambda n: n - 3,
        2: lambda n: 2 * n - 7,
        3: lambda n: 4 * n - 16,
    }
    for n in range(5, 13):
        for m in range(4):
            s = SpaceId(n, m)
            got = (len(enumerate_boundaries(s)), picard_number(s))
            want = (boundaries[m](n), picard[m](n))
            assert got == want, f"{s}: (boundaries, picard) = {got}, recorded {want}"


def check_counterexample() -> None:
    """The pushed fibre class escapes the boundary cone, with certificates.

    The separating functionals are re-verified for n = 6, 7, 8; the recorded
    classes are then asserted in full: the six-point class
    ``(2, 0, 0, 2, -6, -2, -2, 2)`` and its seven- and eight-point transports
    ``(4, 0, 0, 6, 0, -4, -4, 8, 6, -6, -6, -24)`` and
    ``(12, 0, 0, 24, 12, -12, -12, 36, 24, -24, -24, -120, -24, -24, -24, 36)``.
    An F-curve oracle on the fully pointed space, which shares no code with
    `spaces`, confirms all three (``tests/test_fcurve_oracle.py``).  The
    coordinates after the first four depend on the ramification factor of
    the forgetful pullback, so the check sees that factor too.

    They replace earlier recorded values that the oracle refutes: the
    six-point class ``(0, 0, 0, 2, -6, -2, -2, 2)`` and vanishing first four
    coordinates at n = 7 and 8.  That six-point value is the pushdown of
    ``F_tau - D_56`` rather than of ``F_tau``, but its own transports have
    heads ``(0, 0, 0, 6)`` and ``(0, 0, 0, 24)``, so the earlier values
    contradict each other whichever six-point class was meant.
    """
    s6 = SpaceId(6, 3)
    tripled = tuple(3 * c for c in boundary_class(s6, canonical_label(s6, 2, {1, 2})).coords)
    assert tripled == (-1, 1, 1, 0, -3, 1, 1, -1), _fmt(tripled)

    coords = {}
    for n in (6, 7, 8):
        cls, cert, rays = counterexample_ftau(n)
        assert cert.kind == "non-membership" and cert.verify(cls.coords, rays), n
        coords[n] = cls.coords

    recorded = {
        "six-point pushdown": ((2, 0, 0, 2, -6, -2, -2, 2), coords[6]),
        "7-point transport": ((4, 0, 0, 6, 0, -4, -4, 8, 6, -6, -6, -24), coords[7]),
        "8-point transport": (
            (12, 0, 0, 24, 12, -12, -12, 36, 24, -24, -24, -120, -24, -24, -24, 36),
            coords[8],
        ),
    }
    problems = [
        f"{what}: recorded {_fmt(want)}, computed {_fmt(got)}"
        for what, (want, got) in recorded.items()
        if want != got
    ]
    if problems:
        raise AssertionError(
            "recorded expectations disagree with the exact computation: "
            + "; ".join(problems)
        )


def check_unpointed_ray_sets() -> None:
    """Unpointed nem rays for n = 6..9 equal the recorded primitive sets."""
    for n in range(6, 10):
        got = _ray_set(nem_hrep(SpaceId(n, 0)).rays)
        want = _ray_set(fixtures.NEM_RAYS[SpaceId(n, 0)])
        assert got == want, f"n = {n}: computed {got}, recorded {want}"


def check_branching_rule() -> None:
    """The branching construction reproduces double description for n <= 14."""
    for n in range(6, 15):
        ind = nem_rays_inductive(n)
        assert len(ind) == 2 ** (n // 2 - 2), (n, len(ind))
        got = _ray_set(nem_hrep(SpaceId(n, 0)).rays)
        assert got == _ray_set(ind), f"n = {n}: computed {got}, constructed {_ray_set(ind)}"


def check_pointed_small_cones() -> None:
    """The one-marked nem cones at n = 5, 6, 7 match their recorded forms."""
    for n in (5, 6, 7):
        got = _ray_set(nem_hrep(SpaceId(n, 1)).rays)
        want = _ray_set(fixtures.NEM_RAYS[SpaceId(n, 1)])
        assert got == want, f"n = {n}: computed {got}, recorded {want}"

    seven = nem_hrep(SpaceId(7, 1))
    assert len(seven.inequalities) == 9, seven.inequalities


def check_redundancy_identities() -> None:
    """The closed-form rewritings collapse the full system for 5 <= n <= 12."""
    for n in range(5, 13):
        full = nem_xn1_full_rows(n)
        nem_xn1_subsumption(n)  # raises if any closed-form rewriting fails
        reduced = {primitive(r) for r in nem_hrep(SpaceId(n, 1)).inequalities}
        for (i, j, l), row in full.items():
            if i <= 2:
                assert primitive(row) in reduced, (n, i, j, l)
        full_primitive = {primitive(row) for row in full.values()}
        for r in reduced:
            assert r in full_primitive, (n, r)

        # the system itself pins the second basis coordinate nonnegative
        e2 = (1,) + (0,) * (picard_number(SpaceId(n, 1)) - 1)
        if n % 2 == 1:
            low = full[(2, 2, (n + 1) // 2)]
            assert primitive(low) == e2, (n, low)
        else:
            h = n // 2
            combo = tuple(h * a + (h - 2) * b for a, b in zip(full[(2, 2, h)], full[(2, 2, h + 1)]))
            want = tuple(h * (h - 1) * (h - 2) * (n - 1) * x for x in e2)
            assert combo == want, (n, combo)


def fibration_face(n: int) -> tuple[IntVec, ...]:
    """The rays of the face ``a_2 = 0`` of the pointed nem cone on ``n`` points.

    Raises `AssertionError` unless that face is the pullback of the unpointed
    nem cone on ``n - 1`` points, its rays are balanced (the coordinates of
    ``b_l`` and ``b_{n-l+1}`` agree), and every ray off the face has all
    coordinates positive, so that it is big.
    """
    face, off_face = [], []
    for ray in nem_hrep(SpaceId(n, 1)).rays:
        (face if ray[0] == 0 else off_face).append(ray)
    pi = pi_star_map(n)
    pulled = sorted({primitive(pi(ray)) for ray in nem_rays_inductive(n - 1)})
    assert sorted(face) == pulled, f"n = {n}: face rays {sorted(face)}, pulled back {pulled}"
    unbalanced = [r for r in face if any(r[n - l - 1] != r[l - 2] for l in range(3, n - 1))]
    assert not unbalanced, f"n = {n}: unbalanced face rays {unbalanced}"
    not_big = [r for r in off_face if min(r) <= 0]
    assert not not_big, f"n = {n}: rays off the face with a coordinate <= 0: {not_big}"
    return tuple(sorted(face))


def check_pointed_fibration() -> None:
    """The pointed nem cone fibres over the unpointed one for n = 6..8."""
    for n in range(6, 9):
        fibration_face(n)


def check_surface_effective_cone() -> None:
    """Five points, two marked: the relation, the generators, and the facets.
    For n = 5..8, Eff(X(n, 2)) has (n-3)^2 facets, each positive on exactly
    two boundary rays and zero on the rest: the boundary rays form a circuit,
    whose facets drop one ray of each sign of its relation."""
    s = SpaceId(5, 2)
    rel = boundary_class(s, canonical_label(s, 2, {1, 2})).coords
    assert rel == (Fraction(-1, 3), Fraction(1, 3), Fraction(1, 3)), _fmt(rel)

    eff = eff_cone(s)
    assert len(eff.rays) == 4, eff.rays
    assert _ray_set(eff.rays) == _ray_set(fixtures.EFF_X52_RAYS), eff.rays

    assert not eff.equations, eff.equations
    assert eff.inequalities == fixtures.EFF_X52_FACETS, (
        f"computed facets {eff.inequalities}, recorded {fixtures.EFF_X52_FACETS}"
    )

    for n in range(5, 9):
        eff = eff_cone(SpaceId(n, 2))
        assert len(eff.inequalities) == (n - 3) ** 2, (n, len(eff.inequalities))
        for facet in eff.inequalities:
            values = sorted(sum(map(mul, facet, r)) for r in eff.rays)
            assert values[:-2] == [0] * (len(values) - 2) and values[-2] > 0, (n, facet, values)


def check_two_marked_derivation() -> None:
    """The stated combination of derived rows yields each starred unit."""
    for n in range(5, 11):
        eff_xn2_derivation(n)  # raises on any failed combination


def check_transport_consistency() -> None:
    """The maps send the curve classes to the slope rows the cones use; the
    family multipliers work out."""
    for g in range(2, 6):
        hmap = hyperelliptic_pushforward(g)
        src = SpaceId(2 * g + 2, 0)
        for k in range(1, 2 * g):
            assert hyperelliptic_curve_image(g, k) == hmap.push_curve(
                curve_ck(src, k)
            ), (g, k)
        for target in ("mg", "mg1"):
            hi = g - 1 if target == "mg" else g
            for n in range(1, hi + 1):
                pmap = pointed_pushforward(g, n, target)
                psrc = SpaceId(2 * n + 3, 1)
                for k in range(1, 2 * n + 1):
                    assert pointed_curve_image(g, n, k, target) == pmap.push_curve(
                        curve_ck(psrc, k)
                    ), (g, n, k, target)

    for n in range(3, 21):
        assert 5 * n * n - 13 * n + 6 > 0, n
        for g, target in ((n, "mg1"), (n + 1, "mg")):
            # raises on a negative multiplier or a failed exact identity
            mg1_witnesses(g, n, target)


def check_genus_two_pointed() -> None:
    """Pushed cones (``eff``, the push of the seven-point effective cone by a
    birational morphism, is the simplicial cone on the three basis
    divisors), the moving hull, and the contraction face data."""
    cones = m21_cones()
    assert cones["eff"].rays == ((0, 0, 1), (0, 1, 0), (1, 0, 0)), cones["eff"].rays
    a, b, c, d, e = (
        fixtures.M21_A,
        fixtures.M21_B,
        fixtures.M21_C,
        fixtures.M21_D,
        fixtures.M21_E,
    )
    got_nem = set(cones["push_nem"].canonical_vrep()[0])
    assert got_nem == {a, b, d, e}, got_nem
    got_nef = set(cones["push_nef"].canonical_vrep()[0])
    assert got_nef == {a, b, d}, got_nef
    assert m21_pushforward((5, 12, 6, 2)) == (1, 6, 5)
    assert tuple(3 * x + y for x, y in zip(b, d)) == tuple(4 * z for z in c)

    md = x71_mori_data()
    assert sum(a * x for a, x in zip(md.canonical, md.extremal_curve.coords)) == 0
    face = set(md.nef_face_rays)
    assert face == {(0, 2, 1, 2), (5, 12, 6, 2), (10, 6, 3, 1)}, face


def check_symmetrized_cotangent_class() -> None:
    """Keel's ``psi_1`` on ``X(7,1)`` spans the primitive ray (10, 6, 3, 1)."""
    s = SpaceId(7, 1)
    ray = primitive(express_in_basis(s, psi_sum(s)).coords)
    assert ray == (10, 6, 3, 1), _fmt(ray)


def check_containment_chain() -> None:
    """Recorded nef rays sit inside nem (effective for m = 2), nem inside effective."""
    for s, rays in fixtures.NEF_RAYS.items():
        outer = nem_hrep(s) if s.m <= 1 else eff_cone(s)
        for ray in rays:
            assert outer.contains(ray), (s, "nef", ray)
    for s, rays in fixtures.NEM_RAYS.items():
        eff = eff_cone(s)
        for ray in rays:
            assert eff.contains(ray), (s, "nem", ray)


def check_serialization_round_trips() -> None:
    """PORTA text and JSON survive write/read/write byte-for-byte."""
    cone = nem_hrep(SpaceId(7, 1))
    text = porta_write(cone, "hrep")
    assert text.startswith("DIM = 4\n"), text.splitlines()[0]
    assert text.count(">= 0") == 9, text
    assert porta_write(porta_read(text), "hrep") == text

    moving = m21_cones()["push_nem"]
    assert set(moving.rays) == {
        fixtures.M21_A,
        fixtures.M21_B,
        fixtures.M21_D,
        fixtures.M21_E,
    }, moving.rays
    dumped = cone_json_dumps(moving)
    assert cone_json_dumps(cone_from_json(json.loads(dumped))) == dumped
    vtext = porta_write(moving, "vrep")
    assert porta_write(porta_read(vtext), "vrep") == vtext


# --------------------------------------------------------------------------
# the registry and the runner


@dataclass(frozen=True)
class Check:
    """One numbered check: a thematic group, a title, and a callable."""

    number: int
    group: int
    title: str
    run: Callable[[], None]


CHECKS: tuple[Check, ...] = (
    Check(1, 3, "boundary and Picard counts", check_table_counts),
    Check(2, 4, "pushed fibre class escapes the boundary cone", check_counterexample),
    Check(3, 6, "unpointed nem rays match the recorded sets", check_unpointed_ray_sets),
    Check(4, 6, "branching rule agrees with double description", check_branching_rule),
    Check(5, 8, "small one-marked nem cones", check_pointed_small_cones),
    Check(6, 8, "redundancy identities collapse the full system", check_redundancy_identities),
    Check(7, 7, "surface effective cone and its dual", check_surface_effective_cone),
    Check(8, 7, "two-marked derivation yields the starred units", check_two_marked_derivation),
    Check(9, 9, "transport maps agree on curve classes", check_transport_consistency),
    Check(10, 10, "genus-two pointed cones and contraction face", check_genus_two_pointed),
    Check(11, 8, "symmetrized cotangent class image", check_symmetrized_cotangent_class),
    Check(12, 5, "nef inside nem inside effective", check_containment_chain),
    Check(13, 0, "PORTA and JSON round trips", check_serialization_round_trips),
    Check(14, 8, "pointed nem cone fibres over the unpointed one", check_pointed_fibration),
)


@dataclass(frozen=True)
class CheckResult:
    check: Check
    error: str | None

    @property
    def passed(self) -> bool:
        return self.error is None


def run_checks(groups: Iterable[int] | None = None) -> list[CheckResult]:
    """Run the registered checks, optionally restricted to thematic groups."""
    wanted = None if groups is None else set(groups)
    results = []
    for check in CHECKS:
        if wanted is not None and check.group not in wanted:
            continue
        try:
            check.run()
        except (AssertionError, ArithmeticError) as exc:
            results.append(CheckResult(check, str(exc) or type(exc).__name__))
        else:
            results.append(CheckResult(check, None))
    return results


def report_lines(results: Iterable[CheckResult]) -> list[str]:
    """One human-readable pass/fail line per result."""
    lines = []
    for result in results:
        mark = "PASS" if result.passed else "FAIL"
        line = f"{mark}  check {result.check.number:02d} (group {result.check.group}): {result.check.title}"
        if result.error is not None:
            line += f" -- {result.error}"
        lines.append(line)
    return lines
