"""Transport into the classical coordinates of higher-genus moduli.

The even-point quotients sit inside the moduli of genus-``g`` stable curves
as the hyperelliptic locus (send a configuration to its degree-two admissible
cover), and the odd-point one-marked quotients map in by covering and then
attaching a fixed complementary-genus tail at the distinguished point.  Both
maps are linear on numerical classes, so the cone machinery of
:mod:`modulicones.curves` transports: each map is a
:class:`modulicones.curves.LinearMap` sending dual-basis vectors to
combinations of the standard classes ``lambda``, ``delta_irr``, ``delta_i``
(and ``omega`` on the pointed side), and inequality systems follow by
applying the maps row-wise.

Conventions, applied once by the one row builder: ``delta_j`` folds to
``delta_{g-j}`` above ``floor(g/2)`` on the unpointed side, ``delta_0`` is
zero there and ``-omega`` on the pointed side, and for ``g = 2`` the class
``lambda`` is not independent — it is eliminated via
``(1/10) delta_irr + (1/5) delta_1``.  Inequality rows are integer tuples;
at ``g = 2`` they are scaled by 10 so that elimination stays integral, which
changes no cone.  The family's witnesses are ints too, their rows at the
same scale.  Map columns are int rows over one known denominator, which
absorbs the ×10 at ``g = 2``, and the curve images are doubled int rows; a
``Fraction`` is built only when a map or an image returns its value.  The
slope rows ``a_k``, ``b_k`` are written once, in `_slope_rows`, for the
hyperelliptic cone, the transported family, the family's witnesses and the
curve images; the maps are the independent route to the same classes.

The genus-two pointed space gets special treatment (its own basis
``(Delta_irr, Delta_1, W)``): the seven-point one-marked quotient maps onto
it birationally, by one more :class:`~modulicones.curves.LinearMap` (on
divisor coordinates), and the module ends with the transported cone
comparisons and the numerical data of the two extremal contractions used
there.

The cones are shared like every named cone of the package: each
constructor caches its answer per argument, so a repeated query reuses the
conversions of the first, and the mapping `m21_cones` returns is read-only.
The family's witnesses are not cached: each call builds a fresh dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from . import fixtures
from .cones import Cone
from .linalg import IntVec, Vec, primitive, vec
from .curves import LinearMap, curve_ck, nem_hrep
from .spaces import CurveClass, SpaceId, relations_and_basis

__all__ = [
    "MoriData",
    "hyperelliptic_curve_image",
    "hyperelliptic_pullback_cone",
    "hyperelliptic_pushforward",
    "m21_cones",
    "m21_moving_cone",
    "m21_pushforward",
    "mg1_inequality_family",
    "mg1_witnesses",
    "mg_basis",
    "mg1_basis",
    "pointed_curve_image",
    "pointed_pushforward",
    "x71_mori_data",
]


def mg_basis(g: int) -> tuple[str, ...]:
    """Ordered divisor basis used for the genus-``g`` unpointed moduli."""
    if g < 2:
        raise ValueError(f"need g >= 2, got {g}")
    deltas = tuple(f"delta_{j}" for j in range(1, g // 2 + 1))
    if g == 2:
        return ("delta_irr",) + deltas
    return ("lambda", "delta_irr") + deltas


def mg1_basis(g: int) -> tuple[str, ...]:
    """Ordered divisor basis for the one-pointed genus-``g`` moduli."""
    if g < 2:
        raise ValueError(f"need g >= 2, got {g}")
    deltas = tuple(f"delta_{j}" for j in range(1, g))
    if g == 2:
        return ("delta_irr",) + deltas + ("omega",)
    return ("lambda", "delta_irr") + deltas + ("omega",)


Deltas = Iterable[tuple[int, int]]


def _row(target: str, g: int, lam=0, irr=0, deltas: Deltas = ()) -> tuple:
    """Coordinates in the ``target`` basis, conventions applied, ``g = 2`` ×10.

    ``deltas`` holds ``(j, coefficient)`` pairs; an index may repeat (pairs
    accumulate).  On ``mg`` an index above the fold is reflected and
    ``delta_0`` is zero; on ``mg1`` ``delta_0`` is ``-omega``.  At ``g = 2``
    ``lambda`` is eliminated as ``(1/10) delta_irr + (1/5) delta_1``, and the
    row is scaled by 10 so that integer arguments give an integer row.
    Entries keep the type of the arguments: ints give an :data:`IntVec`.
    """
    pointed = target == "mg1"
    # delta_irr, delta_1..delta_{g-1} and omega on mg1; delta_irr and the
    # folded delta_1..delta_{g//2} on mg
    acc = [0] * (g + 1 if pointed else g // 2 + 1)
    acc[0] = irr
    for j, coeff in deltas:
        if j == 0:
            if pointed:
                acc[-1] -= coeff
            continue
        if not 0 < j < g:
            raise ValueError(f"delta index {j} out of range for genus {g}")
        acc[j if pointed or j <= g // 2 else g - j] += coeff
    if g == 2:
        return (10 * acc[0] + lam, 10 * acc[1] + 2 * lam, *(10 * x for x in acc[2:]))
    return (lam, *acc)


def _row_den(g: int) -> int:
    """The factor :func:`_row` scales its rows by: 10 at ``g = 2``, else 1."""
    return 10 if g == 2 else 1


def _as_vec(g: int, row: Sequence[int], den: int = 1) -> Vec:
    """The exact ``Fraction`` coordinates of a :func:`_row` result over ``den``."""
    den *= _row_den(g)
    return tuple(Fraction(x, den) for x in row)


# --------------------------------------------------------------------------
# the hyperelliptic locus


def hyperelliptic_pushforward(g: int) -> LinearMap:
    """Dual-basis transport along the degree-two admissible-cover map.

    The source is the ``2g+2``-point unpointed quotient.  Even dual classes
    land on ``2 delta_irr`` plus a ``lambda`` term, odd ones on half a
    ``delta`` plus a ``lambda`` term; both weights are symmetric under the
    source's index fold, which is what makes the map well defined on the
    folded basis.
    """
    if g < 2:
        raise ValueError(f"need g >= 2, got {g}")
    src = SpaceId(2 * g + 2, 0)
    names = relations_and_basis(src).ordered_basis
    den = 4 * g + 2
    cols = []
    for i in range(2, g + 2):  # the basis b_2..b_{g+1} of the source
        if i % 2 == 0:
            j = i // 2
            cols.append(_row("mg", g, lam=j * (g + 1 - j), irr=2 * den))
        else:
            j = (i - 1) // 2
            cols.append(_row("mg", g, lam=j * (g - j), deltas=((j, 2 * g + 1),)))
    return LinearMap(src, names, mg_basis(g), tuple(cols), den * _row_den(g))


def hyperelliptic_curve_image(g: int, k: int) -> Vec:
    """Direct image of the ``k``-th sliding-node family: ``a_{g-k/2}`` for
    even ``k`` and ``b_{g-(k-1)/2} / 2`` for odd ``k`` (`_slope_rows`).  The
    independent route, which check 09 holds it to, is
    :func:`hyperelliptic_pushforward` of the folded family class."""
    if g < 2:
        raise ValueError(f"need g >= 2, got {g}")
    if not 1 <= k <= 2 * g - 1:
        raise ValueError(f"k must lie in 1..{2 * g - 1}, got {k}")
    a, b = _slope_rows("mg", g, g - k // 2)
    return _as_vec(g, b, 2) if k % 2 else _as_vec(g, a)


@lru_cache(maxsize=None, typed=True)
def hyperelliptic_pullback_cone(g: int) -> Cone:
    """Effective classes whose hyperelliptic restriction stays transportable.

    The ``2(g-1)`` inequalities are the slope rows ``b_k`` and ``a_k`` of
    `_slope_rows` for ``k = 1..g-1``, in that order; each is the image of the
    corresponding unpointed-cone row under :func:`hyperelliptic_pushforward`.
    """
    if g < 2:
        raise ValueError(f"need g >= 2, got {g}")
    rows = tuple(row for k in range(1, g) for row in reversed(_slope_rows("mg", g, k)))
    return Cone.from_hrep(len(mg_basis(g)), rows)


# --------------------------------------------------------------------------
# the pointed covers


def _check_pointed_params(g: int, n: int, target: str) -> None:
    if target not in ("mg", "mg1"):
        raise ValueError(f"target must be 'mg' or 'mg1', got {target!r}")
    if g < 2:
        raise ValueError(f"need g >= 2, got {g}")
    hi = g - 1 if target == "mg" else g
    if not 1 <= n <= hi:
        raise ValueError(f"need 1 <= n <= {hi} for target {target!r}, got {n}")


def pointed_pushforward(g: int, n: int, target: str = "mg") -> LinearMap:
    """Transport from the ``2n+3``-point one-marked quotient.

    The map covers and then glues a fixed complementary tail at the marked
    point; ``target`` selects whether the tail itself carries the surviving
    marked point.  On the pointed target the boundary index ``g - n`` may
    degenerate to 0, which the coordinate conventions turn into ``-omega``.
    """
    _check_pointed_params(g, n, target)
    src = SpaceId(2 * n + 3, 1)
    names = relations_and_basis(src).ordered_basis
    den = 2 * (2 * n + 1) * (n + 1)
    cols = []
    for i in range(2, 2 * n + 2):  # the basis b_2..b_{2n+1} of the source
        if i % 2 == 0:
            j = (i - 2) // 2
            deltas = ((g - n + j, (2 * n + 1) * (n + 1)), (g - n, -2 * (n - j) * (2 * n + 1 - 2 * j)))
            cols.append(_row(target, g, lam=j * (n - j) * (n + 1), deltas=deltas))
        else:
            j = (i - 1) // 2
            deltas = ((g - n, -2 * (2 * n + 1 - 2 * j) * (n + 1 - j)),)
            cols.append(_row(target, g, lam=j * (n + 1 - j) * (n + 1), irr=2 * den, deltas=deltas))
    basis = mg_basis(g) if target == "mg" else mg1_basis(g)
    return LinearMap(src, names, basis, tuple(cols), den * _row_den(g))


def pointed_curve_image(g: int, n: int, k: int, target: str = "mg") -> Vec:
    """Direct image of the ``k``-th family under the pointed cover map.

    ``k = 1`` is the fibre family and is contracted up to a boundary
    correction; odd ``k >= 3`` gives ``a_{n-(k-1)/2}`` and even ``k`` gives
    ``b_{n+1-k/2} / 2``, checked against :func:`pointed_pushforward`.
    """
    _check_pointed_params(g, n, target)
    if not 1 <= k <= 2 * n:
        raise ValueError(f"k must lie in 1..{2 * n}, got {k}")
    if k == 1:
        return _as_vec(g, _row(target, g, deltas=((g - n, -(n - 1)),)))
    if k % 2:
        return _as_vec(g, _slope_rows(target, g, n - k // 2)[0])
    return _as_vec(g, _slope_rows(target, g, n + 1 - k // 2)[1], 2)


# --------------------------------------------------------------------------
# the transported inequality families


def _slope_rows(target: str, g: int, k: int) -> tuple[IntVec, IntVec]:
    """The slope rows ``(a_k, b_k)`` on ``target``; their ``delta`` index
    ``g - k`` folds to ``k`` on ``mg``.  They are the curve images too."""
    a = _row(target, g, irr=-4 * k, deltas=((g - k, k + 1),))
    b = _row(target, g, lam=k, irr=4 * (2 * k + 1), deltas=((g - k, -(2 * k - 1)),))
    return a, b


def _mg1_rows(g: int, n: int, target: str) -> dict[tuple, IntVec]:
    rows: dict[tuple, IntVec] = {}
    for k in range(1, n):
        rows[("a", k)], rows[("b", k)] = _slope_rows(target, g, k)
        for m in range(0, k):
            rows[("c", k, m)] = _row(
                target,
                g,
                lam=k * m * (k - m),
                deltas=(
                    (g - k, (2 * m + 1) * (k - m)),
                    (g - n + m, k * (2 * k + 1)),
                    (g - n + k, -k * (2 * m + 1)),
                    (g - n, -4 * k * (k - m)),
                ),
            )
            rows[("e", k, m)] = _row(
                target,
                g,
                lam=k * (m + 1) * (k - m),
                irr=4 * k * (2 * k + 1),
                deltas=(
                    (g - k, (m + 1) * (2 * (k - m) - 1)),
                    (g - n, -2 * k * (2 * (k - m) - 1)),
                    (g - n + k, -2 * k * (m + 1)),
                ),
            )
        for m in range(0, k + 1):
            rows[("d", k, m)] = _row(
                target,
                g,
                lam=m * (k + 1) * (k - m),
                irr=-4 * m * (2 * m + 1),
                deltas=(
                    (g - n + m, (k + 1) * (2 * k + 1)),
                    (g - n, -(2 * k + 1) * (2 * (k - m) + 1)),
                ),
            )
    return rows


Witness = tuple[int, int, IntVec]


@lru_cache(maxsize=None, typed=True)
def mg1_inequality_family(g: int, n: int, target: str = "mg") -> Cone:
    """The cone the five transported inequality families cut out.

    Its rows are checked first: :func:`mg1_witnesses` runs on every build, so
    rows transcribed inconsistently raise :class:`ArithmeticError` here too.
    """
    mg1_witnesses(g, n, target)
    rows = _mg1_rows(g, n, target)
    dim = len(mg_basis(g) if target == "mg" else mg1_basis(g))
    return Cone.from_hrep(dim, tuple(rows.values()))


def mg1_witnesses(g: int, n: int, target: str = "mg") -> dict[tuple[int, int], Witness]:
    """Reduction witnesses of :func:`mg1_inequality_family`, per valid ``(k, m)``.

    Each is the int multipliers ``(c1, c2, row)`` certifying that the combined
    slope rows dominate the positivity row ``4(2(k+m)+3) delta_irr +
    (k+1)(m+1) lambda``: ``c1 * (row_a(1) + 2 row_b(1)) + c2 * ((2n-3)
    row_a(n-1) + n row_b(n-1))`` equals ``2(5n^2-13n+6) * row`` exactly
    (``3 * row`` in the degenerate two-tail case, where the leading constant
    vanishes).  ``row`` is the positivity row as :func:`_row` builds it, so it
    is scaled by 10 at ``g = 2``; the identity is linear in the rows and holds
    at either scale.  Only the slope rows at ``k = 1`` and ``k = n - 1``
    (`_slope_rows`) are built, not the family's rows or its cone.  A negative
    multiplier or a failed identity raises :class:`ArithmeticError`; it would
    mean the rows were transcribed inconsistently.
    """
    _check_pointed_params(g, n, target)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    # the two slope combinations the multipliers act on; neither depends on (k, m)
    a1, b1 = _slope_rows(target, g, 1)
    a_top, b_top = _slope_rows(target, g, n - 1)
    low = [a + 2 * b for a, b in zip(a1, b1)]
    high = [(2 * n - 3) * a + n * b for a, b in zip(a_top, b_top)]
    constant = 3 if n == 2 else 2 * (5 * n * n - 13 * n + 6)
    witnesses: dict[tuple[int, int], Witness] = {}
    for k in range(1, n):
        for m in range(0, k):
            if n == 2:
                c1, c2 = 1, 2
            else:
                c1 = (
                    2 * n * (n - 1) * (2 * (k + m) + 3)
                    - 2 * (4 * n - 3) * (k + 1) * (m + 1)
                )
                c2 = 10 * (k + 1) * (m + 1) - 4 * (2 * (k + m) + 3)
            if c1 < 0 or c2 < 0:
                raise ArithmeticError(f"negative multiplier at (k, m) = {(k, m)}")
            row = _row(target, g, lam=(k + 1) * (m + 1), irr=4 * (2 * (k + m) + 3))
            if any(c1 * x + c2 * y != constant * r for x, y, r in zip(low, high, row)):
                raise ArithmeticError(f"multiplier identity fails at (k, m) = {(k, m)}")
            witnesses[(k, m)] = (c1, c2, row)
    return witnesses


# --------------------------------------------------------------------------
# the genus-two pointed space


# The birational map X(7, 1) -> M_{2,1} on divisor coordinates: the
# two-point class lands on the Weierstrass divisor, the three-point one is
# contracted, and the half-normalized five-point class accounts for the
# factor on Delta_irr.
_M21 = LinearMap(
    SpaceId(7, 1),
    ("b2", "b3", "b4", "b5"),
    fixtures.M21_BASIS,
    ((0, 0, 2), (0, 0, 0), (0, 2, 0), (1, 0, 0)),
    2,
)


def m21_pushforward(coords: Sequence[Fraction | int]) -> Vec:
    """Push seven-point one-marked coordinates to ``(Delta_irr, Delta_1, W)``."""
    return _M21(coords)


@lru_cache(maxsize=None)
def m21_cones() -> Mapping[str, Cone]:
    """The four cone players on the genus-two pointed space, read-only.

    ``eff`` is simplicial on the three basis divisors; ``push_nem`` and
    ``push_nef`` transport the computed seven-point cone and the recorded
    nef cone; ``nef`` is the recorded hull including the relative dualizing
    ray.
    """
    s = _M21.source
    pushed_nem = tuple(primitive(_M21.scaled(r)[0]) for r in nem_hrep(s).rays)
    pushed_nef = tuple(primitive(_M21.scaled(r)[0]) for r in fixtures.NEF_RAYS[s])
    return MappingProxyType({
        "eff": Cone.from_vrep(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        "push_nem": Cone.from_vrep(3, pushed_nem),
        "push_nef": Cone.from_vrep(3, pushed_nef),
        "nef": Cone.from_vrep(3, (fixtures.M21_A, fixtures.M21_B, fixtures.M21_C)),
    })


@lru_cache(maxsize=None)
def m21_moving_cone() -> Cone:
    """The genus-two moving cone: ``push_nem`` of `m21_cones` rebuilt from
    its extreme rays, so its generators are those four rays and no other.
    The ``m21-mov`` cone of the command line and of check 13."""
    return Cone.from_vrep(3, m21_cones()["push_nem"].canonical_vrep()[0])


@dataclass(frozen=True)
class MoriData:
    """Numerical shadow of the two extremal contractions of the 7-point map.

    ``contracted_curve`` slides the node of a three-point-side degeneration
    along the side carrying the mark and is the class killed by the cover
    map; ``extremal_curve`` slides it along the plain side and spans the
    extremal ray whose supporting face of the recorded nef cone is
    ``nef_face_rays``.
    """

    space: SpaceId
    canonical: Vec
    contracted_curve: CurveClass
    extremal_curve: CurveClass
    nef_face_rays: tuple[IntVec, ...]


def x71_mori_data() -> MoriData:
    s = SpaceId(7, 1)
    canonical = vec((Fraction(-1, 3), 0, 0, Fraction(-4, 3)))
    contracted = CurveClass(s, (2, -1, 0, 1))
    extremal = curve_ck(s, 3)
    face = tuple(
        sorted(r for r in fixtures.NEF_RAYS[s] if sum(a * x for a, x in zip(r, extremal.coords)) == 0)
    )
    return MoriData(s, canonical, contracted, extremal, face)
