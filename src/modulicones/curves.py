"""One-parameter families, linear maps, and divisor cones on the quotients.

The quotient spaces carry test curves: the families ``C_k`` swept out by
moving the node of a two-component stable curve.  ``pi_star`` pulls
divisors back along the map forgetting the marked point.  The unpointed and
single-index nem rows are classes ``C_k``; the other rows are in closed form,
derived in ``tests/attaching_oracle.py`` by pushing the curves ``C_k`` along
the attaching maps ``q``, ``r`` and ``s`` between quotients; one generator
lists the pointed rows for both the reduced and the full system.  A divisor
class is *nem* ("numerically eventually moving") when its restriction to
every prime divisor is numerically effective.  Pairing candidate divisors
against pushed curves that are nef inside their boundary divisor, together
with effectivity of restrictions to boundary divisors, pins the nem cone
down to a finite inequality description for ``m <= 1``; for ``m = 0`` its
extremal rays even admit a closed-form branching construction.

Everything here works in the coordinates fixed by
:func:`modulicones.spaces.relations_and_basis`: divisor classes as
coefficient vectors over the ``b``-basis, curve classes as vectors of
intersection numbers against it.  Every such row is built by one builder,
`_row`, which places each term (an int ``i`` is ``b_i``) by the basis slots
of :mod:`modulicones.spaces` and keeps the type of its coefficients: the nem
and two-marked inequality rows, the ``C_k`` classes and the ``pi_star``
columns have integer closed forms and are int tuples, and a map's columns
are int rows over one denominator per map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterator, Sequence

from .cones import Certificate, Cone, certify
from .linalg import IntVec, _int_row, primitive
from .spaces import (
    BoundaryLabel,
    CurveClass,
    DivisorClass,
    FormalSum,
    SpaceId,
    _basis_slots,
    _scaled_class,
    canonical_label,
    enumerate_boundaries,
    express_in_basis,
    fully_pointed,
    picard_number,
    relabel_sum,
    relations_and_basis,
    transport_sum,
)

__all__ = [
    "LinearMap",
    "class_l7",
    "counterexample_ftau",
    "curve_ck",
    "eff_cone",
    "eff_xn2_derivation",
    "ftau_sum",
    "l7_sum",
    "nem_hrep",
    "nem_rays_inductive",
    "nem_xn1_full_rows",
    "nem_xn1_subsumption",
    "pi_star_map",
]


# --------------------------------------------------------------------------
# coordinate bookkeeping


def _row(s: SpaceId, *terms: tuple[str | int, Fraction | int]) -> tuple:
    """A row over the ordered basis of ``s``, from ``(name, coeff)`` terms.

    Terms accumulate.  A name is placed by the basis slots of `spaces`: a
    str is a basis name as it is, and an int ``i`` stands for ``b_i``,
    folded for ``m = 0`` and dropped for ``b_2`` at ``m = 2``.  Entries keep
    the type of the coefficients: int coefficients give an :data:`IntVec`.
    """
    row = [0] * picard_number(s)  # a closed form: a huge n fails before any label is built
    slots = _basis_slots(s)
    for name, coeff in terms:
        if name not in slots:
            raise ValueError(f"{s} has no basis class {name!r}")
        if slots[name] is not None:
            row[slots[name]] += coeff
    return tuple(row)


# --------------------------------------------------------------------------
# curve families


def curve_ck(s: SpaceId, k: int) -> CurveClass:
    """Class of the family moving one undistinguished point, ``1 <= k <= n-3``.

    The curve lives on a space with at most one distinguished point; ``C_1``
    on ``X(n, 1)`` is the fibre class of the map forgetting the point.
    """
    if s.m not in (0, 1):
        raise ValueError(f"curve C_k is defined for m <= 1, not {s}")
    if not 1 <= k <= s.n - 3:
        raise ValueError(f"k must lie in 1..{s.n - 3}, got {k}")
    terms = [(k + 1, s.n - k)]
    if k >= 2:  # the pairing against b_1 is identically zero
        terms.append((k, 2 - s.n + k))
    return CurveClass(s, _row(s, *terms))


# --------------------------------------------------------------------------
# linear maps


@dataclass(frozen=True)
class LinearMap:
    """Linear map with one column per source basis name, ``ints[k] / den``
    over ``target_names``: int columns over one positive denominator.

    A call scales its input to ints once, sums in ints and divides once at
    the return; `columns`, `column` and a call return ints where that
    divisor is 1 and `Fraction` values otherwise.  ``source_names`` may be
    a subcolumn of the full source basis — the tests' two-marked gluing into
    ``X(n, 2)`` is only ever needed on the starred block — so application
    takes coefficients aligned with those names.
    """

    source: SpaceId
    source_names: tuple[str, ...]
    target_names: tuple[str, ...]
    ints: tuple[IntVec, ...]
    den: int = 1

    def scaled(self, coefficients: Sequence[Fraction | int]) -> tuple[list[int], int]:
        """``(d * image, d)`` in ints, ``d > 0``: a call before its division."""
        if len(coefficients) != len(self.source_names):
            raise ValueError(
                f"the map from {self.source} takes {len(self.source_names)} "
                f"coordinates, got {len(coefficients)}"
            )
        row, d = _int_row(coefficients)
        return [sum(map(mul, row, coords)) for coords in zip(*self.ints)], d * self.den

    def __call__(self, coefficients: Sequence[Fraction | int]) -> tuple:
        return _divided(*self.scaled(coefficients))

    @property
    def columns(self) -> tuple[tuple, ...]:
        return tuple(_divided(col, self.den) for col in self.ints)

    def column(self, name: str) -> tuple:
        """One column by source name; the tests compare it with the closed-form rows."""
        try:
            return _divided(self.ints[self.source_names.index(name)], self.den)
        except ValueError:
            raise KeyError(f"{name!r} is not a dual-basis name of {self.source}") from None

    def push_curve(self, curve: CurveClass) -> tuple:
        if curve.space != self.source:
            raise ValueError(f"curve lives on {curve.space}, map starts at {self.source}")
        if len(self.source_names) != picard_number(self.source):
            raise ValueError("map is defined on a partial basis; apply it to coefficients")
        return self(curve.coords)


def _divided(ints: Sequence[int], d: int) -> tuple:
    """``ints / d`` at the API edge: the ints themselves when ``d`` is 1."""
    return tuple(ints) if d == 1 else tuple(Fraction(x, d) for x in ints)


def pi_star_map(n: int) -> LinearMap:
    """Divisor pullback along the forgetful map ``X(n, 1) -> X(n-1, 0)``."""
    if n < 5:
        raise ValueError("pi_star needs n >= 5")
    src, t = SpaceId(n - 1, 0), SpaceId(n, 1)
    names = relations_and_basis(src).ordered_basis
    # the pullback of b_l, l = 2..(n-1)//2, is b_{l+1} + b_{n-l}; the two
    # sides coincide when 2l = n - 1, and the class is counted once there
    cols = tuple(_row(t, *((i, 1) for i in {l + 1, n - l})) for l in range(2, len(names) + 2))
    return LinearMap(src, names, relations_and_basis(t).ordered_basis, cols)


# --------------------------------------------------------------------------
# effective cones


@lru_cache(maxsize=None)
def eff_cone(s: SpaceId) -> Cone:
    """Cone spanned by the boundary classes; the effective cone for m <= 2.

    For at most one distinguished point this cone is simplicial on the
    basis classes.  With three or more distinguished points the boundary
    classes stop spanning the effective cone, so no cone is offered.  Like
    every named cone of the package, this is one shared value per argument
    per process: each caller gets the same `Cone`, and so the one cached
    conversion it holds, which is safe because a `Cone` never changes after
    construction.  An argument that raises is not cached and raises again.
    """
    if s.m > 2:
        raise ValueError(
            f"the boundary classes of {s} do not span its effective cone"
        )
    return Cone.from_vrep(picard_number(s), _boundary_rays(s))


def _boundary_rays(s: SpaceId) -> tuple[IntVec, ...]:
    """The primitive boundary classes of ``s``, one per label in label order.

    Each is its label's int column in the `_columns` table made primitive:
    the column is the class times a positive denominator, which `primitive`
    drops, so no `Fraction` is built.  Duplicates are kept.  The order
    matters only where the rays go to `certify` as they are: in
    `counterexample_ftau`, where it fixes the simplex's pivots and so the
    separating functional, and where that certificate is verified again
    against the same list (the ``counterexample`` verb and check 02).
    `eff_cone` passes the rays through `Cone.from_vrep`, which drops
    duplicates and sorts them.
    """
    return tuple(primitive(_scaled_class(s, {label: 1})[0]) for label in enumerate_boundaries(s))


def eff_xn2_derivation(n: int) -> tuple[dict[str, tuple[IntVec, ...]], dict[int, tuple[int, int, int]]]:
    """Inequality families certifying ``b*_j >= 0`` over the two-marked cone.

    Returns the four families of valid inequalities (as functionals on
    divisor coordinates of ``X(n, 2)``) together with, for each
    ``2 <= j <= n-2``, the positive int multipliers ``(c1, c3, c4) =
    (n-j-1, j-1, (n-j-1)(j-1)(n-4))`` of the stated combination
    ``c1 * ineq1_j + c3 * ineq3_j + c4 * ineq4 = (n-2)(n-3)(n-4) * b*_j``.
    The identity is checked in ints; a failure raises
    :class:`ArithmeticError`: the rows would be transcribed inconsistently.
    """
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    s = SpaceId(n, 2)

    c = (n - 4) * (n - 3)
    fam1, fam2, fam3 = [], [], []
    for j in range(2, n - 1):
        fam1.append(_row(s, (f"b*{j}", c), (3, (j - 1) * (n - j - 2)), (f"b*{n - 2}", -(n - 4) * (j - 1))))
        fam2.append(_row(s, (f"b*{n - j}", c), (3, (j - 1) * (n - j - 2)), ("b*2", -(n - 4) * (j - 1))))
        fam3.append(_row(s, (f"b*{j}", c), (3, (n - j - 1) * (j - 2)), ("b*2", -(n - 4) * (n - j - 1))))
    ineq4 = _row(s, ("b*2", 1), (f"b*{n - 2}", 1), (3, -1))

    constant = (n - 2) * (n - 3) * (n - 4)
    multipliers = {}
    for j, row1, row3 in zip(range(2, n - 1), fam1, fam3):
        c1, c3 = n - j - 1, j - 1
        c4 = c1 * c3 * (n - 4)
        unit = _row(s, (f"b*{j}", constant))
        if any(c1 * x + c3 * y + c4 * z != u for x, y, z, u in zip(row1, row3, ineq4, unit)):
            raise ArithmeticError(f"the stated combination does not yield b*_{j}")
        multipliers[j] = (c1, c3, c4)
    families = {
        "ineq1": tuple(fam1),
        "ineq2": tuple(fam2),
        "ineq3": tuple(fam3),
        "ineq4": (ineq4,),
    }
    return families, multipliers


# --------------------------------------------------------------------------
# nem cones: inequality descriptions


@lru_cache(maxsize=None)
def nem_hrep(s: SpaceId) -> Cone:
    """Cone of divisors with effective restriction to every prime divisor.

    Available for ``m = 0`` (n >= 6) and ``m = 1`` (n >= 5); the defining
    functionals are the classes of pushed test curves that are nef inside
    their boundary divisor, so each inequality is forced on the nem cone.
    For ``m = 0`` they are the classes ``C_i``, ``C_{n-1-i}`` for ``2 <= i <
    n // 2``.  Every caller shares one cone per space, as with `eff_cone`.
    """
    if s.m == 0:
        if s.n < 6:
            raise ValueError(f"need n >= 6 for the unpointed cone, got {s.n}")
        rows = tuple(curve_ck(s, k).coords for i in range(2, s.n // 2) for k in (i, s.n - 1 - i))
        return Cone.from_hrep(picard_number(s), rows)
    if s.m == 1:
        if s.n < 5:
            raise ValueError(f"need n >= 5 for the pointed cone, got {s.n}")
        # Only the (n-1)(n-4)/2 rows with i <= 2 are built.  Each i = 2 row
        # carries the factor l - 1; `from_hrep` stores rows primitive.
        return Cone.from_hrep(picard_number(s), tuple(row for _, row in _nem_xn1_rows(s, 2)))
    raise ValueError(f"no inequality description implemented for {s}")


def _nem_xn1_rows(s: SpaceId, top: int) -> Iterator[tuple[tuple[int, int, int], IntVec]]:
    """The pointed nem inequalities ``((i, j, l), row)`` with ``i <= top`` on ``X(n, 1)``.

    For each ``l = 3..n-2``: ``(1, 0, l)``, the class of ``C_{n-l}``, then the
    two-marked rows ``(i, j, l)`` for ``2 <= i <= min(top, l-1)``, ``2 <= j < l``.
    """
    n = s.n
    for l in range(3, n - 1):
        yield (1, 0, l), curve_ck(s, n - l).coords
        for i in range(2, min(top, l - 1) + 1):
            for j in range(2, l):
                yield (i, j, l), _row(
                    s,
                    (n - l + i - 1, (l - 1) * (j - 1) * (l - j)),
                    (j, (l - 1) * (l - i) * (l - i + 1)),
                    (l, -(j - 1) * (l - i) * (l - i + 1)),
                )


def nem_xn1_full_rows(n: int) -> dict[tuple[int, int, int], IntVec]:
    """Every row of `_nem_xn1_rows` on ``X(n, 1)``, keyed by ``(i, j, l)``.

    `nem_hrep` builds only the rows with ``i <= 2``; `nem_xn1_subsumption`
    rewrites the others in terms of lower rows.
    """
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    return dict(_nem_xn1_rows(SpaceId(n, 1), n))


def nem_xn1_subsumption(n: int) -> dict[tuple[int, int, int], tuple[tuple[Fraction, tuple[int, int, int]], ...]]:
    """Exact rewriting of every ``i >= 3`` row in terms of lower rows.

    Each value lists ``(coefficient, key)`` pairs whose combination equals
    the keyed row, verifying that the reduced system loses nothing.  The
    coefficients are the closed-form ones used in the curve analysis; the
    identity is checked in integers, cleared of their common denominator.
    """
    rows = nem_xn1_full_rows(n)
    out: dict[tuple[int, int, int], tuple[tuple[Fraction, tuple[int, int, int]], ...]] = {}
    for (i, j, l), row in rows.items():
        if i < 3:
            continue
        d, a, b = l - i + 2, (l - 1) * (j - 1) * (l - j), l - i
        low, prev = (1, 0, l - i + 2), (i - 1, j, l)
        if any(d * r != a * x + b * y for r, x, y in zip(row, rows[low], rows[prev])):
            raise ArithmeticError(f"rewriting of row {(i, j, l)} failed")
        out[(i, j, l)] = ((Fraction(a, d), low), (Fraction(b, d), prev))
    return out


# --------------------------------------------------------------------------
# nem cones: extremal rays for m = 0


def nem_rays_inductive(n: int) -> tuple[IntVec, ...]:
    """All extremal rays of the unpointed cone, by the branching rule.

    Starting from first entry 1, each next entry is the current one scaled
    by either ``(n-i-2)/(n-i)`` or ``(i+1)/(i-1)``; the ``2^(floor(n/2)-2)``
    resulting vectors, made primitive, are exactly the extremal rays.  For
    ``n = 5`` the picture degenerates to the single ray of a half-line.
    Over the product of all the chosen denominators, entry ``t`` is the
    product of the first ``t`` numerators times the remaining denominators,
    so each vector is built in ints.
    """
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    d = n // 2 - 1
    rays = []
    for choices in itertools.product((0, 1), repeat=d - 1):
        ratios = [(n - i - 2, n - i) if pick == 0 else (i + 1, i - 1) for i, pick in zip(range(2, d + 1), choices)]
        heads = itertools.accumulate((p for p, _ in ratios), mul, initial=1)
        tails = [*itertools.accumulate((q for _, q in reversed(ratios)), mul, initial=1)][::-1]
        rays.append(primitive(tuple(map(mul, heads, tails))))
    return tuple(sorted(set(rays)))


# --------------------------------------------------------------------------
# distinguished divisor classes


def ftau_sum() -> FormalSum:
    """The fibre-of-translates class ``F_tau`` on the six-point space, as boundary terms."""
    s = fully_pointed(6)
    plus = [(3, 6), (4, 6), (5, 6), (3, 4, 6), (3, 5, 6), (1, 2)]
    minus = [(1, 6), (2, 6), (1, 3, 6), (1, 4, 6), (2, 3, 6), (2, 4, 6)]
    terms: dict[BoundaryLabel, int] = {}
    for marks in plus:
        terms[canonical_label(s, len(marks), marks)] = 1
    for marks in minus:
        terms[canonical_label(s, len(marks), marks)] = -1
    return terms


def l7_sum() -> FormalSum:
    """The fifteen-term class ``L_7`` on the seven-point space, as boundary terms."""
    s = fully_pointed(7)
    terms: dict[BoundaryLabel, int] = {}
    for r in range(1, 5):
        for extra in itertools.combinations((3, 4, 5, 6), r):
            marks = (7,) + extra
            terms[canonical_label(s, len(marks), marks)] = 1
    return terms


def counterexample_ftau(n: int) -> tuple[DivisorClass, Certificate, tuple[IntVec, ...]]:
    """Effective class on ``X(n, 3)`` lying outside the boundary cone.

    Transports the six-point fibre class to ``n`` points and down to three
    distinguished points in one step (`transport_sum` from the fully pointed
    six-point space), and certifies non-membership in the cone spanned by
    all boundary classes there.  Returns the class, the certificate and the
    boundary rays of ``X(n, 3)`` it was certified against, so a caller
    re-verifies without rebuilding them.
    """
    if n < 6:
        raise ValueError(f"need n >= 6, got {n}")
    s = SpaceId(n, 3)
    cls = express_in_basis(s, transport_sum(fully_pointed(6), ftau_sum(), s))
    rays = _boundary_rays(s)
    cert = certify(cls.coords, rays)
    if cert:
        raise ArithmeticError(
            f"the transported class unexpectedly lies in the boundary cone of {s}"
        )
    return cls, cert, rays


def class_l7() -> tuple[FormalSum, DivisorClass]:
    """The boundary terms of ``L_7`` and its one-marked quotient image.

    The class is symmetric in the first six points with the seventh one
    special, so the quotient keeping a distinguished point is taken after
    swapping points 1 and 7.
    """
    terms = l7_sum()
    swapped = relabel_sum(7, terms, {1: 7, 7: 1})
    s = SpaceId(7, 1)
    pushed = transport_sum(fully_pointed(7), swapped, s)
    coords = express_in_basis(s, pushed).coords
    return terms, DivisorClass(s, primitive(coords))
