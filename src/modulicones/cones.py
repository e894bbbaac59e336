"""Rational polyhedral cones with exact H- and V-representations.

A cone is stored through whichever representations it has been given or has
computed so far:

* H-representation -- inequality rows ``a`` with ``a @ x >= 0`` and equation
  rows ``e`` with ``e @ x == 0``;
* V-representation -- generating rays plus a basis of the lineality space.

Conversions happen only in the lazy `Cone` properties and in
`Cone.canonical_vrep`, and both run the double description method
(`dual_description`) on integer rows from end to end: the lineality basis is
kept as the integer rows of `linalg.rref`, the package's one elimination,
rays are projected and reduced by integer cross-multiplication, and adjacency
is decided combinatorially from the tight sets of the rays.  A combined ray
inherits its tight set from the two rays it combines; a final sweep finds
each ray's tight rows again by dot products and keeps the rays whose tight
rows have rank one less than the codimension of the lineality
(`linalg.rank`).  Each membership query is one call to `certify`, one phase-1
simplex solve, which produces either explicit nonnegative coefficients or a
Farkas functional separating the point from the cone.  The simplex pivots an
integer tableau over one common denominator ``D``, the absolute determinant
of the current basis, so every division in a pivot is exact (`_phase1`);
`Fraction` appears only in the coefficients a membership certificate returns.
Every `Certificate` is re-verified by direct integer arithmetic before it is
returned, so a bug in the pivoting can only surface as an exception, never as
a wrong answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional, Sequence

from .linalg import IntVec, _int_row, primitive, rank, rref


def _primitive_or_none(v: Sequence) -> Optional[IntVec]:
    return primitive(v) if any(v) else None


def _int_dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError(f"dot product of vectors of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


def _reduce_mod(
    lin_rref: Sequence[IntVec], pivots: Sequence[int], v: Sequence[int]
) -> Sequence[int]:
    """A positive multiple of the canonical representative of ``v`` modulo
    the row space of the integer `rref` rows ``lin_rref``."""
    for row, p in zip(lin_rref, pivots):
        x = v[p]
        if x:
            q = row[p]
            v = [q * a - x * b for a, b in zip(v, row)]
    return v


# --------------------------------------------------------------------------
# certificates
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable witness for a cone query.

    ``membership``: the target equals the nonnegative combination
    ``sum(c * generators[i] for i, c in coefficients)`` plus the (sign-free)
    combination recorded in ``lineality_coefficients``.
    ``non-membership``: ``functional`` is nonnegative on every generator,
    zero on the lineality space, and strictly negative on the target.
    """

    kind: str  # "membership" | "non-membership"
    coefficients: tuple[tuple[int, Fraction], ...] = ()
    lineality_coefficients: tuple[tuple[int, Fraction], ...] = ()
    functional: Optional[IntVec] = None

    def __bool__(self) -> bool:
        return self.kind != "non-membership"

    def verify(self, target: Sequence, generators: Sequence[Sequence], lineality: Sequence[Sequence] = ()) -> bool:
        """Re-check the certificate against the query it came from, in ints:
        the coefficients are brought to their common denominator ``den`` and
        the integer combination is compared with ``den * target``."""
        if self.kind == "non-membership":
            phi = self.functional
            return (
                all(_int_dot(phi, g) >= 0 for g in generators)
                and all(_int_dot(phi, l) == 0 for l in lineality)
                and _int_dot(phi, target) < 0
            )
        if any(c < 0 for _, c in self.coefficients):
            return False
        terms = [(c, generators[i]) for i, c in self.coefficients]
        terms += [(c, lineality[i]) for i, c in self.lineality_coefficients]
        den = lcm(*(c.denominator for c, _ in terms))
        acc = [0] * len(target)
        for c, g in terms:
            q = c.numerator * (den // c.denominator)
            acc = [a + q * b for a, b in zip(acc, g, strict=True)]
        return acc == [den * x for x in target]


def certify(target: Sequence, generators: Sequence[Sequence], lineality: Sequence[Sequence] = ()) -> Certificate:
    """The one entry point for a cone query, one phase-1 solve: a truthy
    membership certificate when ``target`` lies in the cone generated by
    ``generators`` plus the span of ``lineality``, a falsy non-membership
    certificate otherwise, verified before it is returned."""
    x, w = _phase1([*generators, *(col for l in lineality for col in (l, tuple(-a for a in l)))], target)
    if x is None:
        cert = Certificate("non-membership", functional=primitive(tuple(-a for a in w)))
    else:
        k = len(generators)
        cert = Certificate(
            "membership",
            coefficients=tuple((i, c) for i, c in enumerate(x[:k]) if c != 0),
            lineality_coefficients=tuple(
                (j, c) for j in range(len(lineality)) if (c := x[k + 2 * j] - x[k + 2 * j + 1]) != 0
            ),
        )
    if not cert.verify(target, generators, lineality):
        raise AssertionError(f"simplex produced an invalid {cert.kind} certificate")
    return cert


# --------------------------------------------------------------------------
# phase-1 simplex
# --------------------------------------------------------------------------


def _phase1(columns: Sequence[Sequence], target: Sequence) -> tuple[Optional[list[Fraction]], Optional[IntVec]]:
    """Solve ``target = sum x_j * columns[j]`` with ``x >= 0``.

    Returns ``(x, None)`` when feasible.  When infeasible, returns
    ``(None, w)`` with ``w @ columns[j] <= 0`` for all j and ``w @ target > 0``
    (a Farkas certificate of infeasibility), as a vector of ints.

    The tableau ``[A | I | b]`` and its reduced-cost row are integers over a
    common denominator ``D > 0``, starting from ``D = 1``: the true tableau
    is ``M / D``.  A pivot on ``p = M[leave][enter] > 0`` keeps the pivot
    row, replaces every other row (the reduced-cost row included) by
    ``(p*row - row[enter]*pivot_row) // D``, and sets ``D = p`` (integer
    pivoting; Edmonds 1967, Bareiss 1968).  Up to sign, ``D`` is the
    determinant of the current basis and every entry is a minor of the
    initial tableau with the cost row on top, so each division is exact.
    Bland's rule reads only signs and the ratio test compares
    ``rhs_i / a_i`` by cross-multiplication, so the pivots are those of the
    rational tableau ``M / D``.  A column or target with `Fraction` entries
    is first scaled by the lcm of its denominators, which changes none of
    the pivots, and the scaling is undone on ``x``.
    """
    m = len(target)
    k = len(columns)
    cols, col_scales = zip(*map(_int_row, columns)) if columns else ((), ())
    rhs, t_scale = _int_row(target)
    signs = [-1 if t < 0 else 1 for t in rhs]
    tableau: list[list[int]] = []
    for i in range(m):
        row = [signs[i] * c[i] for c in cols]
        row += [int(j == i) for j in range(m)]
        row.append(signs[i] * rhs[i])
        tableau.append(row)
    basis = list(range(k, k + m))
    # Reduced-cost row for "minimize the sum of slacks"; every basic variable
    # is a slack with cost 1, so the initial reduced cost of column j is its
    # cost minus the column sum.  The last entry tracks minus the objective.
    # It is pivoted as one more row, tableau[m], but never chosen as one.
    tableau.append([int(k <= j < k + m) - sum(row[j] for row in tableau) for j in range(k + m + 1)])
    d = 1
    while True:
        enter = next((j for j in range(k + m) if tableau[m][j] < 0), None)  # Bland's rule
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # rhs_i / a_i against rhs_leave / a_leave, both a > 0
                here, best = tableau[i][-1] * tableau[leave][enter], tableau[leave][-1] * a
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise AssertionError("phase-1 objective is bounded below; no pivot row found")
        pivot_row = tableau[leave]
        p = pivot_row[enter]
        for i, row in enumerate(tableau):
            f = row[enter]
            if i != leave and (f or p != d):
                tableau[i] = [(p * x - f * y) // d for x, y in zip(row, pivot_row)]
        d = p
        basis[leave] = enter
    obj = tableau[m]
    if obj[-1] == 0:  # objective value is zero: the system is feasible
        x: list[Fraction | int] = [0] * k
        for i, b in enumerate(basis):
            if b < k and tableau[i][-1]:
                x[b] = Fraction(tableau[i][-1] * col_scales[b], d * t_scale)
        return x, None
    # Dual solution read off the slack reduced costs, unflipped row by row:
    # d times the rational w_i = signs[i] * (1 - obj[k + i] / d).
    return None, tuple(signs[i] * (d - obj[k + i]) for i in range(m))


# --------------------------------------------------------------------------
# double description
# --------------------------------------------------------------------------


def dual_description(
    dim: int,
    inequalities: Sequence[Sequence],
    equations: Sequence[Sequence] = (),
) -> tuple[list[IntVec], list[IntVec]]:
    """Extreme rays and lineality basis of ``{x : A x >= 0, E x == 0}``.

    Output is canonical: primitive integer rays in lexicographic order, plus
    the reduced-row-echelon basis of the lineality space scaled primitive.
    Equations are imposed first (as pairs of opposite inequalities), then the
    inequality rows in lexicographic order, which makes the whole run -- not
    just the result -- independent of the caller's row order.

    Adjacency of two rays is decided combinatorially from the bitmasks of
    the processed rows each ray is tight on (Fukuda and Prodon, "Double
    description method revisited", 1996).  Those tight sets are exact, and a
    ray combined from two adjacent rays inherits its set from theirs, so dot
    products recompute tight sets only after a row cuts the lineality space.
    A final rank sweep, which finds each ray's tight rows again by dot
    products, keeps only the extreme rays.  A row whose length is not
    ``dim`` raises `ValueError`.
    """
    for what, given in (("inequality", inequalities), ("equation", equations)):
        for row in given:
            _check_length(dim, row, what)
    rows: list[IntVec] = []
    for e in equations:
        p = _primitive_or_none(e)
        if p is not None:
            rows.append(p)
            rows.append(tuple(-x for x in p))
    ineq_rows = {p for a in inequalities if (p := _primitive_or_none(a)) is not None}
    rows.extend(sorted(ineq_rows))

    lin = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    lin_pivots = list(range(dim))
    rays: list[IntVec] = []
    done: list[IntVec] = []
    masks: list[int] = []

    def tight_mask(r: IntVec) -> int:
        return sum(1 << t for t, row in enumerate(done) if _int_dot(row, r) == 0)

    for a in rows:
        lin_vals = [_int_dot(a, l) for l in lin]
        hit = next((i for i, v in enumerate(lin_vals) if v != 0), None)
        if hit is not None:
            # The constraint cuts into the lineality space: the pivot vector
            # becomes an ordinary ray and everything else is projected onto
            # the hyperplane a @ x == 0 along it.  The list then holds exactly
            # the extreme rays modulo the new lineality, as the combinatorial
            # adjacency test below needs.  With H the part of the old cone C
            # on that hyperplane, C = H + span(l0), so projecting along l0
            # maps the faces of C one-to-one onto the faces of H.  And l0 is
            # extreme in the new cone H + R_{>=0} l0, because a @ l0 > 0 while
            # a vanishes on every projected ray.  Each projection is scaled
            # by d0 > 0 to stay integral; only its direction matters.
            l0, d0 = lin[hit], lin_vals[hit]
            if d0 < 0:
                l0, d0 = tuple(-x for x in l0), -d0
            rest = [(l, v) for i, (l, v) in enumerate(zip(lin, lin_vals)) if i != hit]
            lin, lin_pivots = rref([[d0 * x - v * y for x, y in zip(l, l0)] for l, v in rest])
            new_rays = [[d0 * x - _int_dot(a, r) * y for x, y in zip(r, l0)] for r in rays] + [l0]
            done.append(a)
            seen: dict[IntVec, None] = {}
            for r in new_rays:
                p = _primitive_or_none(_reduce_mod(lin, lin_pivots, r))
                if p is not None:
                    seen.setdefault(p)
            rays = list(seen)
            masks = [tight_mask(r) for r in rays]
            continue
        vals = [_int_dot(a, r) for r in rays]
        done.append(a)
        bit = 1 << (len(done) - 1)
        if all(v >= 0 for v in vals):
            masks = [mk | (bit if v == 0 else 0) for mk, v in zip(masks, vals)]
            continue
        plus = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        # Two extreme rays are adjacent when the smallest face holding both
        # is two-dimensional modulo the lineality.  Their common tight rows
        # cut out that face, so there are at least dim - lin - 2 of them, and
        # no third extreme ray is tight on all of them.
        need = dim - len(lin) - 2

        # A combined ray inherits its tight set: masks[i] & masks[j] | bit,
        # with no dot product.  Every mask is exact, both coefficients of the
        # combination are positive and both rays satisfy every processed row,
        # so a processed row vanishes on the combination exactly when it
        # vanishes on both rays; the new row `a` vanishes on it by
        # construction.  Every processed row vanishes on the lineality and
        # `primitive` divides by a positive gcd, so neither `_reduce_mod` nor
        # the scaling changes which rows are tight, and a duplicate
        # combination has the same tight set.  Only a lineality cut (above)
        # computes tight sets by dot products.
        combos: dict[IntVec, int] = {}
        for i, j in itertools.product(plus, minus):
            common = masks[i] & masks[j]
            if common.bit_count() < need or any(
                mk & common == common for k, mk in enumerate(masks) if k != i and k != j
            ):
                continue
            combo = tuple(vals[i] * rj - vals[j] * ri for ri, rj in zip(rays[i], rays[j]))
            p = _primitive_or_none(_reduce_mod(lin, lin_pivots, combo))
            if p is not None:
                combos.setdefault(p, common | bit)
        kept = [(rays[i], masks[i]) for i in plus] + [(rays[i], masks[i] | bit) for i in zero]
        rays = [r for r, _ in kept] + list(combos)
        masks = [mk for _, mk in kept] + list(combos.values())

    # Final sweep: reduce modulo the final lineality, drop rays that are not
    # extreme (the tight rows of an extreme ray have rank exactly
    # codim(lineality) - 1), and sort into canonical order.  The tight rows
    # are found again by dot products, not read from the masks, so the
    # extremality check does not rest on the bookkeeping it checks.
    extreme_rank = dim - len(lin) - 1
    final: set[IntVec] = set()
    for r in rays:
        p = _primitive_or_none(_reduce_mod(lin, lin_pivots, r))
        if p is None:
            continue
        tight = [row for row in done if _int_dot(row, p) == 0]
        if rank(tight) == extreme_rank:
            final.add(p)
    return sorted(final), sorted(lin)


# --------------------------------------------------------------------------
# the Cone class
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Cone:
    """A rational polyhedral cone; construct via `from_hrep` / `from_vrep`.

    Whichever representation is missing gets computed (and cached) on first
    property access.  Representations obtained by conversion are canonical --
    primitive, irredundant, lexicographically sorted -- while caller-supplied
    rows are kept as given up to primitive scaling, deduplication, and ray
    sorting; `canonical_vrep` never trusts caller-supplied rays.
    """

    ambient_dim: int
    _ineqs: Optional[tuple[IntVec, ...]] = None
    _eqs: Optional[tuple[IntVec, ...]] = None
    _rays: Optional[tuple[IntVec, ...]] = None
    _lineality: Optional[tuple[IntVec, ...]] = None
    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_hrep(
        cls,
        dim: int,
        inequalities: Sequence[Sequence],
        equations: Sequence[Sequence] = (),
    ) -> "Cone":
        return cls(
            dim,
            _ineqs=_clean_rows(dim, inequalities, "inequality"),
            _eqs=_clean_rows(dim, equations, "equation"),
        )

    @classmethod
    def from_vrep(
        cls,
        dim: int,
        rays: Sequence[Sequence],
        lineality: Sequence[Sequence] = (),
    ) -> "Cone":
        return cls(
            dim,
            _rays=tuple(sorted(_clean_rows(dim, rays, "ray"))),
            _lineality=_clean_rows(dim, lineality, "lineality vector"),
        )

    def __post_init__(self) -> None:
        if self._ineqs is None and self._rays is None:
            raise ValueError("a cone needs at least one representation")

    @property
    def has_hrep(self) -> bool:
        return self._ineqs is not None

    @property
    def has_vrep(self) -> bool:
        return self._rays is not None

    @property
    def inequalities(self) -> tuple[IntVec, ...]:
        self._ensure_hrep()
        return self._ineqs

    @property
    def equations(self) -> tuple[IntVec, ...]:
        self._ensure_hrep()
        return self._eqs

    @property
    def rays(self) -> tuple[IntVec, ...]:
        self._ensure_vrep()
        return self._rays

    @property
    def lineality(self) -> tuple[IntVec, ...]:
        self._ensure_vrep()
        return self._lineality

    def _ensure_hrep(self) -> None:
        if self._ineqs is None:
            # Polar duality: the facet normals of the cone are exactly the
            # extreme rays of {y : y @ r >= 0 for all rays, y @ l == 0 on the
            # lineality}, and the equations cutting out its span are that
            # dual's lineality.
            ineqs, eqs = dual_description(self.ambient_dim, self._rays, self._lineality)
            object.__setattr__(self, "_ineqs", tuple(ineqs))
            object.__setattr__(self, "_eqs", tuple(eqs))

    def _ensure_vrep(self) -> None:
        if self._rays is None:
            rays, lin = dual_description(self.ambient_dim, self._ineqs, self._eqs)
            object.__setattr__(self, "_rays", tuple(rays))
            object.__setattr__(self, "_lineality", tuple(lin))
            self._cache["canonical_vrep"] = (self._rays, self._lineality)

    def canonical_vrep(self) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
        """(extreme rays, lineality basis) in canonical form, input-independent."""
        if "canonical_vrep" not in self._cache:
            rays, lin = dual_description(self.ambient_dim, self.inequalities, self.equations)
            self._cache["canonical_vrep"] = (tuple(rays), tuple(lin))
        return self._cache["canonical_vrep"]

    def extreme_rays(self) -> tuple[IntVec, ...]:
        """Kept for the ``m21-mov`` selector and checks 10 and 13, which need
        the irredundant rays of cones built from redundant generators."""
        return self.canonical_vrep()[0]

    def contains(self, point: Sequence) -> Certificate:
        """`certify` against the stored rays; with an H-representation, a
        violated row is returned as the functional without a solve."""
        point = tuple(point)
        if len(point) != self.ambient_dim:
            raise ValueError(f"expected a vector of length {self.ambient_dim}, got {len(point)}")
        if self.has_hrep:
            v, _ = _int_row(point)  # a positive multiple: every sign below is kept
            for e in self._eqs:
                val = _int_dot(e, v)
                if val != 0:
                    phi = primitive(e if val < 0 else tuple(-x for x in e))
                    return Certificate("non-membership", functional=phi)
            for a in self._ineqs:
                if _int_dot(a, v) < 0:
                    return Certificate("non-membership", functional=a)
            cert = certify(point, self.rays, self.lineality)
            if not cert:
                raise AssertionError("H-representation and V-representation disagree")
            return cert
        return certify(point, self._rays, self._lineality)

    def dual(self) -> "Cone":
        """Polar dual ``{y : y @ x >= 0 for all x in the cone}``.

        A purely formal role swap -- generator rows become inequality rows and
        vice versa -- so no conversion is triggered.  Kept because a
        completeness certificate for ray lists checks a facet list as the
        ray list of the dual cone.
        """
        return Cone(
            self.ambient_dim,
            _ineqs=self._rays,
            _eqs=self._lineality,
            _rays=self._ineqs,
            _lineality=self._eqs,
        )

    def __repr__(self) -> str:  # pragma: no cover
        parts = [f"dim={self.ambient_dim}"]
        if self._ineqs is not None:
            parts.append(f"{len(self._ineqs)} ineqs, {len(self._eqs)} eqs")
        if self._rays is not None:
            parts.append(f"{len(self._rays)} rays, {len(self._lineality)} lineality")
        return f"Cone({', '.join(parts)})"


def _clean_rows(dim: int, rows: Sequence[Sequence], what: str) -> tuple[IntVec, ...]:
    out: list[IntVec] = []
    seen: set[IntVec] = set()
    for row in rows:
        _check_length(dim, row, what)
        p = _primitive_or_none(row)
        if p is not None and p not in seen:
            seen.add(p)
            out.append(p)
    return tuple(out)


def _check_length(dim: int, row: Sequence, what: str) -> None:
    if len(row) != dim:
        raise ValueError(f"{what} has length {len(row)}, expected {dim}")
