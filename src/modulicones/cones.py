"""Rational polyhedral cones with exact H- and V-representations.

A `Cone` is a value built from one of two representations:

* H-representation -- inequality rows ``a`` with ``a @ x >= 0`` and equation
  rows ``e`` with ``e @ x == 0``;
* V-representation -- generating rays plus a basis of the lineality space.

A query reads a cone as one generator list, `Cone.generators`: the rays, then
each lineality vector followed by its negative (the Minkowski-Weyl form that
PORTA's ``CONE_SECTION`` writes), so a membership certificate is one
nonnegative combination and a separating functional is nonnegative on every
listed generator, hence zero on the lineality space.

A cone keeps the representation it was built from and computes the other once,
through one cached V->H conversion and one cached H->V conversion
(`Cone.canonical_vrep`), so no answer depends on what was read before it.
Every conversion in the package goes through them.  By polarity both are one
computation, the extreme rays of ``{x : v @ x >= 0 for every row v}``, and
both are one call to the double description method (`dual_description`),
which works on integer rows from end to end.  It starts from one integer
`linalg.rref`, the package's one elimination, of the rows beside an
identity (`_dual_start`): it picks a maximal independent set of the rows and
gives their dual basis, the rays of a simplicial cone, and the lineality.
Each later row combines the pairs of rays it separates that are adjacent,
by integer cross-multiplication.  Adjacency is decided combinatorially from
the tight sets of the rays: a pair passes when it has enough common tight
rows and the AND of the transposed tight-row bitsets over those rows leaves
no third ray.  A combined ray inherits its tight set from the two rays it
combines.  On a simplicial cone every two rays are adjacent, so the first
row after the start combines every pair it separates and its rays are
final; the boundary classes need no more: they span a simplicial cone for
at most one marked point and a circuit, one row past simplicial, for two.
Once a second row has been processed, a final sweep finds each ray's tight
rows again by dot products and keeps the rays whose tight rows have rank
one less than the codimension of the lineality.  It ranks them in the start
basis, the dual basis and the lineality, where each start row is a positive
multiple of a unit vector: the rank is the number of tight start rows plus
the rank of the tight later rows restricted to the other start coordinates,
one small `linalg.rank` (forward elimination only) per ray
(`_extreme_in_start_basis`).

Each membership query is one call to `certify`, one phase-1 simplex solve,
which produces either explicit nonnegative coefficients or a Farkas
functional separating the point from the cone.  The simplex pivots an
integer tableau over one common denominator ``D``, the absolute determinant
of the current basis, so every division in a pivot is exact (`_phase1`).
The systems it meets are almost all zeros -- the boundary classes are unit
vectors, some doubled, beside one or a few dense classes -- so each
constraint row is a map from column to nonzero entry and only the
reduced-cost row is a dense list.  A pivot touches the rows with an entry
in the entering column, and in them only the pivot row's columns; every
row is rescaled as well only when the pivot differs from ``D``, which is
rare.  The maps hold exactly the integers of the dense tableau, and Bland's
rule and the ratio test read only those, so the pivots, and with them the
certificates, are those of the rational tableau.  `Fraction` appears only
in the coefficients a membership certificate returns.  `certify` re-verifies
every `Certificate` by direct integer arithmetic before it returns it, so a
bug in the pivoting can only surface as an exception, never as a wrong
answer; the target is scaled once to ints for this.  `Cone.contains` alone
returns an H-row the point violates unverified, and only on a cone built
from an H-representation.

Every named cone of the package (`curves.eff_cone`, `curves.nem_hrep`, the
`bridge` cones and the command line's recorded nef cones) is one shared
value per argument per process: its constructor sits under an unbounded
`functools.lru_cache`, so each of its conversions runs once per process.
A long-lived caller can free them with the constructor's ``cache_clear()``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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


# --------------------------------------------------------------------------
# certificates
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable witness for a cone query against one generator list.

    ``membership``: the target equals the nonnegative combination
    ``sum(c * generators[i] for i, c in coefficients)``.
    ``non-membership``: ``functional`` is nonnegative on every generator and
    strictly negative on the target.  A lineality vector enters the list as
    the pair ``l, -l`` (`Cone.generators`), so a functional nonnegative on
    both vanishes on it.
    """

    kind: str  # "membership" | "non-membership"
    coefficients: tuple[tuple[int, Fraction], ...] = ()
    functional: Optional[IntVec] = None

    def __bool__(self) -> bool:
        return self.kind != "non-membership"

    def verify(self, target: Sequence, generators: Sequence[Sequence]) -> bool:
        """Re-check the certificate against the query it came from, in ints,
        also for a rational target: the target is scaled once to the int row
        ``t * target`` (`linalg._int_row`), which keeps every sign and
        equality below.  The coefficients are brought to their common
        denominator ``den`` and the integer combination, times ``t``, is
        compared with ``den * t * target``."""
        v, t = _int_row(target)
        if self.kind == "non-membership":
            phi = self.functional
            return all(_int_dot(phi, g) >= 0 for g in generators) and _int_dot(phi, v) < 0
        if any(c < 0 for _, c in self.coefficients):
            return False
        den = lcm(*(c.denominator for _, c in self.coefficients))
        acc = [0] * len(v)
        for i, c in self.coefficients:
            q = t * c.numerator * (den // c.denominator)
            acc = [a + q * b for a, b in zip(acc, generators[i], strict=True)]
        return acc == [den * x for x in v]


def certify(target: Sequence, generators: Sequence[Sequence]) -> Certificate:
    """The one entry point for a cone query, one phase-1 solve: a truthy
    membership certificate when ``target`` is a nonnegative combination of
    ``generators``, a falsy non-membership certificate otherwise, verified
    before it is returned.  A cone with a lineality space is queried through
    `Cone.generators`, which lists each lineality vector with its negative."""
    x, w = _phase1(generators, target)
    if x is None:
        cert = Certificate("non-membership", functional=primitive(tuple(-a for a in w)))
    else:
        cert = Certificate("membership", coefficients=tuple((i, c) for i, c in enumerate(x) if c != 0))
    if not cert.verify(target, generators):
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
    initial tableau with the cost row on top, so each division is exact,
    entry by entry.

    The constraint rows are sparse: row ``i`` is a ``{column: entry}`` map
    of its nonzero entries, ``b_i`` at column ``k + m``, and only the
    reduced-cost row is a dense list.  Read entry by entry, the update
    changes an entry ``x`` of a row with ``row[enter] == 0``, or in a column
    where the pivot row is zero, to ``p*x // D``; that is ``x`` itself when
    ``p == D``.  So a pivot with ``p == D`` -- nearly every pivot on the
    boundary classes -- updates only the rows with an entry in the entering
    column, and in them, and in the cost row, only the pivot row's columns.
    Only a pivot with ``p != D`` rescales every entry of every row first,
    except those that update sets.  An entry that becomes zero leaves its
    map, so the maps hold exactly the nonzero integers of the dense tableau.

    Bland's rule reads only the signs of the cost row, and the ratio test
    compares ``rhs_i / a_i`` by cross-multiplication of those integers, so
    the pivots are those of the rational tableau ``M / D``, and ``x`` and
    the Farkas vector read off the same integers.  An int column is read
    into the rows as it is.  A column or target with `Fraction` (or other
    non-int) entries is first scaled by the lcm of its denominators, which
    changes none of the pivots, and the scaling is undone on ``x``.
    """
    m = len(target)
    k = len(columns)
    end = k + m  # the column of b
    rhs, t_scale = _int_row(target)
    # row i of [A | I | b], negated where b_i < 0 so that b >= 0
    rows: list[dict[int, int]] = [{k + i: 1, end: abs(b)} if b else {k + i: 1} for i, b in enumerate(rhs)]
    # Reduced-cost row for "minimize the sum of slacks"; every basic variable
    # is a slack with cost 1, so the initial reduced cost of column j is its
    # cost minus the column sum, which is 0 on the slacks.  The last entry
    # tracks minus the objective.
    cost = [0] * (end + 1)
    cost[end] = -sum(map(abs, rhs))
    scales = [1] * k
    for j, col in enumerate(columns):
        _check_length(m, col, "column")
        entries = [(i, a) for i, a in enumerate(col) if a]
        for _, a in entries:
            if type(a) is not int:
                col, scales[j] = _int_row(col)
                entries = [(i, a) for i, a in enumerate(col) if a]
                break
        for i, a in entries:
            a = a if rhs[i] >= 0 else -a
            rows[i][j] = a
            cost[j] -= a
    basis = list(range(k, end))
    d = 1
    while True:
        for enter in range(end):  # Bland's rule: the first negative reduced cost
            if cost[enter] < 0:
                break
        else:
            break
        hits = [(i, row, row[enter]) for i, row in enumerate(rows) if enter in row]
        leave = None
        for i, row, a in hits:
            if a > 0:
                b = row.get(end, 0)
                # rhs_i / a_i against rhs_leave / a_leave, both a > 0
                if leave is None or b * p < rhs_leave * a or (b * p == rhs_leave * a and basis[i] < basis[leave]):
                    leave, p, rhs_leave = i, a, b
        if leave is None:
            raise AssertionError("phase-1 objective is bounded below; no pivot row found")
        pivot = rows[leave]
        f = cost[enter]
        if p != d:  # every entry becomes p*x // D but those the update below sets
            for i, row in enumerate(rows):
                if i != leave:
                    kept = pivot if enter in row else ()
                    for c, x in row.items():
                        if c not in kept:
                            row[c] = p * x // d
            cost = [x if c in pivot else p * x // d for c, x in enumerate(cost)]
        for i, row, a in hits:
            if i != leave:
                for c, y in pivot.items():
                    v = (p * row.get(c, 0) - a * y) // d
                    if v:
                        row[c] = v
                    else:
                        del row[c]
        for c, y in pivot.items():
            cost[c] = (p * cost[c] - f * y) // d
        d = p
        basis[leave] = enter
    if cost[end] == 0:  # objective value is zero: the system is feasible
        x: list[Fraction | int] = [0] * k
        for i, b in enumerate(basis):
            if b < k and end in rows[i]:
                x[b] = Fraction(rows[i][end] * scales[b], d * t_scale)
        return x, None
    # Dual solution read off the slack reduced costs, unflipped row by row:
    # d times the rational w_i = sign(b_i) * (1 - cost[k + i] / d).
    return None, tuple(d - cost[k + i] if b >= 0 else cost[k + i] - d for i, b in enumerate(rhs))


# --------------------------------------------------------------------------
# double description
# --------------------------------------------------------------------------


def _dual_start(dim: int, vectors: Sequence[Sequence[int]]) -> tuple[list[IntVec], list[int]]:
    """The integer `rref` of ``[V^T | I]``, the vectors as columns, which
    starts every conversion.

    Write a result row as ``(y @ v_0, ..., y @ v_{n-1} | y)``.  The rows with
    their pivot at a column ``s < n`` pick, greedily in order, a maximal
    independent set ``S`` of the vectors, and their ``y`` are the dual basis
    of ``S``: ``y_s @ v_t`` is positive for ``t == s`` and zero for every
    other ``t`` in ``S``.  The other rows are zero in the first ``n``
    columns, and their ``y`` are the null space of the vectors in `rref`
    form.  Every ``y`` is primitive, because its whole row is, and zero in
    the pivot columns of the null space."""
    return rref([[*(v[r] for v in vectors), *(int(i == r) for i in range(dim))] for r in range(dim)])


def dual_description(
    dim: int,
    inequalities: Sequence[Sequence],
    equations: Sequence[Sequence] = (),
) -> tuple[list[IntVec], list[IntVec]]:
    """Extreme rays and lineality basis of ``{x : A x >= 0, E x == 0}``.

    Output is canonical: primitive integer rays in lexicographic order, plus
    the reduced-row-echelon basis of the lineality space scaled primitive.
    The equation rows, then the inequality rows, are made primitive,
    deduplicated and sorted, which makes the whole run -- not just the
    result -- independent of the caller's row order.  One `_dual_start` of
    the rows in that order picks a maximal independent set ``S``, equations
    first, and gives the lineality in its canonical form.  Modulo the
    lineality the cone cut out by ``S`` is simplicial, and its rays are the
    dual basis of the inequality rows of ``S``.  An equation outside ``S`` is
    implied by the equations before it and is skipped.  ``S`` spans the row
    space, so the lineality never changes, and each later row only combines
    rays.

    Adjacency of two rays is decided combinatorially from the bitmasks of
    the processed rows each ray is tight on (Fukuda and Prodon, "Double
    description method revisited", 1996).  Those tight sets are exact and
    need no dot product: a start ray's is read off the dual basis, and a ray
    combined from two adjacent rays inherits its set from theirs.
    A pair with too few common tight rows is rejected on a popcount; for the
    rest, the rays tight on every common row are the AND of per-row bitsets
    over the rays, and the pair is adjacent iff that AND is the pair itself.
    With no common row the AND is every ray, so the pair is rejected
    whenever a third ray exists.  On the simplicial start the test is exact:
    every two start rays pass it, so the first row after the start combines
    every pair it separates, and for ``dim + 1`` rows of rank ``dim`` that
    one step gives the facets in closed form (for a circuit, Ziegler,
    *Lectures on Polytopes*, 1995, ch. 6).  A final rank sweep, which finds
    each ray's tight rows again by dot products, re-checks the adjacency
    decisions and keeps only the extreme rays; it runs only once a second
    row after the start has been processed, since before that every
    decision was exact.  It ranks the tight rows in the start basis
    (`_extreme_in_start_basis`): a later row's entries there, ``y_s @ v_t``,
    are column ``t`` of the start's `rref` rows, so the basis change costs
    no product, and each ray's rank is taken over the later rows it is
    tight on and the start rows it is not.  A row whose length is not
    ``dim`` raises `ValueError`; every row and ray inside has length
    ``dim``, so the dot products need no check of their own.
    """
    for what, given in (("inequality", inequalities), ("equation", equations)):
        for row in given:
            _check_length(dim, row, what)
    eqs = sorted({p for e in equations if (p := _primitive_or_none(e)) is not None})
    rows = eqs + sorted({p for a in inequalities if (p := _primitive_or_none(a)) is not None})
    start, pivots = _dual_start(dim, rows)
    n = len(rows)
    lin = [y[n:] for y, c in zip(start, pivots) if c >= n]
    dual = {c: y for y, c in zip(start, pivots) if c < n}
    done: list[IntVec] = [rows[c] for c in dual]
    rays = [y[n:] for c, y in dual.items() if c >= len(eqs)]
    masks = [(1 << len(done)) - 1 - (1 << k) for k, c in enumerate(dual) if c >= len(eqs)]
    rest = [k for k in range(len(eqs), n) if k not in dual]

    for k in rest:
        a = rows[k]
        bit = 1 << len(done)
        done.append(a)
        vals = [sum(map(mul, a, r)) for r in rays]
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
        # construction.  `primitive` divides by a positive gcd, so the scaling
        # changes no tight row, and a duplicate combination has the same
        # tight set.  Both rays are zero in the pivot columns of the
        # lineality, and so is their combination.
        #
        # The third-ray test reads the masks transposed: bit k of cols[t] is
        # set when processed row t is tight at ray k.  The AND of cols[t]
        # over the common rows is the set of rays tight on all of them; it
        # always holds i and j, and the pair is adjacent iff it holds
        # nothing else.  Over an empty `common` the AND is every ray, so such
        # a pair is rejected whenever a third ray exists, as a scan of the
        # masks would reject it.
        cols = [0] * len(done)
        for k, mk in enumerate(masks):
            kb = 1 << k
            while mk:
                low = mk & -mk
                cols[low.bit_length() - 1] |= kb
                mk ^= low
        every = (1 << len(rays)) - 1
        combos: dict[IntVec, int] = {}
        for i, j in itertools.product(plus, minus):
            common = masks[i] & masks[j]
            if common.bit_count() < need:
                continue
            pair = (1 << i) | (1 << j)
            both, left = every, common
            while left and both != pair:
                low = left & -left
                both &= cols[low.bit_length() - 1]
                left ^= low
            if both != pair:
                continue
            combo = tuple(vals[i] * rj - vals[j] * ri for ri, rj in zip(rays[i], rays[j]))
            p = _primitive_or_none(combo)
            if p is not None:
                combos.setdefault(p, common | bit)
        kept = [(rays[i], masks[i]) for i in plus] + [(rays[i], masks[i] | bit) for i in zero]
        rays = [r for r, _ in kept] + list(combos)
        masks = [mk for _, mk in kept] + list(combos.values())

    # Every ray is already primitive, distinct and the canonical
    # representative of its class modulo the lineality, zero in its pivot
    # columns: the start rays are, and so is every combination.  With at
    # most one row after the start, every ray is extreme as well: the start
    # rays are, and one cut of a simplicial cone keeps the rays on its side
    # and meets each edge that crosses it in one more.
    if len(rest) < 2:
        return sorted(rays), sorted(lin)
    # Final sweep: drop rays that are not extreme and sort into canonical
    # order.  Each later row is ranked in the start basis: its entries
    # ``y_s @ v_t`` are column ``t`` of the start's rows, with no product.
    later = [(rows[k], [y[k] for y in dual.values()]) for k in rest]
    final = [r for r in rays if _extreme_in_start_basis(r, done[: len(dual)], later)]
    return sorted(final), sorted(lin)


def _extreme_in_start_basis(
    r: Sequence[int], start: Sequence[Sequence[int]], later: Sequence[tuple[Sequence[int], Sequence[int]]]
) -> bool:
    """Whether the rows tight at ``r`` have rank ``len(start) - 1``, the
    codimension of the lineality less one, which makes ``r`` an extreme ray.

    ``start`` is a maximal independent set ``S`` of the rows, with dual basis
    ``y_s`` (``y_s @ v_t`` is positive for ``t == s`` and zero for every other
    ``t`` in ``S``), and ``later`` pairs each other row ``v_t`` with
    ``w_t = (y_s @ v_t for s in S)``.  With the ``y_s`` and the lineality as a
    basis, a row is the vector of its values on that basis: ``v_s`` becomes
    a positive multiple of the unit vector ``e_s``, ``v_t`` becomes ``w_t``,
    and every row is zero on the lineality.  A change of basis keeps the
    rank, so with ``F`` the start rows not tight at ``r``, the tight rows
    have rank ``|S - F| + rank(w_t[F] for the tight later rows)``, and the
    test is that the second term is ``|F| - 1``.  The tight rows are found
    by dot products, so the test does not rest on the tight-set masks it
    re-checks."""
    free = [s for s, v in enumerate(start) if sum(map(mul, v, r))]
    tight = [[w[s] for s in free] for v, w in later if not sum(map(mul, v, r))]
    return rank(tight) == len(free) - 1


# --------------------------------------------------------------------------
# the Cone class
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Cone:
    """A rational polyhedral cone; construct via `from_hrep` / `from_vrep`.

    A cone is a value: it keeps the representation it was built from, as
    given up to primitive scaling, deduplication and ray sorting, and never
    changes after construction.  The other representation is computed once,
    on first access, by one of two cached conversions: V->H (`_hrep`, the
    facets of the given rays by polar duality) and H->V (`canonical_vrep`,
    the extreme rays of the given or computed inequalities).  Each is one
    `dual_description` call, which answers ``dim`` independent rows, or
    ``dim + 1`` rows of rank ``dim`` such as a circuit, from its start and
    first row, with no rank sweep.  Both are canonical -- primitive,
    irredundant, lexicographically sorted, the same bytes either way --
    and `canonical_vrep` never trusts caller-supplied rays.
    """

    ambient_dim: int
    _ineqs: Optional[tuple[IntVec, ...]] = None
    _eqs: Optional[tuple[IntVec, ...]] = None
    _rays: Optional[tuple[IntVec, ...]] = None
    _lineality: Optional[tuple[IntVec, ...]] = None

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
        """Whether the cone was built from an H-representation."""
        return self._ineqs is not None

    @property
    def has_vrep(self) -> bool:
        """Whether the cone was built from a V-representation."""
        return self._rays is not None

    @cached_property
    def _hrep(self) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
        if self.has_hrep:
            return self._ineqs, self._eqs
        # Polar duality: the facet normals of the cone are exactly the
        # extreme rays of {y : y @ r >= 0 for all rays, y @ l == 0 on the
        # lineality}, and the equations cutting out its span are that
        # dual's lineality.
        ineqs, eqs = dual_description(self.ambient_dim, self._rays, self._lineality)
        return tuple(ineqs), tuple(eqs)

    @cached_property
    def _vrep(self) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
        rays, lin = dual_description(self.ambient_dim, *self._hrep)
        return tuple(rays), tuple(lin)

    @property
    def inequalities(self) -> tuple[IntVec, ...]:
        return self._hrep[0]

    @property
    def equations(self) -> tuple[IntVec, ...]:
        return self._hrep[1]

    @property
    def rays(self) -> tuple[IntVec, ...]:
        return self._rays if self.has_vrep else self._vrep[0]

    @property
    def lineality(self) -> tuple[IntVec, ...]:
        return self._lineality if self.has_vrep else self._vrep[1]

    @cached_property
    def generators(self) -> tuple[IntVec, ...]:
        """The cone as one generator list, the form `certify`, `member` and
        PORTA's ``CONE_SECTION`` read: the rays, then each lineality vector
        followed by its negative."""
        return (*self.rays, *(g for l in self.lineality for g in (l, tuple(-x for x in l))))

    def canonical_vrep(self) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
        """(extreme rays, lineality basis) in canonical form, input-independent:
        the H->V conversion of the H-representation, given or computed."""
        return self._vrep

    def contains(self, point: Sequence) -> Certificate:
        """`certify` against `generators`; for a cone built from an
        H-representation, a violated row is returned as the functional
        without a solve."""
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
        cert = certify(point, self.generators)
        if not cert and self.has_hrep:
            raise AssertionError("H-representation and V-representation disagree")
        return cert

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
