"""Boundary-divisor combinatorics of partially symmetrized pointed rational curves.

``SpaceId(n, m)`` denotes the quotient of the moduli space of stable
n-pointed rational curves by the symmetric group permuting the last ``n - m``
marked points; the first ``m`` points stay distinguished.  ``m = n`` and
``m = n - 1`` both describe the unquotiented space (permuting one point, or
none, does nothing).

A boundary divisor of such a space is the closure of the locus of curves with
two components.  It is recorded by a `BoundaryLabel`: how many marked points
sit on one component (``size``) together with which distinguished points are
among them (``marks``).  The same divisor can be named from either component,
so labels come in mirror pairs ``(size, marks)`` / ``(n - size, complement)``;
`canonical_label` picks the smaller ``size``, breaking ties by fewer marks and
then lexicographic marks.  That graded tie-break is what makes the computed
coordinate vectors match the ordered bases used throughout.

The divisor-class spaces are handled through `relations_and_basis`: for
``m <= 1`` the boundary classes are a basis; ``m = 2`` has one relation and
``m = 3`` has three, the third the ``m = 2`` one pulled back (two at ``n = 4``,
where it vanishes).  Classes are kept in the "b" normalization: the basis
class of a label along which the symmetrization is ramified (`_bare_pairs`,
one side is exactly two undistinguished points) is half its divisor.  This
module owns the basis vocabulary: the names, their slots and ``b_i`` with its
fold, in one table per space (`_basis_slots`) that `_columns` and
`modulicones.curves` read.
`express_in_basis` reduces a formal boundary sum through a table built once
per space (`_columns`): one positive denominator ``D`` and, per label, its
class in the ordered basis times ``D`` as int pairs -- a basis label's own
class (doubled where it is ramified) or, for the labels left out of the
basis, the combination of basis labels the stored relations equate it with.
The sum is taken in ints for int coefficients and divided by ``D`` once, so
only the returned `DivisorClass` holds `Fraction` coordinates.  The
pushforward and pullback multiplicities are ints too: an int-coefficient
boundary sum stays int through `transport_sum`.

`transport_sum` is the one push of boundary sums.  It pulls a sum back along
the map forgetting new points and pushes it down along a symmetrization in
one step, by one rule: a label whose side gains ``t`` of the ``p`` new points
is reached ``C(p, t)`` ways, each with the ratio of its pushforward degrees
onto the target and onto the source (`_pushforward_degree`).  With no new
point it is the plain symmetrization.  No label of a space in between is
built, so the cost is polynomial in the number of points.  `psi_sum` is
Keel's ``psi_1`` on ``s``: his boundary formula on the space with two more
distinguished points, pushed down by `transport_sum`.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Iterable, Iterator, Mapping

from .linalg import IntVec, Vec, rref

FormalSum = Mapping["BoundaryLabel", "Fraction | int"]


@dataclass(frozen=True)
class SpaceId:
    """The quotient of n-pointed genus-zero moduli keeping ``m`` points marked."""

    n: int
    m: int

    def __post_init__(self) -> None:
        # `n` and `m` key every cache of the package, and ``9.0 == 9``: a
        # float would find the entries of the int on a warm cache and fail on
        # a cold one, so anything but an int fails here, on every call.
        for name in ("n", "m"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if self.n < 4:
            raise ValueError("n >= 4 required")
        if not 0 <= self.m <= self.n:
            raise ValueError(f"m must lie in 0..{self.n}, got {self.m}")

    @property
    def distinguished(self) -> frozenset[int]:
        return frozenset(range(1, self.m + 1))

    def __str__(self) -> str:
        return f"X({self.n},{self.m})"


def fully_pointed(n: int) -> SpaceId:
    return SpaceId(n, n)


@dataclass(frozen=True)
class BoundaryLabel:
    """Canonical name (size, marks) of a boundary divisor; see module docs."""

    size: int
    marks: frozenset[int]

    @property
    def key(self) -> tuple:
        return (self.size, len(self.marks), tuple(sorted(self.marks)))

    def __str__(self) -> str:
        if not self.marks:
            return f"D{self.size}"
        return f"D{self.size}_" + "".join(str(x) for x in sorted(self.marks))


def _is_valid(s: SpaceId, size: int, marks: frozenset[int]) -> bool:
    return (
        2 <= size <= s.n - 2
        and marks <= s.distinguished
        and len(marks) <= size
        and size - len(marks) <= s.n - s.m
        and s.m - len(marks) <= s.n - size
    )


def canonical_label(s: SpaceId, size: int, marks: Iterable[int]) -> BoundaryLabel:
    """The canonical representative among the label and its mirror."""
    marks = frozenset(marks)
    if not _is_valid(s, size, marks):
        raise ValueError(f"no boundary divisor ({size}, {sorted(marks)}) on {s}")
    a = BoundaryLabel(size, marks)
    b = BoundaryLabel(s.n - size, s.distinguished - marks)
    return a if a.key <= b.key else b


@lru_cache(maxsize=None)
def enumerate_boundaries(s: SpaceId) -> tuple[BoundaryLabel, ...]:
    """All boundary labels of the space, canonical and sorted."""
    out = set()
    for size in range(2, s.n - 1):
        for k in range(0, min(s.m, size) + 1):
            for marks in itertools.combinations(range(1, s.m + 1), k):
                fs = frozenset(marks)
                if _is_valid(s, size, fs):
                    out.add(canonical_label(s, size, fs))
    return tuple(sorted(out, key=lambda l: l.key))


@lru_cache(maxsize=None)
def _boundary_index(s: SpaceId) -> dict[BoundaryLabel, int]:
    return {label: i for i, label in enumerate(enumerate_boundaries(s))}


def sum_to_vector(s: SpaceId, formal: FormalSum) -> tuple:
    """A formal boundary sum as a vector over the label list of ``s``.

    Each label is made canonical first, so a mirror label counts as its
    canonical twin; a label that is not a boundary divisor of ``s`` raises
    ValueError.  Entries keep the type of the coefficients.
    """
    idx = _boundary_index(s)
    row = [0] * len(idx)
    for label, coeff in formal.items():
        if label not in idx:
            label = canonical_label(s, label.size, label.marks)
        row[idx[label]] += _exact(coeff)
    return tuple(row)


# --------------------------------------------------------------------------
# relations between boundary classes
# --------------------------------------------------------------------------


def _bare_pairs(s: SpaceId, size: int, marked: int) -> int:
    """How many sides of a divisor consist of exactly two undistinguished
    points, whose transposition fixes the divisor pointwise.  The divisor is
    given by one side: its ``size`` and how many distinguished points of
    ``s`` it holds (``marked``)."""
    return (size == 2 and marked == 0) + (s.n - size == 2 and marked == s.m)


def _is_ramified(s: SpaceId, label: BoundaryLabel) -> bool:
    """Whether the symmetrization is ramified along the label's divisor."""
    return _bare_pairs(s, label.size, len(label.marks)) > 0


def _relation(s: SpaceId, terms: Iterable[tuple[int, Iterable[int], int]]) -> IntVec:
    """A relation over the raw label list, from ``(size, marks, coefficient)``
    terms against the b-normalized classes: the class of a ramified label is
    half its divisor, so its raw coefficient is halved, and comes out even."""
    acc: dict[BoundaryLabel, int] = defaultdict(int)
    for size, marks, coeff in terms:
        acc[canonical_label(s, size, marks)] += coeff
    for label in acc:
        if _is_ramified(s, label):
            acc[label], odd = divmod(acc[label], 2)
            if odd:
                raise AssertionError(f"the relation coefficient of the ramified label {label} on {s} is odd")
    return sum_to_vector(s, acc)


def _m2_terms(n: int) -> Iterator[tuple[int, frozenset[int], int]]:
    """The ``(size, marks, coefficient)`` terms of the one relation of an
    m = 2 space: ``sum (n-i)(n-i-1) b_i == sum (i-1)(n-i-1) b*_i``."""
    for i in range(2, n - 1):
        yield i, frozenset({1, 2}), (n - i) * (n - i - 1)
        yield i, frozenset({1}), -(i - 1) * (n - i - 1)


def _m3_relations_raw(n: int) -> list[IntVec]:
    """The nonzero relations of an m = 3 space over its raw label list.  The
    third is the m = 2 relation on ``n - 1`` points pulled back along the map
    forgetting point 3 (Keel, 1992), which adds point 3 to either side of
    each label; at ``n = 4`` it is zero."""
    r1, r2 = [], []
    for i in range(2, n - 1):
        r1 += [(i, {1, 2}, n - i - 1), (i, {1, 3}, -(n - i - 1))]
        r2 += [(i, {1, 3}, n - i - 1), (i, {2, 3}, -(n - i - 1))]
    r3 = [term for i, marks, c in _m2_terms(n - 1) for term in ((i + 1, marks | {3}, c), (i, marks, c))]
    relations = (_relation(SpaceId(n, 3), r) for r in (r1, r2, r3))
    return [rel for rel in relations if any(rel)]


_M3_EXCLUDED_MARKS = ({1, 2}, {1, 3}, {2, 3})


@dataclass(frozen=True)
class BasisSpec:
    """Ordered basis of the divisor-class space, plus the relations (as
    int vectors over the full boundary-label list) that were quotiented out."""

    ordered_basis: tuple[str, ...]
    relations: tuple[IntVec, ...]
    boundaries: tuple[BoundaryLabel, ...]


@lru_cache(maxsize=None)
def relations_and_basis(s: SpaceId) -> BasisSpec:
    if s.m > 3:
        raise ValueError(
            f"no boundary basis for {s}: with more than three distinguished "
            "points the boundary classes stop generating the effective cone"
        )
    boundaries = enumerate_boundaries(s)
    if s.m == 0:
        names = tuple(f"b{i}" for i in range(2, s.n // 2 + 1))
        return BasisSpec(names, (), boundaries)
    if s.m == 1:
        names = tuple(f"b{i}" for i in range(2, s.n - 1))
        return BasisSpec(names, (), boundaries)
    if s.m == 2:
        names = tuple(f"b{i}" for i in range(3, s.n - 1))
        names += tuple(f"b*{i}" for i in range(2, s.n - 1))
        return BasisSpec(names, (_relation(s, _m2_terms(s.n)),), boundaries)
    relations = tuple(_m3_relations_raw(s.n))
    excluded = {canonical_label(s, 2, marks) for marks in _M3_EXCLUDED_MARKS[: len(relations)]}
    names = tuple(str(l) for l in boundaries if l not in excluded)
    return BasisSpec(names, relations, boundaries)


def boundary_count(s: SpaceId) -> int:
    """The number of boundary divisors of ``s``, in closed form.

    A label is a pair ``(A, k)`` of distinguished points ``A`` and ``k``
    undistinguished points on one side, ``2 <= |A| + k <= n - 2``, up to its
    mirror.  Of the ``2^m (n - m + 1)`` pairs, the ``1 + m + [m < n]`` with
    ``|A| + k <= 1`` mirror those with ``|A| + k >= n - 1``.  Only ``m = 0``
    with even n, where the pair count is odd, has a self-mirror label, so
    the half is rounded up.
    """
    n, m = s.n, s.m
    return (2**m * (n - m + 1) + 1) // 2 - (m + 1 + (m < n))


def picard_number(s: SpaceId) -> int:
    """The boundary count of ``s`` less the rank ``r`` of its relations.

    Keel's relations span the Specht module ``S^(n-2,2)``, of dimension
    ``n(n-3)/2``, and those of ``s`` are its ``S_{n-m}``-invariants: by
    Young's rule, the Kostka number ``K_{(n-2,2),(n-m,1^m)} = C(m, 2)`` for
    ``m <= n - 2``, and all of it, ``r = n(n-3)/2``, for ``m >= n - 1``.
    For ``m <= 3``, ``r`` is the number of stored relations.
    """
    n, m = s.n, s.m
    r = m * (m - 1) // 2 if m <= n - 2 else n * (n - 3) // 2
    return boundary_count(s) - r


# --------------------------------------------------------------------------
# divisor and curve classes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DivisorClass:
    """Exact coordinates in the space's ordered divisor basis."""

    space: SpaceId
    coords: Vec

    def __post_init__(self) -> None:
        if len(self.coords) != picard_number(self.space):
            raise ValueError(
                f"{self.space} classes have {picard_number(self.space)} coordinates,"
                f" got {len(self.coords)}"
            )


@dataclass(frozen=True)
class CurveClass:
    """Exact coordinates in the dual of the space's ordered divisor basis."""

    space: SpaceId
    coords: Vec

    def __post_init__(self) -> None:
        if len(self.coords) != picard_number(self.space):
            raise ValueError(
                f"{self.space} curve classes have {picard_number(self.space)}"
                f" coordinates, got {len(self.coords)}"
            )


# --------------------------------------------------------------------------
# expressing boundary sums in a basis
# --------------------------------------------------------------------------


def _basis_name(s: SpaceId, label: BoundaryLabel) -> str:
    """The name of a canonical label's class in the basis vocabulary.

    For m <= 2, ``b{k}`` names the divisor whose side holding every
    distinguished point (for m = 0, its smaller side) has k points, and
    ``b*{k}`` (m = 2) the one whose side holding point 1 but not point 2 has
    k points.  For m = 3 a class is named by its label.
    """
    if s.m == 3:
        return str(label)
    if label.marks == s.distinguished:
        return f"b{label.size}"
    if not label.marks:
        return f"b{s.n - label.size}"
    if label.marks == {1}:
        return f"b*{label.size}"
    return f"b*{s.n - label.size}"


@lru_cache(maxsize=None)
def _basis_slots(s: SpaceId) -> dict[str | int, int | None]:
    """The position in the ordered basis of each basis name and, for m <= 2,
    of each ``b_i`` (the int ``i``, ``2 <= i <= n-2``): `_basis_name` of the
    label with every distinguished point on a side of ``i`` points.  So
    ``b_i`` folds for m = 0, and the cleared ``b_2`` of m = 2 maps to None."""
    slots: dict[str | int, int | None] = {name: j for j, name in enumerate(relations_and_basis(s).ordered_basis)}
    if s.m <= 2:
        for i in range(2, s.n - 1):
            slots[i] = slots.get(_basis_name(s, canonical_label(s, i, s.distinguished)))
    return slots


@lru_cache(maxsize=None)
def _columns(s: SpaceId) -> tuple[int, dict[BoundaryLabel, tuple[tuple[int, int], ...]]]:
    """``(D, table)``: one positive denominator ``D`` for ``s`` and, per
    canonical label, its class times ``D`` as sparse ``(position,
    coefficient)`` int pairs in the ordered basis.

    A label whose name is in the ordered basis is that basis class, doubled
    where the label is ramified: there the basis class is half the divisor.
    Every other label is cleared with the stored relations.  Their reduced
    echelon form, with the cleared labels' columns first, has one row
    ``p*e + sum c_l * l`` per cleared label ``e`` over basis labels ``l``, so
    ``e == -sum c_l * l / p``.  ``D`` is the lcm of those pivots ``p``, and 1
    where no label is cleared (``m <= 1``), so every entry is an int.
    """
    spec, slot = relations_and_basis(s), _basis_slots(s)
    names = [_basis_name(s, label) for label in spec.boundaries]
    kept = [i for i, name in enumerate(names) if name in slot]
    cleared = [i for i, name in enumerate(names) if name not in slot]
    weight = [2 if _is_ramified(s, label) else 1 for label in spec.boundaries]
    rows, pivots = rref([[rel[i] for i in cleared + kept] for rel in spec.relations])
    if pivots != list(range(len(cleared))):
        raise AssertionError(f"the relations of {s} do not clear its non-basis labels")
    d = lcm(*(row[k] for k, row in enumerate(rows[: len(cleared)])))
    table = {spec.boundaries[i]: ((slot[names[i]], weight[i] * d),) for i in kept}
    for k, (e, row) in enumerate(zip(cleared, rows)):
        scale = d // row[k]
        table[spec.boundaries[e]] = tuple(
            (slot[names[i]], -c * weight[i] * scale) for i, c in zip(kept, row[len(cleared):]) if c
        )
    return d, table


def _exact(coeff: Fraction | int) -> Fraction | int:
    """An int or `Fraction` coefficient as it is; anything else as a `Fraction`."""
    return coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff)


def _scaled_class(s: SpaceId, formal: FormalSum) -> tuple[list, int]:
    """``(coords, D)``: the basis coordinates of a formal boundary sum times
    the space's denominator ``D``, summed from the `_columns` table with the
    coefficients as they come, so in ints when those are ints.

    Each label is made canonical first; a label that is not a boundary
    divisor of ``s`` raises ValueError.
    """
    d, table = _columns(s)
    coords = [0] * picard_number(s)
    for label, coeff in formal.items():
        if label not in table:
            label = canonical_label(s, label.size, label.marks)
        coeff = _exact(coeff)
        for j, c in table[label]:
            coords[j] += c * coeff
    return coords, d


def express_in_basis(s: SpaceId, formal: FormalSum) -> DivisorClass:
    """Reduce a formal sum of boundary labels to basis coordinates.

    Each label contributes its cached column: the label's class in the
    ordered basis, with the relations already applied (see `_scaled_class`).
    The sum is divided by the space's denominator once, into the `Fraction`
    coordinates of the class.
    """
    coords, d = _scaled_class(s, formal)
    return DivisorClass(s, tuple(Fraction(x, d) for x in coords))


def boundary_class(s: SpaceId, label: BoundaryLabel) -> DivisorClass:
    return express_in_basis(s, {label: 1})


# --------------------------------------------------------------------------
# quotient pushforward and transport
# --------------------------------------------------------------------------


def _pushforward_degree(s: SpaceId, size: int, marked: int) -> tuple[int, int]:
    """Degree with which a pointed boundary divisor maps onto its image in
    ``s``, as ``(stab, trivial)``: the degree is ``stab / trivial``.  The
    divisor is given by one side: its ``size`` and how many distinguished
    points of ``s`` it holds (``marked``).

    ``stab`` counts the permutations of the undistinguished points preserving
    the unordered side pair, and ``trivial`` those that act trivially on the
    divisor.  Each bare pair (`_bare_pairs`) is rigid -- its transposition
    moves nothing -- and for m = 0 an even split can also be swapped
    wholesale.
    """
    n = s.n
    a = size - marked
    b = (n - size) - (s.m - marked)
    stab = factorial(a) * factorial(b)
    if s.m == 0 and 2 * size == n:
        stab *= 2
    trivial = 2 ** _bare_pairs(s, size, marked)
    if s.m == 0 and n == 4:
        trivial *= 2  # the wholesale swap of a 2|2 split is also trivial
    return stab, trivial


def transport_sum(src: SpaceId, formal: FormalSum, dst: SpaceId) -> dict[BoundaryLabel, Fraction | int]:
    """Pull a formal boundary sum back along the map forgetting ``p = dst.n -
    src.n`` new points, then push it along the symmetrization to ``dst``.

    A source label ``(size, A)`` is ``1 / deg_src`` times the image of one
    pointed divisor over it, ``deg_src`` being the degree of that map.
    Forgetting points pulls the pointed divisor back to the divisors whose
    sides restrict to it (Keel, 1992): for each ``t`` in ``0..p``, the
    ``C(p, t)`` whose side gains ``t`` new points.  Each maps onto the label
    ``(size + t, A & dst.distinguished)`` of ``dst`` with one degree
    ``deg_dst``.  So a coefficient ``c`` sends ``c * C(p, t) * deg_dst /
    deg_src`` there, an integer, and an int-coefficient sum stays int.  With
    ``p = 0`` this is the plain symmetrization ``src -> dst``.

    ``src.m >= 1`` is required, also for ``p = 0``: without a distinguished
    point an even split and its mirror are one divisor, which the orbit
    count would take twice.
    ``dst.m <= src.m`` is required too, so that every new point is
    symmetrized on the way down.
    """
    p = dst.n - src.n
    if src.m < 1 or dst.m > src.m or p < 0:
        raise ValueError(f"no orbit-type transport {src} -> {dst}")
    out: dict[BoundaryLabel, Fraction | int] = defaultdict(int)
    for label, coeff in formal.items():
        size, marks = label.size, label.marks
        if not _is_valid(src, size, marks):
            raise ValueError(f"no boundary divisor ({size}, {sorted(marks)}) on {src}")
        coeff = _exact(coeff)
        src_stab, src_trivial = _pushforward_degree(src, size, len(marks))
        kept = marks & dst.distinguished
        for t in range(p + 1):
            dst_stab, dst_trivial = _pushforward_degree(dst, size + t, len(kept))
            deg, rest = divmod(dst_stab * src_trivial, dst_trivial * src_stab)
            if rest:
                raise AssertionError(f"the multiplicity of {label} transported from {src} to {dst} is not an integer")
            out[canonical_label(dst, size + t, kept)] += coeff * comb(p, t) * deg
    return dict(out)


def psi_sum(s: SpaceId) -> dict[BoundaryLabel, Fraction]:
    """Keel's ``psi_1`` on ``s`` as a formal boundary sum, for ``m >= 1`` and
    ``n - m >= 2``: ``q^* psi_sum(s) == psi_1`` along the quotient map ``q``
    from the fully pointed space.

    On the fully pointed space ``psi_1 = sum D_S`` over the sides ``S`` that
    hold 1 and neither of two further points ``j, k`` (Keel, 1992).  With
    ``j, k = m + 1, m + 2`` distinguished on ``X(n, m + 2)``, each orbit of
    such sides is one label there, whose side holding 1 avoids ``j`` and
    ``k``, and the sum of those labels pulls back to ``psi_1``.  Its push to
    ``s`` by `transport_sum` is ``psi_1`` times the degree ``(n - m)(n - m -
    1)`` of the map, which is divided out.
    """
    if s.m < 1 or s.n - s.m < 2:
        raise ValueError(f"no psi_1 with two further distinguished points on {s}")
    big = SpaceId(s.n, s.m + 2)
    far = big.distinguished - s.distinguished
    terms = {
        label: 1
        for label in enumerate_boundaries(big)
        if not far & (label.marks if 1 in label.marks else big.distinguished - label.marks)
    }
    degree = (s.n - s.m) * (s.n - s.m - 1)
    return {label: Fraction(c, degree) for label, c in transport_sum(big, terms, s).items()}
