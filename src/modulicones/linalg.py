"""Exact linear algebra over the rationals.

Vectors are tuples of :class:`fractions.Fraction`, matrices are sequences of
such rows.  Everything here is pure and immutable, and nothing in the package
ever touches floating point: cone geometry downstream depends on equalities
like ``a*d - b*c == 0`` holding exactly.  `rank` and `primitive` scale each
row to integers (an all-int row passes through as it is); `rank` then
eliminates on those integer rows, fraction-free.  `rref`, `kernel_basis` and
`solve` eliminate on `Fraction` rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(x) for x in entries)


def zero_vec(dim: int) -> Vec:
    return (Fraction(0),) * dim


def unit_vec(dim: int, k: int) -> Vec:
    return tuple(Fraction(1) if j == k else Fraction(0) for j in range(dim))


def add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def scale(c, v: Sequence[Fraction]) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in v)


def dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v, strict=True)), Fraction(0))


def is_zero_vec(v: Sequence) -> bool:
    return all(x == 0 for x in v)


def rref(m: Sequence[Sequence]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form of ``m``: (nonzero rows, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in m]
    red, pivots = _echelon(rows)
    return [tuple(r) for r in red], pivots


def _echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (in place); returns the nonzero rows and pivot columns."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _int_row(row: Sequence) -> Sequence[int]:
    """``row`` scaled by the lcm of its denominators, so every entry is an int."""
    if all(type(x) is int for x in row):
        return row
    fr = [Fraction(x) for x in row]
    d = lcm(*(x.denominator for x in fr))
    return [x.numerator * (d // x.denominator) for x in fr]


def rank(m: Sequence[Sequence]) -> int:
    """Rank of ``m`` by fraction-free elimination on integer rows.

    Each step takes a pivot row out, clears its pivot column from the other
    rows by integer cross-multiplication and divides every changed row by its
    gcd, which keeps the entries as small as the row's direction allows.
    """
    rows = [r for r in map(_int_row, m) if any(r)]
    r = 0
    while rows:
        pivot = rows.pop()
        c = next(k for k, x in enumerate(pivot) if x)
        p = pivot[c]
        rest = []
        for row in rows:
            x = row[c]
            if x:
                row = [p * a - x * b for a, b in zip(row, pivot)]
                g = gcd(*row)
                if g == 0:
                    continue
                if g != 1:
                    row = [a // g for a in row]
            rest.append(row)
        rows = rest
        r += 1
    return r


def kernel_basis(m: Sequence[Sequence]) -> list[Vec]:
    """Basis of the right kernel ``{x : m @ x = 0}``, one vector per free column."""
    rows = [[Fraction(x) for x in row] for row in m]
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = _echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    return basis


def solve(m: Sequence[Sequence], target: Sequence) -> Optional[Vec]:
    """One solution of ``m @ x = target`` (free variables set to zero), or None."""
    rows = [[Fraction(x) for x in row] for row in m]
    t = [Fraction(x) for x in target]
    if len(rows) != len(t):
        raise ValueError("matrix/target size mismatch")
    if not rows:
        return ()
    ncols = len(rows[0])
    aug = [row + [ti] for row, ti in zip(rows, t)]
    red, pivots = _echelon(aug)
    if ncols in pivots:
        return None  # inconsistent system
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][ncols]
    return tuple(x)


def primitive(v: Sequence) -> IntVec:
    """Shortest integer vector positively proportional to ``v``.

    Direction is preserved: ``(-1/3, 0, -4/3)`` becomes ``(-1, 0, -4)``.
    An all-int row is divided by its gcd without building a `Fraction`.
    """
    ints = _int_row(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)
