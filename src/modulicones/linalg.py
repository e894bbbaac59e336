"""Exact integer linear algebra.

Rows inside the package are tuples of machine ints; `vec` builds the
:class:`fractions.Fraction` tuples that callers hand in at the API edge, and
every routine here accepts either.  Nothing in the package ever touches
floating point: cone geometry downstream depends on equalities like
``a*d - b*c == 0`` holding exactly.  There is one elimination, `rref`, and
it works on integer rows: each row is scaled to integers first (an all-int
row passes through as it is) and eliminated fraction-free, so `rref` returns
integer rows.  `rank` counts its pivots, and `primitive` scales a row to the
shortest integer row in its direction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(x) for x in entries)


def _int_row(row: Sequence) -> tuple[Sequence[int], int]:
    """``(d * row, d)`` with ``d`` the lcm of the denominators of ``row``, so
    every entry of ``d * row`` is an int; an all-int row comes back as it is."""
    if all(type(x) is int for x in row):
        return row, 1
    fr = [Fraction(x) for x in row]
    d = lcm(*(x.denominator for x in fr))
    return [x.numerator * (d // x.denominator) for x in fr], d


def rref(m: Sequence[Sequence]) -> tuple[list[IntVec], list[int]]:
    """Integer reduced row echelon form of ``m``: (nonzero rows, pivot columns).

    Each row is primitive, positive at its pivot and zero in every other
    pivot column, so it is a positive multiple of the rational RREF row with
    the same pivot.  The elimination is fraction-free: a pivot row clears its
    column from every other row by integer cross-multiplication, and each
    changed row is divided by its gcd.  The pivot of a row is its first
    nonzero entry once the earlier pivots are cleared from it, and clearing
    a later pivot never touches the columns before it, so the result is the
    reduced echelon form whichever row is taken first.
    """
    rows = [r for r, _ in map(_int_row, m) if any(r)]
    red: list[tuple[int, Sequence[int]]] = []
    while rows:
        pivot = rows.pop()
        c = next(k for k, x in enumerate(pivot) if x)
        g = gcd(*pivot) if pivot[c] > 0 else -gcd(*pivot)
        if g != 1:
            pivot = [a // g for a in pivot]
        p = pivot[c]

        def clear(row: Sequence[int]) -> Optional[list[int]]:
            x = row[c]
            if not x:
                return row
            row = [p * a - x * b for a, b in zip(row, pivot)]
            g = gcd(*row)
            if g == 0:
                return None
            return row if g == 1 else [a // g for a in row]

        red = [(k, clear(row)) for k, row in red]
        rows = [row for row in map(clear, rows) if row is not None]
        red.append((c, pivot))
    red.sort()
    return [tuple(row) for _, row in red], [k for k, _ in red]


def rank(m: Sequence[Sequence]) -> int:
    """Rank of ``m``: the number of pivots of its `rref`."""
    return len(rref(m)[1])


def primitive(v: Sequence) -> IntVec:
    """Shortest integer vector positively proportional to ``v``.

    Direction is preserved: ``(-1/3, 0, -4/3)`` becomes ``(-1, 0, -4)``.
    An all-int row is divided by its gcd without building a `Fraction`.
    """
    ints, _ = _int_row(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)
