"""Exact integer linear algebra.

Rows inside the package are tuples of machine ints; `vec` builds the
:class:`fractions.Fraction` tuples that callers hand in at the API edge, and
every routine here accepts either.  Nothing in the package ever touches
floating point: cone geometry downstream depends on equalities like
``a*d - b*c == 0`` holding exactly.  There is one elimination, and it works
on integer rows: each row is scaled to integers first (an all-int row passes
through as it is) and eliminated fraction-free, clearing the rows inline.
Its forward part finds the pivots, and `rank` counts them, with no
back-substitution and no normalization of the pivot rows; `rref` makes each
pivot row primitive and positive at its pivot, adds back-substitution and
returns the integer reduced row echelon form.  `primitive` scales a row to
the shortest integer row in its direction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(x) for x in entries)


def _int_row(row: Sequence) -> tuple[Sequence[int], int]:
    """``(d * row, d)`` with ``d`` the lcm of the denominators of ``row``, so
    every entry of ``d * row`` is an int; an all-int row comes back as it is.
    Int and `Fraction` entries are read as they are; only other types, such
    as ``str``, are converted."""
    if set(map(type, row)) <= {int}:
        return row, 1
    fr = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    d = lcm(*(x.denominator for x in fr))
    return [x.numerator * (d // x.denominator) for x in fr], d


def _clear(row: Sequence[int], pivot: Sequence[int], c: int) -> Sequence[int]:
    """``row`` with column ``c`` cleared by ``pivot`` (positive at ``c``):
    ``pivot[c] * row - row[c] * pivot`` divided by its gcd, so an entry where
    the pivot row is zero keeps its sign.  Used by `rref`'s
    back-substitution, where ``row`` is nonzero at its own pivot and so
    never cleared to zero."""
    x = row[c]
    if not x:
        return row
    p = pivot[c]
    row = [p * a - x * b for a, b in zip(row, pivot)]
    g = gcd(*row)
    return row if g == 1 else [a // g for a in row]


def _echelon(m: Sequence[Sequence]) -> list[tuple[int, Sequence[int]]]:
    """Fraction-free forward elimination of ``m``: one ``(column, row)`` pair
    per pivot, the row nonzero at its pivot column.

    A pivot row clears its column from the rows not yet taken, so each row
    is zero in the columns before its pivot and in the pivot columns of the
    rows taken before it.  Sorted by column, the rows are an echelon form of
    ``m``; their count is its rank.  A cleared row is divided by its gcd to
    keep the entries short, but the pivots are left as they are: neither
    sign nor scale changes which entries are zero, and only `rref` needs
    primitive, positive pivots.
    """
    rows = [r for r, _ in map(_int_row, m) if any(r)]
    pivots: list[tuple[int, Sequence[int]]] = []
    while rows:
        pivot = rows.pop()
        c = next(k for k, x in enumerate(pivot) if x)
        p = pivot[c]
        left = []
        for row in rows:
            x = row[c]
            if x:
                row = [p * a - x * b for a, b in zip(row, pivot)]
                g = gcd(*row)
                if g == 0:
                    continue
                if g != 1:
                    row = [a // g for a in row]
            left.append(row)
        rows = left
        pivots.append((c, pivot))
    return pivots


def _positive_primitive(row: Sequence[int], c: int) -> Sequence[int]:
    g = gcd(*row) if row[c] > 0 else -gcd(*row)
    return row if g == 1 else [a // g for a in row]


def rref(m: Sequence[Sequence]) -> tuple[list[IntVec], list[int]]:
    """Integer reduced row echelon form of ``m``: (nonzero rows, pivot columns).

    Each row is primitive, positive at its pivot and zero in every other
    pivot column, so it is a positive multiple of the rational RREF row with
    the same pivot; that form is unique, whatever order the elimination
    takes.  The forward elimination (`_echelon`) leaves the rows in echelon
    form; each is made primitive and positive at its pivot, and
    back-substitution, last pivot first, clears each pivot column from the
    rows above it.  The pivot row is zero in every earlier pivot column, so
    no column once cleared is filled again.
    """
    rows = [(c, _positive_primitive(row, c)) for c, row in sorted(_echelon(m))]
    for k in range(len(rows) - 1, 0, -1):
        c, pivot = rows[k]
        rows[:k] = [(ci, _clear(row, pivot, c)) for ci, row in rows[:k]]
    return [tuple(row) for _, row in rows], [c for c, _ in rows]


def rank(m: Sequence[Sequence]) -> int:
    """Rank of ``m``: the number of pivots its forward elimination finds,
    with no back-substitution and no pivot normalization."""
    return len(_echelon(m))


def primitive(v: Sequence) -> IntVec:
    """Shortest integer vector positively proportional to ``v``.

    Direction is preserved: ``(-1/3, 0, -4/3)`` becomes ``(-1, 0, -4)``.
    An all-int row is divided by its gcd without building a `Fraction`, and
    not divided at all when the gcd is 1.
    """
    ints, _ = _int_row(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(ints) if g == 1 else tuple(x // g for x in ints)
