"""The attaching maps ``q``, ``r`` and ``s`` and Keel's relations, kept as
the references the closed forms of the package are tested against.

Gluing a fixed curve onto a moving one with one or two marked points gives
the attaching maps between quotients; the tests push the curves ``C_k``
along them and compare the images with the nem and two-marked inequality
rows that `modulicones.curves` transcribes in closed form.  Keel's
relations on the fully pointed space are the reference for the closed form
of `picard_number`.  No verb builds either.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction

from modulicones.curves import LinearMap, _row
from modulicones.linalg import IntVec
from modulicones.spaces import (
    BoundaryLabel,
    FormalSum,
    SpaceId,
    canonical_label,
    fully_pointed,
    relations_and_basis,
    sum_to_vector,
)


def q_map(n: int, l: int, m: int = 1) -> LinearMap:
    """Gluing a one-marked moving curve on ``l + 1`` points into ``X(n, m)``.

    The columns push forward the dual basis of curve coordinates on
    ``X(l+1, 1)``; ``m <= 2``.
    """
    if m not in (0, 1, 2):
        raise ValueError("q maps into a space with m <= 2")
    if not 3 <= l <= n - 2:
        raise ValueError(f"q requires 3 <= l <= n-2, got l={l}, n={n}")
    t = SpaceId(n, m)
    den = l * (l - 1)
    names, cols = [], []
    for k in range(1, l - 1):
        names.append(f"b{k + 1}")
        cols.append(_row(t, (n - l + k, den), (n - l, -(l - k - 1) * (l - k))))
    return LinearMap(SpaceId(l + 1, 1), tuple(names), relations_and_basis(t).ordered_basis, tuple(cols), den)


def r_map(n: int, l: int) -> LinearMap:
    """Gluing a two-marked moving curve on ``l + 1`` points into ``X(n, 2)``.

    Only the starred block of the source basis is provided.
    """
    if not 3 <= l <= n - 2:
        raise ValueError(f"r requires 3 <= l <= n-2, got l={l}, n={n}")
    t = SpaceId(n, 2)
    den = (l - 2) * (l - 1)
    names, cols = [], []
    for i in range(1, l - 1):
        names.append(f"b*{i + 1}")
        cols.append(_row(t, (f"b*{i + 1}", den), (n - l + 1, i * (l - i - 1)), (f"b*{l}", -i * (l - 2))))
    return LinearMap(SpaceId(l + 1, 2), tuple(names), relations_and_basis(t).ordered_basis, tuple(cols), den)


def s_map(n: int, l: int) -> LinearMap:
    """Gluing a two-marked moving curve on ``l + 1`` points into ``X(n, 1)``."""
    if not 3 <= l <= n - 2:
        raise ValueError(f"s requires 3 <= l <= n-2, got l={l}, n={n}")
    t = SpaceId(n, 1)
    den = (l - 2) * (l - 1)
    names, cols = [], []
    for i in range(2, l - 1):
        names.append(f"b{i + 1}")
        cols.append(_row(t, (n - l + i, den), (n - l + 1, -(l - i - 1) * (l - i))))
    for i in range(1, l - 1):
        names.append(f"b*{i + 1}")
        cols.append(_row(t, (i + 1, den), (n - l + 1, i * (l - i - 1)), (l, -i * (l - 2))))
    return LinearMap(SpaceId(l + 1, 2), tuple(names), relations_and_basis(t).ordered_basis, tuple(cols), den)


def keel_relations(n: int) -> list[IntVec]:
    """An independent spanning set of the relations among the boundary
    divisors of the fully pointed space, as vectors over its label list.

    Two four-point partition classes agree whenever they share a cross-ratio
    degeneration; the returned family fixes points 1, 2 and runs over the
    remaining choices, which is well known to cut the boundary count down to
    the rank of the divisor-class space.  No verb builds them; they are kept
    as the reference the tests check `picard_number`'s closed form against.
    """
    s = fully_pointed(n)

    def partition_sum(inside: tuple[int, int], outside: tuple[int, int]) -> dict:
        rest = [x for x in range(1, n + 1) if x not in inside and x not in outside]
        acc: dict[BoundaryLabel, int] = defaultdict(int)
        for k in range(len(rest) + 1):
            for extra in itertools.combinations(rest, k):
                members = frozenset(inside) | frozenset(extra)
                acc[canonical_label(s, len(members), members)] += 1
        return acc

    relations = []
    for i, j in itertools.combinations(range(3, n + 1), 2):
        a = partition_sum((1, 2), (i, j))
        b = partition_sum((1, i), (2, j))
        relations.append(_sub_sums(s, a, b))
    for k in range(4, n + 1):
        a = partition_sum((1, 3), (2, k))
        b = partition_sum((1, k), (2, 3))
        relations.append(_sub_sums(s, a, b))
    return relations


def _sub_sums(s: SpaceId, a: FormalSum, b: FormalSum) -> tuple:
    out: dict[BoundaryLabel, Fraction | int] = defaultdict(int, a)
    for label, coeff in b.items():
        out[label] -= coeff
    return sum_to_vector(s, out)
