"""The brute-force oracle that `cones.dual_description` is tested against,
and the count of rows its final sweep depends on.

The oracle, `brute_force_vrep`, shares no code with `dual_description`: it
has its own exact elimination, and it finds the extreme rays as
one-dimensional kernels of row subsets instead of by incremental pair
combination.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm

from modulicones.linalg import primitive, rank


def _oracle_rref(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        k = next((i for i in range(len(pivots), len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        r = len(pivots)
        rows[r], rows[k] = rows[k], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _oracle_kernel(rows, dim):
    red, pivots = _oracle_rref(rows)
    basis = []
    for f in (c for c in range(dim) if c not in pivots):
        v = [Fraction(0)] * dim
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def _oracle_primitive(v):
    d = lcm(*(x.denominator for x in v))
    ints = [int(x * d) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def brute_force_vrep(dim, inequalities, equations):
    """Canonical (extreme rays, lineality basis) of ``{A x >= 0, E x == 0}``."""
    rows = list(inequalities) + list(equations)
    lin = _oracle_kernel(rows, dim)
    lin_red, lin_pivots = _oracle_rref(lin)
    rays = set()
    if len(lin) < dim:
        # Zeroing the pivot coordinates of the lineality basis picks the
        # canonical representative of every ray modulo the lineality space.
        pins = [[int(j == p) for j in range(dim)] for p in lin_pivots]
        for subset in itertools.combinations(rows, dim - len(lin) - 1):
            ker = _oracle_kernel(list(subset) + list(equations) + pins, dim)
            if len(ker) != 1:
                continue
            for v in (ker[0], [-x for x in ker[0]]):
                if all(sum(a * x for a, x in zip(row, v)) >= 0 for row in inequalities):
                    rays.add(_oracle_primitive(v))
    return sorted(rays), sorted(_oracle_primitive(l) for l in lin_red)


def rows_after_start(inequalities, equations):
    """The number of rows `dual_description` processes after its start: the
    distinct nonzero primitive inequality rows, less the ones the start
    picks, ``rank(eqs + ineqs) - rank(eqs)``.  Its final sweep ranks every
    ray it returns when this is at least two, and runs not at all below."""
    ineqs = {primitive(a) for a in inequalities if any(a)}
    eqs = [tuple(e) for e in equations if any(e)]
    return len(ineqs) - (rank([*eqs, *ineqs]) - rank(eqs))
