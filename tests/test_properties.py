"""Property tests: algebraic invariants that should hold for arbitrary input."""

import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from modulicones import cones
from modulicones.cones import Certificate, Cone, certify, dual_description
from modulicones.curves import eff_cone
from modulicones.linalg import _int_row, primitive, rank, rref, vec
from modulicones.porta import porta_read, porta_write
from modulicones.spaces import (
    SpaceId,
    canonical_label,
    enumerate_boundaries,
    express_in_basis,
    fully_pointed,
    transport_sum,
)

from attaching_oracle import keel_relations
from dd_oracle import _oracle_kernel, _oracle_primitive, _oracle_rref, brute_force_vrep, rows_after_start

rationals = st.fractions(
    max_denominator=40, min_value=Fraction(-50), max_value=Fraction(50)
)
small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def nonzero_vectors(draw, dim=None):
    d = dim if dim is not None else draw(st.integers(min_value=1, max_value=5))
    v = draw(st.lists(rationals, min_size=d, max_size=d))
    if all(x == 0 for x in v):
        v[draw(st.integers(min_value=0, max_value=d - 1))] = Fraction(1)
    return vec(v)


@given(nonzero_vectors())
def test_primitive_idempotent(v):
    p = primitive(v)
    assert primitive(p) == p


@given(nonzero_vectors(), st.fractions(min_value=Fraction(1, 8), max_value=Fraction(40), max_denominator=8))
def test_primitive_scale_invariant(v, q):
    assert primitive(tuple(q * x for x in v)) == primitive(v)


big_ints = st.one_of(st.just(0), st.integers(min_value=-10**30, max_value=10**30))


@st.composite
def nonzero_int_rows(draw):
    v = draw(st.lists(big_ints, min_size=1, max_size=6))
    if not any(v):
        v[draw(st.integers(min_value=0, max_value=len(v) - 1))] = draw(
            st.integers(min_value=1, max_value=10**30) | st.integers(min_value=-10**30, max_value=-1)
        )
    return tuple(v)


@given(nonzero_int_rows(), st.integers(min_value=1, max_value=10**12))
@example((0, -6, 4), 3)
@example((-(10**30), 0, 10**30), 7)
def test_primitive_int_fast_path_matches_fraction_path(v, c):
    p = primitive(v)
    assert all(type(x) is int for x in p)
    assert p == primitive(vec(v))
    assert p == primitive(tuple(c * x for x in v))


@given(st.integers(min_value=1, max_value=6))
def test_primitive_rejects_the_zero_row_on_both_paths(d):
    for zero in ((0,) * d, vec((0,) * d)):
        with pytest.raises(ValueError):
            primitive(zero)


@given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=1, max_size=5))
def test_rank_nullity(rows):
    assert rank(rows) + len(_oracle_kernel(rows, 4)) == 4


@st.composite
def mixed_matrices(draw):
    """All-int matrices, or rows of ints and Fractions: zero rows, repeated
    rows, nonzero multiples and combinations of earlier rows, and rows scaled
    by powers of ten (from 1e-30 to 1e30 unless all-int)."""
    ncols = draw(st.integers(min_value=0, max_value=5))
    ints = draw(st.booleans())
    entry = st.integers(min_value=-9, max_value=9)
    if not ints:
        entry = st.one_of(entry, rationals)
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["zero", "plain", "scaled", "combination", "repeated", "proportional"]))
        if kind == "zero":
            row = [0] * ncols
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(entry)
            row = [x + c * y for x, y in zip(a, b)]
        elif kind == "repeated" and rows:
            row = list(draw(st.sampled_from(rows)))
        elif kind == "proportional" and rows:
            c = draw(entry.filter(bool))
            row = [c * x for x in draw(st.sampled_from(rows))]
        else:
            row = draw(st.lists(entry, min_size=ncols, max_size=ncols))
            if kind == "scaled":
                k = draw(st.integers(min_value=0 if ints else -30, max_value=30))
                row = [x * (10**k if k >= 0 else Fraction(1, 10**-k)) for x in row]
        rows.append(row)
    return rows


@example([])
@example([[0, 0], [0, 0]])
@example([[10**40, -1], [Fraction(1, 10**40), Fraction(-1, 10**80)]])
@example([[2, 4, 0], [-1, -2, 0], [2, 4, 0], [0, 0, 0]])
@given(mixed_matrices())
def test_rank_matches_rref(rows):
    # `_oracle_rref` eliminates in Fraction and shares no code with `linalg`
    assert rank(rows) == len(_oracle_rref(rows)[1])


@example([[10**40, -1], [Fraction(1, 10**40), Fraction(-1, 10**80)]])
@example([[0, -2, 4], [0, -1, 2], [3, 0, 0]])
@example([[2, 3, 5], [4, 6, 11]])  # rational RREF row (1, 3/2, 0)
@given(mixed_matrices())
def test_rref_is_the_primitive_integer_form_of_the_rational_rref(rows):
    red, pivots = rref(rows)
    oracle_red, oracle_pivots = _oracle_rref(rows)
    assert pivots == oracle_pivots
    assert len(red) == len(oracle_red)
    for row, orow, p in zip(red, oracle_red, pivots):
        assert all(type(x) is int for x in row)
        assert gcd(*row) == 1
        assert row[p] > 0
        # the oracle row is 1 at its pivot, so row[p] is the multiplier
        assert list(row) == [row[p] * x for x in orow]


# --------------------------------------------------------------------------
# the phase-1 simplex against a Fraction-tableau oracle
# --------------------------------------------------------------------------
#
# `_oracle_phase1` is the rational-tableau simplex the integer one replaced:
# the same Bland rule and ratio test, pivoted in `Fraction`.  It imports
# nothing from `cones`, so the property pins the integer pivoting to the
# rational pivot sequence, solution and Farkas functional.


def _oracle_phase1(columns, target):
    columns = [[Fraction(x) for x in c] for c in columns]
    target = [Fraction(x) for x in target]
    m = len(target)
    k = len(columns)
    signs = [-1 if t < 0 else 1 for t in target]
    tableau = []
    for i in range(m):
        row = [signs[i] * c[i] for c in columns]
        row += [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        row.append(signs[i] * target[i])
        tableau.append(row)
    basis = list(range(k, k + m))
    obj = [
        (Fraction(1) if k <= j < k + m else Fraction(0)) - sum(tableau[i][j] for i in range(m))
        for j in range(k + m + 1)
    ]
    while True:
        enter = next((j for j in range(k + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tableau[i][enter] > 0:
                ratio = tableau[i][-1] / tableau[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        piv = tableau[leave][enter]
        tableau[leave] = [x / piv for x in tableau[leave]]
        pivot_row = tableau[leave]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], pivot_row)]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, pivot_row)]
        basis[leave] = enter
    if obj[-1] == 0:
        x = [Fraction(0)] * k
        for i, b in enumerate(basis):
            if b < k:
                x[b] = tableau[i][-1]
        return x, None
    return None, tuple(signs[i] * (Fraction(1) - obj[k + i]) for i in range(m))


def _oracle_certify(target, generators):
    x, w = _oracle_phase1(generators, target)
    if x is None:
        return Certificate("non-membership", functional=primitive([-a for a in w]))
    return Certificate("membership", coefficients=tuple((i, c) for i, c in enumerate(x) if c != 0))


@st.composite
def simplex_systems(draw):
    """1-6 rows and 0-9 columns of ints and Fractions -- zero, duplicate and
    negated columns among them -- plus at most two lineality vectors and a
    target.  About half the targets are nonnegative combinations of the
    columns with some zero weights, so many feasible cases are degenerate."""
    m = draw(st.integers(min_value=1, max_value=6))
    entry = st.one_of(st.integers(min_value=-5, max_value=5), rationals)
    vector = st.lists(entry, min_size=m, max_size=m)
    columns = []
    for _ in range(draw(st.integers(min_value=0, max_value=9))):
        kind = draw(st.sampled_from(["plain", "plain", "zero", "duplicate", "negated"]))
        if kind == "zero":
            columns.append([0] * m)
        elif kind in ("duplicate", "negated") and columns:
            c = draw(st.sampled_from(columns))
            columns.append(list(c) if kind == "duplicate" else [-x for x in c])
        else:
            columns.append(draw(vector))
    lineality = draw(st.lists(vector, max_size=2))
    if columns and draw(st.booleans()):
        weights = [draw(st.sampled_from([0, 0, 1, 2, Fraction(1, 3)])) for _ in columns]
        target = [sum((w * c[i] for w, c in zip(weights, columns)), Fraction(0)) for i in range(m)]
        target = [int(t) if t.denominator == 1 and draw(st.booleans()) else t for t in target]
    else:
        target = draw(vector)
    return columns, lineality, target


@example(([], [], [0]))
@example(([[1, 0], [1, 0], [0, 0]], [], [2, 0]))
@example(([[Fraction(1, 2), 1], [-1, -2]], [[0, 1]], [Fraction(3, 2), Fraction(7, 3)]))
@settings(max_examples=200)
@given(simplex_systems())
def test_phase1_and_certificate_match_the_fraction_oracle(system):
    columns, lineality, target = system
    x, _ = cones._phase1(columns, target)
    oracle_x, _ = _oracle_phase1(columns, target)
    assert x == oracle_x
    # lineality vectors enter as the generator pairs l, -l, as in `Cone.generators`
    generators = [*columns, *(g for l in lineality for g in (l, [-a for a in l]))]
    cert = certify(target, generators)
    assert cert == _oracle_certify(target, generators)


@st.composite
def boundary_systems(draw):
    """Systems shaped like the boundary classes ``certify`` meets: 8-30
    rows, a unit column per row, some of them doubled as a ramified class
    is, and 1-3 dense columns, in any order.  About half the targets are
    nonnegative combinations of the columns, the rest small vectors; both
    kinds have mixed signs.  Pivots on a dense column make ``p != D``, which
    rescales every row of the sparse tableau."""
    m = draw(st.integers(min_value=8, max_value=30))
    columns = [[draw(st.sampled_from((1, 1, 1, 2))) if j == i else 0 for j in range(m)] for i in range(m)]
    dense = st.lists(st.integers(min_value=-160, max_value=160), min_size=m, max_size=m)
    columns = draw(st.permutations(columns + draw(st.lists(dense, min_size=1, max_size=3))))
    if draw(st.booleans()):
        weights = draw(st.lists(st.sampled_from((0, 0, 0, 1, 2, 5)), min_size=len(columns), max_size=len(columns)))
        target = [sum(w * c[i] for w, c in zip(weights, columns)) for i in range(m)]
    else:
        target = draw(st.lists(st.integers(min_value=-6, max_value=6), min_size=m, max_size=m))
    return columns, target


X16_2 = eff_cone(SpaceId(16, 2)).generators  # the dense class, then 25 unit vectors


@example((list(X16_2), [a + b + 3 * c for a, b, c in zip(X16_2[0], X16_2[1], X16_2[5])]))  # a member
@example((list(X16_2), [1, -2, 0, 0, 3, 0, 1, 0, 0, 1, 1, 1, *[0] * 13]))  # a non-member
@settings(max_examples=60, deadline=None)
@given(boundary_systems())
def test_phase1_matches_the_fraction_oracle_on_boundary_systems(system):
    columns, target = system
    x, _ = cones._phase1(columns, target)
    assert x == _oracle_phase1(columns, target)[0]
    assert certify(target, columns) == _oracle_certify(target, columns)


# --------------------------------------------------------------------------
# double description against the brute-force oracle of `dd_oracle`
# --------------------------------------------------------------------------


@st.composite
def h_representations(draw):
    """At most seven rows in dimension at most four: random rows, zero rows,
    duplicates, and positive or negative multiples of earlier rows."""
    dim = draw(st.integers(min_value=1, max_value=4))
    n_eq = draw(st.integers(min_value=0, max_value=2))
    n_ineq = draw(st.integers(min_value=0, max_value=7 - n_eq))
    rows = []
    for _ in range(n_eq + n_ineq):
        if rows and draw(st.booleans()):
            k = draw(st.sampled_from([-2, -1, 0, 1, 2, 3]))
            rows.append([k * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=dim, max_size=dim)))
    return dim, rows[n_eq:], rows[:n_eq]


@example((1, [[1], [-1]], []))
@example((3, [], [[0, 0, 0]]))
@example((3, [[1, 0, 0], [0, 1, 0], [2, 0, 0], [1, -1, 0]], [[0, 0, 1]]))
# Sorted, the rows run (0,1,-1), (0,1,0), (0,1,1), (1,0,0): the third lies in
# the span of the first two and combines rays, and the last is independent of
# every row before it.
@example((3, [[0, 1, 0], [0, 1, 1], [0, 1, -1], [1, 0, 0]], []))
# Cones over the octahedron (eight facets, each of its six rays on four of
# them), the square pyramid (the apex on four facets) and the 3-cube, in
# coordinates (t, x, y, z).  A ray on four facets in dimension four is not
# simple, and the strategy's seven rows cannot reach the octahedron's eight.
@example((4, [[1, *s] for s in itertools.product((1, -1), repeat=3)], []))
@example((4, [[0, 0, 0, 1], [1, 1, 0, -1], [1, -1, 0, -1], [1, 0, 1, -1], [1, 0, -1, -1]], []))
@example((4, [[1, *(s * (j == i) for j in range(3))] for i in range(3) for s in (1, -1)], []))
# The cone x4 == 0, x1 >= 0, x2 <= 0, x3 >= x1 with two redundant rows.  An
# intermediate cone has a face with four extreme rays; a third-ray test that
# accepted a pair whose AND holds two more rays would combine a diagonal pair
# of it, and the final sweep would drop the result: the output is the same,
# and only the count of ranked rays shows the extra combination.
@example((4, [[0, 0, 0, -1], [0, 0, 0, 1], [0, -1, 0, 0], [1, 0, 0, 0], [-1, 0, 1, 0], [0, 0, 1, 0], [1, -1, 0, 0]], []))
# One equation given twice, up to sign and scale; an equation that is also
# an inequality row, and its negative; rows of rank 2 < dim with no
# equation; no rows at all.
@example((3, [[1, 0, 0], [0, 1, 1]], [[1, -1, 0], [-2, 2, 0]]))
@example((3, [[1, 0, 0], [0, 1, 0], [0, -2, 0], [1, 1, 1]], [[0, 1, 0]]))
@example((4, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [1, -1, 0, 0]], []))
@example((3, [], []))
# One row after the start, which it cuts, so no final sweep: a circuit whose
# relation (1,0,1) = 2 (1,0,0) - (1,0,-1) + 0 (0,1,0) has a zero entry; a
# simplicial start with one equation, cut by (1,1,-1,0); and the lineality
# (1,-1,1), with the last sorted row (1,1,0) = (0,1,1) - (-1,0,1).
@example((3, [[1, 0, 0], [0, 1, 0], [1, 0, -1], [1, 0, 1]], []))
@example((4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, -1, 0]], [[0, 0, 0, 1]]))
@example((3, [[1, 1, 0], [0, 1, 1], [-1, 0, 1]], []))
@settings(max_examples=300)
@given(h_representations())
def test_dual_description_matches_brute_force(counted_dual_description, hrep):
    dim, inequalities, equations = hrep
    (rays, lin), rank_calls = counted_dual_description(dim, inequalities, equations)
    assert (rays, lin) == brute_force_vrep(dim, inequalities, equations)
    # the final sweep drops no ray it ranks, and runs only once a second row
    # after the start has been processed
    past = rows_after_start(inequalities, equations)
    assert rank_calls == (len(rays) if past > 1 else 0)


def _oracle_start_basis(dim, rows):
    """A maximal independent set of ``rows``, picked greedily in order, and
    its dual basis, both from the oracle's own elimination: ``y_s`` lies in
    the kernel of the other picked rows and is positive on ``v_s``.  It is
    one valid start among many, found without `cones._dual_start`."""
    picked = []
    for k, row in enumerate(rows):
        if len(_oracle_rref([rows[j] for j in picked] + [row])[1]) > len(picked):
            picked.append(k)
    dual = []
    for s in picked:
        kernel = _oracle_kernel([rows[t] for t in picked if t != s], dim)
        y = next(y for y in map(_oracle_primitive, kernel) if _dot(rows[s], y))
        dual.append(y if _dot(rows[s], y) > 0 else tuple(-x for x in y))
    start = [rows[s] for s in picked]
    later = [(row, [_dot(row, y) for y in dual]) for k, row in enumerate(rows) if k not in picked]
    return start, later


def _dot(u, v):
    return sum(a * x for a, x in zip(u, v))


# An equation, a lineality line and redundant rows: x3 == 0, x2 >= 0 and
# x1 >= x2, given twice, with a zero row and x4 free; the rays are (1,0,0,0)
# and (1,1,0,0).
@example((4, [[0, 1, 0, 0], [1, -1, 0, 0], [2, -2, 0, 0], [0, 0, 0, 0]], [[0, 0, 1, 0]]), [1, 1, 0, 5])
# Seven of the octahedron cone's eight facets, so that rays lie on several
# later rows; and one inequality beside an equation, which leaves no later
# row at all.
@example((4, [[1, *s] for s in itertools.product((1, -1), repeat=3)][:7], []), [1, 0, 0, 0])
@example((3, [[1, 0, 0]], [[0, 1, 0]]), [0, 0, 1])
@settings(max_examples=300)
@given(h_representations(), st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4))
def test_the_start_basis_sweep_decides_as_the_rank_of_all_tight_rows(hrep, point):
    """`cones._extreme_in_start_basis` keeps exactly the vectors whose tight
    rows have rank ``dim - lin - 1``, on a start basis the oracle builds: it
    keeps every extreme ray, with or without a lineality vector added, and
    rejects the sum of two extreme rays and every lineality vector."""
    dim, inequalities, equations = hrep
    rows = [*equations, *inequalities]
    rays, lin = brute_force_vrep(dim, inequalities, equations)
    start, later = _oracle_start_basis(dim, rows)

    def decision(v):
        return cones._extreme_in_start_basis(v, start, later)

    def reference(v):
        return rank([row for row in rows if _dot(row, v) == 0]) == dim - len(lin) - 1

    for r in rays:
        assert decision(r) and reference(r)
        for l in lin:
            assert decision([a + b for a, b in zip(r, l)])
    for r, q in itertools.combinations(rays, 2):
        assert not decision([a + b for a, b in zip(r, q)])
    for l in lin:
        assert not decision(l)
    assert decision(point[:dim]) == reference(point[:dim])


@given(
    st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=1, max_size=4),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),
)
def test_nonnegative_combinations_are_members(rays, coeffs):
    rays = [r for r in rays if any(r)]
    if not rays:
        return
    target = vec([0, 0, 0])
    for c, r in zip(coeffs, rays):
        target = vec(t + c * x for t, x in zip(target, r))
    cert = certify(target, [vec(r) for r in rays])
    assert cert
    assert cert.verify(target, [vec(r) for r in rays])


@given(
    st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=1, max_size=4),
    st.lists(small_ints, min_size=3, max_size=3),
)
def test_membership_dichotomy_both_certify(rays, target):
    gens = [vec(r) for r in rays if any(r)]
    if not gens:
        return
    t = vec(target)
    direct = certify(t, gens)
    assert direct.verify(t, gens)
    cone = Cone.from_vrep(3, gens)
    cert = cone.contains(t)
    assert bool(cert) == bool(direct)
    assert cert.verify(t, cone.generators)


@given(st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=1, max_size=4))
def test_vrep_hrep_round_trip(rays):
    rays = [r for r in rays if any(r)]
    if not rays:
        return
    original = Cone.from_vrep(3, rays)
    back = Cone.from_hrep(3, original.inequalities, original.equations)
    # mutual containment: every given ray lies in the H-cone, and every
    # generator of the H-cone is a nonnegative combination of the given rays
    assert all(back.contains(r) for r in original.rays)
    assert all(certify(g, original.rays) for g in back.generators)


@given(st.permutations([(3, 1, 0), (0, 1, 2), (1, 1, 1), (6, 2, 0), (0, 2, 4)]))
def test_canonical_rays_input_order_independent(rows):
    c = Cone.from_vrep(3, rows)
    assert c.canonical_vrep() == Cone.from_vrep(3, [(3, 1, 0), (0, 1, 2), (1, 1, 1), (6, 2, 0), (0, 2, 4)]).canonical_vrep()


@given(st.lists(st.lists(small_ints, min_size=2, max_size=2), min_size=1, max_size=4))
def test_porta_text_round_trip_is_stable(rows):
    rows = [r for r in rows if any(r)]
    if not rows:
        return
    cone = Cone.from_hrep(2, rows)
    text = porta_write(cone, "hrep")
    assert porta_write(porta_read(text), "hrep") == text


@settings(max_examples=30)
@given(st.integers(min_value=5, max_value=8), st.data())
def test_label_canonicalization_involution(n, data):
    m = data.draw(st.integers(min_value=0, max_value=3))
    s = SpaceId(n, m)
    size = data.draw(st.integers(min_value=2, max_value=n - 2))
    if m == 0:
        marks = frozenset()
    else:
        marks = frozenset(
            data.draw(
                st.sets(st.integers(min_value=1, max_value=m), max_size=min(size, m))
            )
        )
    if size - len(marks) > n - m or (size == n and len(marks) < m):
        return
    try:
        a = canonical_label(s, size, marks)
    except ValueError:
        return  # drawn pair does not describe a boundary
    complement = frozenset(range(1, m + 1)) - marks
    b = canonical_label(s, n - size, complement)
    assert a == b


@settings(max_examples=20)
@given(st.integers(min_value=5, max_value=7), st.data())
def test_relations_vanish_in_every_basis(n, data):
    m = data.draw(st.integers(min_value=0, max_value=3))
    relation = data.draw(st.sampled_from(keel_relations(n)))
    full = fully_pointed(n)
    labels = enumerate_boundaries(full)
    formal = {l: c for l, c in zip(labels, relation) if c}
    cls = express_in_basis(SpaceId(n, m), transport_sum(full, formal, SpaceId(n, m)))
    assert all(c == 0 for c in cls.coords)


@st.composite
def boundary_sums(draw, n, m):
    """A sum of up to eight distinct boundary labels of ``X(n, m)`` with small
    nonzero int coefficients."""
    labels = draw(
        st.lists(st.sampled_from(enumerate_boundaries(SpaceId(n, m))), min_size=1, max_size=8, unique=True)
    )
    return {l: draw(small_ints.filter(bool)) for l in labels}


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=4, max_value=12), st.data())
def test_express_in_basis_reads_int_and_fraction_coefficients_alike(n, data):
    s = SpaceId(n, data.draw(st.integers(min_value=0, max_value=3)))
    formal = data.draw(boundary_sums(s.n, s.m))
    mixed = {l: data.draw(st.sampled_from((c, Fraction(c)))) for l, c in formal.items()}
    coords = express_in_basis(s, formal).coords
    assert all(type(c) is Fraction for c in coords)
    assert express_in_basis(s, {l: Fraction(c) for l, c in formal.items()}).coords == coords
    assert express_in_basis(s, mixed).coords == coords


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=4, max_value=12), st.data())
def test_int_pushforward_matches_the_fraction_pushforward(n, data):
    src_m = data.draw(st.sampled_from((1, 2, 3, n)))
    dst_m = data.draw(st.integers(min_value=0, max_value=min(src_m, 3)))
    src, dst = SpaceId(n, src_m), SpaceId(n, dst_m)
    formal = data.draw(boundary_sums(n, src_m))
    pushed = transport_sum(src, formal, dst)
    assert all(type(c) is int for c in pushed.values())
    assert pushed == transport_sum(src, {l: Fraction(c) for l, c in formal.items()}, dst)


def _oracle_primitive(row):
    """Divide by the first nonzero entry's size, then clear denominators by
    their lcm: the result is primitive with no gcd taken."""
    fr = [Fraction(x) for x in row]
    pivot = abs(next(x for x in fr if x))
    q = [x / pivot for x in fr]
    d = lcm(*(x.denominator for x in q))
    return tuple(int(x * d) for x in q)


mixed_entries = st.one_of(
    small_ints,
    big_ints,
    st.booleans(),
    rationals,
    rationals.map(str),
    st.decimals(min_value=-50, max_value=50, places=3).map(str),
)


@st.composite
def mixed_rows(draw):
    row = draw(st.lists(mixed_entries, min_size=1, max_size=6))
    return draw(st.sampled_from([list, tuple]))(row)


@example([3, True, "1/2"])
@example((0, -6, 4))
@example([5, -7, 0])
@given(mixed_rows())
def test_int_row_and_primitive_match_a_fraction_oracle(row):
    fr = [Fraction(x) for x in row]
    ints, d = _int_row(row)
    assert d == lcm(*(x.denominator for x in fr))
    assert all(type(x) is int for x in ints)
    assert [Fraction(x) for x in ints] == [d * x for x in fr]
    if not any(fr):
        with pytest.raises(ValueError):
            primitive(row)
        return
    p = primitive(row)
    assert type(p) is tuple
    assert all(type(x) is int for x in p)
    assert p == _oracle_primitive(row)
    assert gcd(*p) == 1
    if type(row) is list and all(type(x) is int for x in row) and gcd(*row) == 1:
        assert p == tuple(row)


@given(
    st.lists(st.sampled_from([0, False, Fraction(0), "0", "0/7", "-0.0"]), min_size=1, max_size=6),
    st.sampled_from([list, tuple]),
)
def test_primitive_rejects_mixed_zero_rows(row, kind):
    with pytest.raises(ValueError):
        primitive(kind(row))
