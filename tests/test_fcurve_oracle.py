"""F-curve oracle for the class computations on the path of check 02.

The oracle works on the fully pointed space M_{0,n} and shares no code with
the package's class machinery.  A boundary divisor ``D_S`` (``S`` a subset of
``{1..n}`` with ``2 <= |S| <= n - 2``, and ``D_S == D_{S^c}``) is keyed by its
side containing point 1.  An F-curve is a partition ``A1|A2|A3|A4`` of
``{1..n}`` into four nonempty blocks, and

    D_S . F =  1  if S or its complement is a union of two blocks,
              -1  if S or its complement is a single block,
               0  otherwise

(Keel--McKernan, "Contractible extremal rays on M_{0,n}"; Gibney--Keel--
Morrison).  F-curves span the curve classes, so two divisor classes are equal
exactly when their F-vectors agree.

A class on ``X(n, m)`` is pulled back along the quotient map ``q`` from the
fully pointed space.  The reduced divisor of a label pulls back to the sum
over its orbit, with coefficient 2 on members where one side is exactly two
undistinguished points (the quotient is ramified there).  The ordered basis
names are read with the oracle's own naming: ``b{k}`` is the label ``(k,
{1..min(m, 2)})``, ``b*{k}`` is ``(k, {1})`` and ``D{k}_{marks}`` is ``(k,
marks)``; a basis vector is half its divisor when one of its sides is exactly
two undistinguished points.
For a quotient, ``q^* q_* D == sum_g g^* D`` over the symmetric group, which
gives each transported class an independent expected value.

The oracle also checks the recorded nef cones, which are divisor classes:
each is the F-cone, the classes whose pullback meets every F-curve
nonnegatively, and on the surface X(5, 2) it is the dual of Eff under the
intersection form.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from modulicones import fixtures
from modulicones.curves import counterexample_ftau, ftau_sum
from modulicones.linalg import primitive, rank
from modulicones.spaces import (
    BoundaryLabel,
    SpaceId,
    enumerate_boundaries,
    express_in_basis,
    fully_pointed,
    picard_number,
    psi_sum,
    relations_and_basis,
    transport_sum,
)
from attaching_oracle import keel_relations
from dd_oracle import brute_force_vrep
from transport_oracle import forgetful_pullback_sum, quotient_pushforward_sum

F = Fraction

# The six-point class F_tau, as subsets of {1..6}.
FTAU_PLUS = [(3, 6), (4, 6), (5, 6), (3, 4, 6), (3, 5, 6), (1, 2)]
FTAU_MINUS = [(1, 6), (2, 6), (1, 3, 6), (1, 4, 6), (2, 3, 6), (2, 4, 6)]

# The six-point value recorded for check 02 before the oracle refuted it.
RECORDED_SIX = (0, 0, 0, 2, -6, -2, -2, 2)


def _key(n, side):
    side = frozenset(side)
    return side if 1 in side else frozenset(range(1, n + 1)) - side


def _accumulate(n, terms):
    """Sum (side, coefficient) pairs into a divisor keyed by `_key`."""
    out = {}
    for side, coeff in terms:
        k = _key(n, side)
        out[k] = out.get(k, 0) + F(coeff)
    return out


@lru_cache(maxsize=None)
def _f_curves(n):
    """Every partition of {1..n} into four nonempty blocks."""
    curves = []

    def grow(point, blocks):
        if point > n:
            if len(blocks) == 4:
                curves.append(tuple(frozenset(b) for b in blocks))
            return
        if len(blocks) + (n - point + 1) < 4:
            return
        for b in blocks:
            b.append(point)
            grow(point + 1, blocks)
            b.pop()
        if len(blocks) < 4:
            blocks.append([point])
            grow(point + 1, blocks)
            blocks.pop()

    grow(1, [])
    return tuple(curves)


@lru_cache(maxsize=None)
def _f_rows(n):
    """Per F-curve: the divisors meeting it with +1, and those with -1."""
    rows = []
    for a1, a2, a3, a4 in _f_curves(n):
        plus = tuple(_key(n, pair) for pair in (a1 | a2, a1 | a3, a1 | a4))
        minus = tuple(_key(n, b) for b in (a1, a2, a3, a4) if len(b) >= 2)
        rows.append((plus, minus))
    return tuple(rows)


def f_vector(n, divisor):
    """Intersection numbers of a divisor with every F-curve of M_{0,n}."""
    return tuple(
        sum(divisor.get(k, 0) for k in plus) - sum(divisor.get(k, 0) for k in minus)
        for plus, minus in _f_rows(n)
    )


def _orbit(n, m, size, marks):
    """q^* of the reduced divisor of the label (size, marks) on X(n, m)."""
    marks = frozenset(marks)
    free = range(m + 1, n + 1)
    terms = set()
    for extra in itertools.combinations(free, size - len(marks)):
        terms.add(_key(n, marks | frozenset(extra)))
    undistinguished = frozenset(free)
    out = {}
    for side in terms:
        other = frozenset(range(1, n + 1)) - side
        ramified = any(len(x) == 2 and x <= undistinguished for x in (side, other))
        out[side] = F(2 if ramified else 1)
    return out


def _add(target, divisor, coeff=1):
    for k, v in divisor.items():
        target[k] = target.get(k, 0) + coeff * v


def pull_formal(n, m, formal):
    """q^* of a formal sum of boundary labels on X(n, m)."""
    out = {}
    for label, coeff in formal.items():
        _add(out, _orbit(n, m, label.size, label.marks), F(coeff))
    return out


def _named_label(m, name):
    """(size, marks) of an ordered basis name on X(n, m)."""
    if name.startswith("b*"):
        return int(name[2:]), frozenset({1})
    if name.startswith("b"):
        return int(name[1:]), frozenset(range(1, min(m, 2) + 1))
    size, _, digits = name[1:].partition("_")
    return int(size), frozenset(int(d) for d in digits)


def _is_half(n, m, size, marks):
    """Whether a side of the label is exactly two undistinguished points."""
    return (size == 2 and not marks) or (n - size == 2 and len(marks) == m)


def pull_coords(n, m, coords):
    """q^* of a class given in the ordered basis of X(n, m), m <= 3."""
    names = relations_and_basis(SpaceId(n, m)).ordered_basis
    assert len(names) == len(coords)
    out = {}
    for name, coeff in zip(names, coords):
        size, marks = _named_label(m, name)
        half = F(1, 2) if _is_half(n, m, size, marks) else 1
        _add(out, _orbit(n, m, size, marks), F(coeff) * half)
    return out


def forget(n, kept, divisor):
    """pi^* along the map M_{0,n} -> M_{0,len(kept)} keeping the points
    ``kept`` (small-space point i is big-space point ``kept[i - 1]``)."""
    forgotten = [x for x in range(1, n + 1) if x not in kept]
    terms = []
    for side, coeff in divisor.items():
        image = frozenset(kept[i - 1] for i in side)
        for k in range(len(forgotten) + 1):
            for extra in itertools.combinations(forgotten, k):
                terms.append((image | frozenset(extra), coeff))
    return _accumulate(n, terms)


def symmetrize(n, movable, divisor):
    """sum over g in Sym(movable) of g^* divisor.

    A permutation sends a side ``S`` to ``(S - movable) | T`` with ``|T| ==
    |S & movable|``, and each such ``T`` is reached by ``j! (|movable| - j)!``
    permutations, ``j = |S & movable|``; the sum runs over the ``T``."""
    movable = frozenset(movable)
    terms = []
    for side, coeff in divisor.items():
        fixed, j = side - movable, len(side & movable)
        weight = factorial(j) * factorial(len(movable) - j)
        for t in itertools.combinations(sorted(movable), j):
            terms.append((fixed | frozenset(t), coeff * weight))
    return _accumulate(n, terms)


def ftau():
    return _accumulate(6, [(s, 1) for s in FTAU_PLUS] + [(s, -1) for s in FTAU_MINUS])


def expected_transport(n, six_point_divisor):
    """sum_{g in S_{n-3}} g^* pi^* D, pi forgetting points 4..n-3."""
    lifted = forget(n, (1, 2, 3, n - 2, n - 1, n), six_point_divisor)
    return symmetrize(n, tuple(range(4, n + 1)), lifted)


# --------------------------------------------------------------------------


def test_oracle_counts_and_the_keel_relation():
    # Stirling numbers S(n, 4)
    assert [len(_f_curves(n)) for n in (4, 5, 6, 7, 8)] == [1, 10, 65, 350, 1701]
    # The four-point relation D_{12|34} == D_{13|24} pulled back to six points.
    n = 6
    lhs = forget(n, (1, 2, 3, 4), _accumulate(4, [((1, 2), 1)]))
    rhs = forget(n, (1, 2, 3, 4), _accumulate(4, [((1, 3), 1)]))
    assert lhs != rhs
    assert f_vector(n, lhs) == f_vector(n, rhs)
    # A nonzero effective boundary sum is nonzero.
    assert any(f_vector(n, _accumulate(n, [((1, 2), 1)])))


def test_registered_ftau_matches_the_oracle_copy():
    terms = ftau_sum()
    assert _accumulate(6, [(label.marks, c) for label, c in terms.items()]) == ftau()


@pytest.mark.parametrize("n", [6, 7, 8])
def test_counterexample_class_pulls_back_to_the_symmetrized_fibre_class(n):
    cls, _, _ = counterexample_ftau(n)
    got = f_vector(n, pull_coords(n, 3, cls.coords))
    assert got == f_vector(n, expected_transport(n, ftau()))


def _ftau_without_d56():
    out = ftau()
    _add(out, _accumulate(6, [((5, 6), 1)]), -1)
    return out


def test_recorded_six_point_value_is_not_the_pushdown_of_ftau():
    recorded = f_vector(6, pull_coords(6, 3, RECORDED_SIX))
    assert recorded != f_vector(6, expected_transport(6, ftau()))
    # It is the pushdown of F_tau - D_56 instead.
    assert recorded == f_vector(6, expected_transport(6, _ftau_without_d56()))


@pytest.mark.parametrize("n, head", [(7, (0, 0, 0, 6)), (8, (0, 0, 0, 24))])
def test_recorded_six_point_class_transports_to_other_heads(n, head):
    """Transporting q_*(F_tau - D_56) does not give vanishing heads either."""
    s6 = SpaceId(6, 3)
    without = {l: c for l, c in ftau_sum().items() if l.marks != frozenset({5, 6})}
    sum6 = quotient_pushforward_sum(fully_pointed(6), without, s6)
    assert express_in_basis(s6, sum6).coords == tuple(F(c) for c in RECORDED_SIX)
    lifted = forgetful_pullback_sum(s6, sum6, SpaceId(n, n - 3))
    cls = express_in_basis(
        SpaceId(n, 3), quotient_pushforward_sum(SpaceId(n, n - 3), lifted, SpaceId(n, 3))
    )
    assert cls.coords[:4] == tuple(F(c) for c in head)
    assert f_vector(n, pull_coords(n, 3, cls.coords)) == f_vector(
        n, expected_transport(n, _ftau_without_d56())
    )


@pytest.mark.parametrize("n", range(4, 10))
def test_psi_meets_the_f_curves_where_point_one_is_a_block(n):
    # psi_1 . F = 1 if {1} is a block of F, else 0; q^* psi_sum is psi_1 on
    # the nose, with no scale
    expected = tuple(int(frozenset({1}) in blocks) for blocks in _f_curves(n))
    for m in range(1, min(3, n - 2) + 1):
        s = SpaceId(n, m)
        pulled = pull_coords(n, m, express_in_basis(s, psi_sum(s)).coords)
        assert f_vector(n, pulled) == expected, s


def _pullback_f_vectors(n, label):
    """F-vectors of q^* of the label-by-label pullback of ``label`` from X(6,3) to
    X(n, n-3), and of pi^* q^* of the label."""
    pulled = forgetful_pullback_sum(SpaceId(6, 3), {label: F(1)}, SpaceId(n, n - 3))
    want = forget(n, (1, 2, 3, n - 2, n - 1, n), pull_formal(6, 3, {label: F(1)}))
    return f_vector(n, pull_formal(n, n - 3, pulled)), f_vector(n, want)


@pytest.mark.parametrize("n", [7, 8])
def test_forgetful_pullback_of_the_ramified_label(n):
    d2 = BoundaryLabel(2, frozenset())
    assert d2 in enumerate_boundaries(SpaceId(6, 3))
    got, want = _pullback_f_vectors(n, d2)
    assert got == want


@pytest.mark.parametrize("n", [7, 8])
def test_forgetful_pullback_of_every_label(n):
    for label in enumerate_boundaries(SpaceId(6, 3)):
        got, want = _pullback_f_vectors(n, label)
        assert got == want, label


def _draw_sum(draw, s):
    """A formal sum of boundary labels of ``s``, each label drawn as it is
    or as its mirror."""
    labels = draw(st.lists(st.sampled_from(enumerate_boundaries(s)), min_size=1, max_size=6))
    formal = {}
    for label in labels:
        if draw(st.booleans()):
            label = BoundaryLabel(s.n - label.size, s.distinguished - label.marks)
        coeff = draw(st.fractions(min_value=-6, max_value=6, max_denominator=4))
        formal[label] = formal.get(label, 0) + coeff
    return formal


@st.composite
def formal_sums(draw):
    """A space X(n, m), n <= 8, m <= 3, and a formal sum on it."""
    n = draw(st.integers(min_value=4, max_value=8))
    m = draw(st.integers(min_value=0, max_value=3))
    s = SpaceId(n, m)
    return s, _draw_sum(draw, s)


@settings(max_examples=60, deadline=None)
@given(formal_sums())
def test_express_in_basis_pulls_back_like_the_formal_sum(case):
    s, formal = case
    cls = express_in_basis(s, formal)
    got = f_vector(s.n, pull_coords(s.n, s.m, cls.coords))
    assert got == f_vector(s.n, pull_formal(s.n, s.m, formal))


@pytest.mark.parametrize("n", range(4, 9))
@pytest.mark.parametrize("m", [2, 3])
def test_stored_relations_pull_back_to_zero(n, m):
    spec = relations_and_basis(SpaceId(n, m))
    assert spec.relations
    for relation in spec.relations:
        formal = {label: c for label, c in zip(spec.boundaries, relation) if c}
        assert not any(f_vector(n, pull_formal(n, m, formal))), relation


@pytest.mark.parametrize("n", range(5, 9))
def test_keel_relations_cut_the_boundary_down_to_the_picard_number(n):
    full = fully_pointed(n)
    labels = enumerate_boundaries(full)
    relations = keel_relations(n)
    assert len(labels) - rank(relations) == picard_number(full)
    for relation in relations:
        formal = {label: c for label, c in zip(labels, relation) if c}
        assert not any(f_vector(n, pull_formal(n, n, formal)))


@pytest.mark.parametrize("n", range(5, 8))
def test_boundary_f_vectors_span_the_picard_number(n):
    """Boundary divisors span the divisor classes and F-curves the curve
    classes, so their intersection matrix has rank the Picard number."""
    full = fully_pointed(n)
    rows = [f_vector(n, pull_formal(n, n, {label: 1})) for label in enumerate_boundaries(full)]
    assert rank(rows) == picard_number(full)


@st.composite
def pullback_cases(draw):
    """A point-forgetting map X(n, m0 + k) -> X(n - k, m0), n <= 7, m0 <= 3,
    as (source of the pullback, its target), and a formal sum on the source."""
    n = draw(st.integers(min_value=5, max_value=7))
    n0 = draw(st.integers(min_value=4, max_value=n - 1))
    src = SpaceId(n0, draw(st.integers(min_value=0, max_value=3)))
    return src, SpaceId(n, src.m + n - n0), _draw_sum(draw, src)


@settings(max_examples=40, deadline=None)
@given(pullback_cases())
@example((SpaceId(6, 0), SpaceId(7, 1), {BoundaryLabel(3, frozenset()): F(1)}))
@example((SpaceId(4, 0), SpaceId(7, 3), {BoundaryLabel(2, frozenset()): F(1)}))
def test_forgetful_pullback_agrees_with_the_oracle(case):
    """The label-by-label pullback along X(n, m0 + k) -> X(n - k, m0) against pi^* q^*.

    The k new distinguished points are m0+1..m0+k, so source point i is
    point i for i <= m0 and point i + k otherwise."""
    src, dst, formal = case
    k = dst.n - src.n
    kept = tuple(range(1, src.m + 1)) + tuple(range(src.m + k + 1, dst.n + 1))
    pulled = forgetful_pullback_sum(src, formal, dst)
    want = forget(dst.n, kept, pull_formal(src.n, src.m, formal))
    assert f_vector(dst.n, pull_formal(dst.n, dst.m, pulled)) == f_vector(dst.n, want)


@st.composite
def pushforward_cases(draw):
    """A symmetrization map X(n, m1) -> X(n, m2), n <= 7, and a formal sum
    on its source.

    The target X(4, 0) is left out.  There the Klein four-group, which lies
    in Sym(1..4), acts trivially on M_{0,4}: q has degree 6, not 24, so
    q^* q_* D is the sum over Sym(1..4) / V_4 alone, a quarter of the
    symmetrized sum below."""
    n = draw(st.integers(min_value=4, max_value=7))
    m2 = draw(st.integers(min_value=0 if n >= 5 else 1, max_value=n - 1))
    src = SpaceId(n, draw(st.integers(min_value=m2 + 1, max_value=n)))
    return src, SpaceId(n, m2), _draw_sum(draw, src)


def _pushforward_f_vectors(src, dst, formal):
    """F-vectors of q^* q_* of the formal sum, and of the symmetrized q^*
    over Sym(m2+1..n) divided by the order (n - m1)! of the source group."""
    n = src.n
    pushed = transport_sum(src, formal, dst)
    symmetrized = symmetrize(n, range(dst.m + 1, n + 1), pull_formal(n, src.m, formal))
    want = {side: c / factorial(n - src.m) for side, c in symmetrized.items()}
    return f_vector(n, pull_formal(n, dst.m, pushed)), f_vector(n, want)


@settings(max_examples=40, deadline=None)
@given(pushforward_cases())
def test_quotient_pushforward_agrees_with_the_oracle(case):
    got, want = _pushforward_f_vectors(*case)
    assert got == want


@pytest.mark.parametrize("m1", [1, 2, 3, 4])
def test_pushforward_to_the_four_point_quotient_is_off_by_the_klein_group(m1):
    src = SpaceId(4, m1)
    for label in enumerate_boundaries(src):
        got, want = _pushforward_f_vectors(src, SpaceId(4, 0), {label: F(1)})
        assert tuple(4 * x for x in got) == want, label


# --------------------------------------------------------------------------
# The recorded nef cones


def _units(dim):
    return [tuple(int(i == j) for j in range(dim)) for i in range(dim)]


def _f_cone_rows(s):
    """The distinct primitive nonzero rows by which the F-curves of M_{0,n}
    meet the pulled-back basis of ``s``: the F-cone is where all are >= 0."""
    columns = [f_vector(s.n, pull_coords(s.n, s.m, u)) for u in _units(picard_number(s))]
    return sorted({primitive(row) for row in zip(*columns) if any(row)})


@pytest.mark.parametrize("s", list(fixtures.NEF_RAYS), ids=str)
def test_recorded_nef_cone_is_the_f_cone(s):
    rays = fixtures.NEF_RAYS[s]
    for ray in rays:
        assert min(f_vector(s.n, pull_coords(s.n, s.m, ray))) >= 0, ray
    rows = _f_cone_rows(s)
    assert 2 <= len(rows) <= 7, rows
    assert brute_force_vrep(picard_number(s), rows, []) == (sorted(rays), [])


def _keel_pairing(a, b):
    """D . D' on M_{0,5} for divisors keyed by `_key`.  A boundary divisor is
    named by its two-point side; D_S . D_S == -1, and two distinct boundary
    divisors meet in 1 when those sides are disjoint and in 0 otherwise."""
    def pair(side):
        return side if len(side) == 2 else frozenset(range(1, 6)) - side

    total = 0
    for s, x in a.items():
        for t, y in b.items():
            p, q = pair(s), pair(t)
            total += x * y * (-1 if p == q else int(not p & q))
    return total


def _inverse3(m):
    """The inverse of a 3 x 3 matrix, as its adjugate over its determinant."""
    (a, b, c), (d, e, f), (g, h, i) = m
    adj = [
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ]
    det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
    return [[F(x) / det for x in row] for row in adj]


def test_surface_nef_rays_are_the_gram_image_of_the_eff_facets():
    """q: M_{0,5} -> X(5,2) has degree 6, the order of Sym(3, 4, 5), so the
    Gram matrix of the basis is q^* D . q^* D' / 6.  A class is nef when it
    pairs nonnegatively with the rays of Eff, so the nef rays are the inverse
    Gram matrix applied to the facets of Eff."""
    s = SpaceId(5, 2)
    pulled = [pull_coords(5, 2, u) for u in _units(picard_number(s))]
    gram = [[_keel_pairing(a, b) / 6 for b in pulled] for a in pulled]
    assert gram == [[F(-1, 2), F(1, 2), F(1, 2)], [F(1, 2), F(-1, 2), 1], [F(1, 2), 1, F(-1, 2)]]
    inverse = _inverse3(gram)
    assert [tuple(sum(map(mul, row, col)) for col in zip(*gram)) for row in inverse] == _units(3)
    images = [primitive([sum(map(mul, row, f)) for row in inverse]) for f in fixtures.EFF_X52_FACETS]
    assert sorted(images) == sorted(fixtures.NEF_RAYS[s])
