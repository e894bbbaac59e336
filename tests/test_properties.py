"""Property tests: algebraic invariants that should hold for arbitrary input."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from modulicones.cones import Cone, conic_combination, separating_functional
from modulicones.linalg import kernel_basis, primitive, rank, scale, vec
from modulicones.porta import porta_read, porta_write
from modulicones.spaces import SpaceId, canonical_label, express_in_basis, fully_pointed, keel_relations, enumerate_boundaries

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
    assert primitive(scale(q, v)) == primitive(v)


@given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=1, max_size=5))
def test_rank_nullity(rows):
    assert rank(rows) + len(kernel_basis(rows)) == 4


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
    cert = conic_combination(target, [vec(r) for r in rays])
    assert cert is not None
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
    member = conic_combination(t, gens)
    if member is not None:
        assert member.verify(t, gens)
    else:
        separating = separating_functional(t, gens)
        assert separating is not None
        assert separating.verify(t, gens)
    cone = Cone.from_vrep(3, gens)
    cert = cone.contains(t)
    assert bool(cert) == (member is not None)
    assert cert.verify(t, cone.rays)


@given(st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=1, max_size=4))
def test_vrep_hrep_round_trip(rays):
    rays = [r for r in rays if any(r)]
    if not rays:
        return
    original = Cone.from_vrep(3, rays)
    back = Cone.from_hrep(3, original.inequalities, original.equations)
    assert back.equals(original)


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
    from modulicones.spaces import quotient_pushforward

    cls = quotient_pushforward(full, formal, SpaceId(n, m))
    assert all(c == 0 for c in cls.coords)
