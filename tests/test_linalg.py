from fractions import Fraction

import pytest

from modulicones.linalg import primitive, rank, rref, vec

F = Fraction


def test_vec_coerces_to_fractions():
    v = vec([1, F(1, 2), F(3, 4)])
    assert all(isinstance(x, F) for x in v)
    assert v == (1, F(1, 2), F(3, 4))


def test_rref_identity_and_rank():
    m = (vec([1, 2]), vec([3, 4]))
    r, pivots = rref(m)
    assert r == [(1, 0), (0, 1)]
    assert pivots == [0, 1]
    assert rank(m) == 2


def test_rref_dependent_rows():
    m = (vec([1, 2, 3]), vec([2, 4, 6]), vec([1, 1, 1]))
    assert rank(m) == 2
    r, pivots = rref(m)
    assert r == [(1, 0, -1), (0, 1, 2)]
    assert pivots == [0, 1]
    assert all(type(x) is int for row in r for x in row)
    for row in m:
        assert sum(a * x for a, x in zip(row, (1, -2, 1))) == 0


def test_primitive_clears_denominators_and_sign():
    assert primitive(vec([F(2, 3), F(4, 3)])) == (1, 2)
    assert primitive(vec([-2, 4, -6])) == (-1, 2, -3)
    assert primitive(vec([0, F(-5, 7)])) == (0, -1)


def test_primitive_rejects_zero():
    with pytest.raises(ValueError):
        primitive((0, 0, 0, 0))
