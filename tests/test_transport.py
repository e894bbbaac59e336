"""`spaces.transport_sum` against the label-by-label route it replaces.

The oracle is the forgetful pullback of `transport_oracle`, which walks every
label of the space in between, followed by that module's label-by-label
`quotient_pushforward_sum`.  With no new point (``p = 0``) the oracle is that
pushforward alone, so the plain symmetrization is checked here too.
"""

import random
from fractions import Fraction

import pytest

from modulicones import spaces
from modulicones.spaces import SpaceId, canonical_label, enumerate_boundaries, fully_pointed, transport_sum
from transport_oracle import forgetful_pullback_sum, quotient_pushforward_sum

F = Fraction

SOURCES = [SpaceId(n0, m0) for n0 in range(4, 9) for m0 in range(1, n0 + 1)]


def _nonzero(formal):
    return {label: c for label, c in formal.items() if c != 0}


def _slow(src, formal, dst):
    mid = SpaceId(dst.n, src.m + dst.n - src.n)
    return quotient_pushforward_sum(mid, forgetful_pullback_sum(src, formal, mid), dst)


def _random_sums(src, rng, count):
    labels = enumerate_boundaries(src)
    for _ in range(count):
        picked = rng.sample(labels, rng.randint(1, min(5, len(labels))))
        coeff = (lambda: rng.randint(-9, 9)) if rng.random() < 0.5 else (lambda: F(rng.randint(-9, 9), rng.randint(1, 6)))
        yield {label: coeff() for label in picked}


@pytest.mark.parametrize("src", SOURCES, ids=str)
def test_transport_matches_the_label_by_label_route(src):
    rng = random.Random(f"transport:{src}")
    for p in range(4):
        for dst_m in range(src.m + 1):
            dst = SpaceId(src.n + p, dst_m)
            sums = [{label: 1} for label in enumerate_boundaries(src)]
            sums += _random_sums(src, rng, 4)
            for formal in sums:
                assert _nonzero(transport_sum(src, formal, dst)) == _nonzero(_slow(src, formal, dst)), (dst, formal)


@pytest.mark.parametrize(
    "src, dst",
    [
        (SpaceId(4, 0), SpaceId(5, 0)),  # no distinguished point: even splits are their own mirrors
        (SpaceId(6, 0), SpaceId(6, 0)),
        (SpaceId(6, 2), SpaceId(8, 3)),  # more distinguished points down than up
        (SpaceId(7, 3), SpaceId(6, 3)),  # fewer points
    ],
    ids=str,
)
def test_transport_refuses_a_map_outside_its_scope(src, dst):
    formal = {enumerate_boundaries(src)[0]: 1}
    with pytest.raises(ValueError):
        transport_sum(src, formal, dst)


def test_transport_refuses_a_label_foreign_to_the_source():
    src = SpaceId(6, 3)
    with pytest.raises(ValueError):
        transport_sum(src, {spaces.BoundaryLabel(2, frozenset({4})): 1}, SpaceId(8, 3))


# (src, dst): the space in between is X(40, 37), then X(40, 40) on the route
# `counterexample_ftau` takes
FORTY_POINT_ROUTES = [(SpaceId(6, 3), SpaceId(40, 3)), (fully_pointed(6), SpaceId(40, 3))]


def test_transport_to_forty_points_builds_no_label_of_the_space_in_between(monkeypatch):
    built = []
    real = spaces.canonical_label

    def counted(s, size, marks):
        built.append(s)
        return real(s, size, marks)

    formals = [{label: 1 for label in enumerate_boundaries(src)} for src, _ in FORTY_POINT_ROUTES]
    monkeypatch.setattr(spaces, "canonical_label", counted)
    for (src, dst), formal in zip(FORTY_POINT_ROUTES, formals):
        built.clear()
        out = transport_sum(src, formal, dst)
        assert SpaceId(dst.n, src.m + dst.n - src.n) not in built, src
        assert set(built) == {dst}, src
        assert out and all(label == canonical_label(dst, label.size, label.marks) for label in out), src
