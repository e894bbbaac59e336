"""The label-by-label forgetful pullback and quotient pushforward, kept as
the oracle that `spaces.transport_sum` is tested against, and Keel's psi
class on the fully pointed space, the oracle for `spaces.psi_sum`.

The pullback walks one forgotten point at a time through every label of the
spaces in between, so it costs about ``2^n`` labels, and the pushforward
lifts each label to one representative subset of its own; `transport_sum`
groups those labels by orbit type instead.  `keel_psi` lists the ``2^(n-3) -
1`` pointed labels of its class; `psi_sum` builds no pointed label.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction

from modulicones.spaces import (
    BoundaryLabel,
    FormalSum,
    SpaceId,
    _exact,
    _is_ramified,
    _pushforward_degree,
    canonical_label,
    fully_pointed,
)


def forgetful_pullback_sum(src: SpaceId, formal: FormalSum, dst: SpaceId) -> dict[BoundaryLabel, Fraction | int]:
    """Pull a formal boundary sum back along the map forgetting the
    distinguished points of ``dst`` beyond those of ``src``.

    One forgotten point at a time: a boundary divisor pulls back to the sum
    of the two boundary divisors distributing the extra point over the two
    components.  Each preimage carries the ramification index of the source
    divisor over its own: a side of exactly two undistinguished points is
    ramified (index 2), and once the new distinguished point joins that side
    the preimage is not, so that preimage carries coefficient 2.  The other
    preimage keeps the two-point side and carries 1.  When the source has
    no distinguished point and the label splits the points evenly, both
    preimages are the same divisor, and it is counted once.
    """
    if dst.n - src.n != dst.m - src.m or dst.n < src.n:
        raise ValueError(f"no point-forgetting map {dst} -> {src}")
    cur_space, cur = src, dict(formal)
    while cur_space.n < dst.n:
        bigger = SpaceId(cur_space.n + 1, cur_space.m + 1)
        new_point = bigger.m
        out: dict[BoundaryLabel, Fraction | int] = defaultdict(int)
        for label, coeff in cur.items():
            ramified = _is_ramified(cur_space, label)
            for image in dict.fromkeys((
                canonical_label(bigger, label.size, label.marks),
                canonical_label(bigger, label.size + 1, label.marks | {new_point}),
            )):
                factor = 2 if ramified and not _is_ramified(bigger, image) else 1
                out[image] += coeff * factor
        cur_space, cur = bigger, dict(out)
    return cur


def _lift_to_pointed(src: SpaceId, label: BoundaryLabel) -> frozenset[int]:
    """A representative subset of {1..n} over the label, filling the
    undistinguished slots with the smallest free symmetrized points."""
    free = iter(range(src.m + 1, src.n + 1))
    extra = frozenset(itertools.islice(free, label.size - len(label.marks)))
    return label.marks | extra


def quotient_pushforward_sum(src: SpaceId, formal: FormalSum, dst: SpaceId) -> dict[BoundaryLabel, Fraction | int]:
    """Push a formal boundary sum along the further symmetrization map.

    Each label's multiplicity is the ratio of its pushforward degrees to
    ``dst`` and from ``src``, an integer; an int-coefficient sum stays int.
    """
    if dst.n != src.n or dst.m > src.m:
        raise ValueError(f"no symmetrization map {src} -> {dst}")
    out: dict[BoundaryLabel, Fraction | int] = defaultdict(int)
    for label, coeff in formal.items():
        members = _lift_to_pointed(src, label)
        dst_stab, dst_trivial = _pushforward_degree(dst, len(members), len(members & dst.distinguished))
        src_stab, src_trivial = _pushforward_degree(src, len(members), len(members & src.distinguished))
        deg, rest = divmod(dst_stab * src_trivial, dst_trivial * src_stab)
        if rest:
            raise AssertionError(f"the multiplicity of {label} pushed from {src} to {dst} is not an integer")
        image = canonical_label(dst, len(members), members & dst.distinguished)
        out[image] += _exact(coeff) * deg
    return dict(out)


def keel_psi(n: int, i: int, j: int, k: int) -> dict[BoundaryLabel, int]:
    """Keel's ``psi_i = sum D_S`` on the fully pointed n-point space, over the
    sides ``S`` holding ``i`` and neither ``j`` nor ``k`` (Keel, 1992).

    Each divisor is listed once, from its side holding ``i``, with
    coefficient 1; the class does not depend on the choice of ``j, k``.
    """
    s = fully_pointed(n)
    rest = [x for x in range(1, n + 1) if x not in (i, j, k)]
    return {
        canonical_label(s, 1 + r, (i, *extra)): 1
        for r in range(1, n - 2)
        for extra in itertools.combinations(rest, r)
    }
