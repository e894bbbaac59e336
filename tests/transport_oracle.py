"""The label-by-label forgetful pullback, kept as the oracle that
`spaces.transport_sum` is tested against.

It walks one forgotten point at a time through every label of the spaces in
between, so it costs about ``2^n`` labels; `transport_sum` groups those labels
by orbit type instead.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from modulicones.spaces import BoundaryLabel, FormalSum, SpaceId, _is_ramified, canonical_label


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
