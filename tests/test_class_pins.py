"""SHA-256 pins of every boundary column of X(n, m), n = 4..16, m = 0..3.

The digests were recorded before `express_in_basis` became one cached
reduction table.  Each covers ``repr`` of ``boundary_class(s, l).coords`` for
every label ``l`` of every ``X(n, m)`` with that ``m``, in
`enumerate_boundaries` order, so both the values and their types are pinned.
Reduction is linear, so pinning every column pins every formal sum.
"""

import hashlib

import pytest

from modulicones.spaces import SpaceId, boundary_class, enumerate_boundaries

PINS = {
    0: "74d6659ad463d453ec8183737f3a5d241b27f6be8dede2deb021ca55ceb39e15",
    1: "c53c5681ce14a0638fa1e48cbc20210966e8475f84e11559c60fbb5f98f273a4",
    2: "7853cf3d0b3c20d67b00f6d06e6bc85c5c429e0c089f8eb7af32832dc0690ba9",
    3: "9d2cedb122bddbde8a590ad084e87b0b561bff20cef56aa157b2ded68dc86f5a",
}


@pytest.mark.parametrize("m", sorted(PINS))
def test_boundary_columns_are_pinned(m):
    h = hashlib.sha256()
    for n in range(4, 17):
        s = SpaceId(n, m)
        for label in enumerate_boundaries(s):
            h.update((repr(boundary_class(s, label).coords) + "\n").encode())
    assert h.hexdigest() == PINS[m]
