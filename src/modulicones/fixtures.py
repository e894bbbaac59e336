"""Frozen reference data: classical cones and distinguished vectors.

Two kinds of constants live here.  The nef cones of the small quotients are
classical computations that this package deliberately does not rederive;
their primitive rays are recorded verbatim and used only for containment and
face checks against the cones we do compute.  The expected extremal rays of
the computed cones are frozen alongside them as regression data, so a
refactoring that silently changes a cone fails loudly.

All vectors are primitive integer rays, stored as plain int tuples (the
package's one row type), in the coordinates fixed by
:func:`modulicones.spaces.relations_and_basis` for the quotients, and in the
ordered basis (``Delta_irr``, ``Delta_1``, ``W``) for the genus-two pointed
moduli space (``W`` is the Weierstrass divisor).  Every ray is a divisor
class, except the facet normals in :data:`EFF_X52_FACETS`.
"""

from __future__ import annotations

from .linalg import IntVec
from .spaces import SpaceId

__all__ = [
    "EFF_X52_FACETS",
    "EFF_X52_RAYS",
    "M21_A",
    "M21_B",
    "M21_C",
    "M21_D",
    "M21_E",
    "M21_BASIS",
    "NEF_RAYS",
    "NEM_RAYS",
]


#: Nef cones, recorded — never computed here.
NEF_RAYS: dict[SpaceId, tuple[IntVec, ...]] = {
    SpaceId(6, 0): ((2, 1), (1, 3)),
    SpaceId(7, 0): ((1, 3), (1, 1)),
    SpaceId(8, 0): ((3, 2, 4), (1, 3, 6), (6, 11, 8), (2, 6, 5)),
    SpaceId(9, 0): ((1, 3, 2), (1, 3, 6), (1, 1, 2), (3, 3, 4)),
    SpaceId(5, 1): ((0, 1), (3, 1)),
    SpaceId(6, 1): ((6, 3, 1), (1, 3, 1), (0, 1, 1), (2, 1, 2)),
    SpaceId(7, 1): (
        (10, 6, 3, 1), (5, 3, 4, 3), (5, 12, 6, 2), (0, 1, 3, 1), (0, 2, 1, 2)
    ),
    # divisor classes: the F-cone, which is the nef cone because the F-curves
    # of the quintic del Pezzo surface M_{0,5} span its Mori cone
    SpaceId(5, 2): ((0, 1, 2), (0, 2, 1), (1, 0, 1), (1, 1, 0)),
}

#: Expected extremal rays of the computed nem cones (regression goldens).
NEM_RAYS: dict[SpaceId, tuple[IntVec, ...]] = {
    SpaceId(6, 0): ((2, 1), (1, 3)),
    SpaceId(7, 0): ((5, 3), (1, 3)),
    SpaceId(8, 0): ((3, 2, 4), (1, 3, 6), (5, 15, 9), (15, 10, 6)),
    SpaceId(9, 0): ((1, 3, 2), (1, 3, 6), (7, 5, 10), (21, 15, 10)),
    SpaceId(5, 1): ((0, 1), (3, 1)),
    SpaceId(6, 1): ((6, 3, 1), (1, 3, 1), (0, 1, 1), (1, 3, 6), (2, 1, 2)),
    SpaceId(7, 1): (
        (5, 12, 36, 32),
        (10, 6, 3, 6),
        (5, 3, 9, 8),
        (5, 12, 6, 2),
        (0, 1, 3, 1),
        (5, 12, 21, 32),
        (10, 6, 3, 1),
        (5, 3, 9, 3),
        (20, 12, 21, 32),
        (0, 2, 1, 2),
    ),
}

#: Expected generators of the effective cone of the five-point two-marked
#: quotient, where boundary classes stop being independent.
EFF_X52_RAYS: tuple[IntVec, ...] = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 1, 1))

#: Facets of the cone :data:`EFF_X52_RAYS` spans: functionals on divisor
#: classes, not classes (the nef rays of this surface are in :data:`NEF_RAYS`).
EFF_X52_FACETS: tuple[IntVec, ...] = ((0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0))

#: Ordered divisor basis used for the genus-two pointed moduli space.
M21_BASIS: tuple[str, ...] = ("Delta_irr", "Delta_1", "W")

M21_A: IntVec = (1, 1, 0)
M21_B: IntVec = (1, 6, 0)
M21_C: IntVec = (1, 6, 5)
M21_D: IntVec = (1, 6, 20)
M21_E: IntVec = (3, 3, 10)
