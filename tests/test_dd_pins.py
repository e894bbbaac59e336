"""SHA-256 pins of the double-description outputs the benchmark asks for.

The digests were recorded before double description stopped recomputing
the tight sets of combined rays.  Each covers ``repr`` of the full
``dual_description`` result (rays or facets, then the lineality or equation
basis), so the values, their order and their types are all pinned.  The
H-to-V cases are every cone of the ``rays`` benchmark pool, plus the nem
``X(12,1)`` rays (about 2 s); the V-to-H cases are the facets of the
two-marked effective cones and of the genus-two pointed cone that
``--which m21-mov`` reads its rays from.  ``cut`` is a small case with one
equation, whose third sorted inequality lies in the span of the first two
and whose last is independent of every row before it.  The ``mg1`` cases are
the transported ``M̄_{g,1}`` families, the pinned cones with a lineality
space: two vectors at ``(3, 2, mg1)`` and one at ``(4, 2, mg)`` and
``(6, 5, mg1)``; their digests were recorded before double description
started from one elimination.  Each case also asserts that the final sweep ranks exactly the
rays it returns, which the digest alone would not notice: an adjacency test
that lets a non-adjacent pair through leaves the output unchanged as long as
the sweep drops the extra ray.  With at most one row after the start the
sweep does not run, so it ranks none:
``cut``, the effective-cone facets, ``hyperelliptic-g3``, ``m21-mov``,
``nem-x5-1`` and ``nem-x6..9-0``.
"""

import hashlib

import pytest

from modulicones.bridge import hyperelliptic_pullback_cone, m21_cones, mg1_inequality_family
from modulicones.cones import dual_description
from modulicones.curves import eff_cone, nem_hrep
from modulicones.spaces import SpaceId

from dd_oracle import rows_after_start

PINS = {
    "cut": "66a8fb244804abe378a81ba10768558d1fbfe13ef76ebbb120d5fec756815a27",
    "eff-x10-2-facets": "22fa1ac9c469cd132a1a010489dd307b00d67579d7842d05cf0bf5fcf239f981",
    "eff-x11-2-facets": "85a248921512eed0424f78449f65a4ca70c3a0bb711d62f78af276a5b6e8a006",
    "eff-x8-2-facets": "405f07aac4832b6eab82637c4c4fffc1f9ede5a2c8efdb87c94a3795994a5d02",
    "eff-x9-2-facets": "690835211335c407be546c4171e1504a7ee7f02c546a8a444034da9ea12af42a",
    "hyperelliptic-g3": "679f8ed4c79f36991380665fd25cc1572de311f17e04c4fa578c487c4eaa6dd9",
    "hyperelliptic-g4": "37e7448658fce3bd79c6bc8fee7b9ce2772d7ff28ab046393767325e2e20d06d",
    "hyperelliptic-g5": "fdd0d9b121a827d3a0fa7a4dc905ed511d7bfc58c970f192cae2edf6ab810286",
    "hyperelliptic-g6": "b75398f8807c200fd46af1868d67eacdff1b4128e73b7461bb955bdbd5877db0",
    "hyperelliptic-g7": "16a5aa126a5a46376e5ac69d6ffdd76322669dd2e0a6bdccf5f8cc77cc1657b2",
    "m21-mov": "3b165d0fec5bdfbc10a8da5b03bb8c165f91f1a5568add2a554e6d5a459013de",
    "m21-push-nem-facets": "47de4e1c24d48281c6ddb8c763aa3409162951434149bab7389f4a5236c7cf66",
    "mg1-g3-n2-mg1": "53815ab391d3a1d5e45ead503f2ca51828ea68836b1a28e004d46146e611a037",
    "mg1-g4-n2-mg": "c455150c7b9b58d3891c9a5f5dc91daf73c50c72d5c7a96bdcb4fbb3c9f1006a",
    "mg1-g6-n5-mg1": "88facd14938ece759b7b679a49d3b153601670fdd73ec77b3827153986eba0f4",
    "nem-x10-0": "023747dcdff640e6f259f4284ecbe4f9be382763d4bf3e55fac96d84df36d6e5",
    "nem-x10-1": "51b9e020ef56586f4388fdcdad469ffa97ef2835c4247617191828fa76524a5c",
    "nem-x11-0": "31408cf21bc87fe20b88147fe9fc005991da11df2aafdde7bf0e75238154db55",
    "nem-x11-1": "b9314a10ff62e654e1ef9981a55c12701b3d41f4c8fddd4634d4e07fc18991e7",
    "nem-x12-0": "b1d6f8e2fe4ac99f79dae418960f8ab33a6f37ad4dc03067ea54c094ceb7e8c3",
    # 3,264 rays; recorded before the third-ray test became an AND of
    # transposed tight-row bitsets.  No benchmark job reaches this cone.
    "nem-x12-1": "e75da8b396dae9de94cee0401848a87c5c32419a6edb3aecdbbf11cd63c98635",
    "nem-x13-0": "d66e3d0c1f1f4d11316fa72636560bebf9c8963211a7d2bc2b9a5ba812c3dd5e",
    "nem-x14-0": "a46f5275dc5dbfc6f94aad858bbb6332d4f3b25bf2cf49f9b94779c74cd0d18f",
    "nem-x15-0": "96132fda2502396223c582353456a2c9a306a7bc545bf83e0d6711325990775e",
    "nem-x16-0": "06f78ecf1b42770c6e33a2cc09b197f89c99388aae78360659462eda85151a0e",
    "nem-x17-0": "1be0c8da66b58db29503dde46f4cfa66e1161c3d987de38b431611ad1956a2e0",
    "nem-x18-0": "5e922597a0dcc76f53c8da4aacfe69d3a810a6acdd1bd244408ca9e465d8fc42",
    "nem-x19-0": "bd2ce15c0c43394099da2eb807e01f3d5425737c68247ac07938c975eaee037e",
    "nem-x20-0": "e0c0b9d095f8505a1f6f8ba559fa549c9735875c9c738bee1a9e2cd770a3e74b",
    "nem-x5-1": "2621987a5853c924210d5fd97b93fda942fc71f960e29180d8e7baa14f6801a7",
    "nem-x6-0": "abb30bfbd84525c9a76f1a536499e1f7c41337c10a68f4a0e637c7ceb13466de",
    "nem-x6-1": "5b03d3d1a2394c25dcb12ef8f5eababd3cdb51fc534882bc1fe2e3b88ec0b5bc",
    "nem-x7-0": "c3126854ce1f2f0cf6758b92e42d0911878605072d7d9a48fdad247531580083",
    "nem-x7-1": "57d074ebd0c693f9530acfc8eec661c90037af57aca9ecb35bfb14b829c63b16",
    "nem-x8-0": "3e0d6a2520b5416a6fda143705eb654628f6d774cad7536bcbe9e46198e9d12a",
    "nem-x8-1": "2869d98de5e0f69b91d057526642c1121aabc018ed4d7788c33ce839b8323e3d",
    "nem-x9-0": "9a7bc1bca1d392ffe7c84d2a2ce28000e509a33b322e60dd77b741fecbd6a9fd",
    "nem-x9-1": "c1fff535afd6fea93fabedf7cfd4829b8c815e2a0367e2d42dc86c52131a5add",
}


def _hrep(cone):
    return cone.ambient_dim, cone.inequalities, cone.equations


def _vrep(cone):
    return cone.ambient_dim, cone.rays, cone.lineality


def _m21_mov():
    dim, rays, lin = _vrep(m21_cones()["push_nem"])
    return (dim, *dual_description(dim, rays, lin))


CASES = {
    **{f"nem-x{n}-0": lambda n=n: _hrep(nem_hrep(SpaceId(n, 0))) for n in range(6, 21)},
    **{f"nem-x{n}-1": lambda n=n: _hrep(nem_hrep(SpaceId(n, 1))) for n in range(5, 13)},
    **{f"hyperelliptic-g{g}": lambda g=g: _hrep(hyperelliptic_pullback_cone(g)) for g in range(3, 8)},
    "m21-push-nem-facets": lambda: _vrep(m21_cones()["push_nem"]),
    "m21-mov": _m21_mov,
    # from test_dual_description_builds_no_fraction: one equation; sorted,
    # the third inequality lies in the span of the first two, and the last is
    # independent of every row before it
    "cut": lambda: (4, [(0, 1, 0, 0), (0, 1, 1, 0), (0, 1, -1, 0), (1, 0, 0, 0)], [(0, 0, 1, 1)]),
    **{f"eff-x{n}-2-facets": lambda n=n: _vrep(eff_cone(SpaceId(n, 2))) for n in range(8, 12)},
    **{
        f"mg1-g{g}-n{n}-{t}": lambda g=g, n=n, t=t: _hrep(mg1_inequality_family(g, n, t))
        for g, n, t in [(3, 2, "mg1"), (4, 2, "mg"), (6, 5, "mg1")]
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_dual_description_is_pinned(name, counted_dual_description):
    dim, inequalities, equations = CASES[name]()
    out, rank_calls = counted_dual_description(dim, inequalities, equations)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == PINS[name]
    # the final sweep keeps every ray it ranks: the adjacency test let no
    # non-extreme combination through for the sweep to drop
    past = rows_after_start(inequalities, equations)
    assert rank_calls == (len(out[0]) if past > 1 else 0)
