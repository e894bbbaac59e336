"""SHA-256 pins of the `member` and `counterexample` outputs.

The digests were recorded before the phase-1 simplex moved to an integer
tableau.  They cover the exit code and the full stdout (coefficients,
combination order, separating functionals) of each query, so any change in
the pivots or in the certificates shows up here.  The pins for ``eff`` at
n = 13..16 and for ``counterexample`` at n = 10..12, which complete the
benchmark's certify pool, were recorded later, from the code before boundary
classes moved to integer columns.  The pin over ``counterexample`` at
n = 6..18 was recorded from the label-by-label transport, before it moved to
orbit types, and the pin at n = 19..40 from the orbit-type transport through
the space in between, before its multiplicity became the degree ratio.
"""

import hashlib
import random

import pytest

from modulicones import cli

SELECTORS = {
    **{f"eff-x{n}-2": f"--which eff --n {n} --m 2" for n in range(8, 17)},
    "m21-mov": "--which m21-mov",
    "nef-fixture-x7-1": "--which nef-fixture --n 7 --m 1",
}

PINS = {
    "eff-x8-2": "a0661af8467877b073b69e94b112444c9ed592c9bde21234cdb8308ef19da315",
    "eff-x9-2": "1e690a2cc04ad0bebb1af87863d5dcd128b537043e2e9e7dd94f09ffff18defd",
    "eff-x10-2": "b9b1d213d31e26003ec269d78cf2de05b1db3e331b2a52482b0a08d0918758b4",
    "eff-x11-2": "955e4c3741089f73b2a74fb4c05002340e63585e0e39937ba5c87ce88e3911a2",
    "eff-x12-2": "33fb794aa9f6713d403d522f1db1ae19040edf1120fe647eebbb15e1d58b95c6",
    "m21-mov": "998c5232d0805fe1969c4d68d1794b13556b729842f44186a626511f9c81f16b",
    "nef-fixture-x7-1": "430348502acfd6d4d52edc58f86598c91bdd2bb28259666d3d20626ccd683ecb",
    "counterexample": "900f0609460e82d8d1d11e48153e72e45a0aab0bec79bc01674f9e1badbf1dc6",
    "eff-x13-2": "eb7a25992a6d42e28316b3a579ef06e832d9ce3ac6a75bd742cca17df5585f9d",
    "eff-x14-2": "294a70729673e106f7b4f75e2cf2e59555ac8bfd20df2e5868c49c8326e1010e",
    "eff-x15-2": "747a444c7104b40c40c5b66f4a290627e4d9bd0d6970c4ac6ba4270197290fcf",
    "eff-x16-2": "53774d54cc33ff9806319807f0b346489d3e26304814ef558911c83be93bdefa",
    "counterexample-x10-12": "870b31222e5fb49a44ab8304ab87a77a657a88fce84bad551048a98dc5ed94c6",
    "counterexample-x6-18": "e2029d0759085e6faa271076bdda395eab09e771d805d1e23cfa240028f5fb3d",
    "counterexample-x19-40": "4901d242b58288b6a469124e0e801cae7180606de197562fd6c97d87dfab606b",
}


def _cone(selector):
    args = cli._build_parser().parse_args(["cone", *selector.split()])
    return cli._select_cone(args)[0]


def _points(name, selector):
    """20 nonnegative integer combinations of the cone's rays (members) and
    20 integer points that violate one of its facets (non-members)."""
    cone = _cone(selector)
    rays, facets = cone.rays, cone.inequalities
    rng = random.Random(f"pin:{name}")
    members = []
    while len(members) < 20:
        picked = rng.sample(range(len(rays)), rng.randint(1, min(4, len(rays))))
        coeffs = {i: rng.randint(1, 5) for i in picked}
        members.append([sum(c * rays[i][d] for i, c in coeffs.items()) for d in range(cone.ambient_dim)])
    outside = []
    while len(outside) < 20:
        p = [rng.randint(-6, 6) for _ in range(cone.ambient_dim)]
        if any(sum(a * x for a, x in zip(row, p)) < 0 for row in facets):
            outside.append(p)
    return members, outside


def _digest(capsys, argvs):
    h = hashlib.sha256()
    codes = []
    for argv in argvs:
        code = cli.main(argv)
        out = capsys.readouterr().out
        codes.append(code)
        h.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
    return h.hexdigest(), codes


@pytest.mark.parametrize("name", list(SELECTORS))
def test_member_outputs_are_pinned(capsys, name):
    selector = SELECTORS[name]
    members, outside = _points(name, selector)
    argvs = [
        ["member", *selector.split(), "--coords=" + ",".join(map(str, p))]
        for p in members + outside
    ]
    digest, codes = _digest(capsys, argvs)
    assert codes == [0] * 20 + [1] * 20
    assert digest == PINS[name]


def test_counterexample_outputs_are_pinned(capsys):
    digest, codes = _digest(capsys, [["counterexample", "--n", str(n)] for n in range(6, 10)])
    assert codes == [0] * 4
    assert digest == PINS["counterexample"]


def test_larger_counterexample_outputs_are_pinned(capsys):
    digest, codes = _digest(capsys, [["counterexample", "--n", str(n)] for n in range(10, 13)])
    assert codes == [0] * 3
    assert digest == PINS["counterexample-x10-12"]


def test_counterexample_outputs_up_to_eighteen_points_are_pinned(capsys):
    digest, codes = _digest(capsys, [["counterexample", "--n", str(n)] for n in range(6, 19)])
    assert codes == [0] * 13
    assert digest == PINS["counterexample-x6-18"]


def test_counterexample_outputs_up_to_forty_points_are_pinned(capsys):
    digest, codes = _digest(capsys, [["counterexample", "--n", str(n)] for n in range(19, 41)])
    assert codes == [0] * 22
    assert digest == PINS["counterexample-x19-40"]
