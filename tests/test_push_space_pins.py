"""Exact stdout and exit code of ``push`` and ``space``, recorded before the
transport maps and the relation rows moved to ints.

``PUSH`` holds every ``push`` candidate of the ``paper`` benchmark workload
(three coordinate vectors per map) and, per map, pushes with `Fraction` and
negative coordinates.  ``SPACE`` holds ``space`` on two- and three-marked
spaces, whose relations carry the halved ramified coefficients, and on
seven spaces with no basis, five of them recorded before the boundary count
and the Picard number became closed forms.  ``SPACE_DIGESTS`` covers ``space``
on every two- and three-marked space with ``4 <= n <= 40``, one SHA-256 per
``m`` over the stdout of each ``n`` in turn; it was recorded while the third
three-marked relation was still written out apart from the two-marked one.
A pin changes only when an independent oracle refutes it.
"""

import hashlib

import pytest

from modulicones import cli

PUSH = {
    'push --map m21 --coords=1,-1,-3,3': (
        0,
        'divisor class on the genus-two pointed space (Delta_irr, Delta_1, W): (3/2, -3, 1)\n',
    ),
    'push --map m21 --coords=0,5,-4,0': (
        0,
        'divisor class on the genus-two pointed space (Delta_irr, Delta_1, W): (0, -4, 0)\n',
    ),
    'push --map m21 --coords=1,-4,3,5': (
        0,
        'divisor class on the genus-two pointed space (Delta_irr, Delta_1, W): (5/2, 3, 1)\n',
    ),
    'push --map hyperelliptic --g 2 --coords=-2,5': (
        0,
        'curve class in the dual of (delta_irr, delta_1): (-399/100, 63/25)\n',
    ),
    'push --map hyperelliptic --g 2 --coords=5,5': (
        0,
        'curve class in the dual of (delta_irr, delta_1): (203/20, 14/5)\n',
    ),
    'push --map hyperelliptic --g 2 --coords=-1,-1': (
        0,
        'curve class in the dual of (delta_irr, delta_1): (-203/100, -14/25)\n',
    ),
    'push --map hyperelliptic --g 3 --coords=1,4,-3': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1): (-1/14, -4, 2)\n',
    ),
    'push --map hyperelliptic --g 3 --coords=2,4,-2': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1): (3/7, 0, 2)\n',
    ),
    'push --map hyperelliptic --g 3 --coords=-6,4,1': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1): (-3/7, -10, 2)\n',
    ),
    'push --map hyperelliptic --g 4 --coords=-5,2,4,-1': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1, delta_2): (1/3, -2, 1, -1/2)\n',
    ),
    'push --map hyperelliptic --g 4 --coords=2,2,-4,2': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1, delta_2): (-1/9, -4, 1, 1)\n',
    ),
    'push --map hyperelliptic --g 4 --coords=-4,-1,-1,-4': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1, delta_2): (-41/18, -10, -1/2, -2)\n',
    ),
    'push --map hyperelliptic --g 5 --coords=-1,-6,3,0,5': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1, delta_2): (20/11, 14, -3, 0)\n',
    ),
    'push --map hyperelliptic --g 5 --coords=4,-5,-1,-5,-5': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1, delta_2): (-83/22, -4, -5/2, -5/2)\n',
    ),
    'push --map hyperelliptic --g 5 --coords=5,2,4,-2,-2': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1, delta_2): (35/22, 14, 1, -1)\n',
    ),
    'push --map hyperelliptic --g 6 --coords=2,5,-3,-5,-4,3': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1, delta_2, delta_3): (-27/13, -10, 5/2, -5/2, 3/2)\n',
    ),
    'push --map hyperelliptic --g 6 --coords=-4,-5,-1,-5,2,-4': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1, delta_2, delta_3): (-111/26, -6, -5/2, -5/2, -2)\n',
    ),
    'push --map hyperelliptic --g 6 --coords=-6,-3,-6,4,-2,-6': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1, delta_2, delta_3): (-157/26, -28, -3/2, 2, -3)\n',
    ),
    'push --map pointed --g 2 --n 1 --target mg --coords=-5,5': (
        0,
        'curve class in the dual of (delta_irr, delta_1): (121/12, -2/3)\n',
    ),
    'push --map pointed --g 2 --n 1 --target mg --coords=-2,-5': (
        0,
        'curve class in the dual of (delta_irr, delta_1): (-121/12, 2/3)\n',
    ),
    'push --map pointed --g 2 --n 1 --target mg --coords=1,2': (
        0,
        'curve class in the dual of (delta_irr, delta_1): (121/30, -4/15)\n',
    ),
    'push --map pointed --g 2 --n 2 --target mg1 --coords=-4,3,-3,4': (
        0,
        'curve class in the dual of (delta_irr, delta_1, omega): (1411/100, -32/25, 1/5)\n',
    ),
    'push --map pointed --g 2 --n 2 --target mg1 --coords=6,3,5,-1': (
        0,
        'curve class in the dual of (delta_irr, delta_1, omega): (409/100, 67/25, 47/15)\n',
    ),
    'push --map pointed --g 2 --n 2 --target mg1 --coords=-5,-6,1,2': (
        0,
        'curve class in the dual of (delta_irr, delta_1, omega): (-807/100, 9/25, -29/10)\n',
    ),
    'push --map pointed --g 4 --n 3 --target mg --coords=-4,-5,-4,5,-3,0': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1, delta_2): (-9/14, 0, 20/7, -2)\n',
    ),
    'push --map pointed --g 4 --n 3 --target mg --coords=-6,-3,2,4,0,-3': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1, delta_2): (1/7, -4, 23/14, 1)\n',
    ),
    'push --map pointed --g 4 --n 3 --target mg --coords=5,-4,4,-5,1,-3': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1, delta_2): (-31/14, -24, 29/28, 2)\n',
    ),
    'push --map pointed --g 5 --n 4 --target mg1 --coords=0,-2,-3,-1,2,4,2,3': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1, delta_2, delta_3, delta_4, omega): (3/2, 8, 9/5, -3/2, 1, 1, 0)\n',
    ),
    'push --map pointed --g 5 --n 4 --target mg1 --coords=-4,1,2,-2,0,-4,4,-6': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1, delta_2, delta_3, delta_4, omega): (-19/9, -22, 32/45, 1, 0, 2, 0)\n',
    ),
    'push --map pointed --g 5 --n 4 --target mg1 --coords=2,3,-5,4,-4,6,-1,-1': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1, delta_2, delta_3, delta_4, omega): (17/9, 24, -58/45, -5/2, -2, -1/2, 0)\n',
    ),
    'push --map pointed --g 7 --n 5 --target mg --coords=5,2,2,-6,-6,1,6,-6,-6,-6': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1, delta_2, delta_3): (-123/22, -30, -3, 205/66, -2)\n',
    ),
    'push --map pointed --g 7 --n 5 --target mg --coords=-2,-3,-6,0,-2,-2,-6,0,-5,1': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1, delta_2, delta_3): (-60/11, -8, -5/2, 343/66, -4)\n',
    ),
    'push --map pointed --g 7 --n 5 --target mg --coords=-5,-3,-6,2,2,3,0,-1,-6,3': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1, delta_2, delta_3): (-1/22, 8, -3, 113/22, -2)\n',
    ),
    'push --map m21 --coords=-1/3,5/2,-7,2/9': (
        0,
        'divisor class on the genus-two pointed space (Delta_irr, Delta_1, W): (1/9, -7, -1/3)\n',
    ),
    'push --map hyperelliptic --g 2 --coords=-3/4,5/7': (
        0,
        'curve class in the dual of (delta_irr, delta_1): (-2111/1400, 239/700)\n',
    ),
    'push --map hyperelliptic --g 5 --coords=1/2,-2,7/3,-5/6,0': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1, delta_2): (49/132, 17/3, -1, -5/12)\n',
    ),
    'push --map pointed --g 2 --n 2 --target mg1 --coords=-1/2,3/5,2,-4/7': (
        0,
        'curve class in the dual of (delta_irr, delta_1, omega): (68/875, 911/875, 363/700)\n',
    ),
    'push --map pointed --g 5 --n 3 --target mg --coords=3/8,-1,0,-5/3,7/2,1/9': (
        0,
        'curve class in the dual of (lambda, delta_irr, delta_1, delta_2): (-1/6, -46/9, 7/4, 121/288)\n',
    ),
}

SPACE = {
    (7, 2): (
        0,
        'space X(7,2)\n'
        'boundary divisors: 8\n'
        'picard number: 7\n'
        'ordered basis: b3, b4, b5, b*2, b*3, b*4, b*5\n'
        'relations: 1\n'
        '  0 = 1 * D2 - 4 * D2_1 - 4 * D2_2 + 20 * D2_12 + 6 * D3 - 6 * D3_1 - 6 * D3_2 + 12 * D3_12\n'
    ),
    (10, 2): (
        0,
        'space X(10,2)\n'
        'boundary divisors: 14\n'
        'picard number: 13\n'
        'ordered basis: b3, b4, b5, b6, b7, b8, b*2, b*3, b*4, b*5, b*6, b*7, b*8\n'
        'relations: 1\n'
        '  0 = 1 * D2 - 7 * D2_1 - 7 * D2_2 + 56 * D2_12 + 6 * D3 - 12 * D3_1 - 12 * D3_2 + 42 * D3_12 + 12 * D4 - 15 * D4_1 - 15 * D4_2 + 30 * D4_12 + 20 * D5 - 16 * D5_1\n'
    ),
    (4, 3): (
        0,
        'space X(4,3)\n'
        'boundary divisors: 3\n'
        'picard number: 1\n'
        'ordered basis: D2_1\n'
        'relations: 2\n'
        '  0 = -1 * D2_2 + 1 * D2_3\n'
        '  0 = -1 * D2_1 + 1 * D2_2\n'
    ),
    (6, 3): (
        0,
        'space X(6,3)\n'
        'boundary divisors: 11\n'
        'picard number: 8\n'
        'ordered basis: D2, D2_1, D2_2, D2_3, D3, D3_1, D3_2, D3_3\n'
        'relations: 3\n'
        '  0 = -1 * D2_2 + 1 * D2_3 + 3 * D2_12 - 3 * D2_13 - 2 * D3_2 + 2 * D3_3\n'
        '  0 = -1 * D2_1 + 1 * D2_2 + 3 * D2_13 - 3 * D2_23 - 2 * D3_1 + 2 * D3_2\n'
        '  0 = 1 * D2 - 2 * D2_1 - 2 * D2_2 + 6 * D2_12 + 6 * D3 - 2 * D3_1 - 2 * D3_2 + 2 * D3_3\n'
    ),
    (9, 3): (
        0,
        'space X(9,3)\n'
        'boundary divisors: 23\n'
        'picard number: 20\n'
        'ordered basis: D2, D2_1, D2_2, D2_3, D3, D3_1, D3_2, D3_3, D3_12, D3_13, D3_23, D3_123, D4, D4_1, D4_2, D4_3, D4_12, D4_13, D4_23, D4_123\n'
        'relations: 3\n'
        '  0 = -1 * D2_2 + 1 * D2_3 + 6 * D2_12 - 6 * D2_13 - 2 * D3_2 + 2 * D3_3 + 5 * D3_12 - 5 * D3_13 - 3 * D4_2 + 3 * D4_3 + 4 * D4_12 - 4 * D4_13\n'
        '  0 = -1 * D2_1 + 1 * D2_2 + 6 * D2_13 - 6 * D2_23 - 2 * D3_1 + 2 * D3_2 + 5 * D3_13 - 5 * D3_23 - 3 * D4_1 + 3 * D4_2 + 4 * D4_13 - 4 * D4_23\n'
        '  0 = 1 * D2 - 5 * D2_1 - 5 * D2_2 + 30 * D2_12 + 6 * D3 - 8 * D3_1 - 8 * D3_2 + 2 * D3_3 + 20 * D3_12 - 5 * D3_13 - 5 * D3_23 + 30 * D3_123 + 12 * D4 - 9 * D4_1 - 9 * D4_2 + 6 * D4_3 + 12 * D4_12 - 8 * D4_13 - 8 * D4_23 + 20 * D4_123\n'
    ),
    (8, 5): (
        0,
        'space X(8,5)\n'
        'boundary divisors: 57\n'
        'picard number: 47\n'
        'ordered basis: none (the boundary classes are not independent enough to provide one here)\n'
    ),
    (7, 7): (
        0,
        'space X(7,7)\n'
        'boundary divisors: 56\n'
        'picard number: 42\n'
        'ordered basis: none (the boundary classes are not independent enough to provide one here)\n'
    ),
    (12, 4): (
        0,
        'space X(12,4)\n'
        'boundary divisors: 66\n'
        'picard number: 60\n'
        'ordered basis: none (the boundary classes are not independent enough to provide one here)\n'
    ),
    (12, 6): (
        0,
        'space X(12,6)\n'
        'boundary divisors: 216\n'
        'picard number: 201\n'
        'ordered basis: none (the boundary classes are not independent enough to provide one here)\n'
    ),
    (12, 10): (
        0,
        'space X(12,10)\n'
        'boundary divisors: 1524\n'
        'picard number: 1479\n'
        'ordered basis: none (the boundary classes are not independent enough to provide one here)\n'
    ),
    (13, 11): (
        0,
        'space X(13,11)\n'
        'boundary divisors: 3059\n'
        'picard number: 3004\n'
        'ordered basis: none (the boundary classes are not independent enough to provide one here)\n'
    ),
    (14, 14): (
        0,
        'space X(14,14)\n'
        'boundary divisors: 8177\n'
        'picard number: 8100\n'
        'ordered basis: none (the boundary classes are not independent enough to provide one here)\n'
    ),
}


@pytest.mark.parametrize("argv", sorted(PUSH))
def test_push_stdout_is_pinned(argv, capsys):
    code, out = PUSH[argv]
    assert cli.main(argv.split()) == code
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("key", sorted(SPACE))
def test_space_stdout_is_pinned(key, capsys):
    n, m = key
    code, out = SPACE[key]
    assert cli.main(["space", "--n", str(n), "--m", str(m)]) == code
    assert capsys.readouterr().out == out


SPACE_DIGESTS = {
    2: "7f75ec416c68bc1276b87e137d5199a3e4c64815f7cff9ef81b39c88767960cd",
    3: "9740d74f4a31846ba5a7a532a0eb90649f419d63815b8d49f908bbe8458ebe84",
}


@pytest.mark.parametrize("m", sorted(SPACE_DIGESTS))
def test_space_stdout_digest_is_pinned(m, capsys):
    digest = hashlib.sha256()
    for n in range(4, 41):
        assert cli.main(["space", "--n", str(n), "--m", str(m)]) == 0, n
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == SPACE_DIGESTS[m]
