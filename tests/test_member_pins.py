"""Exact stdout, stderr and exit code of ``member`` queries, and the parse
of ``--coords``, recorded before integer coordinates stopped going through
`Fraction`.

``MEMBER`` covers one or more queries per selector kind (``eff`` with
``m = 2``, ``nem`` with ``m = 0`` and ``m = 1``, ``m21-mov`` and
``nef-fixture``), with plain ints, signed and zero-padded ints (``+3``,
``-0``, ``007``), negatives, rationals (``1/2``), decimals (``1.5``),
digit-group underscores (``1_000``), non-ASCII digits and padded tokens.
``REJECTED`` holds inputs that exit 2 with one ``error:`` line and no
stdout.  A pin changes only when an independent oracle refutes it.  The
``nef-fixture`` queries on ``X(5,2)`` were recorded once its recorded nef
cone was read in divisor coordinates, which the F-curve oracle confirms.
"""

import re
import sys
from fractions import Fraction

import pytest

from modulicones import cli

MEMBER = {
    'member --which eff --n 8 --m 2 --coords=1,2,0,0,3,0,1,0,0': (
        0,
        'member: yes\ncombination: 1 * (0, 0, 0, 0, 0, 0, 1, 0, 0) + 3 * (0, 0, 0, 0, 1, 0, 0, 0, 0) + 2 * (0, 1, 0, 0, 0, 0, 0, 0, 0) + 1 * (1, 0, 0, 0, 0, 0, 0, 0, 0)\n',
    ),
    'member --which eff --n 8 --m 2 --coords=1,-2,0,0,3,0,1,0,0': (
        1,
        'member: no\nseparating functional: (0, 5, 0, 0, 0, 0, 0, 0, 12)\n',
    ),
    'member --which eff --n 8 --m 2 --coords=1/2,+3,-0,007,1.5,0,0,0,1': (
        0,
        'member: yes\ncombination: 1 * (0, 0, 0, 0, 0, 0, 0, 0, 1) + 3/2 * (0, 0, 0, 0, 1, 0, 0, 0, 0) + 7 * (0, 0, 0, 1, 0, 0, 0, 0, 0) + 3 * (0, 1, 0, 0, 0, 0, 0, 0, 0) + 1/2 * (1, 0, 0, 0, 0, 0, 0, 0, 0)\n',
    ),
    'member --which eff --n 8 --m 2 --coords=-1/2,+3,-0,007,1.5,0,0,0,1': (
        1,
        'member: no\nseparating functional: (2, 0, 0, 0, 0, 5, 0, 0, 0)\n',
    ),
    'member --which eff --n 8 --m 2 --coords= 4 , 0 ,-3/7, 2,0,1_000,0,0,5': (
        1,
        'member: no\nseparating functional: (0, 0, 4, 0, 0, 0, 0, 3, 0)\n',
    ),
    'member --which eff --n 12 --m 2 --coords=3,0,1,0,2,0,0,4,0,1,0,0,6,0,0,2,1': (
        0,
        'member: yes\ncombination: 1 * (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1) + 2 * (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0) + 6 * (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0) + 1 * (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0) + 4 * (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0) + 2 * (0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) + 1 * (0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) + 3 * (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)\n',
    ),
    'member --which eff --n 12 --m 2 --coords=3,0,1,0,2,0,0,-4,0,1,0,0,6,0,0,2,1': (
        1,
        'member: no\nseparating functional: (0, 0, 0, 0, 0, 0, 0, 21, 0, 0, 0, 0, 0, 0, 2, 0, 0)\n',
    ),
    'member --which eff --n 12 --m 2 --coords=5/3,0,1,0,2/9,0,0,4,0,1,0,0,6,0,0,2,-0': (
        0,
        'member: yes\ncombination: 2 * (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0) + 6 * (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0) + 1 * (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0) + 4 * (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0) + 2/9 * (0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) + 1 * (0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) + 5/3 * (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)\n',
    ),
    'member --which eff --n 6 --m 2 --coords=\u0661\u0662,0,-0,1,+2': (
        0,
        'member: yes\ncombination: 2 * (0, 0, 0, 0, 1) + 1 * (0, 0, 0, 1, 0) + 12 * (1, 0, 0, 0, 0)\n',
    ),
    'member --which nem --n 8 --m 0 --coords=1,2,3': (
        0,
        'member: yes\ncombination: 1/3 * (1, 3, 6) + 1/7 * (3, 2, 4) + 1/21 * (5, 15, 9)\n',
    ),
    'member --which nem --n 8 --m 0 --coords=-1,0,0': (
        1,
        'member: no\nseparating functional: (3, -1, 0)\n',
    ),
    'member --which nem --n 8 --m 0 --coords=1/2,+3,-0': (
        1,
        'member: no\nseparating functional: (3, -1, 0)\n',
    ),
    'member --which nem --n 7 --m 1 --coords=1,1,1,1': (
        0,
        'member: yes\ncombination: 1/5 * (0, 2, 1, 2) + 1/15 * (5, 3, 9, 8) + 1/15 * (10, 6, 3, 1)\n',
    ),
    'member --which nem --n 7 --m 1 --coords=007,-2,1.5,3/4': (
        1,
        'member: no\nseparating functional: (0, 3, -1, 0)\n',
    ),
    'member --which m21-mov --coords=1,1,1': (
        0,
        'member: yes\ncombination: 7/10 * (1, 1, 0) + 1/10 * (3, 3, 10)\n',
    ),
    'member --which m21-mov --coords=-1/3,2,007': (
        1,
        'member: no\nseparating functional: (6, 19, -6)\n',
    ),
    'member --which m21-mov --coords=1.5,-0,+3': (
        1,
        'member: no\nseparating functional: (-3, 13, -3)\n',
    ),
    'member --which nef-fixture --n 7 --m 1 --coords=1,2,3,4': (
        1,
        'member: no\nseparating functional: (0, 1, 0, -1)\n',
    ),
    'member --which nef-fixture --n 7 --m 1 --coords=-1,2,3,4': (
        1,
        'member: no\nseparating functional: (1, 1, 0, -1)\n',
    ),
    'member --which nef-fixture --n 7 --m 1 --coords=1/2,+3,-0,007': (
        1,
        'member: no\nseparating functional: (-3, -3, 17, -3)\n',
    ),
    # b*_2 meets the F-curve {1,3}|{2}|{4}|{5} in -1, so it is not nef
    'member --which nef-fixture --n 5 --m 2 --coords=0,1,0': (
        1,
        'member: no\nseparating functional: (1, -1, 2)\n',
    ),
    'member --which nef-fixture --n 5 --m 2 --coords=0,1,2': (
        0,
        'member: yes\ncombination: 1 * (0, 1, 2)\n',
    ),
}


REJECTED = {
    'member --which eff --n 8 --m 2 --coords=1e99999,0,0,0,0,0,0,0,0': (
        2,
        "error: cannot parse coordinates '1e99999,0,0,0,0,0,0,0,0': a decimal exponent exceeds 4300\n",
    ),
    'member --which m21-mov --coords=1,abc,2': (
        2,
        "error: cannot parse coordinates '1,abc,2': Invalid literal for Fraction: 'abc'\n",
    ),
    'member --which m21-mov --coords=1,,2': (
        2,
        "error: cannot parse coordinates '1,,2': Invalid literal for Fraction: ''\n",
    ),
    'member --which m21-mov --coords=1/0,1,1': (
        2,
        "error: cannot parse coordinates '1/0,1,1': Fraction(1, 0)\n",
    ),
    'member --which m21-mov --coords=0x10,1,1': (
        2,
        "error: cannot parse coordinates '0x10,1,1': Invalid literal for Fraction: '0x10'\n",
    ),
    'member --which m21-mov --coords=+-3,1,1': (
        2,
        "error: cannot parse coordinates '+-3,1,1': Invalid literal for Fraction: '+-3'\n",
    ),
    'member --which m21-mov --coords=1,2': (
        2,
        'error: expected a vector of length 3, got 2\n',
    ),
    'member --which m21-mov --coords=1,2,3,4': (
        2,
        'error: expected a vector of length 3, got 4\n',
    ),
    'member --which eff --n 8 --m 2 --coords=1,2,3': (
        2,
        'error: expected a vector of length 9, got 3\n',
    ),
}


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _argv(key):
    verb, rest = key.split(" ", 1)
    flags, coords = rest.split(" --coords=")
    return [verb, *flags.split(), f"--coords={coords}"]


@pytest.mark.parametrize("key", list(MEMBER))
def test_member_output_is_pinned(capsys, key):
    assert _run(capsys, _argv(key)) == (*MEMBER[key], "")


@pytest.mark.parametrize("key", list(REJECTED))
def test_rejected_member_input_is_pinned(capsys, key):
    code, err = REJECTED[key]
    assert _run(capsys, _argv(key)) == (code, "", err)


BIG = "9" * 5000


@pytest.mark.parametrize("sign", ["", "-", "+"])
def test_an_integer_past_the_digit_limit_is_rejected(capsys, sign):
    if sys.get_int_max_str_digits() != 4300:
        pytest.skip("the recorded message names the default digit limit")
    text = f"1,{sign}{BIG},1"
    err = (
        f"error: cannot parse coordinates {text!r}: Exceeds the limit (4300 digits) for "
        "integer string conversion: value has 5000 digits; use "
        "sys.set_int_max_str_digits() to increase the limit\n"
    )
    assert _run(capsys, ["member", "--which", "m21-mov", f"--coords={text}"]) == (2, "", err)


ACCEPTED = [
    "0", "-0", "+0", "+3", "-12", "007", "-007", " 5 ", "\t42\n",
    "1/2", "-3/7", "+4/6", "1.5", "-.25", "1e5", "1E-2", "2.5e+3",
    "1_000", "1_000/3", "\u0661\u0662", "\u0663/\u0664", "\uff17",
    "9" * 4300, "-" + "9" * 4300, "+" + "9" * 4300,
]


@pytest.mark.parametrize("token", ACCEPTED, ids=range(len(ACCEPTED)))
def test_parse_matches_fraction(token):
    (value,) = cli._parse_coords(token)
    assert value == Fraction(token)
    # a plain ASCII integer comes back as an int, anything else as a Fraction
    plain = re.fullmatch(r"[+-]?[0-9]+", token.strip()) is not None
    assert type(value) is (int if plain else Fraction)


def test_parse_splits_on_commas_and_keeps_order():
    assert cli._parse_coords("1, 2/3 ,-4,007,+0,1.5") == (
        1, Fraction(2, 3), -4, 7, 0, Fraction(3, 2)
    )
