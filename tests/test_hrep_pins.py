"""SHA-256 pins of the PORTA text of inequality lists.

``cone --which nem --m 1 --rep hrep`` prints these bytes.  The ray pins in
``test_dd_pins.py`` do not see the row order, because double description
sorts its input rows, so the order in which `nem_hrep` writes its rows is
pinned here.  The digests were recorded before the reduced rows were read
off the closed form that `nem_xn1_full_rows` shares.  ``POINTED_PIN`` is one
digest over the PORTA text of every ``X(n, 1)`` with ``5 <= n <= 40`` in
turn, and ``FULL_ROWS_PIN`` one over the keys, order and int rows of
`nem_xn1_full_rows` for ``5 <= n <= 24``; both were recorded while the
reduced and the full system still walked the rows in two loops of their
own, and they hold now that both read one generator.  ``UNPOINTED_PIN``
covers the unpointed rows the same way, one digest over the PORTA text of
every ``X(n, 0)`` with ``6 <= n <= 40`` in turn; it was recorded while those
rows were still written out apart from the curve classes ``C_k``.

``cone --which eff --rep hrep`` prints the facets of a simplicial (m <= 1) or
circuit (m = 2) cone.  Those digests were recorded while the facets came
from double description with an adjacency test on every row and a final
rank sweep.  They held while a separate closed form wrote the facets down
from one inverse, and they hold now that double description answers these
cones from its start and at most one row after it, with no rank sweep.
"""

import hashlib

import pytest

from modulicones import cli
from modulicones.curves import nem_hrep, nem_xn1_full_rows
from modulicones.porta import porta_write
from modulicones.spaces import SpaceId

PINS = {
    5: "8978c13ab79b09c5f78f4776c0863091a2ab7404cfdc839ffd52bf2535c7225e",
    6: "e5a760b162f143f2aaf28dbb57cfe5312ee2ba716ce1e4f5dc28eed2d32047fd",
    7: "53b89a6b5a8abc4537a6ae6a6d9cce98ee2732fba1eb3ea5ce0d988e84d0ed5e",
    8: "f908000b2e0989d597cbf84ba9b0203bc26fde83d834501d3a266118ec6b19c0",
    9: "5af299152b3bffbf50fbd572c7ed626656785dac621750ba9be1d755ebf52517",
    10: "51d151627a152cd1d1a4966acef6b24223b9b8e989401755e7dfac9425b1488f",
    11: "5ca196789148e091f4d00780acb2bf08b73519ac30c7f67b65d155521ce1ac77",
    12: "b80e67db82fcc31cbefc98b31e8b2be898c555bac40cee2a7eb7ea071c11d624",
    13: "6f522c35803ad12c3566b73305c9483e3c34326c7d970d46eafecb66ce69c6b5",
    14: "702c50affa1b04da9cc3523e0d365978119f06daf44be916b949af1453cfe862",
}


@pytest.mark.parametrize("n", sorted(PINS))
def test_pointed_nem_hrep_text_is_pinned(n):
    text = porta_write(nem_hrep(SpaceId(n, 1)), "hrep")
    assert hashlib.sha256(text.encode()).hexdigest() == PINS[n]


POINTED_PIN = "da3b51cf083d67615f430b48d70d3c51d73cdd56554100398a19523a953a1e54"


def test_pointed_nem_hrep_text_is_pinned_to_forty_points():
    digest = hashlib.sha256()
    for n in range(5, 41):
        digest.update(porta_write(nem_hrep(SpaceId(n, 1)), "hrep").encode())
    assert digest.hexdigest() == POINTED_PIN


FULL_ROWS_PIN = "180ba8d99cb2627a7de1db6f3cc2540dec0f10269f0e18c5d7fa1fe0c4f018d3"


def test_full_pointed_nem_rows_are_pinned():
    rows = repr([list(nem_xn1_full_rows(n).items()) for n in range(5, 25)])
    assert hashlib.sha256(rows.encode()).hexdigest() == FULL_ROWS_PIN


UNPOINTED_PIN = "3fbc3f9c0371304f964c35fa81a7b41449a8690d473a1e60beb51f71464dcc8e"


def test_unpointed_nem_hrep_text_is_pinned():
    digest = hashlib.sha256()
    for n in range(6, 41):
        digest.update(porta_write(nem_hrep(SpaceId(n, 0)), "hrep").encode())
    assert digest.hexdigest() == UNPOINTED_PIN


EFF_PINS = {
    (16, 2): "6d62181e79e3f3903fa84c1ddef4f8a3982115e7cc8320b95d5fbd9654bc2a0d",
    (40, 2): "e29effd16152fa11438738743002f5c003e1fcde0c0b881689f8179a7e97f8a5",
    (200, 0): "4f57fe5873b02265224445f78ab52df3055829b0fb073af5ee3e120ef5103cfc",
}


@pytest.mark.parametrize("n, m", sorted(EFF_PINS))
def test_eff_hrep_stdout_is_pinned(n, m, capsys):
    assert cli.main(["cone", "--which", "eff", "--n", str(n), "--m", str(m), "--rep", "hrep"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == EFF_PINS[n, m]
