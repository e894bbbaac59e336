"""SHA-256 pins of the files ``export --format json`` writes.

A JSON export carries the representation a cone was built from plus the one
``--rep`` asks for, so ``--rep hrep`` and ``--rep rays`` give different files
for the V-built cones (eff, m21-mov, nef-fixture) and for the H-built ones
(nem, hyperelliptic).  The bench goldens hold only ``--rep rays`` JSON for
some of these; the digests below pin both, and were recorded before a `Cone`
stopped storing the representations it computes.
"""

import hashlib

import pytest

from modulicones import cli

PINS = {
    ("eff --n 8 --m 2", "hrep"): "d2358651d34d21821cc0b68572a1080a804f5e2bf1fa36a5af0fa4eb7c5a3274",
    ("eff --n 8 --m 2", "rays"): "5c18018ef5c49142c704afd4c5b987ed6989485dacaddaa8c1a592ebdd2a832b",
    ("nem --n 7 --m 1", "hrep"): "6113bfa9649a8e6c1c7bb1f1c4121a01c0acb850f6229d1f7f02e34c54553be1",
    ("nem --n 7 --m 1", "rays"): "d4f556f9840f7fbee1c23477029967f14bf4409ab6a2a27907d8fbe65a955b4e",
    ("m21-mov", "hrep"): "e11132cfc1cfdde79916a4ff2af14e2fdb1823f232ffd97b31b59fb9aee479ac",
    ("m21-mov", "rays"): "71e8d8ad941f82c4a1fd03d2a1f7198e135fdb297a1dd96c889de8300081b111",
    ("hyperelliptic --g 4", "hrep"): "ed70efb146c0a2747bd5fd2a87aa44c6dffe80c0fce7e22f82c4d346a805129b",
    ("hyperelliptic --g 4", "rays"): "17f97756bc04267268cf20654c573755701f489cf19e0c6e55703415abd814c2",
    ("nef-fixture --n 7 --m 1", "hrep"): "7c554cb1fad5cc9e4b95d5b4c235311324b08787c03c51947fade21c0cdc4be3",
    ("nef-fixture --n 7 --m 1", "rays"): "451ffd42db361ea16541e74e3dbc22ab5cfd1d4c71cd8746bf71a2c148ecdda3",
}


@pytest.mark.parametrize("selector, rep", sorted(PINS), ids=lambda x: x.replace(" --", "-").replace(" ", ""))
def test_json_export_is_pinned(tmp_path, capsys, selector, rep):
    out = tmp_path / "cone.json"
    argv = ["export", "--which", *selector.split(), "--rep", rep, "--format", "json", "--out", str(out)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == f"{out}\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINS[selector, rep]
