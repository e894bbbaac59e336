import json

import pytest

from modulicones.bridge import mg1_inequality_family
from modulicones.cones import Cone
from modulicones.curves import nem_hrep
from modulicones.porta import (
    PortaError,
    cone_from_json,
    cone_json_dumps,
    cone_to_json,
    latex_inequalities,
    latex_rays,
    porta_read,
    porta_write,
)
from modulicones.spaces import SpaceId


def test_hrep_write_read_write_is_identity():
    cone = Cone.from_hrep(3, [(1, 0, 0), (-1, 2, 0), (0, 0, 1)])
    text = porta_write(cone, "hrep")
    again = porta_write(porta_read(text), "hrep")
    assert text == again


def test_vrep_write_read_write_is_identity():
    cone = Cone.from_vrep(3, [(1, 0, 0), (1, 2, 0), (0, 0, 1)])
    text = porta_write(cone, "vrep")
    again = porta_write(porta_read(text), "vrep")
    assert text == again


def test_nem_hrep_porta_round_trip_bytes():
    cone = nem_hrep(SpaceId(7, 1))
    text = porta_write(cone, "hrep")
    assert text.startswith("DIM = 4\n")
    assert text.count(">= 0") == 9
    assert porta_write(porta_read(text), "hrep") == text


@pytest.mark.parametrize("g, n, target", [(3, 2, "mg1"), (4, 2, "mg"), (6, 5, "mg1")])
def test_vrep_with_lineality_round_trips_on_the_first_write(g, n, target):
    """The trailing pairs ``l, -l`` of a ``CONE_SECTION`` read back as the
    lineality, so the first write is already the stable text."""
    cone = mg1_inequality_family(g, n, target)
    assert cone.lineality
    text = porta_write(cone, "vrep")
    back = porta_read(text)
    assert (back.rays, back.lineality) == (cone.rays, cone.lineality)
    assert porta_write(back, "vrep") == text


@pytest.mark.parametrize("var", ["x0", "x3"])
def test_porta_names_the_valid_variable_range(var):
    with pytest.raises(PortaError, match=rf"line 4: variable {var} is outside x1\.\.x2 \(DIM = 2\)"):
        porta_read(f"DIM = 2\n\nINEQUALITIES_SECTION\n+{var} >= 0\nEND\n")


def test_porta_rejects_unknown_section():
    with pytest.raises(PortaError):
        porta_read("DIM = 2\n\nVALID\nEND\n")


def test_porta_rejects_missing_dim():
    with pytest.raises(PortaError):
        porta_read("INEQUALITIES_SECTION\n+x1 >= 0\nEND\n")


def test_cone_json_round_trip():
    cone = Cone.from_hrep(2, [(1, 0), (-1, 3)])
    assert sorted(cone_to_json(cone)) == ["ambient_dim", "hrep"]
    obj = cone_to_json(cone, "vrep")  # both representations
    back = cone_from_json(json.loads(json.dumps(obj)))
    assert back.inequalities == cone.inequalities
    assert back.rays == cone.rays
    assert cone_json_dumps(back) == cone_json_dumps(cone, "vrep")
    with pytest.raises(ValueError, match="unknown representation"):
        cone_to_json(cone, "rays")


def test_cone_json_rejects_disagreeing_representations():
    # x1, x2 >= 0 is the first quadrant, and (-1, 1) lies outside it
    obj = {
        "ambient_dim": 2,
        "hrep": {"inequalities": [[1, 0], [0, 1]]},
        "vrep": {"rays": [[1, 0], [-1, 1]]},
    }
    with pytest.raises(ValueError, match="describe different cones"):
        cone_from_json(obj)


def test_latex_outputs_mention_every_row():
    cone = Cone.from_hrep(2, [(1, 0), (-1, 3)])
    tex = latex_inequalities(cone)
    assert tex.count(r"\geq 0") == 2
    rays_tex = latex_rays(cone)
    assert rays_tex.count("(") == len(cone.rays)
