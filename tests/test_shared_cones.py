"""Every named cone is one shared value per argument per process.

A repeated query is answered by the cone the first one built, so it reuses
that cone's conversions and prints the same bytes; arguments that raise are
not cached, and the mapping `m21_cones` returns is read-only.
"""

import contextlib
import io
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from modulicones import bridge, cli, cones, verify
from modulicones.bridge import (
    hyperelliptic_pullback_cone,
    m21_cones,
    m21_moving_cone,
    mg1_inequality_family,
    mg1_witnesses,
)
from modulicones.curves import eff_cone, nem_hrep
from modulicones.spaces import SpaceId

from conftest import clear_caches
from test_cli import argument_lists, exit_code


@pytest.mark.parametrize(
    "build",
    [
        lambda: eff_cone(SpaceId(8, 2)),
        lambda: nem_hrep(SpaceId(8, 1)),
        lambda: nem_hrep(SpaceId(10, 0)),
        lambda: hyperelliptic_pullback_cone(4),
        lambda: mg1_inequality_family(5, 4, "mg1"),
        lambda: mg1_inequality_family(4, 3),
        lambda: m21_cones(),
        lambda: m21_moving_cone(),
        lambda: cli._nef_fixture_cone(SpaceId(7, 1)),
        lambda: cli._nef_fixture_cone(SpaceId(5, 2)),
    ],
    ids=[
        "eff-x8-2", "nem-x8-1", "nem-x10-0", "hyperelliptic-g4", "mg1-g5-n4-mg1", "mg1-g4-n3-mg",
        "m21-cones", "m21-mov", "nef-fixture-x7-1", "nef-fixture-x5-2",
    ],
)
def test_equal_arguments_share_one_value(build):
    assert build() is build()


def test_the_moving_cone_has_one_definition():
    args = cli._build_parser().parse_args(["cone", "--which", "m21-mov"])
    assert cli._select_cone(args) == (m21_moving_cone(), "m21-mov")
    assert verify.m21_moving_cone is bridge.m21_moving_cone is m21_moving_cone


def _counted_main(capsys, argv):
    """(stdout, exit code, dual_description calls) of one in-process run."""
    calls = 0
    real = cones.dual_description

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    with mock.patch.object(cones, "dual_description", counted):
        code = cli.main(list(argv))
    return capsys.readouterr().out, code, calls


@pytest.mark.parametrize(
    "argv",
    [
        ("cone", "--which", "nem", "--n", "9", "--m", "1", "--rep", "rays"),
        ("cone", "--which", "mg1", "--g", "5", "--n", "4", "--target", "mg1", "--rep", "hrep"),
        ("member", "--which", "m21-mov", "--coords=1,1,1"),
        ("member", "--which", "m21-mov", "--coords=-1,0,0"),
        ("member", "--which", "nef-fixture", "--n", "7", "--m", "1", "--coords=1,2,3,4"),
    ],
    ids=["nem-rays", "mg1-hrep", "m21-mov-member", "m21-mov-nonmember", "nef-fixture-member"],
)
def test_a_repeated_query_converts_nothing_and_prints_the_same_bytes(capsys, argv):
    first, code, _ = _counted_main(capsys, argv)
    second, again, calls = _counted_main(capsys, argv)
    assert first and second == first and again == code
    assert calls == 0


def test_the_first_query_does_convert(capsys):
    # the counter sees the conversions the repeated query is spared
    _, _, calls = _counted_main(capsys, ("cone", "--which", "nem", "--n", "9", "--m", "1", "--rep", "rays"))
    assert calls >= 1


def test_returned_mappings_are_read_only():
    shared = m21_cones()
    with pytest.raises(TypeError):
        shared["eff"] = shared["nef"]
    assert set(m21_cones()) == {"eff", "push_nem", "push_nef", "nef"}


def test_each_witness_call_builds_its_own_dict():
    # the witnesses are not cached: an edit by one caller reaches no other
    witnesses = mg1_witnesses(5, 4, "mg1")
    expected = dict(witnesses)
    witnesses.clear()
    assert mg1_witnesses(5, 4, "mg1") == expected


def _outcome(argv):
    """(stdout, stderr, exit code) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = exit_code(list(argv))
    return out.getvalue(), err.getvalue(), code


@settings(deadline=None, max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lists=st.lists(argument_lists(), min_size=2, max_size=3))
def test_no_answer_depends_on_the_lists_run_before_it(lists, tmp_path, monkeypatch):
    monkeypatch.setenv("MODULICONES_OUTDIR", str(tmp_path))
    clear_caches()
    in_order = [_outcome(argv) for argv in lists]
    alone = []
    for argv in lists:
        clear_caches()
        alone.append(_outcome(argv))
    assert in_order == alone


def test_a_float_genus_still_raises_after_the_int_is_cached():
    cone = hyperelliptic_pullback_cone(3)
    with pytest.raises(TypeError):
        hyperelliptic_pullback_cone(3.0)
    assert hyperelliptic_pullback_cone(3) is cone


def test_a_float_space_raises_cold_and_after_the_int_is_cached():
    # 9.0 == 9 and hash(9.0) == hash(9): a SpaceId that took the float would
    # be answered from the int's cache entry once that exists
    with pytest.raises(TypeError):
        nem_hrep(SpaceId(9.0, 1))
    cone = nem_hrep(SpaceId(9, 1))
    with pytest.raises(TypeError):
        nem_hrep(SpaceId(9.0, 1))
    assert nem_hrep(SpaceId(9, 1)) is cone


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: hyperelliptic_pullback_cone(1), ValueError),
        (lambda: nem_hrep(SpaceId(5, 0)), ValueError),
        (lambda: nem_hrep(SpaceId(8, 2)), ValueError),
        (lambda: mg1_inequality_family(4, 1), ValueError),
        (lambda: mg1_inequality_family(4, 3, "mg2"), ValueError),
        (lambda: cli._nef_fixture_cone(SpaceId(9, 3)), ValueError),
    ],
)
def test_an_invalid_argument_raises_on_every_call(call, error):
    for _ in range(3):
        with pytest.raises(error):
            call()
