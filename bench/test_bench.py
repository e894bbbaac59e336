"""Self-tests of the benchmark harness.

    python3 -m pytest bench -q

They run a handful of cheap jobs from the workload pools, so they take a few
seconds.  The tier-1 suite does not collect them (its ``testpaths`` is
``tests``).
"""

from __future__ import annotations

import collections
import json
import math
import shutil
import subprocess
import sys

import pytest

import jobs
import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
GOLDENS = json.loads(run.GOLDENS.read_text())


def _cheap_jobs() -> list[tuple[str, tuple[str, ...]]]:
    """A dozen jobs of every verb the workloads use, each well under 0.1 s."""
    picked = []
    for workload, verb, limit in (
        ("rays", "cone", 3),
        ("rays", "export", 2),
        ("certify", "member", 4),
        ("certify", "counterexample", 2),
        ("paper", "push", 2),
        ("paper", "verify-paper", 1),
    ):
        candidates = [
            argv
            for argv in jobs.pool(workload)
            if argv[0] == verb and not any(f"--n {n}" in " ".join(argv) for n in range(9, 21))
        ]
        picked += [(verb, argv) for argv in candidates[:limit]]
    return picked


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    program = run.import_program()
    outdir = tmp_path_factory.mktemp("out")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("MODULICONES_OUTDIR", str(outdir))
        yield program, outdir


def _run_pass(cli, goldens, tracer=None):
    program, outdir = cli
    return run.run_pass(program, _cheap_jobs(), goldens, outdir, math.inf, tracer)


def test_generator_is_seeded_and_keeps_the_mix():
    for workload in jobs.WORKLOADS:
        first, again, other = (jobs.make_jobs(workload, s) for s in (1, 1, 2))
        assert first == again
        assert first != other
        assert collections.Counter(k for k, _ in first) == collections.Counter(k for k, _ in other)
        assert len(first) >= 100
        pool = set(jobs.pool(workload))
        for _, argv in first:
            assert argv in pool
            assert " ".join(argv) in GOLDENS
            assert not any(t.startswith("-") and t[1:2].isdigit() for t in argv), argv


def test_seed_changes_points_and_parameters():
    for workload in jobs.WORKLOADS:
        assert {a for _, a in jobs.make_jobs(workload, 1)} != {a for _, a in jobs.make_jobs(workload, 2)}


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in BENCHMARK["per_layer"])


def test_passing_jobs_and_times_sum_to_wall(cli):
    done = _run_pass(cli, GOLDENS)
    assert [r.failure for r in done.results] == [None] * len(done.results)
    total = sum(r.seconds for r in done.results)
    # The harness adds only the output check between two jobs.
    assert total <= done.wall <= total + 0.002 * len(done.results) + 0.01 * done.wall


def test_corrupted_golden_raises_fail_frac(cli):
    corrupted = dict(GOLDENS)
    verb, argv = next(j for j in _cheap_jobs() if j[0] == "member")
    key = " ".join(argv)
    corrupted[key] = dict(corrupted[key], sha256="0" * 64)
    done = _run_pass(cli, corrupted)
    assert [r.argv for r in done.results if r.failure] == [argv]
    metrics = run.end_to_end_metrics([done], 0.1)
    assert metrics["ok_frac"] == 1 - 1 / len(done.results)


def test_counterexample_invariant_rejects_a_wrong_functional():
    argv = ("counterexample", "--n", "7")
    good = "\n".join(
        [
            "space X(7,3)",
            "effective class outside the boundary cone: (1, 2)",
            "separating functional: (1, -1)",
            "certificate verified: yes",
        ]
    )
    assert run.check_output(argv, 0, good, {"exit": 0}) is None
    assert run.check_output(argv, 0, good.replace("(1, -1)", "(1, 1)"), {"exit": 0}) is not None
    assert run.check_output(argv, 0, good.replace(": yes", ": NO"), {"exit": 0}) is not None


def test_timeout_counts_as_failure(cli):
    program, outdir = cli
    argv = ("cone", "--which", "nem", "--n", "9", "--m", "1", "--rep", "rays")
    code, _, error = run.run_job(program, argv, outdir, 0.02)
    assert code is None
    assert error is not None and "job limit" in error


def test_traced_self_times_add_up_to_wall(cli):
    tracer = spans.Tracer()
    cones = sys.modules["modulicones.cones"]
    rank = cones.rank
    tracer.install()
    try:
        assert cones.rank is not rank
        done = _run_pass(cli, GOLDENS, tracer)
    finally:
        tracer.uninstall()
    assert cones.rank is rank
    assert all(r.failure is None for r in done.results)
    layers = spans.layer_metrics(tracer.spans, done.wall, spans.cache_stats())
    total = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS) + layers["trace.unattributed_s"]
    assert total == pytest.approx(done.wall, rel=1e-9)
    assert layers["cli.main.calls"] == len(done.results)
    assert {s[4] for s in tracer.spans} == set(range(len(done.results)))
    names = list(run.traced_metrics([done], [(done, layers)]))
    assert names == [m["name"] for m in BENCHMARK["per_layer"]]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "rays", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
