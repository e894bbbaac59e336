"""Seeded job lists for the three benchmark workloads.

A job is an argv list for ``modulicones.cli.main``.  This module only writes
command lines: it never imports or calls ``modulicones``, so the program sees
nothing of the benchmark but its inputs.

Each workload is a fixed list of *slots*.  A slot names a job kind, how many
jobs of that kind one pass runs, and a finite pool of candidate jobs.  The
seed decides which candidates fill each slot and the order of the whole pass;
it never changes how many jobs of each kind there are, so every seed keeps the
workload's mix and, within a few percent, its cost.  Every candidate of every
pool has a golden output recorded in ``goldens.json``.

Coordinates are always passed as ``--coords=...``: argparse reads a separate
``--coords -1,2`` as an unknown option and exits 2.
"""

from __future__ import annotations

import random
from typing import NamedTuple

WORKLOADS = ("rays", "certify", "paper")

Argv = tuple[str, ...]


class Slot(NamedTuple):
    kind: str
    count: int
    candidates: tuple[Argv, ...]


def _argv(text: str) -> Argv:
    return tuple(text.split())


def _coords(values) -> str:
    return "--coords=" + ",".join(str(v) for v in values)


def _points(tag: str, dim: int, count: int, negative: bool) -> list[list[int]]:
    """``count`` fixed integer points; with ``negative`` one coordinate is < 0.

    The pools are drawn from their own fixed generator, not from the workload
    seed, so that a golden exists for every point a seed can pick.
    """
    rng = random.Random(f"pool:{tag}:{dim}:{negative}")
    points = []
    for _ in range(count):
        p = [rng.randint(0, 6) for _ in range(dim)]
        if not any(p):
            p[rng.randrange(dim)] = 1
        if negative:
            p[rng.randrange(dim)] = -rng.randint(1, 6)
        points.append(p)
    return points


def _nem(n: int, m: int) -> str:
    return f"--which nem --n {n} --m {m}"


# --------------------------------------------------------------------------
# rays: H->V double description (linalg + cones)


def _rays_slots() -> list[Slot]:
    cone = "cone {} --rep rays"
    export_targets = (
        [_nem(n, 1) for n in (6, 7)]
        + [_nem(n, 0) for n in (12, 13)]
        + [f"--which hyperelliptic --g {g}" for g in (4, 5, 6, 7)]
        + ["--which m21-mov"]
    )
    # Twenty identical X(14,0) jobs hold the median job time, with as many
    # cheaper jobs below them as dearer ones above, so that job_s.p50 does not
    # jump between job kinds of different cost from one seed to the next.
    return [
        Slot("nem-x10-1", 1, (_argv(cone.format(_nem(10, 1))),)),
        Slot("nem-x9-1", 2, (_argv(cone.format(_nem(9, 1))),)),
        Slot("nem-x8-1", 30, (_argv(cone.format(_nem(8, 1))),)),
        Slot("nem-small-1", 10, tuple(_argv(cone.format(_nem(n, 1))) for n in (6, 7))),
        Slot("nem-unpointed", 9, tuple(_argv(cone.format(_nem(n, 0))) for n in range(12, 21))),
        Slot("nem-x14-0", 19, (_argv(cone.format(_nem(14, 0))),)),
        Slot(
            "hyperelliptic-rays",
            25,
            tuple(_argv(cone.format(f"--which hyperelliptic --g {g}")) for g in range(3, 8)),
        ),
        Slot(
            "export-json-rays",
            6,
            tuple(_argv(f"export {t} --format json --rep rays") for t in export_targets),
        ),
    ]


# --------------------------------------------------------------------------
# certify: the phase-1 simplex and its certificates


def _member_slots(kind: str, which: str, dim: int, count: int) -> list[Slot]:
    """Half the jobs on nonnegative basis points, half with one negative
    coordinate.  The basis classes are boundary classes, so the first half
    are members; the second half are mostly not.  Each half draws from a pool
    of 20 points; the eff slots take 16 of them, so that the job-time
    percentiles depend little on which points a seed leaves out."""
    slots = []
    for negative in (False, True):
        pool = _points(which, dim, 20, negative)
        slots.append(
            Slot(
                f"{kind}-{'neg' if negative else 'pos'}",
                count // 2,
                tuple(_argv(f"member {which} {_coords(p)}") for p in pool),
            )
        )
    return slots


def _certify_slots() -> list[Slot]:
    slots = []
    for n in range(8, 17):
        slots += _member_slots(f"member-eff-x{n}-2", f"--which eff --n {n} --m 2", 2 * n - 7, 32)
    slots += _member_slots("member-m21-mov", "--which m21-mov", 3, 8)
    slots += _member_slots("member-nef-fixture", "--which nef-fixture --n 7 --m 1", 4, 6)
    slots.append(
        Slot("counterexample", 14, tuple(_argv(f"counterexample --n {n}") for n in range(6, 13)))
    )
    return slots


# --------------------------------------------------------------------------
# paper: class and transport construction plus V->H double description


def _push_candidates() -> tuple[Argv, ...]:
    maps = [("push --map m21", 4)]
    maps += [(f"push --map hyperelliptic --g {g}", g) for g in range(2, 7)]
    maps += [
        (f"push --map pointed --g {g} --n {n} --target {t}", 2 * n)
        for g, n, t in ((2, 1, "mg"), (2, 2, "mg1"), (4, 3, "mg"), (5, 4, "mg1"), (7, 5, "mg"))
    ]
    out = []
    for prefix, dim in maps:
        rng = random.Random(f"pool:{prefix}")
        for _ in range(3):
            out.append(_argv(f"{prefix} {_coords(rng.randint(-6, 6) for _ in range(dim))}"))
    return tuple(out)


def _paper_slots() -> list[Slot]:
    slots = [
        Slot(
            "verify-paper",
            9,
            tuple(_argv(f"verify-paper --sections {g}") for g in (0, 3, 4, 5, 6, 7, 8, 9, 10)),
        ),
        Slot(
            "eff-facets",
            8,
            tuple(_argv(f"cone --which eff --n {n} --m 2 --rep hrep") for n in range(8, 12)),
        ),
    ]
    # g stays within three of n: the family's cost grows with g, and a narrow
    # band keeps the pass cost nearly independent of the seed.
    for n in range(8, 14):
        for target in ("mg", "mg1"):
            low = n + 1 if target == "mg" else n
            slots.append(
                Slot(
                    f"mg1-family-n{n}-{target}",
                    6,
                    tuple(
                        _argv(f"cone --which mg1 --g {g} --n {n} --target {target} --rep hrep")
                        for g in range(low, low + 3)
                    ),
                )
            )
    slots.append(
        Slot(
            "hyperelliptic-facets",
            8,
            tuple(_argv(f"cone --which hyperelliptic --g {g} --rep hrep") for g in range(3, 13)),
        )
    )
    slots.append(Slot("push", 12, _push_candidates()))
    return slots


_SLOTS = {"rays": _rays_slots, "certify": _certify_slots, "paper": _paper_slots}


def slots(workload: str) -> list[Slot]:
    if workload not in _SLOTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _SLOTS[workload]()


def pool(workload: str) -> list[Argv]:
    """Every job any seed can produce for ``workload``."""
    return list(dict.fromkeys(c for slot in slots(workload) for c in slot.candidates))


def make_jobs(workload: str, seed: int) -> list[tuple[str, Argv]]:
    """The pass for ``(workload, seed)`` as ``(kind, argv)`` pairs.

    Each slot draws its candidates in seeded rounds without replacement, so a
    candidate appears ``count // len(pool)`` or one more times.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for slot in slots(workload):
        picked: list[Argv] = []
        while len(picked) < slot.count:
            batch = list(slot.candidates)
            rng.shuffle(batch)
            picked += batch[: slot.count - len(picked)]
        jobs += [(slot.kind, argv) for argv in picked]
    rng.shuffle(jobs)
    return jobs
