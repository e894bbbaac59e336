"""Run one benchmark workload against ``modulicones.cli.main``, in-process.

    python3 bench/run.py --workload rays --seed 1 --seconds 35 --trace 0

One client runs the seeded job list of the workload (see ``jobs.py``) in a
closed loop: one interpreter, one thread, and each job starts only after the
previous one returned.  A *pass* is one run of the whole list; every pass
starts with the package's caches emptied, so every pass does the same work.
Passes repeat while another one still fits in ``--seconds``.  Every job's exit
code and output are checked against ``goldens.json``.  Times are scaled to a
fixed machine speed measured between and inside the jobs (see REFERENCE_S).

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics.  With ``--trace 1`` untraced and traced passes alternate
and the object carries the per-layer metrics of the traced passes (see
``spans.py``) together with the tracing overhead.  The lines before it give
the same metrics as a table, the run's environment and the job failures.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import spans  # noqa: E402

GOLDENS = HERE / "goldens.json"
OUTDIR = ROOT / ".bench_out"

# The slowest job of any workload takes about 6 s.  A job that needs five
# times that has hung or regressed badly, and counts as failed.
JOB_LIMIT_S = 30.0
# No job starts after this many seconds of measuring, so that a run that
# regressed still ends well within three minutes.
DEADLINE_S = 140.0
SETUP_PROBES = 7

# The speed of the shared machine drifts by a quarter and more within a
# minute, for every process alike.  While a pass runs, a fixed slice of the
# kind of work the program does (pure-Python Fraction arithmetic) is timed
# before every job and every REFERENCE_EVERY_S of CPU time, inside long jobs
# too (`Speedometer`).  Each job's time, less the slices that ran inside it, is scaled by
# REFERENCE_S over the median of the slices during and next to the job.
# Times therefore read as seconds on a machine that runs the slice in
# REFERENCE_S, its typical time on the 2-vCPU Xeon the benchmark was defined
# on.  The raw seconds are printed with the environment.
REFERENCE_S = 0.0025
REFERENCE_EVERY_S = 0.1
REFERENCE_NEIGHBOURS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job that ran past its limit.

    A BaseException, so that no ``except Exception`` in the program can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise JobTimeout


class JobResult(NamedTuple):
    kind: str
    argv: tuple[str, ...]
    seconds: float
    failure: str | None
    reference: float  # seconds of the reference slice around this job

    @property
    def scaled(self) -> float:
        """The job's time in reference seconds."""
        return self.seconds * REFERENCE_S / self.reference


class Pass(NamedTuple):
    wall: float  # seconds spent on the job list, reference slices excluded
    gross: float  # the same with the reference slices
    results: list[JobResult]

    @property
    def speed(self) -> float:
        """Factor turning this pass's raw seconds into reference seconds,
        weighted by the time each job took."""
        raw = sum(r.seconds for r in self.results)
        return sum(r.scaled for r in self.results) / raw if raw else 1.0


def reference_slice() -> float:
    """Seconds taken by a fixed slice of Fraction arithmetic.

    Of the loops tried, this one tracked the drift of the program's own job
    times best: their ratio varied by 2 to 4 % where the raw times varied by
    15 to 20 %.
    """
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 300):
        step = Fraction(i % 5 + 1, i % 7 + 1)
        total = (total + step) / 2 if i % 11 == 0 else total + step - total / 3
    return perf_counter() - start


def import_program():
    """``modulicones.cli`` from this checkout's ``src``, never an installed copy."""
    from modulicones import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"modulicones was imported from {cli.__file__}, not from {SRC}")
    return cli


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".bytes_out"):
        return "bytes"
    if name.endswith(("_ratio", "_frac", "_per_ray", "_per_query")):
        return "ratio"
    return "count"


# --------------------------------------------------------------------------
# outputs and their checks


def normalized_output(argv, stdout: str, outdir: Path) -> str:
    """What a job's golden covers: stdout, and for ``export`` the file it wrote.

    The output directory is replaced by a placeholder and the file removed.
    """
    if argv[0] != "export":
        return stdout
    path = Path(stdout.strip())
    if path.parent != outdir:
        return stdout
    try:
        content = path.read_text(encoding="ascii", errors="replace")
    except OSError as exc:
        content = f"unreadable: {exc}"
    path.unlink(missing_ok=True)
    return f"$MODULICONES_OUTDIR/{path.name}\n{content}"


def result_size(text: str) -> int | None:
    """Rays or facets in a PORTA or JSON cone, None for other outputs."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.endswith("_SECTION"):
            return lines.index("END", i) - i - 1
    start = text.find("{")
    if start < 0:
        return None
    try:
        obj = json.loads(text[start:])
    except ValueError:
        return None
    if "vrep" in obj:
        return len(obj["vrep"]["rays"]) + len(obj["vrep"]["lineality"])
    if "hrep" in obj:
        return len(obj["hrep"]["inequalities"]) + len(obj["hrep"]["equations"])
    return None


def passed_checks(text: str) -> set[int]:
    return {int(n) for n in re.findall(r"^PASS  check (\d+)", text, re.MULTILINE)}


def _has_invariant_golden(argv) -> bool:
    """``counterexample --n >= 7`` changes output once the forgetful-pullback
    fix lands, so its check is an invariant rather than a digest."""
    return argv[0] == "counterexample" and int(argv[argv.index("--n") + 1]) >= 7


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_entry(argv, code: int, text: str) -> dict:
    """The golden recorded for one job."""
    if argv[0] == "verify-paper":
        return {"exit": code, "pass": sorted(passed_checks(text))}
    if _has_invariant_golden(argv):
        return {"exit": code}
    return {"exit": code, "sha256": _digest(text), "size": result_size(text)}


def _parse_vector(line: str) -> tuple[Fraction, ...]:
    inner = line[line.index("(") + 1 : line.rindex(")")]
    return tuple(Fraction(x) for x in inner.split(","))


def _check_counterexample(text: str) -> str | None:
    fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    if fields.get("certificate verified") != "yes":
        return "certificate not verified"
    cls = _parse_vector(fields["effective class outside the boundary cone"])
    phi = _parse_vector(fields["separating functional"])
    if len(cls) != len(phi) or sum(a * b for a, b in zip(cls, phi)) >= 0:
        return "printed functional is not negative on the printed class"
    return None


def check_output(argv, code: int, text: str, golden: dict | None) -> str | None:
    """None when the job's outcome matches its golden, else the reason."""
    if golden is None:
        return "no golden recorded for this job"
    if argv[0] == "verify-paper":
        lost = set(golden["pass"]) - passed_checks(text)
        if lost:
            return f"checks {sorted(lost)} passed when recorded and no longer pass"
        expected = 1 if re.search(r"^FAIL ", text, re.MULTILINE) else 0
        return None if code == expected else f"exit code {code} with expected {expected}"
    if code != golden["exit"]:
        return f"exit code {code}, recorded {golden['exit']}"
    if _has_invariant_golden(argv):
        return _check_counterexample(text)
    size = result_size(text)
    if size != golden["size"]:
        return f"result size {size}, recorded {golden['size']}"
    if _digest(text) != golden["sha256"]:
        return "output differs from the recorded one"
    return None


# --------------------------------------------------------------------------
# running jobs


class Speedometer:
    """Times `reference_slice` before every job and, from a SIGPROF handler,
    every REFERENCE_EVERY_S of CPU time, so that samples fall inside long
    jobs too."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end, seconds)
        self._busy = False
        self._index: tuple[list[float], list[float]] = ([], [0.0])  # ends, prefix sums

    def sample(self, signum=None, frame=None) -> None:
        if self._busy:  # the timer fired inside a slice: its time is in that slice
            return
        self._busy = True
        try:
            seconds = reference_slice()
            self.samples.append((perf_counter(), seconds))
        finally:
            self._busy = False

    def __enter__(self) -> "Speedometer":
        self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()

    def _within(self, start: float, end: float) -> tuple[int, int]:
        ends, _ = self._index
        if len(ends) != len(self.samples):
            ends = [e for e, _ in self.samples]
            self._index = ends, list(itertools.accumulate((s for _, s in self.samples), initial=0.0))
        return bisect.bisect_left(ends, start), bisect.bisect_right(ends, end)

    def spent(self, start: float, end: float) -> float:
        """Seconds of the slices that ran between ``start`` and ``end``."""
        lo, hi = self._within(start, end)
        prefix = self._index[1]
        return prefix[hi] - prefix[lo]

    def reference(self, start: float, end: float) -> float:
        """Median slice time during ``start``..``end`` and just around it."""
        lo, hi = self._within(start, end)
        near = self.samples[max(0, lo - REFERENCE_NEIGHBOURS) : hi + REFERENCE_NEIGHBOURS]
        return statistics.median(s for _, s in near)


def run_job(cli, argv, outdir: Path, limit: float) -> tuple[int | None, str, str | None]:
    """(exit code, normalized output, error) of one in-process job."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        error = f"no result after the {limit:.0f} s job limit"
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash in the program is a failed job, not a failed run
        error = f"raised {type(exc).__name__}: {exc}"
    return code, normalized_output(argv, out.getvalue(), outdir), error


def run_pass(cli, job_list, goldens: dict, outdir: Path, deadline: float, tracer=None) -> Pass:
    """Run every job once while the `Speedometer` samples the machine."""
    spans.clear_caches()
    gc.collect()
    timed = []
    with Speedometer() as speed:
        start = perf_counter()
        for number, (kind, argv) in enumerate(job_list):
            speed.sample()
            begin = perf_counter()
            if begin > deadline:
                timed.append((kind, argv, begin, begin, "not started before the run's deadline"))
                continue
            if tracer is not None:
                tracer.job = number
            code, text, error = run_job(cli, argv, outdir, min(JOB_LIMIT_S, deadline - begin))
            end = perf_counter()
            failure = error or check_output(argv, code, text, goldens.get(" ".join(argv)))
            timed.append((kind, argv, begin, end, failure))
        gross = perf_counter() - start
    if tracer is not None:  # take the slices that ran inside a span out of it
        for span in tracer.spans:
            span[2] -= speed.spent(span[1], span[2])
    results = [
        JobResult(kind, argv, end - begin - speed.spent(begin, end), failure, speed.reference(begin, end))
        for kind, argv, begin, end, failure in timed
    ]
    return Pass(gross - speed.spent(start, start + gross), gross, results)


# --------------------------------------------------------------------------
# set-up time and environment


def _probe_setup(workload: str, seed: int) -> None:
    """Child side of `measure_setup`: import, generate the jobs, report when ready."""
    import_program()
    jobs.make_jobs(workload, seed)
    print(repr(time.time()), flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median reference seconds from starting an interpreter to its first job
    being ready."""
    samples, reference = [], [reference_slice()]
    for _ in range(SETUP_PROBES):
        start = time.time()
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--probe-setup", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(child.stdout.split()[-1]) - start)
        reference.append(reference_slice())
    return statistics.median(
        t * 2 * REFERENCE_S / (before + after) for t, before, after in zip(samples, reference, reference[1:])
    )


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    sources = hashlib.sha256()
    for path in sorted((SRC / "modulicones").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _commit(),
        "source_sha256": sources.hexdigest(),
    }


# --------------------------------------------------------------------------
# metrics


def percentile(values, share: float) -> float:
    """Nearest-rank percentile: the smallest value with ``share`` at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


def end_to_end_metrics(passes: list[Pass], setup_s: float) -> dict[str, float]:
    """The end-to-end metrics of a run; job percentiles are taken over the
    jobs of the list, each at its median time over the passes."""
    results = [r for p in passes for r in p.results]
    per_job = [statistics.median(r.scaled for r in same) for same in zip(*(p.results for p in passes))]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall * p.speed for p in passes),
        "job_s.p50": percentile(per_job, 0.5),
        "job_s.p90": percentile(per_job, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - sum(r.failure is not None for r in results) / len(results),
    }


def traced_metrics(untraced: list[Pass], traced: list[tuple[Pass, dict]]) -> dict[str, float]:
    """Median over the traced passes of each layer metric, plus the overhead.

    Times are scaled to reference seconds like the end-to-end ones.
    """
    scaled = [
        {name: value * p.speed if per_layer_unit(name) == "s" else value for name, value in m.items()}
        for p, m in traced
    ]
    out = {name: statistics.median(m[name] for m in scaled) for name in scaled[0]}
    out["trace.untraced_wall_s"] = statistics.median(p.wall * p.speed for p in untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        _probe_setup(args.workload, args.seed)
        return 0

    cli = import_program()
    job_list = jobs.make_jobs(args.workload, args.seed)
    goldens = json.loads(GOLDENS.read_text())
    setup_s = measure_setup(args.workload, args.seed) if args.trace == 0 else None

    outdir = OUTDIR / str(os.getpid())
    outdir.mkdir(parents=True, exist_ok=True)
    os.environ["MODULICONES_OUTDIR"] = str(outdir)
    passes, untraced, traced = [], [], []
    start = perf_counter()
    deadline = start + DEADLINE_S
    try:
        while True:
            tracer = spans.Tracer() if args.trace == 1 and len(passes) % 2 == 1 else None
            if tracer is not None:
                tracer.install()
            try:
                this = run_pass(cli, job_list, goldens, outdir, deadline, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            passes.append(this)
            if tracer is None:
                untraced.append(this)
            else:
                traced.append((this, spans.layer_metrics(tracer.spans, this.wall, spans.cache_stats())))
            elapsed = perf_counter() - start
            need_traced = args.trace == 1 and not traced
            if perf_counter() > deadline or (elapsed + this.gross > args.seconds and not need_traced):
                break
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    all_results = [r for p in passes for r in p.results]
    failures = [r for r in all_results if r.failure is not None]
    if args.trace:
        metrics = traced_metrics(untraced, traced)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end_metrics(passes, setup_s)
        units = END_TO_END_UNITS
    for r in failures[:20]:
        print(f"FAILED {r.kind}: {' '.join(r.argv)} -- {r.failure}", file=sys.stderr)
    info = environment() | {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "jobs_per_pass": len(job_list),
        "job_samples": len(all_results),
        "fail_frac": len(failures) / len(all_results),
        "raw_pass_wall_s": [p.wall for p in passes],
        "pass_wall_s": [p.wall * p.speed for p in passes],
    }
    print(json.dumps({"env": info}, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6f} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(all_results),
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
