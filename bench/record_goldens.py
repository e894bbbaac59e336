"""Record the golden outcome of every job any seed can produce.

    python3 bench/record_goldens.py

Runs each job in the pool of every workload once, in-process, and writes
``goldens.json``: exit code, output digest and result size per job (an
invariant marker for the jobs checked by invariant, see ``run.py``).  The
goldens were recorded from the package as it stood when the benchmark was
defined.  Record them again only for an output change that has been shown
to be a fix, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
from jobs import WORKLOADS, pool


def main() -> int:
    cli = run.import_program()
    outdir = run.OUTDIR / "record"
    outdir.mkdir(parents=True, exist_ok=True)
    os.environ["MODULICONES_OUTDIR"] = str(outdir)
    goldens = {}
    try:
        for workload in WORKLOADS:
            for argv in pool(workload):
                start = time.perf_counter()
                code, text, error = run.run_job(cli, argv, outdir, 600.0)
                seconds = time.perf_counter() - start
                if error is not None:
                    raise SystemExit(f"{' '.join(argv)}: {error}")
                goldens[" ".join(argv)] = run.golden_entry(argv, code, text)
                print(f"{seconds:8.3f} s  exit {code}  {' '.join(argv)}", file=sys.stderr)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
