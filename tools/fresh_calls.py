#!/usr/bin/env python3
"""CPU time and page faults of each benchmark call, each in its own interpreter.

``perfbench/run.py`` times every ``cli.main`` call inside one long-lived
process.  There, earlier calls have grown the heap and raised glibc's mmap and
trim thresholds, so a change can read faster in the benchmark and still cost
more in the one-command process that the CLI really is.  This tool runs every
call of one perfbench pass (``perfbench/jobs.make_jobs``: one seed, one
variant) as a fresh ``python`` process, one after the other, and reports for
each call its exit code, the user plus system CPU time and the minor page
faults of that process (``getrusage(RUSAGE_CHILDREN)``, taken before and after
it), next to an import-only baseline: a process that imports the program and
exits.

    python3 tools/fresh_calls.py .                      # every workload, full size
    python3 tools/fresh_calls.py . --workload sweep --repeat 3
    python3 tools/fresh_calls.py ../parent --tiny       # the self-test's tiny jobs

As in the benchmark, a job's calls stop at the first one that exits non-zero,
and BLAS is pinned to one thread.  With ``--repeat K`` every process runs K
times and the median of each figure is reported.  The last line is one JSON
object with the totals per workload.  The exit status is 1 when a call ends in
an uncaught exception (a traceback instead of an exit code from ``cli.main``).

The program is imported from ``<checkout>/src`` and the job generator from
``<checkout>/perfbench``; the job files go to a temporary directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("roundtrip", "atomic", "sweep")
#: The first line of an uncaught exception's report, wherever it falls in stderr (warnings
#: or other text may come before it).
TRACEBACK = "Traceback (most recent call last):"
#: Imports the program from argv[1] and, given a command, runs cli.main on the rest.
RUNNER = (
    "import sys; sys.dont_write_bytecode = True; sys.path.insert(0, sys.argv[1]); "
    "from herglotz_measures import cli; "
    "sys.exit(cli.main(sys.argv[2:]) if len(sys.argv) > 2 else 0)"
)


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _run_once(src: Path, argv: list[str]) -> tuple[int, float, int, str]:
    """(exit code, CPU seconds, minor faults, stderr) of one fresh process."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(
        [sys.executable, "-c", RUNNER, str(src), *argv],
        env=_child_env(),
        capture_output=True,
        text=True,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return done.returncode, cpu, after.ru_minflt - before.ru_minflt, done.stderr


def measure(src: Path, argv: list[str], repeat: int) -> dict:
    """Median CPU time and minor faults of ``repeat`` fresh processes running ``argv``."""
    runs = [_run_once(src, argv) for _ in range(repeat)]
    return {
        "code": runs[-1][0],
        "cpu_s": statistics.median(r[1] for r in runs),
        "minflt": int(statistics.median(r[2] for r in runs)),
        "crashed": any(TRACEBACK in r[3] for r in runs),
    }


def run_pass(checkout: Path, workload: str, args, work: Path) -> tuple[list[dict], bool]:
    """One record per call of the pass that ran; and whether any call crashed."""
    import jobs

    records, crashed = [], False
    for job in jobs.make_jobs(workload, args.seed, work / workload, args.variant, args.tiny):
        for call in job.calls:
            result = measure(checkout / "src", [call.command, "--config", call.config_path],
                             args.repeat)
            crashed = crashed or result["crashed"]
            records.append({"job": job.job_id, "command": call.command, **result})
            if result["code"] != 0:
                break
    return records, crashed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", help="repository checkout whose program is run")
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default every workload)")
    parser.add_argument("--seed", type=int, default=1, help="job seed (default 1)")
    parser.add_argument("--variant", type=int, default=0, help="job variant (default 0)")
    parser.add_argument("--tiny", action="store_true", help="the self-test's tiny job set")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="fresh processes per call; the median is reported (default 1)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    checkout = Path(args.checkout).resolve()
    if not (checkout / "src" / "herglotz_measures").is_dir():
        parser.error(f"{checkout} has no src/herglotz_measures")

    sys.path.insert(0, str(checkout / "perfbench"))
    baseline = measure(checkout / "src", [], args.repeat)
    print(f"{'import only':<28} code {baseline['code']}  cpu {baseline['cpu_s']:.3f} s  "
          f"minflt {baseline['minflt']}")
    totals, crashed = {}, baseline["crashed"]
    with tempfile.TemporaryDirectory(prefix="fresh-calls-") as tmp:
        for workload in args.workload or WORKLOADS:
            records, failed = run_pass(checkout, workload, args, Path(tmp))
            crashed = crashed or failed
            for r in records:
                print(f"{workload + '/' + r['job'] + ' ' + r['command']:<28} code {r['code']}  "
                      f"cpu {r['cpu_s']:.3f} s  minflt {r['minflt']}"
                      + ("  CRASHED" if r["crashed"] else ""))
            totals[workload] = {
                "calls": len(records),
                "cpu_s": sum(r["cpu_s"] for r in records),
                "minflt": sum(r["minflt"] for r in records),
                "nonzero_exits": sum(r["code"] != 0 for r in records),
            }
    print(json.dumps({"baseline": {k: baseline[k] for k in ("cpu_s", "minflt")},
                      "workloads": totals, "repeat": args.repeat, "seed": args.seed,
                      "variant": args.variant, "tiny": args.tiny}))
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())
