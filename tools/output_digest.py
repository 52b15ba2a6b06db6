#!/usr/bin/env python3
"""Digest of every benchmark call's output, to show that a change keeps outputs identical.

Runs every ``perfbench/jobs.make_jobs`` config of a checkout (all three
workloads, seed 1, variants 0 to K-1: 70 calls per variant, so the default
``--variants 3`` is 210 calls) through ``herglotz_measures.cli.main`` in one
process, and prints one JSON line per call: job, command, exit code, stdout,
stderr, warnings and the sha256 of the output file.  The temporary work
directory is printed as ``<work>``, because verify reports embed the measure
path, so the digests of two checkouts compare with ``diff``:

    python3 tools/output_digest.py . > after.txt
    python3 tools/output_digest.py ../parent > before.txt
    diff before.txt after.txt
    python3 tools/output_digest.py --compare before.txt after.txt

``--compare`` lists the calls whose stdout or output sha256 moved (a new
summation order moves last digits) and exits 1 when any call's exit code,
stderr or warnings differ, or when the two digests do not hold the same calls.

The program is imported from ``<checkout>/src`` and the job generator from
``<checkout>/perfbench``; neither directory is written to.
"""

from __future__ import annotations

import os

# One BLAS thread, as in the benchmark; must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

SEED = 1
DEFAULT_VARIANTS = 3
WORKLOADS = ("roundtrip", "atomic", "sweep")
WORK_TOKEN = "<work>"


def _sha256(path: Path, work: Path) -> str | None:
    if not path.is_file():
        return None
    data = path.read_bytes().replace(str(work).encode(), WORK_TOKEN.encode())
    return hashlib.sha256(data).hexdigest()


def _run_call(cli, command: str, config_path: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([command, "--config", config_path])
            except Exception as exc:  # an uncaught error is an outcome to compare too
                code = f"raised {type(exc).__name__}: {exc}"
    return {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }


def digest(checkout: Path, work: Path, variants: int = DEFAULT_VARIANTS):
    """Yield one record per call of every benchmark config of ``checkout``, variants 0 to K-1."""
    sys.dont_write_bytecode = True  # the checkout is only read
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import jobs
    from herglotz_measures import cli

    if Path(cli.__file__).resolve().parents[2] != checkout:
        raise SystemExit(f"imported the program from {cli.__file__}, not from {checkout}")

    for workload in WORKLOADS:
        for variant in range(variants):
            for job in jobs.make_jobs(workload, SEED, work / workload, variant):
                for call in job.calls:
                    record = {"job": f"{workload}/{job.job_id}", "command": call.command}
                    record.update(_run_call(cli, call.command, call.config_path))
                    record["sha256"] = _sha256(Path(call.output_path), work)
                    yield record


def compare(before_path: str, after_path: str) -> int:
    """Print the calls whose outcome or output moved; 1 if an exit code, stderr or warning did."""
    before, after = (
        [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]
        for path in (before_path, after_path)
    )
    calls = [(r["job"], r["command"]) for r in before]
    if calls != [(r["job"], r["command"]) for r in after]:
        print(f"the digests hold different calls ({len(before)} and {len(after)})")
        return 1
    failed = False
    for old, new in zip(before, after):
        changed = [key for key in ("code", "stderr", "warnings") if old[key] != new[key]]
        moved = [key for key in ("stdout", "sha256") if old[key] != new[key]]
        if changed:
            failed = True
            print(f"CHANGED {' '.join(changed)}: {old['job']} {old['command']}")
        elif moved:
            print(f"moved {' '.join(moved)}: {old['job']} {old['command']}")
    verdict = "FAIL" if failed else "same exit codes, stderr and warnings"
    print(f"{len(before)} calls compared: {verdict}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", help="repository checkout whose program is run")
    parser.add_argument(
        "--variants",
        type=int,
        default=DEFAULT_VARIANTS,
        metavar="K",
        help=f"digest variants 0 to K-1 of every workload (default {DEFAULT_VARIANTS})",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("BEFORE", "AFTER"), help="compare two digest files instead"
    )
    args = parser.parse_args(argv)
    if (args.checkout is None) == (args.compare is None):
        parser.error("give either a checkout or --compare BEFORE AFTER")
    if args.compare:
        return compare(*args.compare)
    if args.variants < 1:
        parser.error("--variants must be at least 1")
    checkout = Path(args.checkout).resolve()
    with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
        work = Path(tmp)
        for record in digest(checkout, work, args.variants):
            line = json.dumps(record, sort_keys=True).replace(str(work), WORK_TOKEN)
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
