#!/usr/bin/env python3
"""Digest of every benchmark call's output, to show that a change keeps outputs identical.

Runs every ``perfbench/jobs.make_jobs`` config of a checkout (all three
workloads, seed 1, variants 0-2: 210 calls) through ``herglotz_measures.cli.main``
in one process, and prints one JSON line per call: job, command, exit code,
stdout, stderr, warnings and the sha256 of the output file.  The temporary
work directory is printed as ``<work>``, because verify reports embed the
measure path, so the digests of two checkouts compare with ``diff``:

    python3 tools/output_digest.py . > after.txt
    python3 tools/output_digest.py ../parent > before.txt
    diff before.txt after.txt

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
VARIANTS = (0, 1, 2)
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


def digest(checkout: Path, work: Path):
    """Yield one record per call of every benchmark config of ``checkout``."""
    sys.dont_write_bytecode = True  # the checkout is only read
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import jobs
    from herglotz_measures import cli

    if Path(cli.__file__).resolve().parents[2] != checkout:
        raise SystemExit(f"imported the program from {cli.__file__}, not from {checkout}")

    for workload in WORKLOADS:
        for variant in VARIANTS:
            for job in jobs.make_jobs(workload, SEED, work / workload, variant):
                for call in job.calls:
                    record = {"job": f"{workload}/{job.job_id}", "command": call.command}
                    record.update(_run_call(cli, call.command, call.config_path))
                    record["sha256"] = _sha256(Path(call.output_path), work)
                    yield record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", help="repository checkout whose program is run")
    args = parser.parse_args(argv)
    checkout = Path(args.checkout).resolve()
    with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
        work = Path(tmp)
        for record in digest(checkout, work):
            line = json.dumps(record, sort_keys=True).replace(str(work), WORK_TOKEN)
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
