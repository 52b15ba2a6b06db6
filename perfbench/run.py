#!/usr/bin/env python3
"""End-to-end benchmark of the herglotz-measures CLI.

Runs seeded job configs through ``herglotz_measures.cli.main`` in one
process, as a closed loop with a single client, checks every output against
closed forms computed here, and prints the metrics as one JSON object on the
last line of standard output.

Usage (from the repository root):

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` also replays
every job stage by stage (see ``replay.py``) and reports the per-layer
metrics instead; end-to-end numbers never come from a traced run.
"""

from __future__ import annotations

import os

# One BLAS thread for this process and the set-up probes it starts; must be
# set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import jobs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

TOLERANCE = 1e-8  # the CLI default; the configs do not override it
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
# The tail is p90, and an untraced run goes on past --seconds (up to twice
# it) until it has 100 passing calls, so that ten of them lie beyond p90.  A
# fixed percentile keeps the tail from jumping between percentiles as the
# number of passes in a run changes.
TAIL_PERCENTILE = 90.0
TAIL_BEYOND = 10
TAIL_SAMPLES = 100
MAX_RUN_FACTOR = 2
FALLBACK_LADDER = (75.0, 50.0)
MEASURES_PER_CALL = {"generate": 1, "verify": 1, "bounds": 2}
COMMANDS = ("generate", "verify", "bounds", "sweep")


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, no passing call)."""


def import_program():
    """Import ``herglotz_measures`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "herglotz_measures" / "__init__.py").is_file():
        raise BenchmarkError(f"no herglotz_measures sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import herglotz_measures
    from herglotz_measures import cli

    if Path(herglotz_measures.__file__).resolve().parent.parent != SRC:
        raise BenchmarkError(f"imported herglotz_measures from {herglotz_measures.__file__}")
    return herglotz_measures, cli


def call_cli(cli, command: str, config_path: str) -> tuple[int, float, str]:
    """One closed-loop call; returns exit code, wall seconds and stderr text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main([command, "--config", config_path])
        elapsed = time.perf_counter() - start
    return code, elapsed, err.getvalue().strip()


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int, workdir: Path) -> None:
    """Body of a fresh-interpreter probe: import, make configs, one warm-up call."""
    _, cli = import_program()
    job_list = jobs.make_jobs(workload, seed, workdir)
    first = job_list[0].calls[0]
    call_cli(cli, first.command, first.config_path)
    print("ready", flush=True)


def setup_once(workload: str, seed: int, probe_dir: Path) -> float:
    """Seconds from starting a fresh interpreter to its first job being ready."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
            "--seed", str(seed), "--workdir", str(probe_dir)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchmarkError("set-up probe timed out") from None
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchmarkError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    shutil.rmtree(probe_dir, ignore_errors=True)
    return elapsed


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Outputs:
    """Checks each output once per distinct content and enforces determinism."""

    def __init__(self):
        self.first_hash: dict[tuple[str, str], str] = {}
        self.problems_by_output: dict[tuple[str, int], list[str]] = {}

    def check(self, call, job, code: int) -> tuple[list[str], str | None]:
        path = Path(call.output_path)
        if not path.exists():
            return (["exit 0 but no output was written"] if code == 0 else []), None
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        key = (job.job_id, call.command)
        problems = []
        if key in self.first_hash and self.first_hash[key] != digest:
            problems.append("output differs from the first run of the identical job")
        self.first_hash.setdefault(key, digest)
        if (digest, code) not in self.problems_by_output:
            self.problems_by_output[(digest, code)] = checks.check_output(
                call.command, data.decode("utf-8"), job, code == 0, TOLERANCE)
        return problems + self.problems_by_output[(digest, code)], digest


def run_job(cli, outputs: Outputs, job, pass_no: int, records: list) -> None:
    """The job's calls in order, stopping at the first call that exits non-zero."""
    for call in job.calls:
        if records and records[-1]["job"] == job.job_id and records[-1]["code"] != 0:
            return
        Path(call.output_path).unlink(missing_ok=True)
        code, elapsed, message = call_cli(cli, call.command, call.config_path)
        problems, digest = outputs.check(call, job, code)
        records.append({"job": job.job_id, "command": call.command, "pass": pass_no,
                        "seconds": elapsed, "code": code, "message": message,
                        "problems": problems, "digest": digest,
                        "measures": measures_of(call.command, code, problems, call.output_path)})


def measures_of(command: str, code: int, problems: list, output_path: str) -> int:
    if code != 0 or problems:
        return 0
    if command == "sweep":
        return len(Path(output_path).read_text(encoding="utf-8").splitlines()) - 1
    return MEASURES_PER_CALL[command]


def replay_job(replay, tracer, job, pass_no: int, records: list) -> None:
    """Replay the calls ``run_job`` just made; outputs must be byte-identical."""
    for record in [r for r in records if r["job"] == job.job_id and r["pass"] == pass_no]:
        call = next(c for c in job.calls if c.command == record["command"])
        tracer.job_id = f"p{pass_no}.{job.job_id}"
        code, message, elapsed = replay.replay_call(tracer, call.command, call.config_path)
        record["replay_seconds"] = elapsed
        path = Path(call.output_path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        if (code, digest) != (record["code"], record["digest"]):
            record["problems"].append(
                f"replay gave exit {code} and output {digest}, the CLI gave exit "
                f"{record['code']} and output {record['digest']} ({message})")
            record["measures"] = 0


def run_loop(cli, job_lists, seconds: float, setup_probe_fn, tracer=None, replay=None):
    """Whole passes over the job list until ``seconds`` of passes have gone by
    and, untraced, the tail has its samples.

    Pass 1 repeats pass 0 (the determinism check); every other pass runs a
    new variant of the job list, so a run covers several draws.  The set-up
    probes run one before the first pass and one after each pass (the rest
    after the last), so that their median spans the whole run; their time
    does not count towards ``seconds``.
    """
    outputs = Outputs()
    records: list[dict] = []
    setup_times = [setup_probe_fn()]
    passes, loop_s = 0, 0.0
    def enough() -> bool:
        if loop_s < seconds:
            return False
        if tracer is not None or loop_s >= MAX_RUN_FACTOR * seconds:
            return True
        return sum(not failed(r) for r in records) >= TAIL_SAMPLES

    while passes == 0 or not enough():
        start = time.perf_counter()
        for job in job_lists(max(passes - 1, 0)):
            run_job(cli, outputs, job, passes, records)
            if tracer is not None:
                replay_job(replay, tracer, job, passes, records)
        loop_s += time.perf_counter() - start
        passes += 1
        if len(setup_times) < SETUP_PROBES:
            setup_times.append(setup_probe_fn())
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(setup_probe_fn())
    return records, passes, loop_s, setup_times


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float, int]:
    """p90, or the highest lower percentile with ten samples beyond it."""
    k = len(samples)
    for p in (TAIL_PERCENTILE,) + FALLBACK_LADDER:
        if k - math.ceil(p / 100.0 * k) >= TAIL_BEYOND:
            return percentile(samples, p), p, k
    return percentile(samples, 50.0), 50.0, k


def percentile(samples: list[float], p: float) -> float:
    ordered = sorted(samples)
    rank = p / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def failed(record: dict) -> bool:
    return record["code"] != 0 or bool(record["problems"])


def latency_block(records: list[dict]) -> dict:
    samples = [r["seconds"] for r in records if not failed(r)]
    if not samples:
        return {"passing_calls": 0}
    tail_value, tail_p, count = tail(samples)
    return {"p50_s": percentile(samples, 50.0), "tail_s": tail_value,
            "tail_percentile": tail_p, "samples": count}


def end_to_end(records: list[dict], setup_times: list[float]) -> tuple[dict, dict]:
    """The gated metrics plus the per-command latencies printed beside them."""
    overall = latency_block(records)
    if not overall.get("samples"):
        raise BenchmarkError("no call passed, so there is no latency to report")
    by_pass = defaultdict(lambda: [0, 0.0])
    for r in records:
        by_pass[r["pass"]][0] += r["measures"]
        by_pass[r["pass"]][1] += r["seconds"]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "call_p50_s": (overall["p50_s"], "s"),
        "call_tail_s": (overall["tail_s"], "s"),
        # median over passes, so that a burst of load on the machine moves it less
        "measures_per_s": (statistics.median(m / t for m, t in by_pass.values()), "1/s"),
        "passed_frac": (sum(not failed(r) for r in records) / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    per_command = {"call": overall}
    for command in COMMANDS:
        chosen = [r for r in records if r["command"] == command]
        if chosen:
            per_command[command] = latency_block(chosen)
    return metrics, per_command


def failure_list(records: list[dict]) -> list[dict]:
    """Each failing (job, command) once, with its error and how often it failed."""
    counts = Counter()
    first = {}
    for r in records:
        if failed(r):
            key = (r["job"], r["command"])
            counts[key] += 1
            first.setdefault(key, r)
    return [{"job": job, "command": command, "times": counts[(job, command)],
             "exit": first[(job, command)]["code"],
             "error": first[(job, command)]["message"],
             "problems": first[(job, command)]["problems"][:3]}
            for job, command in counts]


def property_shares(job_list) -> dict:
    """Measured share of each workload's named input property."""
    near = sum(max(abs(complex(*z)) for z in job.nodes) > 0.95 for job in job_list)
    shares = {"jobs_max_abs_node_gt_0.95": near / len(job_list)}
    if any(job.sweep for job in job_list):
        gammas = [g for job in job_list if job.sweep for g in checks.sweep_gammas(*job.sweep)]
        shares["gamma_abs_ge_0.9"] = sum(abs(g) >= 0.9 for g in gammas) / len(gammas)
    return shares


def observed_blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib_path in sorted(libs):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_observed": observed_blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "client": "closed loop, 1 client",
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        tiny: bool = False) -> dict:
    """One benchmark run; returns the result object and the printed detail."""
    _, cli = import_program()
    variants: dict[int, list] = {}

    def job_lists(variant: int) -> list:
        if variant not in variants:
            variants[variant] = jobs.make_jobs(workload, seed, workdir / "jobs", variant, tiny)
        return variants[variant]

    job_list = job_lists(0)
    first = job_list[0].calls[0]
    call_cli(cli, first.command, first.config_path)  # warm-up, as in the set-up probes
    probe_ids = itertools.count()

    def setup_probe_fn() -> float:
        return setup_once(workload, seed, workdir / f"probe{next(probe_ids)}")

    tracer = replay_mod = None
    if trace:
        import replay as replay_mod

        tracer = replay_mod.Tracer()
    records, passes, loop_s, setup_times = run_loop(
        cli, job_lists, seconds, setup_probe_fn, tracer, replay_mod)

    attempted = len(records)
    n_failed = sum(failed(r) for r in records)
    # An output the program passed (exit 0) must pass every check.
    correct = not any(r["code"] == 0 and r["problems"] for r in records)
    e2e, per_command = end_to_end(records, setup_times)
    detail = {
        "workload": workload, "env": environment(seed), "passes": passes,
        "variants": len(variants),
        "loop_s": loop_s, "failed_frac": n_failed / attempted,
        "setup_samples_s": setup_times, "per_command": per_command,
        "property_share": property_shares(job_list),
        "failed_calls": failure_list(records),
        "jobs": [job.record() for job in job_list],
    }
    if trace:
        untraced = sum(r["seconds"] for r in records)
        job_times = defaultdict(float)
        for r in records:
            job_times[f"p{r['pass']}.{r['job']}"] += r["replay_seconds"]
        metrics = {name: (value, unit_of(name))
                   for name, value in replay_mod.summarize(tracer, job_times, passes,
                                                           untraced).items()}
        detail["spans"] = len(tracer.spans)
    else:
        metrics = e2e
    result = {"correct": correct, "attempted": attempted, "failed": n_failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return {"result": result, "detail": detail, "e2e": e2e}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("documents.bytes"):
        return "bytes"
    if name.endswith("_max"):
        return "abs_err"
    return "count"


def print_report(out: dict) -> None:
    detail, e2e = out["detail"], out["e2e"]
    print(f"workload {detail['workload']}: {out['result']['attempted']} calls in "
          f"{detail['passes']} passes, {out['result']['failed']} failed "
          f"(failed_frac {detail['failed_frac']:.4f} ratio)")
    print("environment: " + json.dumps(detail["env"], sort_keys=True))
    for name, (value, unit) in e2e.items():
        print(f"  {name} = {value:.6g} {unit}")
    for command, block in detail["per_command"].items():
        if command == "call" or not block.get("samples"):
            continue
        print(f"  {command}_p50_s = {block['p50_s']:.6g} s   {command}_tail_s = "
              f"{block['tail_s']:.6g} s (p{block['tail_percentile']:g} of "
              f"{block['samples']} passing calls)")
    print(f"  input property share: {json.dumps(detail['property_share'])}")
    for fail in detail["failed_calls"]:
        print(f"  failed: {fail['job']} {fail['command']} x{fail['times']} exit "
              f"{fail['exit']}: {fail['error'] or '; '.join(fail['problems'])}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(out["result"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, Path(args.workdir))
            return 0
        workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        try:
            out = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_report(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
