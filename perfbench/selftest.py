#!/usr/bin/env python3
"""Self-test of the benchmark: tiny end-to-end runs and checks that must reject.

Usage (from the repository root):

    python3 perfbench/selftest.py

It runs every workload at tiny size with tracing off and on, checks that the
result object names exactly the metrics in BENCHMARK.json, feeds the output
checks a tampered measure document, a tampered atomic document and a
truncated sweep CSV, and runs the benchmark in a directory that holds only
BENCHMARK.json and the benchmark, where it must fail without a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy is imported)
import checks  # noqa: E402
import jobs  # noqa: E402


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)
    print(f"ok  {what}")


def check_result(result: dict, spec: list[dict], label: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(result["correct"] is True, f"{label}: outputs correct")
    expect(result["attempted"] >= 1 and result["failed"] == 0, f"{label}: no call failed")
    expect(list(result["metrics"]) == [m["name"] for m in spec], f"{label}: metric names")
    for m in spec:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"] and math.isfinite(got["value"]),
               f"{label}: {m['name']} = {got['value']:.4g} {got['unit']}")


def tiny_runs(workdir: Path) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in jobs.WORKLOADS:
        for trace in (False, True):
            out = run.run(workload, seed=1, seconds=0.3, trace=trace,
                          workdir=workdir / f"{workload}{int(trace)}", tiny=True)
            expect(out["detail"]["passes"] >= 2, f"{workload}: identical jobs ran twice")
            spec = bench["per_layer"] if trace else bench["end_to_end"]
            check_result(out["result"], spec, f"{workload} trace={int(trace)}")


def first_output(workload: str, workdir: Path):
    """Run the first tiny job of ``workload`` and return it with its output text."""
    _, cli = run.import_program()
    job = jobs.make_jobs(workload, 1, workdir / workload, tiny=True)[0]
    call = job.calls[0]
    code, _, message = run.call_cli(cli, call.command, call.config_path)
    expect(code == 0, f"tiny {workload} {call.command} passes ({message})")
    text = Path(call.output_path).read_text(encoding="utf-8")
    return job, call, text


def rejects(problems: list[str], what: str) -> None:
    expect(bool(problems), f"checks reject {what}: {problems[:1]}")


def tampered_outputs(workdir: Path) -> None:
    job, call, text = first_output("roundtrip", workdir)
    expect(checks.check_output(call.command, text, job, True, run.TOLERANCE) == [],
           "checks accept the untouched measure document")
    doc = json.loads(text)
    doc["mass"] += 1e-6
    rejects(checks.check_measure_document(json.dumps(doc), job, True), "a shifted mass")
    doc = json.loads(text)
    doc["gram_report"]["target"][0][0][0] += 1e-6
    rejects(checks.check_measure_document(json.dumps(doc), job, True), "an edited Gram target")
    doc = json.loads(text)
    doc["gram_report"]["computed"][0][0][0] += 1e-6
    rejects(checks.check_measure_document(json.dumps(doc), job, True),
            "a computed Gram matrix off its target")

    job, call, text = first_output("atomic", workdir)
    doc = json.loads(text)
    doc["atoms"] = doc["atoms"][:-1]
    rejects(checks.check_measure_document(json.dumps(doc), job, True), "a dropped atom")
    doc = json.loads(text)
    doc["atoms"][0][1] *= 1.001
    rejects(checks.check_measure_document(json.dumps(doc), job, True),
            "atom weights that do not sum to the mass")

    job, call, text = first_output("sweep", workdir)
    expect(checks.check_sweep_csv(text, job, run.TOLERANCE) == [], "checks accept the sweep CSV")
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    rejects(checks.check_sweep_csv(truncated, job, run.TOLERANCE), "a truncated sweep CSV")
    lines = text.splitlines()
    fields = lines[-1].split(",")
    fields[2] = repr(float(fields[2]) * 1.01)
    edited = "\n".join(lines[:-1] + [",".join(fields)]) + "\n"
    rejects(checks.check_sweep_csv(edited, job, run.TOLERANCE), "a sweep row with a wrong mass")


def bare_directory(workdir: Path) -> None:
    bare = workdir / "bare"
    bare.mkdir()
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "roundtrip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0, f"without the sources the run exits {proc.returncode}")
    expect('"metrics"' not in proc.stdout, "without the sources no result is printed")


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT))
    try:
        tiny_runs(workdir)
        tampered_outputs(workdir)
        bare_directory(workdir)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
