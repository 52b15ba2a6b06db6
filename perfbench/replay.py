"""Traced replay: each job re-run stage by stage through public functions.

The replay calls the functions each ``cli`` handler calls, in the same
order, and records a span around every call.  Where a public function calls
another public function, the inner call is timed again as its own child step
on the same inputs, right after the parent returns; the parent's self time
is its span minus those child steps.  Nothing inside ``src/`` is patched.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from herglotz_measures import analytic, cli, documents, measure, verify
from herglotz_measures.errors import HerglotzMeasureError, SchemaError

# Stages whose time counts as ``<name>.busy_s``; the parents also get ``.self_s``.
STAGES = (
    "cli.load_job_config",
    "analytic.param_certify",
    "measure.build_measure",
    "measure.boundary_density",
    "measure.total_mass",
    "measure.find_atoms",
    "verify.verify_membership",
    "verify.gram_target",
    "verify.check_phi_conditions",
    "verify.extremal_measures",
    "documents.render",
    "documents.parse",
    "documents.sweep_csv",
)
PARENTS = (
    "cli.load_job_config",
    "measure.build_measure",
    "verify.verify_membership",
    "verify.extremal_measures",
)
COUNTS = (
    "measure.build_measure.calls",
    "measure.build_measure.failed",
    "measure.grid_points",
    "measure.find_atoms.atoms",
    "verify.cauchy_evals",
    "documents.bytes_written",
    "documents.bytes_read",
)
MAXIMA = (
    "measure.atom_residual_max",
    "verify.gram_error_max",
    "verify.phi_residual_max",
)


class Tracer:
    """Spans and counts kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.job_id = ""

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record one stage call; ``parent`` defaults to the enclosing span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = {"id": len(self.spans), "name": name, "job": self.job_id,
                  "parent": parent, "start": time.perf_counter(), "end": None,
                  "failed": False}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        except Exception:
            record["failed"] = True
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], float(value))


class _Replay:
    """Replays one job's calls; collects measures and reports for diagnostics."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        self.atomic_measures: list = []

    # -- child steps -------------------------------------------------------

    def _build_children(self, parent: dict, nodes, param, grid) -> None:
        if param.is_inner:
            with self.t.span("measure.find_atoms", parent["id"]):
                atoms = measure.find_atoms(nodes, param)
            self.t.counts["measure.find_atoms.atoms"] += len(atoms)
            built = measure.GeneratedMeasure(nodes, param, grid, np.zeros(grid.size), atoms,
                                             measure.MeasureKind.PURELY_ATOMIC)
            self.atomic_measures.append(built)
        else:
            with self.t.span("measure.boundary_density", parent["id"]):
                density, flagged = measure.boundary_density(nodes, param, grid)
            if flagged.any():
                return  # build_measure raises before it takes the mass
            built = measure.GeneratedMeasure(nodes, param, grid, density, (),
                                             measure.MeasureKind.ABSOLUTELY_CONTINUOUS)
        with self.t.span("measure.total_mass", parent["id"]):
            measure.total_mass(built)

    def build(self, nodes, param, grid_size: int, parent_id: int | None = None):
        self.t.counts["measure.build_measure.calls"] += 1
        self.t.counts["measure.grid_points"] += grid_size
        try:
            with self.t.span("measure.build_measure", parent_id) as parent:
                result = measure.build_measure(nodes, param, grid_size)
        except HerglotzMeasureError:
            self.t.counts["measure.build_measure.failed"] += 1
            # The child that raised inside build_measure raises again here; its
            # span is marked failed, and the parent's error is the one kept.
            with contextlib.suppress(HerglotzMeasureError):
                self._build_children(parent, nodes, param, measure.CircleGrid(grid_size))
            raise
        self._build_children(parent, nodes, param, result.grid)
        return result

    def membership(self, built, tolerance: float):
        n = built.nodes.n
        with self.t.span("verify.verify_membership") as parent:
            report = verify.verify_membership(built, tolerance)
        with self.t.span("verify.gram_target", parent["id"]):
            verify.gram_target(built.nodes)
        evals = n * len(built.atoms)
        if built.kind is measure.MeasureKind.ABSOLUTELY_CONTINUOUS:
            evals += n * built.grid.size
        self.t.counts["verify.cauchy_evals"] += evals
        self.t.note_max("verify.gram_error_max", report.max_abs_error)
        return report

    def mass(self, built) -> float:
        with self.t.span("measure.total_mass"):
            return measure.total_mass(built)

    def render(self, path: str, make_doc) -> None:
        with self.t.span("documents.render"):
            documents.write_document(path, make_doc())
        self.t.counts["documents.bytes_written"] += os.path.getsize(path)

    # -- handlers ------------------------------------------------------------

    def generate(self, config) -> int:
        built = self.build(config.nodes, config.parameter, config.grid_size)
        report = self.membership(built, config.tolerance)
        mass = self.mass(built)
        self.render(config.output_path, lambda: documents.measure_document(built, report, mass))
        return 0 if report.passed else 1

    def verify(self, config) -> int:
        with self.t.span("documents.parse"):
            doc = documents.read_document(config.measure_path)
            built, _ = documents.measure_from_document(doc)
        self.t.counts["documents.bytes_read"] += os.path.getsize(config.measure_path)
        gram = self.membership(built, config.tolerance)
        with self.t.span("verify.check_phi_conditions"):
            phi = verify.check_phi_conditions(built, config.tolerance)
        self.t.note_max("verify.phi_residual_max", phi.residual)
        mass = self.mass(built)
        self.render(config.output_path, lambda: documents.verify_report_document(
            config.measure_path, gram, phi, mass))
        return 0 if gram.passed and phi.passed else 1

    def bounds(self, config) -> int:
        nodes, grid_size = config.nodes, config.grid_size
        lower, upper = verify.mass_bounds(nodes)
        with self.t.span("verify.extremal_measures") as parent:
            maximal, minimal = verify.extremal_measures(nodes, grid_size)
        for gamma in (1.0, -1.0):
            self.build(nodes, analytic.Constant(gamma), grid_size, parent["id"])
        blocks, passed = [], True
        for built in (maximal, minimal):
            report = self.membership(built, config.tolerance)
            mass = self.mass(built)
            blocks.append({
                "parameter": documents.parameter_descriptor(built.param),
                "mass": mass,
                "atoms": [[float(a.angle), float(a.weight)] for a in built.atoms],
                "membership_passed": report.passed,
                "max_abs_error": report.max_abs_error,
            })
            passed = passed and report.passed
        self.render(config.output_path, lambda: documents.bounds_document(
            nodes, analytic.mass_bound_base(nodes), lower, upper, blocks[0], blocks[1]))
        return 0 if passed else 1

    def sweep(self, config) -> int:
        spec = config.sweep
        radii = np.linspace(0.0, 1.0, spec.radius_steps)
        angles = measure.TWO_PI * np.arange(spec.angle_steps) / spec.angle_steps
        rows = []
        for r in radii:
            for angle in angles if r > 0 else angles[:1]:
                gamma = complex(r * math.cos(angle), r * math.sin(angle))
                built = self.build(config.nodes, analytic.Constant(gamma), config.grid_size)
                report = self.membership(built, config.tolerance)
                rows.append((gamma.real, gamma.imag, self.mass(built), report.max_abs_error))
        with self.t.span("documents.sweep_csv"):
            documents.write_sweep_csv(config.output_path, rows)
        self.t.counts["documents.bytes_written"] += os.path.getsize(config.output_path)
        return 0

    def diagnostics(self) -> None:
        """Worst atom residual |s(t0) - 1|; runs after the job's spans close."""
        for built in self.atomic_measures:
            locations, _ = built.atom_arrays()
            residual = np.abs(analytic.s_eval(built.nodes, built.param, locations) - 1.0)
            self.t.note_max("measure.atom_residual_max", float(np.max(residual)))


def replay_call(tracer: Tracer, command: str, config_path: str) -> tuple[int, str, float]:
    """Replay one ``cli.main`` call.

    Returns the exit code ``cli.main`` would give, the error text, and the
    replay's wall time, which excludes the diagnostics computed afterwards.
    """
    replay = _Replay(tracer)
    start = time.perf_counter()
    try:
        with tracer.span("cli.load_job_config") as parent:
            config = cli.load_job_config(config_path, command, {})
        raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
        if "parameter" in raw:
            with tracer.span("analytic.param_certify", parent["id"]):
                documents.parameter_from_descriptor(raw["parameter"])
        code, message = getattr(replay, command)(config), ""
    except SchemaError as exc:
        code, message = 2, str(exc)
    except HerglotzMeasureError as exc:
        code, message = 1, str(exc)
    elapsed = time.perf_counter() - start
    replay.diagnostics()
    return code, message, elapsed


def summarize(tracer: Tracer, job_times: dict[str, float], passes: int,
              untraced_time: float) -> dict[str, float]:
    """Per-layer metrics, per pass of the job list."""
    busy = defaultdict(float)
    child_time = defaultdict(float)
    by_id = {s["id"]: s for s in tracer.spans}
    for s in tracer.spans:
        duration = s["end"] - s["start"]
        busy[s["name"]] += duration
        if s["parent"] is not None:
            child_time[by_id[s["parent"]]["name"]] += duration
    covered = defaultdict(float)
    for job, intervals in _intervals_by_job(tracer.spans).items():
        covered[job] = _union_length(intervals)
    metrics = {}
    for name in STAGES:
        metrics[f"{name}.busy_s"] = busy[name] / passes
    for name in PARENTS:
        metrics[f"{name}.self_s"] = (busy[name] - child_time[name]) / passes
    for name in COUNTS:
        metrics[name] = tracer.counts[name] / passes
    for name in MAXIMA:
        metrics[name] = tracer.maxima[name]
    traced_time = sum(job_times.values())
    metrics["trace.unattributed_s"] = (traced_time - sum(covered.values())) / passes
    metrics["trace.overhead_s"] = (traced_time - untraced_time) / passes
    return metrics


def _intervals_by_job(spans) -> dict[str, list[tuple[float, float]]]:
    out = defaultdict(list)
    for s in spans:
        out[s["job"]].append((s["start"], s["end"]))
    return out


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
