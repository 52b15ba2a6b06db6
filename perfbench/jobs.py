"""Seeded job configs for the three benchmark workloads.

Each workload is a fixed list of job types (node count n, grid size N,
parameter form, node radius).  The seed only places the nodes and draws the
parameter values, so the same seed gives the same configs and different seeds
give configs of the same difficulty.  Nodes follow a jittered sunflower
pattern whose outermost node sits exactly at the job's radius ``rmax``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
DEFAULT_N = 4096
# Boundary samples the benchmark uses to scale a rational parameter to a
# target sup; the program re-certifies on its own grid.
RATIONAL_SCALE_SAMPLES = 16384


@dataclass
class Call:
    """One ``cli.main`` call: the subcommand, its config file and its output."""

    command: str
    config_path: str
    output_path: str


@dataclass
class Job:
    """A user-level job: one or more calls plus what the checks need to know."""

    job_id: str
    kind: str  # "roundtrip" | "atomic" | "bounds" | "sweep"
    form: str  # parameter form, or "-" for bounds/sweep jobs
    n: int
    grid_size: int
    rmax: float
    nodes: list  # [[re, im], ...] exactly as written to the config
    parameter: dict | None = None
    degree: int = 0  # number of atoms an inner parameter must give
    sweep: tuple[int, int] | None = None  # (radius_steps, angle_steps)
    calls: list[Call] = field(default_factory=list)

    def record(self) -> dict:
        out = {"id": self.job_id, "kind": self.kind, "form": self.form, "n": self.n,
               "N": self.grid_size, "d": self.degree, "rmax": self.rmax}
        if self.sweep is not None:
            out["sweep"] = f"{self.sweep[0]}x{self.sweep[1]}"
        return out


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex)]


def make_nodes(rng: np.random.Generator, n: int, rmax: float) -> list:
    k = np.arange(n)
    radius = rmax * np.sqrt((k + 0.5) / n) * (1.0 + rng.uniform(-0.04, 0.04, n))
    radius = np.minimum(radius, rmax)
    radius[-1] = rmax
    angle = k * GOLDEN_ANGLE + rng.uniform(0.0, 2.0 * math.pi) + rng.uniform(-0.05, 0.05, n)
    return _pairs(radius * np.exp(1j * angle))


def _disc_points(rng, count: int, rmax: float) -> np.ndarray:
    radius = rmax * np.sqrt(rng.uniform(0.05, 1.0, count))
    return radius * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, count))


def _unit(rng) -> complex:
    return complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def constant_param(rng, modulus: float) -> dict:
    return {"type": "constant", "gamma": _pairs([modulus * _unit(rng)])[0]}


def blaschke_param(rng, modulus: float, zeros: int, zero_rmax: float = 0.8) -> dict:
    """gamma times a Blaschke product whose zeros are spread like the nodes."""
    return {
        "type": "scaled-blaschke",
        "gamma": _pairs([modulus * _unit(rng)])[0],
        "zeros": make_nodes(rng, zeros, zero_rmax),
    }


def rational_param(rng, sup: float) -> dict:
    """p/q with q zero-free on the closed disc, scaled to boundary sup ``sup``."""
    poles = 1.0 / np.conj(_disc_points(rng, 2, 0.6))  # roots of q outside |z| = 1/0.6
    den = np.poly(poles)[::-1]  # ascending coefficients
    den = den / den[0]
    num = rng.normal(size=3) + 1j * rng.normal(size=3)
    t = np.exp(2j * np.pi * np.arange(RATIONAL_SCALE_SAMPLES) / RATIONAL_SCALE_SAMPLES)
    peak = np.max(np.abs(np.polyval(num[::-1], t) / np.polyval(den[::-1], t)))
    num = num * (sup / peak)
    return {"type": "rational", "numerator": _pairs(num), "denominator": _pairs(den)}


# ---------------------------------------------------------------------------
# workload matrices
# ---------------------------------------------------------------------------

FORMS = ("constant", "scaled-blaschke", "rational")


def _contractive(rng, form: str, modulus: float) -> dict:
    if form == "constant":
        return constant_param(rng, modulus)
    if form == "scaled-blaschke":
        return blaschke_param(rng, modulus, zeros=3)
    return rational_param(rng, modulus)


# Every job type either passes or fails on every seed tried (the seed only
# rotates and jitters the nodes and draws the parameter phases), so that
# failed_frac moves with the program and not with the draw.  The failing
# types are the known N=4096 mass-consistency defects; they stay in.
ROUNDTRIP_TYPES = (  # (n, N, form, rmax, |gamma| or boundary sup)
    (8, 4096, "constant", 0.9, 0.6),
    (8, 4096, "scaled-blaschke", 0.9, 0.6),
    (8, 4096, "rational", 0.9, 0.3),
    (32, 4096, "constant", 0.6, 0.6),
    (32, 4096, "scaled-blaschke", 0.99, 0.9),  # fails: near-boundary nodes at N=4096
    (32, 4096, "rational", 0.9, 0.9),  # fails: mass consistency at N=4096
    (128, 4096, "constant", 0.6, 0.3),
    (128, 4096, "scaled-blaschke", 0.9, 0.3),
    (128, 4096, "rational", 0.6, 0.9),  # fails: mass consistency at N=4096
    (8, 65536, "constant", 0.99, 0.9),
    (32, 65536, "scaled-blaschke", 0.99, 0.6),
    (128, 65536, "rational", 0.99, 0.3),
)


def roundtrip_types(tiny: bool) -> list[tuple]:
    """(n, N, form, rmax, modulus) for every roundtrip job of one pass."""
    if tiny:
        return [(4, 1024, form, 0.6, 0.5) for form in FORMS]
    return list(ROUNDTRIP_TYPES)


# The mixes are weighted so that the median and the p90 of the pooled call
# latencies fall inside a cluster of calls of one kind, not on the edge
# between two kinds, whatever the number of passes in a run.
ATOMIC_TYPES = (  # (kind, n, extra Blaschke zeros, rmax); degree d = n + extra
    ("atomic", 32, 0, 0.9),
    ("atomic", 8, 24, 0.99),
    ("bounds", 32, 0, 0.6),
    ("atomic", 16, 16, 0.6),
    ("atomic", 24, 8, 0.9),
    ("atomic", 32, 32, 0.6),
    ("atomic", 64, 0, 0.99),
    ("bounds", 64, 0, 0.9),
    ("atomic", 8, 120, 0.9),
    ("atomic", 16, 112, 0.6),
    ("atomic", 32, 96, 0.6),
    ("atomic", 48, 80, 0.99),
    ("atomic", 64, 64, 0.9),
    ("atomic", 96, 32, 0.6),
    ("atomic", 112, 16, 0.6),
)

SWEEP_TYPES = (  # (n, radius_steps, angle_steps, rmax)
    (2, 5, 8, 0.6),
    (2, 5, 8, 0.9),
    (8, 5, 8, 0.3),
    (8, 5, 8, 0.6),
    (8, 5, 8, 0.9),
    *[(2, 10, 16, rmax) for rmax in (0.3, 0.6, 0.9) * 2],
    (32, 5, 8, 0.3),
    (32, 5, 8, 0.6),
    (32, 5, 8, 0.9),
    (32, 5, 8, 0.6),
    (32, 10, 16, 0.6),  # fails: mass consistency
    (2, 20, 64, 0.9),  # fails: mass consistency near |gamma| = 1
    (8, 20, 64, 0.9),  # fails: mass consistency near |gamma| = 1
)


def atomic_types(tiny: bool) -> list[tuple]:
    """(kind, n, extra_zeros, rmax) for every atomic-workload job of one pass."""
    if tiny:
        return [("atomic", 3, 0, 0.6), ("atomic", 3, 2, 0.9), ("bounds", 3, 0, 0.6)]
    return list(ATOMIC_TYPES)


def sweep_types(tiny: bool) -> list[tuple]:
    """(n, radius_steps, angle_steps, rmax) for every sweep job of one pass."""
    if tiny:
        return [(2, 3, 4, 0.6), (3, 4, 4, 0.9)]
    return list(SWEEP_TYPES)


WORKLOADS = ("roundtrip", "atomic", "sweep")


def _write(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return str(path)


def make_jobs(workload: str, seed: int, workdir: Path, variant: int = 0,
              tiny: bool = False) -> list[Job]:
    """Generate one pass of ``workload`` and write its config files.

    Every ``(seed, variant)`` pair draws its own values for the same list of
    job types; a run uses several variants so that its figures rest on more
    than one draw.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), variant])
    workdir.mkdir(parents=True, exist_ok=True)
    grid_small = 1024 if tiny else DEFAULT_N
    v = f"v{variant}-"
    jobs = []
    if workload == "roundtrip":
        for idx, (n, N, form, rmax, modulus) in enumerate(roundtrip_types(tiny)):
            job = Job(f"{v}rt{idx:02d}", "roundtrip", form, n, N, rmax, make_nodes(rng, n, rmax),
                      parameter=_contractive(rng, form, modulus))
            jobs.append(job)
    elif workload == "atomic":
        for idx, (kind, n, extra, rmax) in enumerate(atomic_types(tiny)):
            nodes = make_nodes(rng, n, rmax)
            if kind == "bounds":
                job = Job(f"{v}at{idx:02d}", "bounds", "-", n, grid_small, rmax, nodes, degree=n)
            elif extra == 0:
                job = Job(f"{v}at{idx:02d}", "atomic", "constant", n, grid_small, rmax, nodes,
                          parameter=constant_param(rng, 1.0), degree=n)
            else:
                job = Job(f"{v}at{idx:02d}", "atomic", "scaled-blaschke", n, grid_small, rmax,
                          nodes, parameter=blaschke_param(rng, 1.0, extra, zero_rmax=0.9),
                          degree=n + extra)
            jobs.append(job)
    elif workload == "sweep":
        for idx, (n, r_steps, a_steps, rmax) in enumerate(sweep_types(tiny)):
            jobs.append(Job(f"{v}sw{idx:02d}", "sweep", "constant-grid", n, grid_small, rmax,
                            make_nodes(rng, n, rmax), sweep=(r_steps, a_steps)))
    else:
        raise ValueError(f"unknown workload {workload!r}")

    for job in jobs:
        base = workdir / job.job_id
        if job.kind in ("roundtrip", "atomic"):
            doc = f"{base}.measure.json"
            job.calls.append(Call("generate", _write(Path(f"{base}.generate.cfg"), {
                "command": "generate", "nodes": job.nodes, "parameter": job.parameter,
                "grid_size": job.grid_size, "output_path": doc}), doc))
            report = f"{base}.report.json"
            job.calls.append(Call("verify", _write(Path(f"{base}.verify.cfg"), {
                "command": "verify", "measure_path": doc, "output_path": report}), report))
        elif job.kind == "bounds":
            out = f"{base}.bounds.json"
            job.calls.append(Call("bounds", _write(Path(f"{base}.bounds.cfg"), {
                "command": "bounds", "nodes": job.nodes, "grid_size": job.grid_size,
                "output_path": out}), out))
        else:
            out = f"{base}.sweep.csv"
            job.calls.append(Call("sweep", _write(Path(f"{base}.sweep.cfg"), {
                "command": "sweep", "nodes": job.nodes, "grid_size": job.grid_size,
                "sweep": {"radius_steps": job.sweep[0], "angle_steps": job.sweep[1]},
                "output_path": out}), out))
    return jobs
