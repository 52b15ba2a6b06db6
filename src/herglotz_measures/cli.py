"""Batch front door: generate / verify / bounds / sweep pipelines.

Exit codes are stable contracts: 0 pass, 1 math-level failure, 2
input/schema failure.  All documents are deterministic given the config.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import documents
from .analytic import NodeSet, SchurParameter, mass_bound_base
from .errors import HerglotzMeasureError, SchemaError
from .measure import DEFAULT_GRID_SIZE, TWO_PI, build_measure, check_grid_size
from .verify import certify, extremal_measures, mass_bounds, sweep_reports

DEFAULT_TOLERANCE = 1e-8
#: Largest sweep table: 1 + (radius_steps - 1) * angle_steps rows.
MAX_SWEEP_ROWS = 1 << 16

_BASE_KEYS = {"command", "tolerance", "output_path"}
_ALLOWED_KEYS = {
    "generate": _BASE_KEYS | {"nodes", "parameter", "grid_size"},
    "verify": _BASE_KEYS | {"measure_path"},
    "bounds": _BASE_KEYS | {"nodes", "grid_size"},
    "sweep": _BASE_KEYS | {"nodes", "grid_size", "sweep"},
}
_REQUIRED_KEYS = {
    "generate": {"command", "nodes", "parameter"},
    "verify": {"command", "measure_path"},
    "bounds": {"command", "nodes"},
    "sweep": {"command", "nodes", "sweep"},
}


@dataclass(frozen=True)
class SweepSpec:
    radius_steps: int
    angle_steps: int


@dataclass(frozen=True)
class JobConfig:
    command: str
    tolerance: float
    output_path: str
    nodes: NodeSet | None = None
    parameter: SchurParameter | None = None
    grid_size: int = DEFAULT_GRID_SIZE
    measure_path: str | None = None
    sweep: SweepSpec | None = None


def _load_raw_config(path: str) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config {path} is not parseable: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError("config must be a key/value mapping")
    return data


def _parse_sweep_spec(data) -> SweepSpec:
    if not isinstance(data, dict):
        raise SchemaError("sweep spec must be a mapping")
    unknown = set(data) - {"radius_steps", "angle_steps"}
    if unknown:
        raise SchemaError(f"sweep spec has unknown fields {sorted(unknown)}")
    steps = [data.get(key) for key in ("radius_steps", "angle_steps")]
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in steps):
        raise SchemaError(f"sweep spec needs integer radius_steps/angle_steps, got {steps}")
    if min(steps) < 1:
        raise SchemaError("sweep steps must be >= 1")
    rows = 1 + (steps[0] - 1) * steps[1]
    if rows > MAX_SWEEP_ROWS:
        raise SchemaError(f"sweep has {rows} rows, above the limit of {MAX_SWEEP_ROWS}")
    return SweepSpec(*steps)


def load_job_config(path: str, command: str, overrides: dict) -> JobConfig:
    """Validate a job description against the per-command schema.

    ``overrides`` carries the CLI flags (output, grid_size, tolerance),
    which win over config fields.
    """
    data = _load_raw_config(path)
    if "command" not in data:
        raise SchemaError("config is missing the command field")
    if data["command"] != command:
        raise SchemaError(
            f"config command {data['command']!r} does not match subcommand {command!r}"
        )
    allowed = _ALLOWED_KEYS[command]
    unknown = set(data) - allowed
    if unknown:
        raise SchemaError(f"config has unknown fields {sorted(unknown)} for {command}")
    missing = _REQUIRED_KEYS[command] - set(data)
    if missing:
        raise SchemaError(f"config is missing fields {sorted(missing)} for {command}")

    tolerance = overrides.get("tolerance")
    if tolerance is None:
        tolerance = data.get("tolerance", DEFAULT_TOLERANCE)
    if type(tolerance) not in (int, float) or not 0 < tolerance <= sys.float_info.max:
        raise SchemaError(f"tolerance must be a positive finite number, got {tolerance!r}")

    grid_size = overrides.get("grid_size")
    if command == "verify":
        if grid_size is not None:
            raise SchemaError("verify takes its grid from the measure document; drop --grid-size")
        grid_size = DEFAULT_GRID_SIZE
    else:
        if grid_size is None:
            grid_size = data.get("grid_size", DEFAULT_GRID_SIZE)
        try:
            check_grid_size(grid_size)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc

    output_path = overrides.get("output") or data.get("output_path")
    if not isinstance(output_path, str) or not output_path:
        raise SchemaError("an output path is required (config output_path or --output)")

    nodes = None
    if "nodes" in data:
        nodes = documents.nodes_from_descriptor(data["nodes"])
    parameter = None
    if "parameter" in data:
        parameter = documents.parameter_from_descriptor(data["parameter"])
    measure_path = data.get("measure_path")
    if command == "verify" and (not isinstance(measure_path, str) or not measure_path):
        raise SchemaError("verify needs a measure_path string")
    sweep = _parse_sweep_spec(data["sweep"]) if command == "sweep" else None

    return JobConfig(
        command=command,
        tolerance=float(tolerance),
        output_path=output_path,
        nodes=nodes,
        parameter=parameter,
        grid_size=int(grid_size),
        measure_path=measure_path,
        sweep=sweep,
    )


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def run_generate(config: JobConfig) -> int:
    measure = build_measure(config.nodes, config.parameter, config.grid_size)
    certificate = certify(measure, config.tolerance)
    documents.write_document(
        config.output_path, documents.measure_document(measure, certificate, measure.mass)
    )
    status = "pass" if certificate.gram_passed else "FAIL"
    print(
        f"generate: kind={measure.kind.value} mass={measure.mass:.12g} "
        f"gram_error={certificate.gram_error:.3e} [{status}] -> {config.output_path}"
    )
    return 0 if certificate.gram_passed else 1


def run_verify(config: JobConfig) -> int:
    # A document's numbers are arbitrary input: a float overflow on them is an input error.
    with np.errstate(over="raise", invalid="raise"):
        try:
            # No name keeps the parsed document, so its lists are freed before the phi pass.
            measure, _ = documents.measure_from_document(
                documents.read_document(config.measure_path)
            )
            certificate = certify(measure, config.tolerance)
            system = certificate.system  # solved here, under the errstate
        except FloatingPointError as exc:
            raise SchemaError(f"measure document values leave the float range: {exc}") from exc
    documents.write_document(
        config.output_path,
        documents.verify_report_document(
            config.measure_path, certificate, certificate, measure.mass
        ),
    )
    beta_text = "n/a" if system.beta is None else f"{system.beta:.6g}"
    print(
        f"verify: gram_error={certificate.gram_error:.3e} beta={beta_text} "
        f"phi_residual={system.residual:.3e} [{'pass' if certificate.passed else 'FAIL'}] "
        f"-> {config.output_path}"
    )
    return 0 if certificate.passed else 1


def _extremal_block(measure, tolerance: float) -> tuple[dict, bool]:
    certificate = certify(measure, tolerance)
    block = {
        "parameter": documents.parameter_descriptor(measure.param),
        "mass": measure.mass,
        "atoms": [[float(a.angle), float(a.weight)] for a in measure.atoms],
        "membership_passed": certificate.gram_passed,
        "max_abs_error": certificate.gram_error,
    }
    return block, certificate.gram_passed


def run_bounds(config: JobConfig) -> int:
    lower, upper = mass_bounds(config.nodes)
    maximal, minimal = extremal_measures(config.nodes, config.grid_size)
    block_max, ok_max = _extremal_block(maximal, config.tolerance)
    block_min, ok_min = _extremal_block(minimal, config.tolerance)
    documents.write_document(
        config.output_path,
        documents.bounds_document(
            config.nodes, mass_bound_base(config.nodes), lower, upper, block_max, block_min
        ),
    )
    passed = ok_max and ok_min
    print(
        f"bounds: [{lower:.12g}, {upper:.12g}] extremal masses "
        f"({block_max['mass']:.12g}, {block_min['mass']:.12g}) "
        f"[{'pass' if passed else 'FAIL'}] -> {config.output_path}"
    )
    return 0 if passed else 1


def run_sweep(config: JobConfig) -> int:
    spec = config.sweep
    radii = np.linspace(0.0, 1.0, spec.radius_steps)
    angles = TWO_PI * np.arange(spec.angle_steps) / spec.angle_steps
    gammas = [
        complex(r * math.cos(angle), r * math.sin(angle))
        for r in radii
        for angle in (angles if r > 0 else angles[:1])
    ]
    reports = sweep_reports(config.nodes, gammas, config.grid_size, config.tolerance)
    rows, passed = [], True
    for gamma, (mass, certificate) in zip(gammas, reports):
        rows.append((gamma.real, gamma.imag, mass, certificate.gram_error))
        passed = passed and certificate.gram_passed
    documents.write_sweep_csv(config.output_path, rows)
    print(f"sweep: {len(rows)} rows [{'pass' if passed else 'FAIL'}] -> {config.output_path}")
    return 0 if passed else 1


_HANDLERS = {
    "generate": run_generate,
    "verify": run_verify,
    "bounds": run_bounds,
    "sweep": run_sweep,
}


_COMMAND_HELP = {
    "generate": "build a measure from nodes and a Schur parameter",
    "verify": "re-check a measure document against the Gram and phi conditions",
    "bounds": "sharp mass bounds and the two extremal measures",
    "sweep": "mass and Gram error over a disc grid of constant parameters",
}


def _build_parser() -> argparse.ArgumentParser:
    """One parser: the command and the four options that every command shares."""
    parser = argparse.ArgumentParser(
        prog="herglotz-measures",
        description=(
            "Generate and certify measures on the unit circle that reproduce "
            "the Lebesgue scalar product on spans of Cauchy fractions."
        ),
    )
    parser.add_argument(
        "command",
        choices=tuple(_COMMAND_HELP),
        metavar="command",
        help="; ".join(f"{name}: {text}" for name, text in _COMMAND_HELP.items()),
    )
    parser.add_argument("--config", required=True, help="job description file (JSON)")
    parser.add_argument("--output", help="output document path (overrides config)")
    parser.add_argument("--grid-size", type=int, dest="grid_size", help="quadrature grid size")
    parser.add_argument("--tolerance", type=float, help="certification tolerance")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        "output": args.output,
        "grid_size": args.grid_size,
        "tolerance": args.tolerance,
    }
    try:
        config = load_job_config(args.config, args.command, overrides)
    except HerglotzMeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[config.command](config)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HerglotzMeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
