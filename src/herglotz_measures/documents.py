"""Versioned, deterministic document formats.

Documents are JSON written by the stdlib encoder: one top-level field per
line in a fixed key order, floats as their shortest round-trip repr, and
complex numbers as [re, im] pairs; repeated runs with the same inputs are
byte-identical.  Sweep tables are CSV with 17 significant digits.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .analytic import (
    CertifiedRational,
    Constant,
    ScaledBlaschke,
    SchurParameter,
    validate_nodes,
)
from .errors import HerglotzMeasureError, SchemaError
from .measure import DENSITY_TOL, Atom, GeneratedMeasure, MeasureKind, check_grid_size, circle_grid
from .verify import GramReport, PhiConditionsReport

MEASURE_SCHEMA = "herglotz-measure/v1"
VERIFY_SCHEMA = "herglotz-verify-report/v1"
BOUNDS_SCHEMA = "herglotz-bounds/v1"

SWEEP_CSV_HEADER = "re_gamma,im_gamma,mass,max_gram_error"


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return format(x, ".17g")


def dumps_document(doc: dict) -> str:
    """One top-level field per line, each value in the stdlib JSON encoding."""
    fields = ",\n".join(
        f"  {json.dumps(str(key))}: {json.dumps(value, allow_nan=False)}"
        for key, value in doc.items()
    )
    return "{\n" + fields + "\n}\n"


def _write_text(path, text: str, what: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot write {what} {path}: {exc}") from exc


def write_document(path, doc: dict) -> None:
    _write_text(path, dumps_document(doc), "document")


def read_document(path) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read document {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"document {path} is not parseable: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"document {path} is not a key/value mapping")
    return doc


# ---------------------------------------------------------------------------
# field codecs
# ---------------------------------------------------------------------------


def _cpair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _complex_from(pair, what: str) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
    ):
        raise SchemaError(f"{what} must be a [re, im] pair, got {pair!r}")
    return complex(_float_from(pair[0], what), _float_from(pair[1], what))


def _float_from(value, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise SchemaError(f"{what} is beyond the float range") from exc


def _require_keys(data: dict, required: set[str], what: str) -> None:
    keys = set(data)
    missing = required - keys
    unknown = keys - required
    if missing:
        raise SchemaError(f"{what} is missing fields {sorted(missing)}")
    if unknown:
        raise SchemaError(f"{what} has unknown fields {sorted(unknown)}")


def parameter_descriptor(param: SchurParameter) -> dict:
    if isinstance(param, Constant):
        return {"type": "constant", "gamma": _cpair(param.gamma)}
    if isinstance(param, ScaledBlaschke):
        return {
            "type": "scaled-blaschke",
            "gamma": _cpair(param.gamma),
            "zeros": [_cpair(a) for a in param.zeros],
        }
    if isinstance(param, CertifiedRational):
        return {
            "type": "rational",
            "numerator": [_cpair(c) for c in param.numerator],
            "denominator": [_cpair(c) for c in param.denominator],
        }
    raise TypeError(f"unknown parameter type {type(param)!r}")


def parameter_from_descriptor(data) -> SchurParameter:
    if not isinstance(data, dict):
        raise SchemaError(f"parameter descriptor must be a mapping, got {data!r}")
    kind = data.get("type")
    if kind == "constant":
        _require_keys(data, {"type", "gamma"}, "constant parameter")
        return Constant(_complex_from(data["gamma"], "gamma"))
    if kind == "scaled-blaschke":
        _require_keys(data, {"type", "gamma", "zeros"}, "scaled-blaschke parameter")
        if not isinstance(data["zeros"], list):
            raise SchemaError("zeros must be a list of [re, im] pairs")
        zeros = tuple(_complex_from(a, "zero") for a in data["zeros"])
        return ScaledBlaschke(_complex_from(data["gamma"], "gamma"), zeros)
    if kind == "rational":
        _require_keys(data, {"type", "numerator", "denominator"}, "rational parameter")
        for key in ("numerator", "denominator"):
            if not isinstance(data[key], list) or not data[key]:
                raise SchemaError(f"{key} must be a non-empty list of [re, im] pairs")
        return CertifiedRational(
            tuple(_complex_from(c, "numerator coefficient") for c in data["numerator"]),
            tuple(_complex_from(c, "denominator coefficient") for c in data["denominator"]),
        )
    raise SchemaError(f"unknown parameter type {kind!r}")


def nodes_descriptor(nodes) -> list[list[float]]:
    return [_cpair(z) for z in nodes.points]


def nodes_from_descriptor(data):
    if not isinstance(data, list) or not data:
        raise SchemaError("nodes must be a non-empty list of [re, im] pairs")
    return validate_nodes([_complex_from(p, "node") for p in data])


def _matrix_block(matrix: np.ndarray) -> list:
    return np.stack((matrix.real, matrix.imag), axis=-1).tolist()


def gram_report_block(report: GramReport) -> dict:
    return {
        "tolerance": report.tolerance,
        "max_abs_error": report.max_abs_error,
        "passed": report.passed,
        "target": _matrix_block(report.target),
        "computed": _matrix_block(report.computed),
    }


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def measure_document(measure: GeneratedMeasure, gram_report: GramReport, mass: float) -> dict:
    if measure.param is None:
        raise ValueError("only generated measures (with a parameter) are serialized")
    return {
        "schema": MEASURE_SCHEMA,
        "nodes": nodes_descriptor(measure.nodes),
        "parameter": parameter_descriptor(measure.param),
        "grid_size": int(measure.grid.size),
        "kind": measure.kind.value,
        "mass": float(mass),
        "atoms": [[float(a.angle), float(a.weight)] for a in measure.atoms],
        "density": np.column_stack((measure.grid.angles, measure.density)).tolist(),
        "gram_report": gram_report_block(gram_report),
    }


_MEASURE_KEYS = {
    "schema",
    "nodes",
    "parameter",
    "grid_size",
    "kind",
    "mass",
    "atoms",
    "density",
    "gram_report",
}


def measure_from_document(doc: dict) -> tuple[GeneratedMeasure, float]:
    """Rebuild a measure from its document for re-verification.

    The returned measure carries param=None: its data is whatever the
    document says, not what the recorded parameter would generate.
    """
    _require_keys(doc, _MEASURE_KEYS, "measure document")
    if doc["schema"] != MEASURE_SCHEMA:
        raise SchemaError(f"expected schema {MEASURE_SCHEMA}, got {doc['schema']!r}")
    try:
        nodes = nodes_from_descriptor(doc["nodes"])
        parameter_from_descriptor(doc["parameter"])  # validates provenance
        check_grid_size(doc["grid_size"])
        # The sample count is checked before CircleGrid allocates grid_size points.
        samples = doc["density"]
        if not isinstance(samples, list) or len(samples) != doc["grid_size"]:
            raise SchemaError(
                f"density must hold exactly grid_size = {doc['grid_size']} samples, "
                f"got {len(samples) if isinstance(samples, list) else samples!r}"
            )
        grid = circle_grid(doc["grid_size"])
    except (HerglotzMeasureError, ValueError) as exc:
        raise SchemaError(f"malformed measure document: {exc}") from exc

    kinds = {k.value: k for k in MeasureKind}
    if doc["kind"] not in kinds:
        raise SchemaError(f"unknown measure kind {doc['kind']!r}")

    density = np.empty(grid.size)
    for j, pair in enumerate(samples):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"density entry {j} must be a [theta, h] pair")
        theta = _float_from(pair[0], f"density angle {j}")
        h = _float_from(pair[1], f"density value {j}")
        if not abs(theta - grid.angles[j]) <= 1e-12:
            raise SchemaError(f"density angle {j} = {theta} is off the uniform grid")
        if not math.isfinite(h) or h < -DENSITY_TOL:
            raise SchemaError(f"density value {j} = {h} is not a non-negative real")
        density[j] = h

    if not isinstance(doc["atoms"], list):
        raise SchemaError("atoms must be a list of [angle, weight] pairs")
    atoms = []
    for j, pair in enumerate(doc["atoms"]):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"atom {j} must be an [angle, weight] pair")
        angle = _float_from(pair[0], f"atom angle {j}")
        weight = _float_from(pair[1], f"atom weight {j}")
        try:
            atoms.append(Atom.at_angle(angle, weight))
        except ValueError as exc:
            raise SchemaError(f"atom {j} is invalid: {exc}") from exc

    measure = GeneratedMeasure(
        nodes=nodes,
        param=None,
        grid=grid,
        density=density,
        atoms=tuple(atoms),
        kind=kinds[doc["kind"]],
    )
    return measure, _float_from(doc["mass"], "mass")


def verify_report_document(
    source: str,
    gram_report: GramReport,
    phi_report: PhiConditionsReport,
    mass: float,
) -> dict:
    return {
        "schema": VERIFY_SCHEMA,
        "source": str(source),
        "tolerance": gram_report.tolerance,
        "max_abs_error": gram_report.max_abs_error,
        "gram_passed": gram_report.passed,
        "beta": None if phi_report.beta is None else float(phi_report.beta),
        "phi_residual": float(phi_report.residual),
        "phi_passed": phi_report.passed,
        "mass": float(mass),
        "passed": gram_report.passed and phi_report.passed,
    }


def bounds_document(
    nodes,
    b0: float,
    lower: float,
    upper: float,
    extremal_max: dict,
    extremal_min: dict,
) -> dict:
    return {
        "schema": BOUNDS_SCHEMA,
        "nodes": nodes_descriptor(nodes),
        "blaschke_at_origin": float(b0),
        "lower_bound": float(lower),
        "upper_bound": float(upper),
        "extremal_max": extremal_max,
        "extremal_min": extremal_min,
    }


def write_sweep_csv(path, rows) -> None:
    lines = [SWEEP_CSV_HEADER] + [",".join(_fmt_float(x) for x in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n", "sweep table")
