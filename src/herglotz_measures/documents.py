"""Versioned, deterministic document formats.

Documents are JSON written by the stdlib encoder: one top-level field per
line in a fixed key order, floats as their shortest round-trip repr, and
complex numbers as [re, im] pairs; repeated runs with the same inputs are
byte-identical.  Sweep tables are CSV with 17 significant digits.

A measure document keeps its large fields (the density samples and the Gram
matrices) as arrays until it is written.  The writer validates every value
first and then streams the file, encoding each array in blocks of rows of at
most _ENCODE_BLOCK_ENTRIES numbers; the bytes are those of the stdlib
encoder on the whole nested list.  The reader checks the density samples'
types with C-level passes and their values with numpy, and walks the samples
one by one only to name the first bad entry.
"""

from __future__ import annotations

import json
import math
from itertools import chain
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
from .measure import (
    DENSITY_TOL,
    MASS_CONSISTENCY_TOL,
    Atom,
    CircleGrid,
    GeneratedMeasure,
    MeasureKind,
    check_grid_size,
)
from .verify import Certificate

MEASURE_SCHEMA = "herglotz-measure/v1"
VERIFY_SCHEMA = "herglotz-verify-report/v1"
BOUNDS_SCHEMA = "herglotz-bounds/v1"

SWEEP_CSV_HEADER = "re_gamma,im_gamma,mass,max_gram_error"
#: One sweep table row: "%.17g" spells a float as format(x, ".17g") does.
_SWEEP_CSV_ROW = ",".join(["%.17g"] * len(SWEEP_CSV_HEADER.split(",")))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


#: Numbers per encoded block of an array field: rows per block is
#: max(1, _ENCODE_BLOCK_ENTRIES // numbers per row), so the Python lists and text of
#: one block stay bounded for any grid size and node count.
_ENCODE_BLOCK_ENTRIES = 1 << 13


def _prepare(value, parts: list) -> None:
    """Append ``value`` to ``parts`` as encoded text, or as an array checked to be finite."""
    if isinstance(value, np.ndarray):
        if not np.isfinite(value).all():
            raise ValueError(f"cannot serialize non-finite values in a {value.shape} array")
        parts.append(value)
    elif isinstance(value, dict):
        parts.append("{")
        for k, (key, item) in enumerate(value.items()):
            parts.append((", " if k else "") + json.dumps(str(key)) + ": ")
            _prepare(item, parts)
        parts.append("}")
    else:
        parts.append(json.dumps(value, allow_nan=False))


def _array_text(array: np.ndarray):
    """The stdlib encoding of ``array.tolist()``, in blocks of rows."""
    rows = max(1, _ENCODE_BLOCK_ENTRIES // max(1, math.prod(array.shape[1:])))
    yield "["
    for start in range(0, len(array), rows):
        yield (", " if start else "") + json.dumps(array[start : start + rows].tolist())[1:-1]
    yield "]"


def _document_parts(doc: dict) -> list:
    """``doc`` as encoded text and finite arrays: one top-level field per line.

    Raises ValueError for a value that cannot be written, so nothing is written then.
    """
    parts = ["{\n"]
    for k, (key, value) in enumerate(doc.items()):
        parts.append((",\n  " if k else "  ") + json.dumps(str(key)) + ": ")
        _prepare(value, parts)
    parts.append("\n}\n")
    return parts


def _text(parts: list):
    for part in parts:
        if isinstance(part, str):
            yield part
        else:
            yield from _array_text(part)


def dumps_document(doc: dict) -> str:
    """The document's text, as write_document writes it."""
    return "".join(_text(_document_parts(doc)))


def _write_text(path, pieces, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(pieces)
    except OSError as exc:
        raise SchemaError(f"cannot write {what} {path}: {exc}") from exc


def write_document(path, doc: dict) -> None:
    """Stream ``doc`` to ``path``; every value is checked before the file is opened."""
    _write_text(path, _text(_document_parts(doc)), "document")


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


def _matrix_block(matrix: np.ndarray) -> np.ndarray:
    return np.stack((matrix.real, matrix.imag), axis=-1)


def gram_report_block(certificate: Certificate) -> dict:
    return {
        "tolerance": certificate.tolerance,
        "max_abs_error": certificate.gram_error,
        "passed": certificate.gram_passed,
        "target": _matrix_block(certificate.target),
        "computed": _matrix_block(certificate.computed),
    }


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def measure_document(measure: GeneratedMeasure, certificate: Certificate, mass: float) -> dict:
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
        "density": np.column_stack((measure.grid.angles, measure.density)),
        "gram_report": gram_report_block(certificate),
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


def _density_by_entry(samples: list, grid: CircleGrid) -> np.ndarray:
    """The density values of the [theta, h] ``samples``, checked one entry at a time."""
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
    return density


def _density_from(samples: list, grid: CircleGrid) -> np.ndarray:
    """The density values of the [theta, h] ``samples``, accepted as _density_by_entry accepts them.

    Types are checked first with C-level passes, because np.array(..., dtype=float) also
    takes "1.0" and True; finiteness is checked before any comparison.  When a check
    fails, _density_by_entry runs to name the first bad entry.
    """
    if (
        set(map(type, samples)) == {list}
        and set(map(len, samples)) == {2}
        and set(map(type, chain.from_iterable(samples))) <= {float, int}
    ):
        try:
            pairs = np.array(samples, dtype=float)
        except OverflowError:  # an int beyond the float range
            pairs = None
        if pairs is not None and np.isfinite(pairs).all():
            theta, h = pairs.T
            if np.all(np.abs(theta - grid.angles) <= 1e-12) and np.all(h >= -DENSITY_TOL):
                return h.copy()
    return _density_by_entry(samples, grid)


#: The kind that atoms (or none) and a density (nonzero or not) make.
_KIND_OF_DATA = {
    (False, True): MeasureKind.ABSOLUTELY_CONTINUOUS,
    (True, False): MeasureKind.PURELY_ATOMIC,
    (True, True): MeasureKind.MIXED,
}


def _check_kind(kind: str, atoms: int, density: bool) -> None:
    """Raise SchemaError unless ``atoms`` atoms and a nonzero (or zero) density make ``kind``."""
    implied = _KIND_OF_DATA.get((atoms > 0, density))
    if implied is None or implied.value != kind:
        raise SchemaError(
            f"measure kind {kind!r} does not match its data: {atoms} atoms and a "
            f"{'nonzero' if density else 'zero'} density"
            + (f" make it {implied.value}" if implied else "")
        )


def measure_from_document(doc: dict) -> tuple[GeneratedMeasure, float]:
    """Rebuild a measure from its document for re-verification.

    The returned measure carries param=None: its data is whatever the
    document says, not what the recorded parameter would generate.  The
    declared kind must be the one its atoms and density make, and the
    declared mass must match the mass of that data within MASS_CONSISTENCY_TOL.
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
        grid = CircleGrid(doc["grid_size"])
    except (HerglotzMeasureError, ValueError) as exc:
        raise SchemaError(f"malformed measure document: {exc}") from exc

    kinds = {k.value: k for k in MeasureKind}
    if not isinstance(doc["kind"], str) or doc["kind"] not in kinds:
        raise SchemaError(f"unknown measure kind {doc['kind']!r}")

    density = _density_from(samples, grid)

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

    _check_kind(doc["kind"], len(atoms), bool(np.any(density)))
    measure = GeneratedMeasure(
        nodes=nodes,
        param=None,
        grid=grid,
        density=density,
        atoms=tuple(atoms),
        kind=kinds[doc["kind"]],
    )
    declared = _float_from(doc["mass"], "mass")
    if not abs(declared - measure.mass) <= MASS_CONSISTENCY_TOL:
        raise SchemaError(
            f"declared mass {declared} does not match the mass {measure.mass} "
            "of the density and atoms"
        )
    return measure, declared


def verify_report_document(source: str, gram: Certificate, phi: Certificate, mass: float) -> dict:
    """The Gram verdict of ``gram`` and the phi verdict of ``phi``: cli passes its one
    certificate as both, perfbench/replay.py its verify_membership and check_phi_conditions."""
    system = phi.system
    return {
        "schema": VERIFY_SCHEMA,
        "source": str(source),
        "tolerance": gram.tolerance,
        "max_abs_error": gram.gram_error,
        "gram_passed": gram.gram_passed,
        "beta": None if system.beta is None else float(system.beta),
        "phi_residual": float(system.residual),
        "phi_passed": system.solvable,
        "mass": float(mass),
        "passed": gram.gram_passed and system.solvable,
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
    """Write the sweep table; every value is checked finite before the file is opened."""
    rows = list(map(tuple, rows))
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        bad = next(x for x in chain.from_iterable(rows) if not math.isfinite(x))
        raise ValueError(f"cannot serialize non-finite value {float(bad)}")
    lines = [SWEEP_CSV_HEADER] + [_SWEEP_CSV_ROW % row for row in rows]
    _write_text(path, ["\n".join(lines) + "\n"], "sweep table")
