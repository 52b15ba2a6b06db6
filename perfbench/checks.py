"""Output checks that do not trust the program's own verdicts.

Everything here is recomputed from the job config with numpy and the json
module only; nothing is imported from ``herglotz_measures``.  Each check
returns a list of problems (empty when the output is correct).
"""

from __future__ import annotations

import json
import math

import numpy as np

MASS_TOL = 1e-9  # the mass identities hold to the program's consistency tolerance
TARGET_RTOL = 1e-12  # documents print 17 significant digits
SUM_RTOL = 1e-12
EPS_SLACK = 64 * np.finfo(float).eps


def _complex(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def _cvec(pairs) -> np.ndarray:
    return np.asarray([_complex(p) for p in pairs], dtype=complex)


def blaschke_at_origin(nodes) -> float:
    """b0 = B(0) = prod |z_k|."""
    return float(np.prod(np.abs(_cvec(nodes))))


def mass_bounds(b0: float) -> tuple[float, float]:
    return (1.0 - b0) / (1.0 + b0), (1.0 + b0) / (1.0 - b0)


def omega_at_origin(param: dict) -> complex:
    if param["type"] == "constant":
        return _complex(param["gamma"])
    if param["type"] == "scaled-blaschke":
        gamma = _complex(param["gamma"])
        return gamma * float(np.prod(np.abs(_cvec(param["zeros"])))) if param["zeros"] else gamma
    if param["type"] == "rational":
        return _complex(param["numerator"][0]) / _complex(param["denominator"][0])
    raise ValueError(f"unknown parameter type {param['type']!r}")


def closed_form_mass(b0: float, omega0: complex) -> float:
    """h(0) = (1 - |s0|^2) / |1 - s0|^2 with s0 = B(0) * omega(0)."""
    s0 = b0 * omega0
    return (1.0 - abs(s0) ** 2) / abs(1.0 - s0) ** 2


def _mass_problems(mass: float, b0: float, omega0: complex, what: str) -> list[str]:
    problems = []
    lower, upper = mass_bounds(b0)
    slack = MASS_TOL + EPS_SLACK * upper
    if not (lower - slack <= mass <= upper + slack):
        problems.append(f"{what}: mass {mass!r} outside the sharp bounds [{lower!r}, {upper!r}]")
    expected = closed_form_mass(b0, omega0)
    if abs(mass - expected) > MASS_TOL + EPS_SLACK * abs(expected):
        problems.append(f"{what}: mass {mass!r} differs from the closed form {expected!r} "
                        f"by {abs(mass - expected):.3e}")
    return problems


def _atom_problems(atoms, mass: float, degree: int, what: str) -> list[str]:
    problems = []
    if len(atoms) != degree:
        problems.append(f"{what}: {len(atoms)} atoms, degree is {degree}")
    total = math.fsum(float(w) for _, w in atoms)
    if abs(total - mass) > SUM_RTOL * max(1.0, abs(mass)):
        problems.append(f"{what}: atom weights sum to {total!r}, mass is {mass!r}")
    return problems


def gram_target(nodes) -> np.ndarray:
    z = _cvec(nodes)
    return 1.0 / (1.0 - z[:, None] * z.conj()[None, :])


def _gram_problems(block: dict, nodes, passed_call: bool) -> list[str]:
    problems = []
    target = np.asarray([[_complex(e) for e in row] for row in block["target"]], dtype=complex)
    computed = np.asarray([[_complex(e) for e in row] for row in block["computed"]], dtype=complex)
    expected = gram_target(nodes)
    if target.shape != expected.shape:
        return [f"gram target has shape {target.shape}, expected {expected.shape}"]
    off = np.abs(target - expected)
    if np.any(off > TARGET_RTOL * np.maximum(1.0, np.abs(expected))):
        problems.append(f"gram target differs from 1/(1 - z_k conj z_l) by {off.max():.3e}")
    error = float(np.max(np.abs(computed - expected)))
    if passed_call and error > block["tolerance"] * (1.0 + 1e-6):
        problems.append(f"gram error {error:.3e} exceeds tolerance {block['tolerance']:.1e}")
    return problems


def check_measure_document(text: str, job, passed_call: bool) -> list[str]:
    doc = json.loads(text)
    problems = []
    if doc.get("schema") != "herglotz-measure/v1":
        problems.append(f"measure document schema {doc.get('schema')!r}")
    if doc["nodes"] != job.nodes:
        problems.append("measure document nodes differ from the config")
    b0 = blaschke_at_origin(job.nodes)
    omega0 = omega_at_origin(job.parameter)
    mass = float(doc["mass"])
    problems += _mass_problems(mass, b0, omega0, "measure")
    if job.degree:
        if doc["kind"] != "purely-atomic":
            problems.append(f"inner parameter gave kind {doc['kind']!r}")
        problems += _atom_problems(doc["atoms"], mass, job.degree, "measure")
    else:
        if doc["kind"] != "absolutely-continuous" or doc["atoms"]:
            problems.append(f"contractive parameter gave kind {doc['kind']!r} "
                            f"with {len(doc['atoms'])} atoms")
        if len(doc["density"]) != job.grid_size:
            problems.append(f"{len(doc['density'])} density samples, grid is {job.grid_size}")
    problems += _gram_problems(doc["gram_report"], job.nodes, passed_call)
    return problems


def check_verify_report(text: str, job, passed_call: bool) -> list[str]:
    doc = json.loads(text)
    problems = []
    if doc.get("schema") != "herglotz-verify-report/v1":
        problems.append(f"verify report schema {doc.get('schema')!r}")
    problems += _mass_problems(float(doc["mass"]), blaschke_at_origin(job.nodes),
                               omega_at_origin(job.parameter), "verify report")
    if doc["passed"] != (doc["gram_passed"] and doc["phi_passed"]):
        problems.append("verify report verdict disagrees with its gram and phi verdicts")
    if passed_call and doc["max_abs_error"] > doc["tolerance"]:
        problems.append(f"verify report passes with gram error {doc['max_abs_error']:.3e}")
    return problems


def check_bounds_document(text: str, job, passed_call: bool) -> list[str]:
    doc = json.loads(text)
    problems = []
    if doc.get("schema") != "herglotz-bounds/v1":
        problems.append(f"bounds document schema {doc.get('schema')!r}")
    b0 = blaschke_at_origin(job.nodes)
    lower, upper = mass_bounds(b0)
    closed_forms = (("blaschke_at_origin", b0), ("lower_bound", lower), ("upper_bound", upper))
    for key, expected in closed_forms:
        if abs(doc[key] - expected) > TARGET_RTOL * max(1.0, abs(expected)):
            problems.append(f"bounds {key} = {doc[key]!r}, closed form {expected!r}")
    for key, omega0 in (("extremal_max", 1.0 + 0j), ("extremal_min", -1.0 + 0j)):
        block = doc[key]
        problems += _mass_problems(float(block["mass"]), b0, omega0, key)
        problems += _atom_problems(block["atoms"], float(block["mass"]), job.n, key)
        if passed_call and not block["membership_passed"]:
            problems.append(f"{key} membership failed in a passing bounds call")
    return problems


def sweep_gammas(radius_steps: int, angle_steps: int) -> list[complex]:
    """The constant parameters of a sweep, in the order of its rows."""
    gammas = []
    for r in np.linspace(0.0, 1.0, radius_steps):
        angles = 2.0 * math.pi * np.arange(angle_steps) / angle_steps
        for angle in angles if r > 0 else angles[:1]:
            gammas.append(complex(r * math.cos(angle), r * math.sin(angle)))
    return gammas


def check_sweep_csv(text: str, job, tolerance: float) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != "re_gamma,im_gamma,mass,max_gram_error":
        return [f"sweep CSV header {lines[0] if lines else ''!r}"]
    radius_steps, angle_steps = job.sweep
    expected_rows = 1 + (radius_steps - 1) * angle_steps
    rows = lines[1:]
    if len(rows) != expected_rows:
        return [f"sweep CSV has {len(rows)} rows, expected {expected_rows}"]
    b0 = blaschke_at_origin(job.nodes)
    problems = []
    for k, (line, gamma) in enumerate(zip(rows, sweep_gammas(radius_steps, angle_steps))):
        fields = line.split(",")
        if len(fields) != 4:
            problems.append(f"sweep row {k} has {len(fields)} fields")
            continue
        re_g, im_g, mass, err = (float(x) for x in fields)
        if abs(complex(re_g, im_g) - gamma) > 1e-15:
            problems.append(f"sweep row {k} gamma {re_g!r},{im_g!r} is off the disc grid")
        problems += _mass_problems(mass, b0, gamma, f"sweep row {k}")
        if not err <= tolerance:
            problems.append(f"sweep row {k} gram error {err:.3e} exceeds {tolerance:.1e}")
        if len(problems) > 5:
            break
    return problems


def check_output(command: str, text: str, job, passed_call: bool, tolerance: float) -> list[str]:
    """Dispatch on the subcommand; a document that is not even parseable is a problem."""
    try:
        if command == "generate":
            return check_measure_document(text, job, passed_call)
        if command == "verify":
            return check_verify_report(text, job, passed_call)
        if command == "bounds":
            return check_bounds_document(text, job, passed_call)
        return check_sweep_csv(text, job, tolerance)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{command} output is malformed: {type(exc).__name__}: {exc}"]
