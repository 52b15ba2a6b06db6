"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time

import numpy as np
import pytest

import herglotz_measures as hm
from herglotz_measures import documents
from herglotz_measures.cli import main as cli_main
from herglotz_measures.measure import CircleGrid, MeasureKind
import conftest
from conftest import (
    TWO_PI,
    oracle_s_derivative,
    random_contractive_param,
    random_nodes,
)


def _report(number: int, ok: bool, text: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def _random_disc_point(rng, radius):
    return complex(radius * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, TWO_PI)))


def _scaled_lebesgue(nodes, factor, size=4096):
    return hm.GeneratedMeasure(
        nodes=nodes,
        param=None,
        grid=CircleGrid(size),
        density=factor * np.ones(size),
        atoms=(),
        kind=MeasureKind.ABSOLUTELY_CONTINUOUS,
    )


def _perturbed_atoms(measure, scale):
    return hm.GeneratedMeasure(
        nodes=measure.nodes,
        param=None,
        grid=measure.grid,
        density=measure.density,
        atoms=tuple(
            hm.Atom(angle=a.angle, location=a.location, weight=scale * a.weight)
            for a in measure.atoms
        ),
        kind=measure.kind,
    )


@pytest.fixture(scope="module")
def contractive_cases():
    rng = np.random.default_rng(103)
    return [(random_nodes(rng), random_contractive_param(rng)) for _ in range(50)]


def test_criterion_1_lebesgue_recovery():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        nodes = random_nodes(rng)
        measure = hm.build_measure(nodes, hm.Constant(0.0), 4096)
        assert np.array_equal(measure.density, np.ones(4096))
        assert hm.total_mass(measure) == 1.0
        report = hm.verify_membership(measure, 1e-12)
        worst = max(worst, report.max_abs_error)
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"20 Lebesgue recoveries: density 1, mass 1, "
        f"max gram error {worst:.2e} (tol 1e-12), {elapsed:.2f}s (< 1 s)",
    )


def test_criterion_2_extremal_masses():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst_mass = 0.0
    worst_gram = 0.0
    all_passed = True
    for _ in range(20):
        nodes = random_nodes(rng)
        b0 = hm.mass_bound_base(nodes)
        maximal, minimal = hm.extremal_measures(nodes)
        worst_mass = max(
            worst_mass,
            abs(hm.total_mass(maximal) - (1 + b0) / (1 - b0)),
            abs(hm.total_mass(minimal) - (1 - b0) / (1 + b0)),
        )
        for measure in (maximal, minimal):
            report = hm.verify_membership(measure, 1e-10)
            worst_gram = max(worst_gram, report.max_abs_error)
            all_passed &= report.passed
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst_mass <= 1e-10 and all_passed and elapsed < 2.0,
        f"20 extremal pairs: mass defect {worst_mass:.2e} (tol 1e-10), "
        f"gram error {worst_gram:.2e} (tol 1e-10), {elapsed:.2f}s (< 2 s)",
    )


def test_criterion_3_contractive_membership(contractive_cases):
    start = time.perf_counter()
    worst = 0.0
    all_passed = True
    for nodes, param in contractive_cases:
        measure = hm.build_measure(nodes, param, 4096)
        report = hm.verify_membership(measure, 1e-8)
        worst = max(worst, report.max_abs_error)
        all_passed &= report.passed
    elapsed = time.perf_counter() - start
    _report(
        3,
        all_passed and elapsed < 30.0,
        f"50 contractive parameters at N=4096: max gram error {worst:.2e} "
        f"(tol 1e-8), {elapsed:.2f}s (< 30 s)",
    )


def test_criterion_4_equivalence_with_phi_conditions(contractive_cases):
    rng = np.random.default_rng(104)
    suite = [hm.build_measure(nodes, param, 4096) for nodes, param in contractive_cases]
    negatives = []
    for _ in range(3):
        nodes = random_nodes(rng)
        for factor in (0.5, 2.0):
            negatives.append(_scaled_lebesgue(nodes, factor))
    for _ in range(2):
        nodes = random_nodes(rng)
        atomic = hm.build_measure(nodes, hm.Constant(1.0), 4096)
        for scale in (1.1, 0.9):
            negatives.append(_perturbed_atoms(atomic, scale))
    assert len(negatives) == 10
    agree = True
    negatives_fail = True
    for measure in suite + negatives:
        gram_ok = hm.verify_membership(measure, 1e-8).passed
        phi_ok = hm.check_phi_conditions(measure, 1e-8).passed
        agree &= gram_ok == phi_ok
    for measure in negatives:
        negatives_fail &= not hm.verify_membership(measure, 1e-8).passed
    _report(
        4,
        agree and negatives_fail,
        f"{len(suite)} positives + {len(negatives)} negatives: membership and "
        "phi-conditions agree case by case, all negatives rejected",
    )


def test_criterion_5_special_system():
    exact = True
    for beta in (-3.0, 0.0, 7.25):
        for n in (1, 4, 9):
            result = hm.solve_special_system([1 - 1j * beta] * n)
            exact &= result.solvable and result.beta == beta
    reject = hm.solve_special_system([1, 2])
    rejected = (not reject.solvable) and abs(reject.residual - 1.0) < 1e-15
    _report(
        5,
        exact and rejected,
        "beta in {-3, 0, 7.25} recovered exactly at n in {1, 4, 9}; "
        f"[1, 2] rejected with residual {reject.residual}",
    )


def test_criterion_6_kernel_identity():
    rng = np.random.default_rng(106)
    nodes = hm.validate_nodes([0.5, 0.3j, -0.2])
    atomic = hm.build_measure(
        nodes, hm.ScaledBlaschke(complex(np.exp(0.9j)), (0.4, -0.3j)), 4096
    )
    continuous = hm.build_measure(
        nodes, hm.CertifiedRational((0.4, 0.25), (1.0, 0.0, 0.1)), 4096
    )
    worst_atomic = 0.0
    worst_ac = 0.0
    for _ in range(100):
        zp = _random_disc_point(rng, 0.9)
        zpp = _random_disc_point(rng, 0.9)
        worst_atomic = max(worst_atomic, conftest.kernel_identity_check(atomic, zp, zpp))
        worst_ac = max(worst_ac, conftest.kernel_identity_check(continuous, zp, zpp))
    _report(
        6,
        worst_atomic <= 1e-12 and worst_ac <= 1e-8,
        f"100 random pairs: atomic residual {worst_atomic:.2e} (tol 1e-12), "
        f"AC residual {worst_ac:.2e} (tol 1e-8)",
    )


def test_criterion_7_atom_counting():
    cases = [
        (hm.validate_nodes([0]), hm.Constant(1.0), 1),
        (hm.validate_nodes([0.5, -0.3j]), hm.Constant(complex(np.exp(0.7j))), 2),
        (
            hm.validate_nodes([0.5, 0.3j, -0.2]),
            hm.ScaledBlaschke(complex(np.exp(1.3j)), (0.4, -0.25, 0.1j)),
            6,
        ),
        (
            hm.validate_nodes([0.6, -0.45, 0.3j, -0.5j, 0.35 + 0.35j, -0.4 - 0.2j]),
            hm.ScaledBlaschke(-1.0, (0.55, -0.3j, 0.2 - 0.4j, -0.25 + 0.3j)),
            10,
        ),
    ]
    counts_ok = True
    weights_ok = True
    residual_ok = True
    gram_ok = True
    for nodes, param, degree in cases:
        atoms = hm.find_atoms(nodes, param)
        counts_ok &= len(atoms) == degree
        for atom in atoms:
            weights_ok &= atom.weight > 0
            mu = 1.0 / (atom.location * oracle_s_derivative(nodes, param, atom.location))
            residual_ok &= abs(mu.imag) <= 1e-10
        measure = hm.build_measure(nodes, param, 4096)
        gram_ok &= hm.verify_membership(measure, 1e-10).passed
    _report(
        7,
        counts_ok and weights_ok and residual_ok and gram_ok,
        "inner degrees up to 10: atom count d, positive weights, imaginary "
        "residual <= 1e-10 (Cauchy-integral oracle), atomic gram at 1e-10",
    )


def test_criterion_8_quadrature_convergence(contractive_cases):
    worst = 0.0
    for nodes, param in contractive_cases:
        coarse = hm.gram_compute(hm.build_measure(nodes, param, 2048))
        fine = hm.gram_compute(hm.build_measure(nodes, param, 4096))
        worst = max(worst, float(np.max(np.abs(coarse - fine))))
    _report(
        8,
        worst <= 1e-10,
        f"doubling N 2048 -> 4096 moves gram entries by at most {worst:.2e} (tol 1e-10)",
    )


def test_criterion_9_cli_round_trip(tmp_path):
    measure_path = tmp_path / "measure.doc"
    report_path = tmp_path / "report.doc"
    gen_config = tmp_path / "generate.json"
    gen_config.write_text(
        json.dumps(
            {
                "command": "generate",
                "nodes": [[0.5, 0]],
                "parameter": {"type": "constant", "gamma": [1, 0]},
                "output_path": str(measure_path),
            }
        )
    )
    verify_config = tmp_path / "verify.json"
    verify_config.write_text(
        json.dumps(
            {
                "command": "verify",
                "measure_path": str(measure_path),
                "output_path": str(report_path),
            }
        )
    )

    generate_ok = cli_main(["generate", "--config", str(gen_config)]) == 0
    first_bytes = measure_path.read_bytes()
    generate_ok &= cli_main(["generate", "--config", str(gen_config)]) == 0
    byte_identical = measure_path.read_bytes() == first_bytes
    verify_ok = cli_main(["verify", "--config", str(verify_config)]) == 0

    doc = documents.read_document(measure_path)
    doc["atoms"][0] = [doc["atoms"][0][0], 1.0]
    doc["mass"] = 1.0  # a mass that disagrees with the atoms exits 2 instead
    documents.write_document(measure_path, doc)
    edited_rc = cli_main(["verify", "--config", str(verify_config)])
    report = documents.read_document(report_path)
    edited_ok = edited_rc == 1 and abs(report["max_abs_error"] - 8 / 9) < 1e-10

    _report(
        9,
        generate_ok and byte_identical and verify_ok and edited_ok,
        "generate -> verify exit 0 with byte-identical re-emission; edited atom "
        f"weight yields exit 1 with gram error {report['max_abs_error']:.12g} (expected 8/9)",
    )
