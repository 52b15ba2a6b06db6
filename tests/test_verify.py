"""Gram certification, phi-conditions, mass bounds, extremal measures."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import herglotz_measures as hm
from herglotz_measures import documents, verify
from herglotz_measures.measure import CircleGrid, MeasureKind
import conftest
from conftest import (
    TWO_PI,
    oracle_gram,
    oracle_gram_target,
    random_contractive_param,
    random_inner_param,
    random_nodes,
)


def _scaled_lebesgue(nodes, factor, size=1024):
    return hm.GeneratedMeasure(
        nodes=nodes,
        param=None,
        grid=CircleGrid(size),
        density=factor * np.ones(size),
        atoms=(),
        kind=MeasureKind.ABSOLUTELY_CONTINUOUS,
    )


def _single_atom_measure(nodes, angle, weight, size=256):
    return hm.GeneratedMeasure(
        nodes=nodes,
        param=None,
        grid=CircleGrid(size),
        density=np.zeros(size),
        atoms=(hm.Atom.at_angle(angle, weight),),
        kind=MeasureKind.PURELY_ATOMIC,
    )


class TestGramTarget:
    def test_zero_node(self):
        assert hm.gram_target(hm.validate_nodes([0])) == pytest.approx(np.array([[1.0]]))

    def test_single_node(self):
        assert hm.gram_target(hm.validate_nodes([0.5])) == pytest.approx(
            np.array([[4 / 3]])
        )

    def test_off_diagonal_entry(self):
        target = hm.gram_target(hm.validate_nodes([0.3, 0.5j]))
        assert target[0, 1] == pytest.approx(1 / (1 + 0.15j), abs=1e-16)

    def test_hermitian_with_diagonal_above_one(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            nodes = random_nodes(rng)
            target = hm.gram_target(nodes)
            z = nodes.as_array()
            assert np.array_equal(target, target.conj().T)
            assert np.allclose(target.diagonal(), 1.0 / (1.0 - np.abs(z) ** 2))
            assert np.all(target.diagonal().real > 1.0)
            assert target == pytest.approx(oracle_gram_target(nodes.points))


class TestGramCompute:
    def test_lebesgue_zero_node(self):
        measure = hm.build_measure(hm.validate_nodes([0]), hm.Constant(0.0), 512)
        assert hm.certify(measure, 1e-8).computed == pytest.approx(np.array([[1.0]]), abs=1e-14)

    def test_extremal_atoms(self):
        plus = hm.build_measure(hm.validate_nodes([0.5]), hm.Constant(1.0))
        assert hm.certify(plus, 1e-8).computed == pytest.approx(np.array([[4 / 3]]), abs=1e-12)
        minus = hm.build_measure(hm.validate_nodes([0.5]), hm.Constant(-1.0))
        assert hm.certify(minus, 1e-8).computed == pytest.approx(np.array([[4 / 3]]), abs=1e-12)

    def test_hermitian_by_construction(self):
        rng = np.random.default_rng(32)
        nodes = random_nodes(rng, max_n=5)
        measure = hm.build_measure(nodes, random_contractive_param(rng), 2048)
        gram = hm.certify(measure, 1e-8).computed
        assert np.array_equal(gram, gram.conj().T)

    def test_matches_generic_integration_route(self):
        rng = np.random.default_rng(33)
        nodes = random_nodes(rng, max_n=4)
        measure = hm.build_measure(nodes, random_contractive_param(rng), 2048)
        gram = hm.certify(measure, 1e-8).computed
        for k, zk in enumerate(nodes.points):
            for l, zl in enumerate(nodes.points):
                generic = conftest.integrate_against(
                    measure, lambda t: 1.0 / ((t - zk) * np.conj(t - zl))
                )
                assert gram[k, l] == pytest.approx(generic, abs=1e-12)


#: Nodes at |z| = 0.999, 0.005 rad apart, where the Cauchy kernels are sharply peaked.
CLUSTERED_NODES = hm.validate_nodes(0.999 * np.exp(1j * (0.3 + 0.005 * np.arange(4))))
CLUSTERED_PARAMS = {
    "constant": hm.Constant(0.5j),
    "scaled-blaschke": hm.ScaledBlaschke(0.6, (0.5, -0.3j)),
    "inner": hm.ScaledBlaschke(1.0, (0.5,)),
}


class TestGramAgainstDirectOracle:
    """The phi route (kernel identity) against the direct O(n^2 N) double sum."""

    def test_random_nodes(self):
        rng = np.random.default_rng(36)
        for _ in range(6):
            nodes = random_nodes(rng, max_n=6, radius=0.9)
            for param in (random_contractive_param(rng), random_inner_param(rng)):
                measure = hm.build_measure(nodes, param, 4096)
                assert np.max(np.abs(hm.certify(measure, 1e-8).computed - oracle_gram(measure))) <= 1e-9

    @pytest.mark.parametrize("form", list(CLUSTERED_PARAMS))
    def test_clustered_nodes_near_circle(self, form):
        measure = hm.build_measure(CLUSTERED_NODES, CLUSTERED_PARAMS[form], 65536)
        assert np.max(np.abs(hm.certify(measure, 1e-8).computed - oracle_gram(measure))) <= 1e-9
        phi = hm.certify(measure, 1e-8).phi
        for value, z in zip(phi, CLUSTERED_NODES.points):
            assert abs(value - conftest.phi_sigma(measure, z)) <= 1e-12

    def test_certify_matches_separate_reports(self):
        rng = np.random.default_rng(37)
        measure = hm.build_measure(random_nodes(rng), random_contractive_param(rng), 2048)
        certificate = hm.certify(measure, 1e-8)
        computed, target = certificate.computed, certificate.target
        assert np.array_equal(target, hm.gram_target(measure.nodes))
        assert np.array_equal(computed, verify._gram_from_phi(certificate.phi, target))
        assert certificate.gram_error == np.max(np.abs(computed - target))
        assert certificate.system == hm.solve_special_system(certificate.phi, tol=1e-8)


def _exact_phi_error(measure, param):
    """Worst |phi(z_k) - (1 - i Im c(0))|; s(z_k) = 0 gives c(z_k) = 1, hence this exact value."""
    exact = 1.0 - 1j * conftest.caratheodory_eval(measure.nodes, param, 0j).imag
    return float(np.max(np.abs(hm.certify(measure, 1e-8).phi - exact)))


#: Four nodes at |z| = 0.999, 0.7 rad apart.
NEAR_CIRCLE_NODES = hm.validate_nodes(0.999 * np.exp(1j * (0.3 + 0.7 * np.arange(4))))


class TestExactPhiOracle:
    """phi at the nodes against its exact value, so the assertions bound the quadrature error."""

    def test_random_nodes_and_parameters(self):
        rng = np.random.default_rng(38)
        for _ in range(40):
            nodes = random_nodes(rng)
            for param in (random_contractive_param(rng), random_inner_param(rng)):
                assert _exact_phi_error(hm.build_measure(nodes, param, 4096), param) <= 1e-12

    def test_clustered_nodes_resolved_grid(self):
        param = CLUSTERED_PARAMS["scaled-blaschke"]
        measure = hm.build_measure(CLUSTERED_NODES, param, 1 << 18)
        assert _exact_phi_error(measure, param) <= 1e-12

    # The two cases below are known quadrature defects: the grid does not resolve the
    # poles of h next to nodes this close to the circle.  Choosing N from those poles
    # has to turn them into passes (or typed errors), which flips these strict xfails.
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="N = 65536 under-resolves h")
    def test_clustered_nodes_coarse_grid(self):
        param = CLUSTERED_PARAMS["scaled-blaschke"]
        measure = hm.build_measure(CLUSTERED_NODES, param, 65536)
        assert _exact_phi_error(measure, param) <= 1e-12
        assert hm.certify(measure, 1e-8).gram_passed

    @pytest.mark.xfail(
        strict=True, raises=hm.MassConsistencyFailure, reason="N = 4096 under-resolves h"
    )
    def test_nodes_near_circle_coarse_grid(self):
        param = hm.Constant(0.5)
        measure = hm.build_measure(NEAR_CIRCLE_NODES, param, 4096)
        assert _exact_phi_error(measure, param) <= 1e-12
        assert hm.certify(measure, 1e-8).gram_passed


def _random_density_measure(n, grid_size, seed):
    """n random nodes and a positive random density; the phi pass needs no parameter."""
    rng = np.random.default_rng(seed)
    z = 0.95 * np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(1j * rng.uniform(0.0, TWO_PI, n))
    return hm.GeneratedMeasure(
        nodes=hm.validate_nodes(z),
        param=None,
        grid=CircleGrid(grid_size),
        density=rng.uniform(0.5, 1.5, grid_size),
        atoms=(),
        kind=MeasureKind.ABSOLUTELY_CONTINUOUS,
    )


def _unblocked_phi(measure):
    """phi(z_k) from one whole n x N Cauchy matrix, the product the blocked pass splits."""
    z = measure.nodes.as_array()
    cauchy = 1.0 / (measure.grid.points[None, :] - z[:, None])
    return measure.mass + 2.0 * z * (cauchy @ (measure.density / measure.grid.size))


class TestBlockedPhiPass:
    """The density part of phi is summed over column blocks of bounded size."""

    @staticmethod
    def _assert_matches_unblocked(measure):
        reference = _unblocked_phi(measure)
        phi = verify._node_phi(measure)
        assert np.max(np.abs(phi - reference)) <= 1e-14 * np.max(np.abs(reference))

    @pytest.mark.parametrize("grid_size", [256, 4096, 65536])
    @pytest.mark.parametrize("n", [1, 7, 128])
    def test_matches_one_unblocked_product(self, n, grid_size):
        self._assert_matches_unblocked(_random_density_measure(n, grid_size, seed=n + grid_size))

    @pytest.mark.parametrize("budget", [3, 700], ids=["width-1", "ragged-last-block"])
    def test_budget_below_the_grid(self, monkeypatch, budget):
        # n = 7: a budget below n still takes one column per block; 700 takes 100 columns,
        # so the last of the three blocks of N = 256 is 56 columns wide.
        monkeypatch.setattr(verify, "_PHI_BLOCK_ELEMENTS", budget)
        measure = _random_density_measure(7, 256, seed=budget)
        self._assert_matches_unblocked(measure)
        # Slices of a prebuilt grid matrix are the same blocks, summed bit for bit alike.
        z, points = measure.nodes.as_array(), measure.grid.points
        weights = measure.density / measure.grid.size
        grid_cauchy = verify._cauchy_matrix(points, z)
        sliced = verify._phi(z, measure.mass, points, weights, grid_cauchy=grid_cauchy)
        assert np.array_equal(sliced, verify._node_phi(measure))

    def test_peak_memory_is_one_block(self):
        # The whole 128 x 65536 complex matrix is 128 MiB; one block is 2 MiB.
        measure = _random_density_measure(128, 65536, seed=5)
        tracemalloc.start()
        try:
            hm.certify(measure, 1e-8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


class TestSweepRingRows:
    """A sweep's |gamma| = 1 rows, from blocked atom solves, equal build_measure + certify."""

    def test_ring_peak_memory_is_bounded(self):
        # Blocks of 2**14 atoms hold 512 of these 4096 rows at a time; one solve of the
        # whole ring, holding every row's atoms and Newton arrays, peaks at 30 MiB.
        rng = np.random.default_rng(32)
        z = 0.6 * np.sqrt(rng.uniform(0.0, 1.0, 32)) * np.exp(1j * rng.uniform(0.0, TWO_PI, 32))
        nodes = hm.validate_nodes(z)
        gammas = [complex(np.cos(a), np.sin(a)) for a in TWO_PI * np.arange(4096) / 4096]
        tracemalloc.start()
        try:
            rows = sum(1 for _ in verify.sweep_reports(nodes, gammas, 4096, 1e-8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == 4096
        assert peak < 12 * 2**20

    @pytest.mark.parametrize("grid_size", [4096, 65536])
    @pytest.mark.parametrize("n", [8, 32])
    def test_rows_equal_build_measure_and_verify(self, n, grid_size):
        rng = np.random.default_rng(n + grid_size)
        z = 0.8 * np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(1j * rng.uniform(0.0, TWO_PI, n))
        nodes = hm.validate_nodes(z)
        angles = TWO_PI * np.arange(8) / 8
        gammas = [complex(np.cos(a), np.sin(a)) for a in angles]
        rows = list(verify.sweep_reports(nodes, gammas, grid_size, 1e-8))
        assert len(rows) == len(gammas)
        for gamma, (mass, report) in zip(gammas, rows):
            built = hm.build_measure(nodes, hm.Constant(gamma), grid_size)
            expected = hm.certify(built, 1e-8)
            assert repr(mass) == repr(built.mass)
            assert np.array_equal(report.computed, expected.computed)
            assert np.array_equal(report.target, expected.target)
            assert repr(report.gram_error) == repr(expected.gram_error)
            assert report.gram_passed == expected.gram_passed


class TestVerifyMembership:
    def test_lebesgue_passes(self):
        measure = hm.build_measure(hm.validate_nodes([0.3, -0.4j]), hm.Constant(0.0))
        report = hm.certify(measure, 1e-10)
        assert report.gram_passed
        assert report.gram_error <= 1e-12

    def test_atomic_extremal_passes(self):
        measure = hm.build_measure(hm.validate_nodes([0.5]), hm.Constant(1.0))
        assert hm.certify(measure, 1e-10).gram_passed

    def test_wrong_atom_weight_fails(self):
        measure = _single_atom_measure(hm.validate_nodes([0.5]), 0.0, 1.0)
        report = hm.certify(measure, 1e-6)
        assert not report.gram_passed
        assert report.computed[0, 0] == pytest.approx(4.0)
        assert report.gram_error == pytest.approx(4.0 - 4 / 3)

    def test_tolerance_must_be_positive(self):
        measure = hm.build_measure(hm.validate_nodes([0.5]), hm.Constant(0.0), 512)
        with pytest.raises(ValueError):
            hm.certify(measure, 0.0)


class TestCheckPhiConditions:
    def test_lebesgue_beta_zero(self):
        measure = hm.build_measure(hm.validate_nodes([0.3, 0.2j]), hm.Constant(0.0), 512)
        report = hm.certify(measure, 1e-8)
        assert report.system.solvable
        assert report.system.beta == pytest.approx(0.0, abs=1e-13)

    def test_extremal_atomic_beta_zero(self):
        measure = hm.build_measure(hm.validate_nodes([0.5]), hm.Constant(1.0))
        report = hm.certify(measure, 1e-8)
        assert report.system.solvable
        assert report.system.beta == pytest.approx(0.0, abs=1e-11)

    def test_scaled_lebesgue_fails_with_residual_two(self):
        measure = _scaled_lebesgue(hm.validate_nodes([0.5]), 2.0)
        report = hm.certify(measure, 1e-8)
        assert not report.system.solvable
        assert report.system.residual == pytest.approx(2.0, abs=1e-12)

    def test_agreement_with_membership(self):
        rng = np.random.default_rng(34)
        cases = []
        for _ in range(8):
            nodes = random_nodes(rng)
            cases.append(hm.build_measure(nodes, random_contractive_param(rng), 2048))
            cases.append(_scaled_lebesgue(nodes, float(rng.choice([0.5, 2.0]))))
        for measure in cases:
            gram_ok = hm.certify(measure, 1e-8).gram_passed
            phi_ok = hm.certify(measure, 1e-8).system.solvable
            assert gram_ok == phi_ok


class TestReplayNames:
    """verify_membership and check_phi_conditions, which perfbench/replay.py calls."""

    @pytest.mark.parametrize("factor", [1.0, 2.0], ids=["member", "scaled"])
    def test_old_report_fields_read_the_certificate(self, factor):
        measure = _scaled_lebesgue(hm.validate_nodes([0.5, 0.2j]), factor)
        certificate = hm.certify(measure, 1e-8)
        gram = verify.verify_membership(measure, 1e-8)
        phi = verify.check_phi_conditions(measure, 1e-8)
        assert gram.passed == certificate.gram_passed
        assert gram.max_abs_error == certificate.gram_error
        assert phi.passed == certificate.system.solvable
        assert phi.residual == certificate.system.residual
        report = documents.verify_report_document("m.doc", gram, phi, measure.mass)
        assert report == documents.verify_report_document(
            "m.doc", certificate, certificate, measure.mass
        )
        # measure_document needs a parameter to describe; the scaled density has none.
        measure = dataclasses.replace(measure, param=hm.Constant(0.0))
        assert documents.dumps_document(
            documents.measure_document(measure, gram, measure.mass)
        ) == documents.dumps_document(documents.measure_document(measure, certificate, measure.mass))


class TestMassBounds:
    def test_zero_node(self):
        assert hm.mass_bounds(hm.validate_nodes([0])) == (1.0, 1.0)

    def test_single_node(self):
        lower, upper = hm.mass_bounds(hm.validate_nodes([0.5]))
        assert lower == pytest.approx(1 / 3)
        assert upper == pytest.approx(3.0)

    def test_two_nodes(self):
        lower, upper = hm.mass_bounds(hm.validate_nodes([0.5, 0.5j]))
        assert lower == pytest.approx(0.6)
        assert upper == pytest.approx(5 / 3)


class TestExtremalMeasures:
    def test_single_node_masses(self):
        plus, minus = hm.extremal_measures(hm.validate_nodes([0.5]))
        assert hm.total_mass(plus) == pytest.approx(3.0, abs=1e-11)
        assert hm.total_mass(minus) == pytest.approx(1 / 3, abs=1e-12)

    def test_zero_node_atoms(self):
        plus, minus = hm.extremal_measures(hm.validate_nodes([0]))
        assert hm.total_mass(plus) == pytest.approx(1.0, abs=1e-12)
        assert hm.total_mass(minus) == pytest.approx(1.0, abs=1e-12)
        assert plus.atoms[0].location == pytest.approx(1.0, abs=1e-13)
        assert minus.atoms[0].location == pytest.approx(-1.0, abs=1e-13)

    def test_masses_attain_bounds(self):
        nodes = hm.validate_nodes([0.3, 0.5j])
        lower, upper = hm.mass_bounds(nodes)
        assert upper == pytest.approx(1.15 / 0.85)
        plus, minus = hm.extremal_measures(nodes)
        assert hm.total_mass(plus) == pytest.approx(upper, abs=1e-10)
        assert hm.total_mass(minus) == pytest.approx(lower, abs=1e-10)
        assert hm.certify(plus, 1e-10).gram_passed
        assert hm.certify(minus, 1e-10).gram_passed

    @pytest.mark.parametrize("n", [8, 64])
    def test_pair_equals_lone_builds(self, n):
        rng = np.random.default_rng(n)
        z = 0.8 * np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(1j * rng.uniform(0.0, TWO_PI, n))
        z[0] = 0.99 * np.exp(1j * rng.uniform(0.0, TWO_PI))
        nodes = hm.validate_nodes(z)
        for extremal, gamma in zip(hm.extremal_measures(nodes), (1.0, -1.0)):
            lone = hm.build_measure(nodes, hm.Constant(gamma))
            assert [(a.angle, a.weight) for a in extremal.atoms] == [
                (a.angle, a.weight) for a in lone.atoms
            ]
            assert repr(extremal.mass) == repr(lone.mass)
            assert np.array_equal(hm.certify(extremal, 1e-8).phi, hm.certify(lone, 1e-8).phi)

    def test_mass_report_flags(self):
        plus, minus = hm.extremal_measures(hm.validate_nodes([0.5]))
        report = conftest.mass_report(plus)
        assert report.attains_max and not report.attains_min
        assert report.lower_bound == pytest.approx(1 / 3)
        assert report.upper_bound == pytest.approx(3.0)
        report = conftest.mass_report(minus)
        assert report.attains_min and not report.attains_max
        middle = hm.build_measure(hm.validate_nodes([0.5]), hm.Constant(0.0), 512)
        report = conftest.mass_report(middle)
        assert not report.attains_min and not report.attains_max


class TestKernelIdentity:
    def test_lebesgue_at_origin(self):
        measure = hm.build_measure(hm.validate_nodes([0.5]), hm.Constant(0.0), 512)
        assert conftest.kernel_identity_check(measure, 0.0, 0.0) <= 1e-12

    def test_atomic_exact(self):
        measure = hm.build_measure(hm.validate_nodes([0.5]), hm.Constant(1.0))
        assert conftest.kernel_identity_check(measure, 0.2, -0.1j) <= 1e-12

    def test_absolutely_continuous_spectral(self):
        rng = np.random.default_rng(35)
        measure = hm.build_measure(hm.validate_nodes([0.5]), hm.Constant(0.5), 4096)
        for _ in range(20):
            zp, zpp = (
                complex(0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
                for _ in range(2)
            )
            assert conftest.kernel_identity_check(measure, zp, zpp) <= 1e-8


class TestConvexity:
    def test_mixture_passes_membership(self):
        nodes = hm.validate_nodes([0.4, -0.3j])
        ac = hm.build_measure(nodes, hm.Constant(0.4), 2048)
        atomic = hm.build_measure(nodes, hm.Constant(1.0), 2048)
        mixture = hm.GeneratedMeasure(
            nodes=nodes,
            param=None,
            grid=ac.grid,
            density=0.5 * ac.density,
            atoms=tuple(
                hm.Atom(angle=a.angle, location=a.location, weight=0.5 * a.weight)
                for a in atomic.atoms
            ),
            kind=MeasureKind.MIXED,
        )
        assert hm.certify(mixture, 1e-8).gram_passed
        gram_mix = 0.5 * hm.certify(ac, 1e-8).computed + 0.5 * hm.certify(atomic, 1e-8).computed
        assert hm.certify(mixture, 1e-8).computed == pytest.approx(gram_mix, abs=1e-14)
