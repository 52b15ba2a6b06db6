"""Gram certification, phi-conditions, mass bounds, extremal measures."""

import numpy as np
import pytest

import herglotz_measures as hm
from herglotz_measures.measure import CircleGrid, MeasureKind
import conftest
from conftest import (
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
        assert hm.gram_compute(measure) == pytest.approx(np.array([[1.0]]), abs=1e-14)

    def test_extremal_atoms(self):
        plus = hm.build_measure(hm.validate_nodes([0.5]), hm.Constant(1.0))
        assert hm.gram_compute(plus) == pytest.approx(np.array([[4 / 3]]), abs=1e-12)
        minus = hm.build_measure(hm.validate_nodes([0.5]), hm.Constant(-1.0))
        assert hm.gram_compute(minus) == pytest.approx(np.array([[4 / 3]]), abs=1e-12)

    def test_hermitian_by_construction(self):
        rng = np.random.default_rng(32)
        nodes = random_nodes(rng, max_n=5)
        measure = hm.build_measure(nodes, random_contractive_param(rng), 2048)
        gram = hm.gram_compute(measure)
        assert np.array_equal(gram, gram.conj().T)

    def test_matches_generic_integration_route(self):
        rng = np.random.default_rng(33)
        nodes = random_nodes(rng, max_n=4)
        measure = hm.build_measure(nodes, random_contractive_param(rng), 2048)
        gram = hm.gram_compute(measure)
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
                assert np.max(np.abs(hm.gram_compute(measure) - oracle_gram(measure))) <= 1e-9

    @pytest.mark.parametrize("form", list(CLUSTERED_PARAMS))
    def test_clustered_nodes_near_circle(self, form):
        measure = hm.build_measure(CLUSTERED_NODES, CLUSTERED_PARAMS[form], 65536)
        assert np.max(np.abs(hm.gram_compute(measure) - oracle_gram(measure))) <= 1e-9
        phi = hm.check_phi_conditions(measure, 1e-8).phi_values
        for value, z in zip(phi, CLUSTERED_NODES.points):
            assert abs(value - conftest.phi_sigma(measure, z)) <= 1e-12

    def test_certify_matches_separate_reports(self):
        rng = np.random.default_rng(37)
        measure = hm.build_measure(random_nodes(rng), random_contractive_param(rng), 2048)
        gram, phi = hm.certify(measure, 1e-8)
        assert np.array_equal(gram.computed, hm.verify_membership(measure, 1e-8).computed)
        assert np.array_equal(phi.phi_values, hm.check_phi_conditions(measure, 1e-8).phi_values)


def _exact_phi_error(measure, param):
    """Worst |phi(z_k) - (1 - i Im c(0))|; s(z_k) = 0 gives c(z_k) = 1, hence this exact value."""
    exact = 1.0 - 1j * conftest.caratheodory_eval(measure.nodes, param, 0j).imag
    return float(np.max(np.abs(hm.check_phi_conditions(measure, 1e-8).phi_values - exact)))


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
        assert hm.verify_membership(measure, 1e-8).passed

    @pytest.mark.xfail(
        strict=True, raises=hm.MassConsistencyFailure, reason="N = 4096 under-resolves h"
    )
    def test_nodes_near_circle_coarse_grid(self):
        param = hm.Constant(0.5)
        measure = hm.build_measure(NEAR_CIRCLE_NODES, param, 4096)
        assert _exact_phi_error(measure, param) <= 1e-12
        assert hm.verify_membership(measure, 1e-8).passed


class TestVerifyMembership:
    def test_lebesgue_passes(self):
        measure = hm.build_measure(hm.validate_nodes([0.3, -0.4j]), hm.Constant(0.0))
        report = hm.verify_membership(measure, 1e-10)
        assert report.passed
        assert report.max_abs_error <= 1e-12

    def test_atomic_extremal_passes(self):
        measure = hm.build_measure(hm.validate_nodes([0.5]), hm.Constant(1.0))
        assert hm.verify_membership(measure, 1e-10).passed

    def test_wrong_atom_weight_fails(self):
        measure = _single_atom_measure(hm.validate_nodes([0.5]), 0.0, 1.0)
        report = hm.verify_membership(measure, 1e-6)
        assert not report.passed
        assert report.computed[0, 0] == pytest.approx(4.0)
        assert report.max_abs_error == pytest.approx(4.0 - 4 / 3)

    def test_tolerance_must_be_positive(self):
        measure = hm.build_measure(hm.validate_nodes([0.5]), hm.Constant(0.0), 512)
        with pytest.raises(ValueError):
            hm.verify_membership(measure, 0.0)


class TestCheckPhiConditions:
    def test_lebesgue_beta_zero(self):
        measure = hm.build_measure(hm.validate_nodes([0.3, 0.2j]), hm.Constant(0.0), 512)
        report = hm.check_phi_conditions(measure, 1e-8)
        assert report.passed
        assert report.beta == pytest.approx(0.0, abs=1e-13)

    def test_extremal_atomic_beta_zero(self):
        measure = hm.build_measure(hm.validate_nodes([0.5]), hm.Constant(1.0))
        report = hm.check_phi_conditions(measure, 1e-8)
        assert report.passed
        assert report.beta == pytest.approx(0.0, abs=1e-11)

    def test_scaled_lebesgue_fails_with_residual_two(self):
        measure = _scaled_lebesgue(hm.validate_nodes([0.5]), 2.0)
        report = hm.check_phi_conditions(measure, 1e-8)
        assert not report.passed
        assert report.residual == pytest.approx(2.0, abs=1e-12)

    def test_agreement_with_membership(self):
        rng = np.random.default_rng(34)
        cases = []
        for _ in range(8):
            nodes = random_nodes(rng)
            cases.append(hm.build_measure(nodes, random_contractive_param(rng), 2048))
            cases.append(_scaled_lebesgue(nodes, float(rng.choice([0.5, 2.0]))))
        for measure in cases:
            gram_ok = hm.verify_membership(measure, 1e-8).passed
            phi_ok = hm.check_phi_conditions(measure, 1e-8).passed
            assert gram_ok == phi_ok


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
        assert hm.verify_membership(plus, 1e-10).passed
        assert hm.verify_membership(minus, 1e-10).passed

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
        report = hm.verify_membership(mixture, 1e-8)
        assert report.passed
        gram_mix = 0.5 * hm.gram_compute(ac) + 0.5 * hm.gram_compute(atomic)
        assert hm.gram_compute(mixture) == pytest.approx(gram_mix, abs=1e-14)
