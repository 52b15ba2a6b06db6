"""Density sampling, atom extraction, measure construction, quadrature."""

import math

import numpy as np
import pytest

import herglotz_measures as hm
from herglotz_measures import measure
from herglotz_measures.measure import CircleGrid, MeasureKind
import conftest
from conftest import (
    TWO_PI,
    oracle_atom_angles,
    oracle_integral,
    oracle_s,
    oracle_s_derivative,
    random_contractive_param,
    random_inner_param,
    random_nodes,
)


class TestCircleGrid:
    def test_uniform_spacing(self):
        grid = CircleGrid(8)
        assert grid.angles[0] == 0.0
        assert np.allclose(np.diff(grid.angles), TWO_PI / 8)
        assert np.max(np.abs(np.abs(grid.points) - 1.0)) < 1e-15

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            CircleGrid(6)


class TestAtom:
    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            hm.Atom.at_angle(0.0, -1.0)

    def test_location_must_be_on_circle(self):
        with pytest.raises(ValueError):
            hm.Atom(angle=0.0, location=0.5 + 0j, weight=1.0)

    def test_angle_wrapped(self):
        atom = hm.Atom.at_angle(TWO_PI + 0.5, 1.0)
        assert atom.angle == pytest.approx(0.5)


class TestBoundaryDensity:
    def test_lebesgue_density_is_one(self):
        nodes = hm.validate_nodes([0.3, -0.2j])
        density, flagged = hm.boundary_density(nodes, hm.Constant(0.0), CircleGrid(8))
        assert np.array_equal(density, np.ones(8))
        assert not flagged.any()

    def test_contractive_case_positive_with_bounded_mass(self):
        nodes = hm.validate_nodes([0.5])
        grid = CircleGrid(4096)
        density, flagged = hm.boundary_density(nodes, hm.Constant(0.5), grid)
        assert not flagged.any()
        assert np.all(density > 0)
        mass = density.mean()
        assert 1 / 3 < mass < 3

    def test_inner_case_density_vanishes(self):
        nodes = hm.validate_nodes([0.5])
        density, flagged = hm.boundary_density(nodes, hm.Constant(1.0), CircleGrid(4096))
        assert np.all(np.abs(density[~flagged]) < 1e-6)


class TestFindAtoms:
    def test_single_zero_node(self):
        atoms = hm.find_atoms(hm.validate_nodes([0]), hm.Constant(1.0))
        assert len(atoms) == 1
        assert atoms[0].location == pytest.approx(1.0, abs=1e-14)
        assert atoms[0].weight == pytest.approx(1.0, abs=1e-13)

    def test_max_extremal_atom(self):
        atoms = hm.find_atoms(hm.validate_nodes([0.5]), hm.Constant(1.0))
        assert len(atoms) == 1
        assert atoms[0].angle == pytest.approx(math.pi, abs=1e-13)
        assert atoms[0].weight == pytest.approx(3.0, abs=1e-12)

    def test_min_extremal_atom(self):
        atoms = hm.find_atoms(hm.validate_nodes([0.5]), hm.Constant(-1.0))
        assert len(atoms) == 1
        assert atoms[0].angle == pytest.approx(0.0, abs=1e-13)
        assert atoms[0].weight == pytest.approx(1 / 3, abs=1e-13)

    def test_not_inner_rejected(self):
        with pytest.raises(hm.NotInnerParameter):
            hm.find_atoms(hm.validate_nodes([0.5]), hm.Constant(0.5))

    def test_degree_counting_and_weights(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            nodes = random_nodes(rng, max_n=4)
            param = random_inner_param(rng)
            extra = len(param.zeros) if isinstance(param, hm.ScaledBlaschke) else 0
            atoms = hm.find_atoms(nodes, param)
            assert len(atoms) == nodes.n + extra
            for atom in atoms:
                assert atom.weight > 0
                # each atom location solves s(t) = 1
                assert abs(oracle_s(nodes, param, atom.location) - 1.0) < 1e-12

    def test_weights_match_cauchy_integral_oracle(self):
        nodes = hm.validate_nodes([0.5, 0.3j, -0.2])
        param = hm.Constant(1.0)
        for atom in hm.find_atoms(nodes, param):
            derivative = oracle_s_derivative(nodes, param, atom.location)
            mu = 1.0 / (atom.location * derivative)
            assert abs(mu.imag) <= 1e-10
            assert atom.weight == pytest.approx(mu.real, abs=1e-11)

    def test_angles_match_polynomial_root_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            degree = int(rng.integers(1, 13))
            zeros = 0.95 * np.sqrt(rng.uniform(0, 1, degree)) * np.exp(
                1j * rng.uniform(0, TWO_PI, degree)
            )
            if rng.integers(0, 4) == 0:
                zeros[0] = 0.0
            gamma = complex(np.exp(1j * rng.uniform(0, TWO_PI)))
            n = int(rng.integers(1, degree + 1))
            param = hm.ScaledBlaschke(gamma, tuple(zeros[n:]))
            atoms = hm.find_atoms(hm.validate_nodes(zeros[:n]), param)
            angles = np.array([a.angle for a in atoms])
            expected = oracle_atom_angles(gamma, zeros)
            gaps = np.abs(np.angle(np.exp(1j * (angles[:, None] - expected[None, :]))))
            assert angles.size == degree
            assert gaps.min(axis=0).max() < 1e-10
            assert gaps.min(axis=1).max() < 1e-10

    def test_every_draw_of_near_boundary_shape_converges(self):
        # 8 nodes out to |z| = 0.99 and 24 Blaschke zeros out to 0.9, spread
        # like the benchmark's nodes: array Newton over [0, 2*pi] without scan
        # brackets fails to converge on 14 of these 100 draws.
        rng = np.random.default_rng(31)

        def sunflower(count, rmax):
            k = np.arange(count)
            radius = rmax * np.sqrt((k + 0.5) / count) * rng.uniform(0.96, 1.04, count)
            radius = np.minimum(radius, rmax)
            radius[-1] = rmax
            angle = k * math.pi * (3.0 - math.sqrt(5.0)) + rng.uniform(0, TWO_PI)
            return radius * np.exp(1j * (angle + rng.uniform(-0.05, 0.05, count)))

        for _ in range(100):
            nodes = hm.validate_nodes(sunflower(8, 0.99))
            gamma = complex(np.exp(1j * rng.uniform(0, TWO_PI)))
            param = hm.ScaledBlaschke(gamma, tuple(sunflower(24, 0.9)))
            assert len(hm.find_atoms(nodes, param)) == 32

    @staticmethod
    def _ring(rng, degree, radius, rows):
        zeros = radius * np.sqrt(rng.uniform(0, 1, degree)) * np.exp(
            1j * rng.uniform(0, TWO_PI, degree)
        )
        gammas = [hm.Constant(complex(np.exp(1j * a))).gamma for a in rng.uniform(0, TWO_PI, rows)]
        return hm.validate_nodes(zeros), gammas

    def test_rows_equal_lone_solves_and_polynomial_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            nodes, gammas = self._ring(rng, int(rng.integers(1, 13)), 0.95, int(rng.integers(1, 9)))
            rows = list(measure.solve_atoms(gammas, nodes.as_array()))
            assert len(rows) == len(gammas)
            for gamma, atoms in zip(gammas, rows):
                lone = hm.find_atoms(nodes, hm.Constant(gamma))
                assert [(a.angle, a.weight) for a in atoms] == [(a.angle, a.weight) for a in lone]
                angles = np.array([a.angle for a in atoms])
                expected = oracle_atom_angles(gamma, nodes.points)
                gaps = np.abs(np.angle(np.exp(1j * (angles[:, None] - expected[None, :]))))
                assert gaps.min(axis=0).max() < 1e-10
                assert gaps.min(axis=1).max() < 1e-10

    def test_row_that_does_not_converge_leaves_other_rows_alone(self, monkeypatch):
        # Three Newton steps are too few for some rows of this ring and enough for others.
        monkeypatch.setattr(measure, "NEWTON_MAX_ITER", 3)
        nodes, gammas = self._ring(np.random.default_rng(33), 2, 0.99, 16)
        start, failed = 0, []
        while start < len(gammas):
            # A failed row ends its solve, so the rows after it go to a new one.
            solved, error = [], None
            try:
                for atoms in measure.solve_atoms(gammas[start:], nodes.as_array()):
                    solved.append(atoms)
            except hm.PhaseWindingMismatch as exc:
                error = exc
            for gamma, atoms in zip(gammas[start:], solved):
                assert atoms == hm.find_atoms(nodes, hm.Constant(gamma))
            start += len(solved)
            if error is not None:
                with pytest.raises(hm.PhaseWindingMismatch, match=str(error)):
                    hm.find_atoms(nodes, hm.Constant(gammas[start]))
                failed.append(start)
                start += 1
        assert 0 < len(failed) < len(gammas)

    def test_ring_over_three_blocks_makes_one_phase_scan(self, monkeypatch):
        # Blocks of 3 rows of d = 4 atoms: the ring of 8 takes blocks of 3, 3 and 2 rows.
        monkeypatch.setattr(measure, "_SWEEP_BLOCK_ELEMENTS", 3 * 4)
        scans, newton_rows, lift_sums = [], [], measure._lift_sums

        def counting_lift_sums(zeros, theta, slope=True):
            (newton_rows if slope else scans).append(len(theta))
            return lift_sums(zeros, theta, slope)

        monkeypatch.setattr(measure, "_lift_sums", counting_lift_sums)
        nodes, gammas = self._ring(np.random.default_rng(34), 4, 0.9, 8)
        params = [hm.Constant(gamma) for gamma in gammas]
        rows = list(measure.inner_measures(nodes, params, CircleGrid(256)))
        assert [row.param for row in rows] == params
        assert scans == [measure._ATOM_SCAN_SIZE + 1]
        assert set(newton_rows) == {3, 2}


@pytest.mark.parametrize("d", [32, 128])
class TestClarkOracle:
    """Atom angles against the eigen-angles of the unitary completion of S_B (conftest).

    The zeros reach |a| = 0.99, where companion roots lose the accuracy this needs.
    """

    @staticmethod
    def _nodes(d):
        rng = np.random.default_rng(d)
        zeros = 0.99 * np.sqrt(rng.uniform(0, 1, d)) * np.exp(1j * rng.uniform(0, TWO_PI, d))
        zeros[0] = 0.99 * np.exp(1j * rng.uniform(0, TWO_PI))
        return hm.validate_nodes(zeros)

    @staticmethod
    def _assert_oracle_angles(gamma, atoms, nodes):
        angles = np.array([a.angle for a in atoms])
        expected = conftest.oracle_clark_angles(gamma, nodes.points)
        gaps = np.abs(np.angle(np.exp(1j * (angles[:, None] - expected[None, :]))))
        assert angles.size == expected.size == nodes.n
        assert gaps.min(axis=0).max() < 1e-13
        assert gaps.min(axis=1).max() < 1e-13

    def test_completion_is_unitary(self, d):
        zeros = self._nodes(d).points
        shift, x, y = conftest.compressed_shift(zeros)
        eye = np.eye(d)
        assert np.abs(eye - shift @ shift.conj().T - np.outer(x, x.conj())).max() < 1e-14
        assert np.abs(eye - shift.conj().T @ shift - np.outer(y, y.conj())).max() < 1e-14
        unitary = conftest.clark_unitary(zeros, np.exp(0.3j))
        assert np.abs(unitary.conj().T @ unitary - eye).max() < 1e-13

    def test_lone_row(self, d):
        nodes = self._nodes(d)
        gamma = hm.Constant(complex(np.exp(0.7j))).gamma
        self._assert_oracle_angles(gamma, hm.find_atoms(nodes, hm.Constant(gamma)), nodes)

    def test_bounds_pair(self, d):
        nodes = self._nodes(d)
        for gamma, extremal in zip((1.0, -1.0), hm.extremal_measures(nodes)):
            self._assert_oracle_angles(gamma, extremal.atoms, nodes)

    def test_ring_split_over_blocks(self, d, monkeypatch):
        # Three rows of d atoms per block: the ring of 8 takes blocks of 3, 3 and 2 rows.
        monkeypatch.setattr(measure, "_SWEEP_BLOCK_ELEMENTS", 3 * d)
        params = [hm.Constant(complex(np.exp(2j * math.pi * k / 8))) for k in range(8)]
        read = []

        def ring():
            for param in params:
                read.append(param)
                yield param

        nodes, rows = self._nodes(d), []
        for row in measure.inner_measures(nodes, ring(), CircleGrid(4096)):
            rows.append((row, len(read)))
        # Each block's parameters are read when its first row is solved, and no sooner.
        assert [count for _, count in rows] == [3, 3, 3, 6, 6, 6, 8, 8]
        for param, (row, _) in zip(params, rows):
            assert row.param is param
            self._assert_oracle_angles(param.gamma, row.atoms, nodes)


class TestBuildMeasure:
    def test_lebesgue_measure(self):
        measure = hm.build_measure(hm.validate_nodes([0.2, 0.4j]), hm.Constant(0.0), 1024)
        assert measure.kind is MeasureKind.ABSOLUTELY_CONTINUOUS
        assert np.array_equal(measure.density, np.ones(1024))
        assert measure.atoms == ()
        assert hm.total_mass(measure) == 1.0

    def test_atomic_dispatch(self):
        measure = hm.build_measure(hm.validate_nodes([0.5]), hm.Constant(1.0))
        assert measure.kind is MeasureKind.PURELY_ATOMIC
        assert np.array_equal(measure.density, np.zeros(4096))
        assert len(measure.atoms) == 1
        assert measure.atoms[0].location == pytest.approx(-1.0, abs=1e-13)
        assert measure.atoms[0].weight == pytest.approx(3.0, abs=1e-12)

    def test_mass_consistent_with_herglotz_value(self):
        nodes = hm.validate_nodes([0.5])
        param = hm.Constant(0.3j)
        measure = hm.build_measure(nodes, param, 4096)
        mass = hm.total_mass(measure)
        assert abs(mass - hm.herglotz_eval(nodes, param, 0)) <= 1e-10

    def test_grid_size_validation(self):
        nodes = hm.validate_nodes([0.5])
        with pytest.raises(ValueError):
            hm.build_measure(nodes, hm.Constant(0.0), 255)
        with pytest.raises(ValueError):
            hm.build_measure(nodes, hm.Constant(0.0), 100)

    def test_almost_inner_parameter_rejected(self):
        # s = gamma * t hits |1 - s| = 1e-10 at the grid point t = 1,
        # inside the singularity threshold but outside the inner snap
        nodes = hm.validate_nodes([0])
        with pytest.raises(hm.UnsupportedMixedCase):
            hm.build_measure(nodes, hm.Constant(1.0 - 1e-10), 256)


class TestIntegrateAgainst:
    def test_total_mass_of_lebesgue(self):
        measure = hm.build_measure(hm.validate_nodes([0.1]), hm.Constant(0.0), 512)
        assert conftest.integrate_against(measure, lambda t: np.ones_like(t)) == pytest.approx(1.0)

    def test_first_moment_vanishes(self):
        measure = hm.build_measure(hm.validate_nodes([0.1]), hm.Constant(0.0), 512)
        assert abs(conftest.integrate_against(measure, lambda t: t)) < 1e-15

    def test_atom_sum(self):
        measure = hm.build_measure(hm.validate_nodes([0.5]), hm.Constant(1.0))
        value = conftest.integrate_against(measure, lambda t: 1.0 / np.abs(t - 0.5) ** 2)
        assert value == pytest.approx(4 / 3, abs=1e-11)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(22)
        nodes = random_nodes(rng)
        measure = hm.build_measure(nodes, random_contractive_param(rng), 2048)
        f = lambda t: (t + 0.3) / (t - 0.4j)
        assert conftest.integrate_against(measure, f) == pytest.approx(
            oracle_integral(measure, f), abs=1e-12
        )


class TestTotalMass:
    def test_lebesgue(self):
        measure = hm.build_measure(hm.validate_nodes([0.7j]), hm.Constant(0.0), 512)
        assert hm.total_mass(measure) == 1.0

    def test_extremal_masses(self):
        nodes = hm.validate_nodes([0.5])
        assert hm.total_mass(hm.build_measure(nodes, hm.Constant(1.0))) == pytest.approx(
            3.0, abs=1e-11
        )
        assert hm.total_mass(hm.build_measure(nodes, hm.Constant(-1.0))) == pytest.approx(
            1 / 3, abs=1e-12
        )

    def test_inconsistent_hand_made_measure_raises(self):
        nodes = hm.validate_nodes([0.5])
        grid = CircleGrid(512)
        fake = hm.GeneratedMeasure(
            nodes=nodes,
            param=hm.Constant(0.0),
            grid=grid,
            density=2.0 * np.ones(512),
            atoms=(),
            kind=MeasureKind.ABSOLUTELY_CONTINUOUS,
        )
        with pytest.raises(hm.MassConsistencyFailure):
            hm.total_mass(fake)

    def test_doubling_grid_leaves_mass_unchanged(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            nodes = random_nodes(rng)
            param = random_contractive_param(rng)
            coarse = hm.total_mass(hm.build_measure(nodes, param, 2048))
            fine = hm.total_mass(hm.build_measure(nodes, param, 4096))
            assert abs(coarse - fine) < 1e-10

    def test_mass_within_sharp_bounds(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            nodes = random_nodes(rng)
            param = random_contractive_param(rng)
            lower, upper = hm.mass_bounds(nodes)
            mass = hm.total_mass(hm.build_measure(nodes, param, 2048))
            assert lower - 1e-9 <= mass <= upper + 1e-9


class TestInteriorReconstruction:
    # the recovered measure must reproduce h throughout the disc:
    # Re phi_sigma(z) is the half-plane-kernel integral of the measure
    def test_absolutely_continuous(self):
        rng = np.random.default_rng(28)
        nodes = random_nodes(rng)
        param = random_contractive_param(rng)
        measure = hm.build_measure(nodes, param, 4096)
        for _ in range(25):
            z = complex(0.85 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
            assert conftest.phi_sigma(measure, z).real == pytest.approx(
                hm.herglotz_eval(nodes, param, z), abs=1e-10
            )

    def test_purely_atomic(self):
        rng = np.random.default_rng(29)
        nodes = random_nodes(rng)
        param = random_inner_param(rng)
        measure = hm.build_measure(nodes, param, 4096)
        for _ in range(25):
            z = complex(0.85 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
            assert conftest.phi_sigma(measure, z).real == pytest.approx(
                hm.herglotz_eval(nodes, param, z), abs=1e-10
            )


class TestPhiSigma:
    def test_lebesgue_at_origin(self):
        measure = hm.build_measure(hm.validate_nodes([0.4]), hm.Constant(0.0), 512)
        assert conftest.phi_sigma(measure, 0) == pytest.approx(1.0)

    def test_atomic_value_at_node(self):
        measure = hm.build_measure(hm.validate_nodes([0.5]), hm.Constant(1.0))
        assert conftest.phi_sigma(measure, 0.5) == pytest.approx(1.0, abs=1e-11)

    def test_origin_value_is_total_mass(self):
        rng = np.random.default_rng(25)
        nodes = random_nodes(rng)
        measure = hm.build_measure(nodes, random_contractive_param(rng), 2048)
        assert conftest.phi_sigma(measure, 0) == pytest.approx(hm.total_mass(measure), abs=1e-12)

    def test_exterior_point_rejected(self):
        measure = hm.build_measure(hm.validate_nodes([0.4]), hm.Constant(0.0), 512)
        with pytest.raises(ValueError):
            conftest.phi_sigma(measure, 1.0)

    def test_matches_generic_quadrature_route(self):
        rng = np.random.default_rng(26)
        nodes = random_nodes(rng)
        measure = hm.build_measure(nodes, random_contractive_param(rng), 2048)
        z = 0.3 - 0.5j
        generic = conftest.integrate_against(measure, lambda t: (t + z) / (t - z))
        assert conftest.phi_sigma(measure, z) == pytest.approx(generic, abs=1e-12)


class TestPhaseWinding:
    def test_extreme_node_radius_raises(self):
        # The exact lift brackets the one atom even though the ~1e-9-wide
        # phase jump of this zero falls inside a single scan interval; the
        # measure itself is refused, since s(0) = |z| is within 1e-9 of 1.
        nodes = hm.validate_nodes([complex((1 - 1e-9) * np.exp(0.4j))])
        (atom,) = hm.find_atoms(nodes, hm.Constant(1.0))
        assert abs(oracle_s(nodes, hm.Constant(1.0), atom.location) - 1.0) <= 1e-12
        with pytest.raises(hm.HerglotzMeasureError):
            hm.build_measure(nodes, hm.Constant(1.0))

    def test_atom_count_equals_degree(self):
        rng = np.random.default_rng(27)
        for extra in range(4):
            nodes = random_nodes(rng, max_n=4)
            zeros = tuple(0.6 * np.sqrt(rng.uniform(0, 1, extra)) * np.exp(1j * rng.uniform(0, TWO_PI, extra)))
            param = hm.ScaledBlaschke(complex(np.exp(1j * rng.uniform(0, TWO_PI))), zeros)
            atoms = hm.find_atoms(nodes, param)
            assert len(atoms) == nodes.n + extra
