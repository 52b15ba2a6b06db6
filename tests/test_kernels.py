"""Numeric kernels against direct references and the conftest oracles."""

import numpy as np
import pytest

from herglotz_measures import analytic, measure, verify
from herglotz_measures.measure import Atom, CircleGrid, GeneratedMeasure, MeasureKind
import conftest
from conftest import TWO_PI, oracle_blaschke


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(41)
    grid = CircleGrid(1024)
    zeros = np.array([0.0, 0.5, 0.3j, -0.2 - 0.4j], dtype=complex)
    nodes = analytic.validate_nodes([0.5, 0.3j, -0.2])
    density = rng.uniform(0.1, 2.0, grid.size)
    s = 0.7 * np.exp(1j * rng.uniform(0.0, TWO_PI, grid.size))
    ac = GeneratedMeasure(nodes, None, grid, density, (), MeasureKind.ABSOLUTELY_CONTINUOUS)
    return {"t": grid.points, "zeros": zeros, "nodes": nodes.as_array(), "density": density,
            "s": s, "ac": ac}


# numpy is the only numeric back end; the parameter keeps the test ids stable.
@pytest.mark.parametrize("backend", ["numpy"])
class TestBackends:
    def test_blaschke_values(self, backend, data):
        values = analytic.blaschke_values(data["t"], data["zeros"])
        reference = oracle_blaschke(data["zeros"], data["t"])
        assert np.max(np.abs(values - reference)) < 1e-13

    def test_poisson_slope(self, backend, data):
        # the slope of the boundary phase lift is the Poisson sum of the zeros
        _, values = measure._lift_sums(data["zeros"], CircleGrid(1024).angles)
        reference = sum(
            (1.0 - abs(a) ** 2) / np.abs(data["t"] - a) ** 2 for a in data["zeros"]
        )
        assert np.max(np.abs(values - reference)) < 1e-12

    def test_boundary_lift_is_continuous_phase_of_s(self, backend, data):
        gamma = 0.6 + 0.8j
        angles = np.linspace(0.0, TWO_PI, 4097)
        args, _ = measure._lift_sums(data["zeros"], angles)
        phase = measure._lift_offset(gamma, data["zeros"]) + data["zeros"].size * angles + 2.0 * args
        s = gamma * oracle_blaschke(data["zeros"], np.exp(1j * angles))
        assert np.max(np.abs(np.exp(1j * phase) - s)) < 1e-13
        assert np.all(np.diff(phase) > 0.0)
        assert phase[-1] - phase[0] == pytest.approx(TWO_PI * data["zeros"].size, abs=1e-12)

    def test_density_values(self, backend, data):
        density, flagged = analytic.herglotz_samples(data["s"])
        reference = (1.0 - np.abs(data["s"]) ** 2) / np.abs(1.0 - data["s"]) ** 2
        assert not flagged.any()
        assert np.max(np.abs(density - reference)) < 1e-12

    def test_unflagged_density_is_the_masked_formula_bit_for_bit(self, backend, data):
        # Without flagged samples the density is computed in place; a block of rows must
        # still get exactly the masked formula's bits, and s must stay untouched.
        s = np.stack([data["s"], 0.5j * data["s"]])
        before = s.copy()
        density, flagged = analytic.herglotz_samples(s)
        reference = (1.0 - np.abs(s) ** 2) / np.where(flagged, 1.0, np.abs(1.0 - s)) ** 2
        assert not flagged.any()
        assert density.tobytes() == reference.tobytes()
        assert s.tobytes() == before.tobytes()

    def test_density_flags_near_singular_points(self, backend):
        s = np.array([1.0 + 1e-12j, 0.5 + 0j], dtype=complex)
        density, flagged = analytic.herglotz_samples(s)
        assert flagged.tolist() == [True, False]
        assert density[0] == 0.0
        assert density[1] == pytest.approx(3.0)

    def test_gram_from_density(self, backend, data):
        gram = verify.certify(data["ac"], 1e-8).computed
        n = data["nodes"].size
        reference = np.empty((n, n), dtype=complex)
        for k in range(n):
            for l in range(n):
                kernel = data["density"] / (
                    (data["t"] - data["nodes"][k]) * np.conj(data["t"] - data["nodes"][l])
                )
                reference[k, l] = kernel.mean()
        assert np.max(np.abs(gram - reference)) < 1e-13
        assert np.array_equal(gram, gram.conj().T)

    def test_gram_from_atoms(self, backend, data):
        angles = np.array([0.3, 2.0, 4.4])
        weights = np.array([0.5, 1.5, 0.25])
        atoms = tuple(Atom.at_angle(a, w) for a, w in zip(angles, weights))
        grid = CircleGrid(8)
        atomic = GeneratedMeasure(data["ac"].nodes, None, grid, np.zeros(grid.size), atoms,
                                  MeasureKind.PURELY_ATOMIC)
        gram = verify.certify(atomic, 1e-8).computed
        locations = np.exp(1j * angles)
        n = data["nodes"].size
        reference = np.empty((n, n), dtype=complex)
        for k in range(n):
            for l in range(n):
                reference[k, l] = np.sum(
                    weights
                    / ((locations - data["nodes"][k]) * np.conj(locations - data["nodes"][l]))
                )
        assert np.max(np.abs(gram - reference)) < 1e-13
        assert np.array_equal(gram, gram.conj().T)

    def test_herglotz_transform(self, backend, data):
        z = 0.3 - 0.4j
        value = conftest.phi_sigma(data["ac"], z)
        reference = np.mean(data["density"] * (data["t"] + z) / (data["t"] - z))
        assert abs(value - reference) < 1e-13

    def test_pair_quadrature(self, backend, data):
        z1, z2 = 0.2 + 0.1j, -0.5j
        value = conftest.pair_integral(data["ac"], z1, z2)
        reference = np.mean(data["density"] / ((data["t"] - z1) * np.conj(data["t"] - z2)))
        assert abs(value - reference) < 1e-13
