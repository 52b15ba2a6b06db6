"""Node validation, Blaschke/Schur/Cayley evaluation, special system."""


import numpy as np
import pytest

import herglotz_measures as hm
from herglotz_measures import analytic
from herglotz_measures.analytic import MAX_NODES
import conftest
from conftest import TWO_PI, oracle_blaschke, random_contractive_param, random_nodes


class TestValidateNodes:
    def test_single_admissible_node(self):
        nodes = hm.validate_nodes([0])
        assert nodes.points == (0j,)
        assert nodes.n == 1

    def test_duplicate_rejected(self):
        with pytest.raises(hm.DuplicateNode):
            hm.validate_nodes([0.5, 0.5])

    def test_boundary_point_rejected(self):
        with pytest.raises(hm.NodeOutsideDisc):
            hm.validate_nodes([0.3, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(hm.EmptyNodeList):
            hm.validate_nodes([])

    def test_node_count_cap(self):
        points = 0.5 * np.arange(MAX_NODES + 1) / (MAX_NODES + 1)
        assert hm.validate_nodes(points[:MAX_NODES]).n == MAX_NODES
        with pytest.raises(hm.TooManyNodes, match=f"{MAX_NODES + 1} .* limit of {MAX_NODES}"):
            hm.validate_nodes(points)

    def test_order_preserved(self):
        nodes = hm.validate_nodes([0.5, 0.3j, -0.1])
        assert nodes.points == (0.5 + 0j, 0.3j, -0.1 + 0j)

    def test_subnormal_modulus_rejected(self):
        # |a|/a in the Blaschke factor overflows below the smallest normal modulus.
        for point in (1e-320, 1e-320j, complex(1e-320, -1e-320), 1e-308):
            with pytest.raises(hm.NodeOutsideDisc, match="subnormal modulus; use 0"):
                hm.validate_nodes([0.5, point])
        with pytest.raises(hm.ParameterNotCertified, match="Blaschke zero 1 = .* subnormal"):
            hm.ScaledBlaschke(0.5, (0.3, 1e-320))

    def test_tiny_normal_and_zero_points_give_a_finite_blaschke_product(self):
        grid = np.exp(1j * TWO_PI * np.arange(64) / 64)
        for point in (0.0, 1e-300, np.finfo(float).tiny):
            nodes = hm.validate_nodes([point, 0.5j])
            param = hm.ScaledBlaschke(0.5, (point,))
            assert np.all(np.isfinite(analytic.blaschke_values(grid, nodes.points)))
            assert np.all(np.isfinite(param.values(grid)))
            assert np.isfinite(hm.herglotz_eval(nodes, param, 0j))


class TestBlaschkeEval:
    def test_zero_node_gives_factor_t(self):
        nodes = hm.validate_nodes([0])
        assert hm.blaschke_eval(nodes, 0.7j) == pytest.approx(0.7j, abs=1e-15)

    def test_single_node_at_minus_one(self):
        nodes = hm.validate_nodes([0.5])
        assert hm.blaschke_eval(nodes, -1) == pytest.approx(1.0, abs=1e-15)

    def test_origin_value_is_modulus_product(self):
        nodes = hm.validate_nodes([0.5, 0.3j])
        assert hm.blaschke_eval(nodes, 0) == pytest.approx(0.15, abs=1e-15)

    def test_outside_closed_disc_rejected(self):
        nodes = hm.validate_nodes([0.5])
        with pytest.raises(hm.PoleHit):
            hm.blaschke_eval(nodes, 1.5)

    def test_boundary_modulus_is_one(self):
        rng = np.random.default_rng(7)
        t = np.exp(1j * TWO_PI * np.arange(512) / 512)
        for _ in range(10):
            nodes = random_nodes(rng, max_n=8)
            values = hm.blaschke_eval(nodes, t)
            assert np.max(np.abs(np.abs(values) - 1.0)) <= 1e-12

    def test_origin_value_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            nodes = random_nodes(rng, max_n=8)
            value = hm.blaschke_eval(nodes, 0)
            expected = np.prod(np.abs(nodes.as_array()))
            assert abs(value - expected) <= 1e-14
            assert 0.0 <= value.real < 1.0

    def test_matches_oracle_product(self):
        rng = np.random.default_rng(9)
        nodes = random_nodes(rng, max_n=5)
        z = 0.3 - 0.4j
        assert hm.blaschke_eval(nodes, z) == pytest.approx(
            complex(oracle_blaschke(nodes.points, z)), abs=1e-14
        )


class TestSchurParameters:
    def test_zero_constant(self):
        assert hm.schur_eval(hm.Constant(0.0), 0.3 + 0.1j) == 0

    def test_unimodular_constant(self):
        assert hm.schur_eval(hm.Constant(-1.0), 0.2) == pytest.approx(-1.0)

    def test_blaschke_factor_at_origin_zero(self):
        param = hm.ScaledBlaschke(1.0, (0,))
        assert hm.schur_eval(param, 0.5j) == pytest.approx(0.5j, abs=1e-15)

    def test_constant_above_one_rejected(self):
        with pytest.raises(hm.ParameterNotCertified):
            hm.Constant(1.2)

    def test_unimodular_snap(self):
        gamma = complex(np.exp(0.7j))
        param = hm.Constant(gamma * (1 + 5e-14))
        assert param.is_inner
        assert abs(param.gamma - gamma) < 1e-13

    def test_blaschke_zero_on_circle_rejected(self):
        with pytest.raises(hm.ParameterNotCertified):
            hm.ScaledBlaschke(0.5, (1.0,))

    def test_inner_flags(self):
        assert hm.Constant(1.0).is_inner
        assert hm.Constant(0.999).is_inner is False
        assert hm.ScaledBlaschke(np.exp(0.3j), (0.2,)).is_inner
        assert hm.ScaledBlaschke(0.9, (0.2,)).is_inner is False

    def test_rational_constant_half(self):
        param = hm.CertifiedRational((0.5,), (1.0,))
        assert param.boundary_sup == pytest.approx(0.5)
        assert hm.schur_eval(param, 0.1 + 0.2j) == pytest.approx(0.5)
        assert not param.is_inner

    def test_rational_denominator_root_in_disc_rejected(self):
        # 1 - 2z has its root at 0.5
        with pytest.raises(hm.ParameterNotCertified):
            hm.CertifiedRational((0.3,), (1.0, -2.0))

    def test_rational_boundary_sup_above_bound_rejected(self):
        with pytest.raises(hm.ParameterNotCertified):
            hm.CertifiedRational((2.0,), (1.0,))

    def test_rational_values_match_polynomial_ratio(self):
        param = hm.CertifiedRational((0.3, 0.2), (1.0, 0.0, 0.1))
        z = 0.4 - 0.2j
        expected = (0.3 + 0.2 * z) / (1.0 + 0.1 * z**2)
        assert hm.schur_eval(param, z) == pytest.approx(expected, abs=1e-15)


class TestSEval:
    def test_vanishes_at_node(self):
        nodes = hm.validate_nodes([0.5])
        assert hm.s_eval(nodes, hm.Constant(1.0), 0.5) == 0

    def test_zero_parameter(self):
        nodes = hm.validate_nodes([0])
        assert hm.s_eval(nodes, hm.Constant(0.0), 0.3 + 0.2j) == 0

    def test_boundary_value(self):
        nodes = hm.validate_nodes([0.5])
        assert hm.s_eval(nodes, hm.Constant(1.0), -1) == pytest.approx(1.0, abs=1e-15)

    def test_vanishes_at_every_node_for_random_parameters(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            nodes = random_nodes(rng)
            param = random_contractive_param(rng)
            for z in nodes.points:
                assert abs(hm.s_eval(nodes, param, z)) <= 1e-13


class TestCaratheodoryAndHerglotz:
    def test_zero_parameter_gives_one(self):
        nodes = hm.validate_nodes([0.5])
        assert conftest.caratheodory_eval(nodes, hm.Constant(0.0), 0.3 + 0.1j) == pytest.approx(1.0)

    def test_value_one_at_nodes(self):
        nodes = hm.validate_nodes([0.5])
        assert conftest.caratheodory_eval(nodes, hm.Constant(1.0), 0.5) == pytest.approx(1.0)

    def test_singularity_signalled(self):
        nodes = hm.validate_nodes([0.5])
        with pytest.raises(hm.CayleySingularity):
            conftest.caratheodory_eval(nodes, hm.Constant(1.0), -1)

    def test_herglotz_lebesgue_case(self):
        nodes = hm.validate_nodes([0.3j, -0.2])
        assert hm.herglotz_eval(nodes, hm.Constant(0.0), 0.1 - 0.5j) == pytest.approx(1.0)

    def test_herglotz_extremal_values_at_origin(self):
        nodes = hm.validate_nodes([0.5])
        assert hm.herglotz_eval(nodes, hm.Constant(1.0), 0) == pytest.approx(3.0, abs=1e-14)
        assert hm.herglotz_eval(nodes, hm.Constant(-1.0), 0) == pytest.approx(1 / 3, abs=1e-14)

    def test_real_part_nonnegative_at_random_points(self):
        rng = np.random.default_rng(11)
        nodes = random_nodes(rng)
        params = [random_contractive_param(rng) for _ in range(5)]
        r = 0.95 * np.sqrt(rng.uniform(0.0, 1.0, 1000))
        z = r * np.exp(1j * rng.uniform(0.0, TWO_PI, 1000))
        for param in params:
            values = conftest.caratheodory_eval(nodes, param, z)
            assert float(np.min(values.real)) >= -1e-12
            assert float(np.min(hm.herglotz_eval(nodes, param, z))) >= -1e-12


class TestScalarHerglotz:
    """One value of s takes numpy scalar operations, bit for bit the 0-d array formula."""

    @staticmethod
    def _draws(rng, count):
        """s uniform in the unit disc, and as many with |1 - s| log-uniform in [1e-9, 1e-1]."""
        disc = np.sqrt(rng.uniform(0.0, 1.0, count)) * np.exp(1j * rng.uniform(0.0, TWO_PI, count))
        gap = 10.0 ** rng.uniform(-9.0, -1.0, count)
        near_one = 1.0 - gap * np.exp(1j * rng.uniform(0.0, TWO_PI, count))
        return np.concatenate((disc, near_one)).tolist()

    def test_equals_the_array_formula(self):
        values = self._draws(np.random.default_rng(21), 50_000)
        mismatches = []
        for k, s in enumerate(values):
            s = np.complex128(s) if k % 2 else s  # complex and np.complex128 alike
            h, flagged = conftest.oracle_h_scalar(s)
            if flagged or repr(analytic.herglotz_from_s(s)) != repr(h):
                mismatches.append(s)
        assert not mismatches

    def test_threshold(self):
        # s = 1 - gap for gaps a few ulps either side of the threshold: flagged exactly
        # where the array formula flags, and the error names the same |1 - s|.
        threshold = hm.CAYLEY_SINGULARITY_THRESHOLD
        gaps = [threshold * (1.0 + k * 2.0**-50) for k in range(-8, 9)]
        values = [1.0 - g * phase for g in gaps for phase in (1.0, 1j, np.exp(0.3j))]
        outcomes = set()
        for s in values + [np.complex128(v) for v in values]:
            h, flagged = conftest.oracle_h_scalar(s)
            outcomes.add(flagged)
            if flagged:
                with pytest.raises(hm.CayleySingularity) as caught:
                    analytic.herglotz_from_s(s)
                gap = float(np.abs(1.0 - np.asarray(s, dtype=complex)))
                assert str(caught.value).startswith(f"|1 - s| = {gap} below")
            else:
                assert repr(analytic.herglotz_from_s(s)) == repr(h)
        assert outcomes == {False, True}

    def test_array_and_zero_d_inputs_keep_the_array_path(self):
        s = np.array([0.3 + 0.1j, -0.5j, 0.0])
        assert np.array_equal(analytic.herglotz_from_s(s), analytic.herglotz_samples(s)[0])
        assert analytic.herglotz_from_s(np.asarray(0.3 + 0.1j)) == analytic.herglotz_from_s(0.3 + 0.1j)
        with pytest.raises(hm.CayleySingularity):
            analytic.herglotz_from_s(np.array([0.0, 1.0]))


class TestCayleyToS:
    def test_fixed_correspondence(self):
        assert conftest.cayley_to_s(1.0) == 0

    def test_direct_arithmetic(self):
        assert conftest.cayley_to_s(1 + 1j) == pytest.approx(1j / (2 + 1j), abs=1e-16)

    def test_excluded_point(self):
        with pytest.raises(hm.CayleySingularity):
            conftest.cayley_to_s(-1.0)

    def test_round_trip_with_forward_map(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            s = complex(0.99 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, TWO_PI)))
            c = (1 + s) / (1 - s)
            assert conftest.cayley_to_s(c) == pytest.approx(s, abs=1e-12)

    def test_round_trip_against_evaluations(self):
        rng = np.random.default_rng(13)
        nodes = random_nodes(rng)
        param = random_contractive_param(rng)
        for _ in range(20):
            z = complex(0.9 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, TWO_PI)))
            c = conftest.caratheodory_eval(nodes, param, z)
            assert conftest.cayley_to_s(c) == pytest.approx(hm.s_eval(nodes, param, z), abs=1e-12)


class TestSolveSpecialSystem:
    def test_all_ones_gives_beta_zero(self):
        result = hm.solve_special_system([1, 1, 1])
        assert result.solvable
        assert result.beta == 0.0

    def test_direct_instance(self):
        result = hm.solve_special_system([1 - 2j, 1 - 2j])
        assert result.solvable
        assert result.beta == 2.0

    def test_inconsistent_pair_rejected_with_mean_defect(self):
        result = hm.solve_special_system([1, 2])
        assert not result.solvable
        assert result.residual == pytest.approx(1.0, abs=1e-15)
        assert result.max_defect == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("beta", [-3.0, 0.0, 7.25])
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_exact_recovery(self, beta, n):
        result = hm.solve_special_system([1 - 1j * beta] * n)
        assert result.solvable
        assert result.beta == beta

    def test_empty_rejected(self):
        with pytest.raises(hm.EmptyNodeList):
            hm.solve_special_system([])
