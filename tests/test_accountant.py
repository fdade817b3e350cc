import math
import sys

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

import caribou.graphs
from caribou.accountant import (
    CalibrationError,
    NoisePlan,
    PrivacySpec,
    calibrate_sigma,
    convergent_factor,
    edge_sensitivity,
    format_noise_table,
    gaussian_tradeoff,
    node_sensitivity,
    noise_table,
    rdp_to_dp,
    _rounding_slack,
    sensitivity_for_level,
)
from caribou.graphs import build_graph, degree_stats
from caribou.layers import LayerParams
from caribou.prng import stream
from tests.verify import (
    brute_force_edge_sensitivity,
    brute_force_node_sensitivity,
    enumerate_edge_neighbors,
    gdp_to_rdp,
    rdp_epsilon_convergent,
    rdp_epsilon_linear,
)
from tests.test_graphs import random_graph


class TestConvergentFactor:
    def test_k1_is_one_for_any_gamma(self):
        for gamma in (0.0, 0.3, 0.9, 0.999):
            assert convergent_factor(1, gamma) == pytest.approx(1.0)

    def test_k10_gamma_08(self):
        assert convergent_factor(10, 0.8) == pytest.approx(7.2547, abs=5e-4)

    def test_large_k_limit(self):
        assert convergent_factor(10**6, 0.9) == pytest.approx(19.0, abs=1e-9)

    def test_grid_properties(self):
        # bounded by min(K, (1+g)/(1-g)), non-decreasing in K, equals K at K=1
        gammas = np.linspace(0.0, 0.98, 50)
        ks = np.arange(1, 51)
        for gamma in gammas:
            previous = 0.0
            for k in ks:
                value = convergent_factor(int(k), float(gamma))
                assert value <= min(k, (1 + gamma) / (1 - gamma)) + 1e-12
                assert value >= previous - 1e-12
                previous = value
            assert convergent_factor(1, float(gamma)) == pytest.approx(1.0)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            convergent_factor(3, 1.0)


class TestRdpEpsilons:
    def test_two_layer_coefficient(self):
        # 2-layer pipeline at contraction 0.8: coefficient ~0.99 per unit alpha
        value = rdp_epsilon_convergent(2, 0.8, 1.0, 1.0, 1.0)
        assert value == pytest.approx(0.9878, abs=1e-4)

    def test_zero_sensitivity(self):
        assert rdp_epsilon_convergent(5, 0.9, 0.0, 1.0, 4.0) == 0.0
        assert rdp_epsilon_linear(5, 0.0, 1.0, 4.0) == 0.0

    def test_k1_modes_coincide(self):
        for alpha in (1.5, 2.0, 8.0):
            conv = rdp_epsilon_convergent(1, 0.7, 0.5, 2.0, alpha)
            lin = rdp_epsilon_linear(1, 0.5, 2.0, alpha)
            assert conv == pytest.approx(lin)

    def test_linear_examples(self):
        assert rdp_epsilon_linear(1, 1.0, 1.0, 2.0) == pytest.approx(1.0)
        assert rdp_epsilon_linear(4, 0.7, 1.3, 3.0) == pytest.approx(
            2.0 * rdp_epsilon_linear(2, 0.7, 1.3, 3.0)
        )

    def test_sigma_zero_sentinel(self):
        assert rdp_epsilon_convergent(3, 0.5, 1.0, 0.0, 2.0) == math.inf

    def test_convergent_below_linear(self):
        rng = stream(31, 0)
        for _ in range(200):
            k = int(rng.integers(1, 64))
            gamma = float(rng.random() * 0.99)
            delta_mp = float(rng.random() * 3)
            sigma = float(rng.random() * 5 + 0.1)
            alpha = float(rng.random() * 30 + 1.1)
            conv = rdp_epsilon_convergent(k, gamma, delta_mp, sigma, alpha)
            lin = rdp_epsilon_linear(k, delta_mp, sigma, alpha)
            assert conv <= lin + 1e-12


class TestConversions:
    def test_rdp_to_dp_trivial(self):
        assert rdp_to_dp(0.0, 2.0, math.exp(-1.0)) == pytest.approx(1.0)

    def test_rdp_to_dp_additive_term(self):
        assert rdp_to_dp(0.0, 6.0, 1e-3) == pytest.approx(math.log(1000) / 5)

    def test_rdp_to_dp_monotone_in_alpha(self):
        values = [rdp_to_dp(0.5, a, 1e-3) for a in (2, 4, 8, 16, 64)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rdp_to_dp_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            rdp_to_dp(1.0, 1.0, 0.5)

    def test_gdp_to_rdp(self):
        assert gdp_to_rdp(0.0, 2.0) == 0.0
        assert gdp_to_rdp(1.0, 2.0) == pytest.approx(1.0)
        assert gdp_to_rdp(2.0, 3.0) == pytest.approx(6.0)


class TestGaussianTradeoff:
    def test_identity_at_mu_zero(self):
        for a in np.linspace(0.0, 1.0, 21):
            assert gaussian_tradeoff(float(a), 0.0) == pytest.approx(1.0 - a, abs=1e-10)

    def test_mu_one_at_half(self):
        assert gaussian_tradeoff(0.5, 1.0) == pytest.approx(0.158655, abs=1e-6)

    def test_large_mu_vanishes(self):
        assert gaussian_tradeoff(0.5, 40.0) < 1e-12

    @pytest.mark.parametrize("mu", [-1e-9, math.nan, -math.inf])
    def test_negative_or_nan_mu_rejected(self, mu):
        # NaN fails ``mu < 0`` as it fails every comparison
        with pytest.raises(ValueError, match="^mu must be non-negative, got"):
            gaussian_tradeoff(0.1, mu)

    def test_matches_scipy_oracle(self):
        grid = np.concatenate([np.linspace(0.0, 1.0, 2001), [1e-300, 1e-17, 1e-9, 1 - 1e-16]])
        mus = [0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 40.0, math.inf]
        got = np.array([[gaussian_tradeoff(float(a), mu) for mu in mus] for a in grid])
        with np.errstate(invalid="ignore"):
            want = ndtr(ndtri(1.0 - grid)[:, None] - np.array(mus))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15, equal_nan=True)

    def test_convex_and_decreasing(self):
        mu = 0.8
        xs = np.arange(1e-4, 1.0, 1e-4)
        values = np.array([gaussian_tradeoff(float(a), mu) for a in xs])
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-12)
        second = np.diff(diffs)
        assert np.all(second >= -1e-9)


class TestSensitivityFormulas:
    def test_edge_zero_contraction(self):
        assert edge_sensitivity(1, 0.0, 1.0) == 0.0

    def test_edge_worked_example(self):
        assert edge_sensitivity(1, 0.5, 1.0) == pytest.approx(0.4857, abs=5e-5)

    def test_edge_proportional_to_c_l_alpha1(self):
        base = edge_sensitivity(2, 1.0 - 1e-9, 1.0)
        assert edge_sensitivity(2, 0.5, 0.5) == pytest.approx(base * 0.25, rel=1e-6)

    def test_edge_nonincreasing_from_dmin_4(self):
        values = [edge_sensitivity(d, 0.9, 1.0) for d in range(4, 40)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_edge_requires_positive_dmin(self):
        with pytest.raises(ValueError):
            edge_sensitivity(0, 0.5, 1.0)

    def test_node_zero_contraction(self):
        assert node_sensitivity(1, 1, 10, 0.0, 0.5, 0.5) == pytest.approx(1.0)

    def test_node_frozen_golden_value(self):
        # independent re-derivation of the closed form at
        # (d_min=1, d_max=2, n=10, c_l=0.5, a1=a2=0.5):
        #   piecewise term: 3/2 - 3/sqrt(5)
        #   1 + 0.25 * 20/11 + 0.25 * (sqrt(2)/6 + C * 1 + 1/sqrt(3))
        piecewise = 1.5 - 3.0 / math.sqrt(5.0)
        expected = 1.0 + 0.25 * (20.0 / 11.0) + 0.25 * (
            math.sqrt(2.0) / 6.0 + piecewise + 1.0 / math.sqrt(3.0)
        )
        assert node_sensitivity(1, 2, 10, 0.5, 0.5, 0.5) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.6973984, abs=1e-7)

    def test_node_at_least_one(self):
        rng = stream(33, 0)
        for _ in range(100):
            d_min = int(rng.integers(1, 10))
            d_max = d_min + int(rng.integers(0, 10))
            value = node_sensitivity(
                d_min, d_max, int(rng.integers(1, 50)),
                float(rng.random() * 0.99), 0.5, 0.5,
            )
            assert value >= 1.0


class TestSensitivityOracles:
    def test_edge_oracle_zero_contraction(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        params = LayerParams(c_l=0.0, alpha1=1.0, alpha2=0.0, beta=0.0)
        assert brute_force_edge_sensitivity(g, params, trials=3, seed=0) == 0.0

    def test_edgeless_graph_has_no_applicable_pairs(self):
        # every neighbor pair includes the isolated-node graph, which sits
        # outside the formula's minimum-degree domain
        g = build_graph(2, [])
        params = LayerParams(c_l=0.5, alpha1=1.0, alpha2=0.0, beta=0.0)
        assert brute_force_edge_sensitivity(g, params, trials=10, seed=1) == 0.0

    def test_cycle_oracle_positive_and_dominated(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        params = LayerParams(c_l=0.5, alpha1=1.0, alpha2=0.0, beta=0.0)
        value = brute_force_edge_sensitivity(g, params, trials=10, seed=1)
        # removal pairs stay in-domain with family minimum degree 1
        assert 0.0 < value <= edge_sensitivity(1, 0.5, 1.0) + 1e-9

    def test_triangle_oracle_dominated(self):
        # removing any edge drops the endpoints to degree 1, so the family
        # minimum degree (not the base graph's) sets the bound
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        params = LayerParams(c_l=0.8, alpha1=0.7, alpha2=0.3, beta=0.2)
        oracle = brute_force_edge_sensitivity(g, params, trials=20, seed=2)
        assert oracle <= edge_sensitivity(1, 0.8, 0.7) + 1e-9

    def test_edge_oracle_domination_random_graphs(self):
        rng = stream(34, 0)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 9))
            g = random_graph(rng, n)
            applicable = [
                min(degree_stats(g).d_min, degree_stats(h).d_min)
                for h in enumerate_edge_neighbors(g)
                if degree_stats(g).d_min >= 1 and degree_stats(h).d_min >= 1
            ]
            if not applicable:
                continue
            a1 = float(rng.random())
            params = LayerParams(
                c_l=float(rng.random() * 0.99), alpha1=a1, alpha2=1.0 - a1, beta=0.0
            )
            oracle = brute_force_edge_sensitivity(g, params, trials=5, seed=checked)
            bound = edge_sensitivity(min(applicable), params.c_l, params.alpha1)
            assert oracle <= bound + 1e-9
            checked += 1

    def test_node_oracle_domination_random_graphs(self):
        rng = stream(35, 0)
        checked = 0
        while checked < 25:
            n = int(rng.integers(2, 7))
            g = random_graph(rng, n)
            stats = degree_stats(g)
            if stats.d_min < 1:
                continue
            a1 = float(rng.random())
            params = LayerParams(
                c_l=float(rng.random() * 0.99), alpha1=a1, alpha2=1.0 - a1, beta=0.0
            )
            oracle = brute_force_node_sensitivity(
                g, params, trials=4, max_added_degree=3, seed=checked
            )
            bound = node_sensitivity(
                1, max(stats.d_max, 3), n + 1, params.c_l, params.alpha1, params.alpha2
            )
            assert oracle <= bound + 1e-9
            checked += 1


class TestPrivacySpec:
    def test_k0_allowed_only_without_noise(self):
        assert PrivacySpec(epsilon=1.0, delta=1e-3, level="none", k_hops=0).k_hops == 0
        for level in ("edge", "node"):
            with pytest.raises(ValueError, match="k_hops"):
                PrivacySpec(epsilon=1.0, delta=1e-3, level=level, k_hops=0, gamma=0.9)
        with pytest.raises(ValueError, match="k_hops"):
            PrivacySpec(epsilon=1.0, delta=1e-3, level="none", k_hops=-1)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2", 0])
    def test_k_hops_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="k_hops"):
            PrivacySpec(epsilon=1.0, delta=1e-3, level="edge", k_hops=k, gamma=0.9)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0])
    def test_epsilon_must_be_positive_and_finite(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            PrivacySpec(epsilon=eps, delta=1e-3, level="edge", k_hops=2, gamma=0.9)

    @pytest.mark.parametrize("delta_mp", [math.nan, math.inf, -1.0])
    def test_bad_sensitivity_rejected(self, delta_mp):
        spec = PrivacySpec(epsilon=4.0, delta=1e-3, level="edge", k_hops=2, gamma=0.9)
        with pytest.raises(ValueError, match="delta_mp"):
            calibrate_sigma(spec, delta_mp)


class TestCalibration:
    def spec(self, eps=4.0, k=1, gamma=0.9, delta=1e-3):
        return PrivacySpec(epsilon=eps, delta=delta, level="edge", k_hops=k, gamma=gamma)

    def test_reference_point_k1(self):
        plan = calibrate_sigma(self.spec(), 1.0, alphas=[6.0])
        assert plan.sigma == pytest.approx(1.07, rel=0.01)
        assert plan.alpha_star == 6.0

    def test_reference_point_k128(self):
        conv = calibrate_sigma(self.spec(k=128), 1.0, mode="convergent", alphas=[6.0])
        lin = calibrate_sigma(self.spec(k=128), 1.0, mode="linear", alphas=[6.0])
        assert conv.sigma == pytest.approx(4.67, rel=0.05)
        assert lin.sigma == pytest.approx(12.11, rel=0.01)

    def test_zero_sensitivity_returns_floor(self):
        plan = calibrate_sigma(self.spec(eps=2.0), 0.0)
        assert plan.sigma == 0.0
        floor = min(math.log(1000) / (a - 1) for a in (1.25, 1.5, 2, 3, 4, 5, 6, 8, 16, 32, 64))
        assert plan.eps_achieved == pytest.approx(floor)

    def test_achieved_epsilon_tight(self):
        rng = stream(36, 0)
        for _ in range(25):
            spec = self.spec(
                eps=float(rng.random() * 7 + 0.5),
                k=int(rng.integers(1, 40)),
                gamma=float(rng.random() * 0.95),
            )
            plan = calibrate_sigma(spec, float(rng.random() * 2 + 0.1))
            assert spec.epsilon - 1e-4 <= plan.eps_achieved <= spec.epsilon

    def test_near_floor_target_is_met(self):
        # the needed sigma (~1.6e7) lies far above any fixed search bracket
        spec = self.spec(eps=math.log(1000) / 63 + 1e-12, k=8)
        plan = calibrate_sigma(spec, 1.0)
        assert plan.eps_achieved <= spec.epsilon
        assert plan.sigma > 1e7

    @pytest.mark.parametrize("alphas", [None, [1 + 2**-52]], ids=["grid", "order-near-1"])
    @pytest.mark.parametrize("mode", ["convergent", "linear"])
    @pytest.mark.parametrize("k", [1, 8, 128])
    @pytest.mark.parametrize("eps", [8.98e307, 1e308, sys.float_info.max])
    def test_huge_target_is_met(self, eps, k, mode, alphas):
        # from epsilon ~ 9e307 on, 2 room overflows to inf
        plan = calibrate_sigma(self.spec(eps=eps, k=k), 1.0, mode, alphas)
        assert plan.sigma > 0 and plan.eps_achieved <= eps

    def test_infeasible_target_names_floor(self):
        spec = self.spec(eps=0.05)
        with pytest.raises(CalibrationError, match="floor"):
            calibrate_sigma(spec, 1.0)

    def test_plan_invariants(self):
        plan = calibrate_sigma(self.spec(eps=3.0, k=4), 0.7)
        assert plan.alpha_star > 1
        assert plan.noise_std == pytest.approx(0.7 * plan.sigma)
        with pytest.raises(ValueError):
            NoisePlan(sigma=-1.0, alpha_star=2.0, delta_mp=0.0, factor=1.0, eps_achieved=0.0)


class TestSensitivityForLevel:
    def test_none_level(self):
        g = build_graph(2, [])
        params = LayerParams(c_l=0.5, alpha1=1.0, alpha2=0.0, beta=0.0)
        assert sensitivity_for_level("none", g, params) == 0.0

    def test_isolated_node_rejected(self):
        g = build_graph(3, [(0, 1)])
        params = LayerParams(c_l=0.5, alpha1=1.0, alpha2=0.0, beta=0.0)
        with pytest.raises(ValueError, match="minimum degree"):
            sensitivity_for_level("edge", g, params)

    def test_degree_cap_enforced(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        params = LayerParams(c_l=0.5, alpha1=0.5, alpha2=0.5, beta=0.0)
        with pytest.raises(ValueError, match="cap"):
            sensitivity_for_level("node", g, params, d_max_cap=2)


class TestRoundingSlack:
    GAMMA_66 = 66 * 2.0**-24 / (1 - 66 * 2.0**-24)

    def test_formula_at_each_level(self):
        params = LayerParams(c_l=0.7, alpha1=0.8, alpha2=0.2, beta=0.1)
        per_node = 2 * 0.7 * (0.8 * self.GAMMA_66 + 0.2 * 2.0**-24)
        assert _rounding_slack("edge", 50, params) == pytest.approx(per_node * math.sqrt(50))
        # node level covers the larger graph of a pair
        assert _rounding_slack("node", 50, params) == pytest.approx(per_node * math.sqrt(51))
        assert _rounding_slack("none", 50, params) == 0.0

    def test_reads_the_chunk_length(self, monkeypatch):
        params = LayerParams(c_l=0.5, alpha1=1.0, alpha2=0.0, beta=0.0)
        monkeypatch.setattr(caribou.graphs, "_SUM_TERMS", 4)
        gamma_6 = 6 * 2.0**-24 / (1 - 6 * 2.0**-24)
        assert _rounding_slack("edge", 9, params) == pytest.approx(2 * 0.5 * gamma_6 * 3)

    def test_release_scale_noise_rises_below_half_a_percent(self):
        # n = 1e5, minimum degree 2, c_l = 0.9: Delta = 0.5899, 2e = 0.0022
        params = LayerParams(c_l=0.9, alpha1=1.0, alpha2=0.0, beta=0.0)
        delta = edge_sensitivity(2, 0.9, 1.0)
        slack = _rounding_slack("edge", 100_000, params)
        assert slack == pytest.approx(0.00224, abs=1e-5)
        assert slack / delta < 0.005


class TestNoiseTable:
    def test_reference_rows(self):
        rows = {k: (lin, conv) for k, lin, conv in noise_table(4.0, 1e-3, 6.0, 0.9)}
        assert rows[2][0] == pytest.approx(1.52, rel=0.01)
        assert rows[2][1] == pytest.approx(1.52, rel=0.05)
        assert rows[64] == (
            pytest.approx(8.56, rel=0.01),
            pytest.approx(4.66, rel=0.05),
        )
        assert rows[1][0] == pytest.approx(rows[1][1], rel=1e-9)

    @pytest.mark.parametrize("k", [2.5, 2.0, True])
    def test_k_must_be_an_integer(self, k):
        # a K of 2.5 would have been tabled as K = 2
        with pytest.raises(ValueError, match="k_hops"):
            noise_table(4.0, 1e-3, 6.0, 0.9, k_values=[k])

    def test_csv_format(self):
        rows = noise_table(4.0, 1e-3, 6.0, 0.9, k_values=[1, 2])
        text = format_noise_table(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "K,sigma_linear,sigma_convergent"
        assert len(lines) == 3
        assert lines[1].startswith("1,1.07")
