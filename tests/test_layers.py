import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import caribou.graphs
from caribou.accountant import _rounding_slack
from caribou.graphs import _aggregation_blocks, build_graph, normalized_adjacency
from caribou.layers import (
    LayerParams,
    _layer_rows,
    _mean_term,
    layer_forward,
    normalize_rows,
    project_rows,
)
from caribou.prng import stream
from tests.verify import empirical_lipschitz, exact_product
from tests.test_graphs import random_graph


class TestLayerParams:
    def test_alpha_sum_enforced(self):
        with pytest.raises(ValueError):
            LayerParams(c_l=0.5, alpha1=0.6, alpha2=0.6, beta=0.0)

    def test_c_l_range(self):
        with pytest.raises(ValueError):
            LayerParams(c_l=1.0, alpha1=1.0, alpha2=0.0, beta=0.0)
        with pytest.raises(ValueError):
            LayerParams(c_l=-0.1, alpha1=1.0, alpha2=0.0, beta=0.0)

    def test_alpha_sum_tolerance(self):
        LayerParams(c_l=0.5, alpha1=0.3, alpha2=0.7 + 5e-10, beta=1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_coefficients_rejected(self, bad):
        for kwargs in (
            {"alpha1": bad, "alpha2": bad, "beta": 0.0},
            {"alpha1": 1.0, "alpha2": bad, "beta": 0.0},
            {"alpha1": bad, "alpha2": 0.0, "beta": 0.0},
            {"alpha1": 1.0, "alpha2": 0.0, "beta": bad},
        ):
            with pytest.raises(ValueError, match="finite"):
                LayerParams(c_l=0.5, **kwargs)


class TestLayerForward:
    def test_zero_contraction_leaves_residual(self):
        adj = normalized_adjacency(build_graph(2, [(0, 1)]))
        params = LayerParams(c_l=0.0, alpha1=1.0, alpha2=0.0, beta=0.7)
        x0 = np.array([[1.0, 0.0], [0.0, 1.0]])
        xk = np.array([[5.0, 5.0], [-5.0, 5.0]])
        assert np.allclose(layer_forward(adj, xk, x0, params), 0.7 * x0)

    def test_single_node_scales_by_c_l(self):
        adj = normalized_adjacency(build_graph(1, []))
        params = LayerParams(c_l=0.6, alpha1=1.0, alpha2=0.0, beta=0.0)
        x = np.array([[0.3, -0.2]])
        assert np.allclose(layer_forward(adj, x, np.zeros_like(x), params), 0.6 * x)

    def test_two_node_worked_example(self):
        adj = normalized_adjacency(build_graph(2, [(0, 1)]))
        params = LayerParams(c_l=0.5, alpha1=1.0, alpha2=0.0, beta=0.0)
        xk = np.array([[1.0, 0.0], [0.0, 0.0]])
        out = layer_forward(adj, xk, np.zeros_like(xk), params)
        assert np.allclose(out, [[0.25, 0.0], [0.25, 0.0]])

    def test_shape_mismatch_rejected(self):
        adj = normalized_adjacency(build_graph(2, [(0, 1)]))
        params = LayerParams(c_l=0.5, alpha1=1.0, alpha2=0.0, beta=0.0)
        with pytest.raises(ValueError):
            layer_forward(adj, np.zeros((3, 2)), np.zeros((3, 2)), params)

    def test_empty_feature_matrix_rejected(self):
        adj = normalized_adjacency(build_graph(0, []))
        for alpha2 in (0.0, 0.5):
            params = LayerParams(c_l=0.5, alpha1=1.0 - alpha2, alpha2=alpha2, beta=0.0)
            with pytest.raises(ValueError, match="non-empty"):
                layer_forward(adj, np.zeros((0, 3)), np.zeros((0, 3)), params)

    def test_equals_written_out_formula(self):
        # c_l * (alpha1 * A @ X + alpha2 * Mean(X)) + beta * X0, evaluated
        # with full temporaries, to the last bit
        rng = stream(23, 0)
        for alpha2, beta in ((0.0, 0.0), (0.0, 0.7), (0.35, 0.0), (0.35, 1.2), (1.0, 0.4)):
            params = LayerParams(c_l=0.85, alpha1=1.0 - alpha2, alpha2=alpha2, beta=beta)
            for n in (1, 7, 20):
                sparse = normalized_adjacency(random_graph(rng, n))
                x = rng.normal(size=(n, 3))
                x0 = rng.normal(size=(n, 3))
                x_copy, x0_copy = x.copy(), x0.copy()
                for adj in (sparse, sparse.toarray()):
                    mean = np.broadcast_to(x.mean(axis=0, keepdims=True), x.shape)
                    expected = (
                        params.c_l * (params.alpha1 * (adj @ x) + params.alpha2 * mean)
                        + params.beta * x0
                    )
                    assert np.array_equal(layer_forward(adj, x, x0, params), expected)
                    assert np.array_equal(x, x_copy) and np.array_equal(x0, x0_copy)

    def test_linearity_without_residual(self):
        rng = stream(21, 0)
        g = random_graph(rng, 9)
        adj = normalized_adjacency(g)
        params = LayerParams(c_l=0.8, alpha1=0.6, alpha2=0.4, beta=0.0)
        x = rng.normal(size=(9, 3))
        y = rng.normal(size=(9, 3))
        zeros = np.zeros_like(x)
        lhs = layer_forward(adj, 2.0 * x - 3.0 * y, zeros, params)
        rhs = 2.0 * layer_forward(adj, x, zeros, params) - 3.0 * layer_forward(
            adj, y, zeros, params
        )
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_contractiveness_random_tuples(self):
        rng = stream(22, 0)
        for trial in range(200):
            n = int(rng.integers(1, 33))
            g = random_graph(rng, n)
            adj = normalized_adjacency(g)
            a1 = float(rng.random())
            params = LayerParams(
                c_l=float(rng.random() * 0.99),
                alpha1=a1,
                alpha2=1.0 - a1,
                beta=float(rng.random() * 2),
            )
            x = rng.normal(size=(n, 4))
            y = rng.normal(size=(n, 4))
            x0 = rng.normal(size=(n, 4))
            gap_out = np.linalg.norm(
                layer_forward(adj, x, x0, params) - layer_forward(adj, y, x0, params)
            )
            assert gap_out <= params.c_l * np.linalg.norm(x - y) + 1e-9


class TestFloat32Product:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 40),
        d=st.integers(1, 5),
        star=st.booleans(),
        terms=st.sampled_from([4, 64]),
        c_l=st.floats(0.05, 0.99),
        alpha1=st.floats(0.0, 1.0),
        beta=st.floats(0.0, 2.0),
        scale=st.floats(0.01, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hop_rows_within_e_of_the_fsum_oracle(
        self, n, d, star, terms, c_l, alpha1, beta, scale, seed
    ):
        rng = stream(seed, 0xF32)
        graph = build_graph(n, [(0, v) for v in range(1, n)]) if star else random_graph(rng, n)
        params = LayerParams(c_l=c_l, alpha1=alpha1, alpha2=1.0 - alpha1, beta=beta)
        x = project_rows(scale * rng.normal(size=(n, d)))
        x0 = project_rows(rng.normal(size=(n, d)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(caribou.graphs, "_SUM_TERMS", terms)
            agg, _ = graph._aggregation
            e = _rounding_slack("edge", n, params) / 2
        assert np.diff(agg.indptr).max() <= terms
        [(_, _, product)] = _aggregation_blocks(graph, n)
        x32 = x.astype(np.float32)
        got = _layer_rows(product(x32), x0, _mean_term(x32, params), params)
        adj = normalized_adjacency(graph)
        mean = [math.fsum(column) / n for column in x.T.tolist()]
        oracle = c_l * (alpha1 * exact_product(adj, x) + params.alpha2 * np.array(mean))
        oracle += beta * x0
        # float64 rounding is outside the bound; 1e-12 covers it
        assert np.linalg.norm(got - oracle) <= e + 1e-12


class TestProjectRows:
    def test_inside_unchanged(self):
        x = np.array([[0.3, 0.4]])
        assert np.allclose(project_rows(x), x)

    def test_outside_scaled(self):
        assert np.allclose(project_rows(np.array([[3.0, 4.0]])), [[0.6, 0.8]])

    def test_zero_row(self):
        assert np.allclose(project_rows(np.zeros((2, 3))), 0.0)

    @given(arrays(np.float64, (6, 3), elements=st.floats(-10, 10)))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_written_out_factor(self, x):
        # one row of NaN norm, which keeps its entries
        x[0, 0] = math.nan
        norms = np.linalg.norm(x, axis=-1, keepdims=True)
        factor = np.where(norms > 1.0, 1.0 / np.where(norms > 0, norms, 1.0), 1.0)
        assert np.array_equal(project_rows(x), x * factor, equal_nan=True)

    @given(
        arrays(np.float64, (5, 3), elements=st.floats(-10, 10)),
        arrays(np.float64, (5, 3), elements=st.floats(-10, 10)),
    )
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_nonexpansive(self, x, y):
        px = project_rows(x)
        assert np.allclose(project_rows(px), px, atol=1e-12)
        assert np.linalg.norm(px - project_rows(y)) <= np.linalg.norm(x - y) + 1e-9


class TestNormalizeRows:
    def test_unit_norms(self):
        out = normalize_rows(np.array([[3.0, 4.0], [0.0, 0.0], [0.1, 0.0]]))
        assert np.allclose(np.linalg.norm(out, axis=1), [1.0, 0.0, 1.0])


class TestEmpiricalLipschitz:
    def test_zero_contraction(self):
        adj = normalized_adjacency(build_graph(3, [(0, 1), (1, 2)]))
        params = LayerParams(c_l=0.0, alpha1=1.0, alpha2=0.0, beta=1.0)
        assert empirical_lipschitz(adj, params, trials=5, seed=0) == 0.0

    def test_single_node_attains_c_l(self):
        adj = normalized_adjacency(build_graph(1, []))
        params = LayerParams(c_l=0.7, alpha1=1.0, alpha2=0.0, beta=0.0)
        assert empirical_lipschitz(adj, params, trials=3, seed=0) == pytest.approx(0.7)

    def test_bounded_by_c_l(self):
        rng = stream(23, 0)
        for trial in range(20):
            n = int(rng.integers(2, 16))
            g = random_graph(rng, n)
            adj = normalized_adjacency(g)
            a1 = float(rng.random())
            params = LayerParams(
                c_l=float(rng.random() * 0.99), alpha1=a1, alpha2=1.0 - a1, beta=0.5
            )
            probe = empirical_lipschitz(adj, params, trials=10, seed=trial)
            assert probe <= params.c_l + 1e-9
