import sys
import threading

import numpy as np
import pytest

import caribou.pipeline
from caribou.accountant import PrivacySpec
from caribou.graphs import LabeledDataset, build_graph, gen_chain_dataset, normalized_adjacency
from caribou.layers import LayerParams, layer_forward, project_rows
from caribou.pipeline import (
    _OVERLAP_MIN_CELLS,
    PipelineConfig,
    RunArtifacts,
    _draw_noise,
    run_pipeline,
    sample_gaussian_matrix,
)
from caribou.prng import stream


def chain_config(level="none", eps=8.0, k=3, c_l=0.5, seed=0, mode="convergent"):
    params = LayerParams(c_l=c_l, alpha1=1.0, alpha2=0.0, beta=0.0)
    spec = PrivacySpec(
        epsilon=eps,
        delta=1e-3,
        level=level,
        k_hops=max(k, 1),
        gamma=c_l if level != "none" else 0.0,
    )
    return PipelineConfig(cgl=params, spec=spec, k_hops=k, seed=seed, mode=mode)


class TestSampler:
    def test_zero_std_is_zero_matrix(self):
        out = sample_gaussian_matrix(4, 3, 0.0, stream(0, 1))
        assert np.array_equal(out, np.zeros((4, 3)))

    def test_sample_mean_clt_bound(self):
        std = 0.7
        out = sample_gaussian_matrix(1000, 1000, std, stream(1, 2))
        assert abs(out.mean()) < 4.0 * std / 1000.0

    def test_sample_std(self):
        out = sample_gaussian_matrix(1000, 1000, 2.5, stream(2, 3))
        assert out.std() == pytest.approx(2.5, rel=0.01)

    def test_same_stream_same_matrix(self):
        a = sample_gaussian_matrix(8, 2, 1.0, stream(7, 4))
        b = sample_gaussian_matrix(8, 2, 1.0, stream(7, 4))
        assert np.array_equal(a, b)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            sample_gaussian_matrix(1, 1, -0.1, stream(0, 0))


class TestDrawNoise:
    def test_same_numbers_as_generator_normal(self):
        out = np.empty((50, 7))
        _draw_noise(out, 0.37, stream(5, 6))
        assert np.array_equal(out, stream(5, 6).normal(loc=0.0, scale=0.37, size=(50, 7)))

    def test_refills_the_given_buffer(self):
        out = np.empty((6, 3))
        _draw_noise(out, 1.0, stream(8, 1))
        _draw_noise(out, 2.0, stream(8, 2))
        assert np.array_equal(out, sample_gaussian_matrix(6, 3, 2.0, stream(8, 2)))

    def test_zero_std_is_zero_matrix(self):
        out = np.full((4, 3), 9.0)
        _draw_noise(out, 0.0, stream(0, 1))
        assert np.array_equal(out, np.zeros((4, 3)))

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            _draw_noise(np.empty((1, 1)), -0.1, stream(0, 0))


def random_dataset(n, d, seed):
    """A path through all nodes plus ~2n random edges, unit feature rows."""
    rng = np.random.default_rng(seed)
    path = rng.permutation(n)
    pairs = np.concatenate([
        np.stack([path[:-1], path[1:]], axis=1), rng.integers(0, n, size=(2 * n, 2))
    ])
    features = rng.normal(size=(n, d))
    return LabeledDataset(
        graph=build_graph(n, pairs[pairs[:, 0] != pairs[:, 1]]),
        features=features / np.linalg.norm(features, axis=1, keepdims=True),
        labels=np.zeros(n, dtype=np.int64),
    )


def mixed_config(level, seed, k=3):
    params = LayerParams(c_l=0.7, alpha1=0.8, alpha2=0.2, beta=0.1)
    spec = PrivacySpec(epsilon=4.0, delta=1e-5, level=level, k_hops=k, gamma=0.7)
    return PipelineConfig(cgl=params, spec=spec, k_hops=k, seed=seed)


def reference_release(ds, cfg, noise_std):
    """The hop loop written out: layer, the hop's Gaussian, projection."""
    adj = normalized_adjacency(ds.graph)
    x = ds.features.copy()
    for hop in range(cfg.k_hops):
        x = layer_forward(adj, x, ds.features, cfg.cgl)
        x = x + stream(cfg.seed, 0x40C4, hop).normal(0.0, noise_std, size=x.shape)
        x = project_rows(x)
    return x


# one feature matrix at the overlap cutoff (noise drawn on a worker thread)
# and one below it (noise drawn on the calling thread)
ABOVE_CUTOFF = (8192, 64)
BELOW_CUTOFF = (500, 8)


class TestNoiseOverlap:
    def test_sizes_straddle_the_cutoff(self):
        assert ABOVE_CUTOFF[0] * ABOVE_CUTOFF[1] >= _OVERLAP_MIN_CELLS
        assert BELOW_CUTOFF[0] * BELOW_CUTOFF[1] < _OVERLAP_MIN_CELLS

    @pytest.mark.parametrize("size", [ABOVE_CUTOFF, BELOW_CUTOFF], ids=["above", "below"])
    @pytest.mark.parametrize("level", ["edge", "node"])
    def test_equals_reference_loop(self, size, level):
        ds = random_dataset(*size, seed=size[0])
        for seed in (0, 1, 2):
            cfg = mixed_config(level, seed)
            artifacts = run_pipeline(ds, cfg)
            assert artifacts.per_hop_noise_std > 0
            expected = reference_release(ds, cfg, artifacts.per_hop_noise_std)
            assert np.array_equal(artifacts.x_k_final, expected)

    def test_equals_reference_loop_under_frequent_thread_switches(self):
        ds = random_dataset(*ABOVE_CUTOFF, seed=5)
        cfg = mixed_config("edge", 7, k=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            artifacts = run_pipeline(ds, cfg)
        finally:
            sys.setswitchinterval(interval)
        expected = reference_release(ds, cfg, artifacts.per_hop_noise_std)
        assert np.array_equal(artifacts.x_k_final, expected)

    @pytest.mark.parametrize("size", [ABOVE_CUTOFF, BELOW_CUTOFF], ids=["above", "below"])
    def test_worker_thread_only_above_cutoff(self, size, monkeypatch):
        ds = random_dataset(*size, seed=3)
        before = threading.active_count()
        during = []

        def counting_project_rows(x):
            during.append(threading.active_count())
            return project_rows(x)

        monkeypatch.setattr(caribou.pipeline, "project_rows", counting_project_rows)
        run_pipeline(ds, mixed_config("edge", 0))
        assert threading.active_count() == before
        workers = 1 if size == ABOVE_CUTOFF else 0
        assert during == [before + workers] * 3

    def test_failing_hop_reaches_caller_and_ends_worker(self, monkeypatch):
        ds = random_dataset(*ABOVE_CUTOFF, seed=4)
        before = threading.active_count()
        calls = []

        def failing_project_rows(x):
            calls.append(len(calls))
            if len(calls) == 3:
                raise ArithmeticError("hop 2 failed")
            return project_rows(x)

        monkeypatch.setattr(caribou.pipeline, "project_rows", failing_project_rows)
        with pytest.raises(ArithmeticError, match="hop 2 failed"):
            run_pipeline(ds, mixed_config("edge", 0, k=4))
        assert calls == [0, 1, 2]
        assert threading.active_count() == before


class TestConfigValidation:
    def test_hop_mismatch_rejected(self):
        params = LayerParams(c_l=0.5, alpha1=1.0, alpha2=0.0, beta=0.0)
        spec = PrivacySpec(epsilon=1.0, delta=1e-3, level="edge", k_hops=2, gamma=0.5)
        with pytest.raises(ValueError, match="k_hops"):
            PipelineConfig(cgl=params, spec=spec, k_hops=3, seed=0)

    def test_gamma_mismatch_rejected(self):
        params = LayerParams(c_l=0.5, alpha1=1.0, alpha2=0.0, beta=0.0)
        spec = PrivacySpec(epsilon=1.0, delta=1e-3, level="edge", k_hops=2, gamma=0.9)
        with pytest.raises(ValueError, match="gamma"):
            PipelineConfig(cgl=params, spec=spec, k_hops=2, seed=0)


class TestRunPipeline:
    def test_k0_no_noise_returns_input(self):
        ds = gen_chain_dataset(2, 4, 2, 3, seed=0)
        artifacts = run_pipeline(ds, chain_config(k=0))
        assert np.array_equal(artifacts.x_k_final, ds.features)

    def test_level_none_plan_follows_hop_count(self):
        ds = gen_chain_dataset(2, 4, 2, 3, seed=0)
        params = LayerParams(c_l=0.5, alpha1=1.0, alpha2=0.0, beta=0.0)
        for k in (0, 1, 2, 8):
            spec = PrivacySpec(epsilon=1.0, delta=1e-3, level="none", k_hops=k)
            plan = run_pipeline(ds, PipelineConfig(cgl=params, spec=spec, k_hops=k, seed=0)).plan
            assert plan.sigma == 0.0
            assert plan.alpha_star == max(k, 1) + 1

    def test_noiseless_equals_stacked_layers(self):
        ds = gen_chain_dataset(2, 4, 2, 3, seed=1)
        cfg = chain_config(k=3, c_l=0.7)
        artifacts = run_pipeline(ds, cfg)
        adj = normalized_adjacency(ds.graph)
        x = ds.features.copy()
        for _ in range(3):
            x = project_rows(layer_forward(adj, x, ds.features, cfg.cgl))
        assert np.allclose(artifacts.x_k_final, x)

    def test_deterministic_per_seed(self):
        ds = gen_chain_dataset(6, 8, 2, 5, seed=0)
        cfg = chain_config(level="edge", eps=8.0, k=8, c_l=0.5, seed=11)
        a = run_pipeline(ds, cfg)
        b = run_pipeline(ds, cfg)
        assert np.array_equal(a.x_k_final, b.x_k_final)
        c = run_pipeline(ds, chain_config(level="edge", eps=8.0, k=8, c_l=0.5, seed=12))
        assert not np.array_equal(a.x_k_final, c.x_k_final)

    def test_rows_stay_bounded(self):
        ds = gen_chain_dataset(4, 6, 2, 4, seed=2)
        for level, eps in (("none", 8.0), ("edge", 2.0), ("node", 8.0)):
            artifacts = run_pipeline(ds, chain_config(level=level, eps=eps, k=4))
            norms = np.linalg.norm(artifacts.x_k_final, axis=1)
            assert norms.max() <= 1.0 + 1e-12

    def test_injected_std_is_delta_times_sigma(self):
        ds = gen_chain_dataset(4, 6, 2, 4, seed=3)
        artifacts = run_pipeline(ds, chain_config(level="edge", eps=4.0, k=2))
        plan = artifacts.plan
        assert artifacts.per_hop_noise_std == plan.delta_mp * plan.sigma
        assert plan.delta_mp > 0 and plan.sigma > 0

    def test_unnormalized_features_rejected(self):
        ds = gen_chain_dataset(2, 3, 2, 3, seed=0)
        bad = ds.__class__(
            graph=ds.graph,
            features=ds.features * 3.0,
            labels=ds.labels,
            train_mask=ds.train_mask,
            test_mask=ds.test_mask,
        )
        with pytest.raises(ValueError, match="row norm"):
            run_pipeline(bad, chain_config(k=2))

    def test_isolated_node_rejected_under_edge_level(self):
        from caribou.graphs import LabeledDataset, build_graph

        g = build_graph(3, [(0, 1)])
        ds = LabeledDataset(
            graph=g,
            features=np.zeros((3, 2)),
            labels=np.zeros(3, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="minimum degree"):
            run_pipeline(ds, chain_config(level="edge", k=1))

    def test_level_none_plan_is_noiseless(self):
        ds = gen_chain_dataset(2, 4, 2, 3, seed=4)
        artifacts = run_pipeline(ds, chain_config(level="none", k=2))
        assert artifacts.plan.sigma == 0.0
        assert artifacts.per_hop_noise_std == 0.0
        assert artifacts.plan.eps_achieved == 0.0

    def test_contraction_iterates_settle(self):
        # without noise and residual, successive iterate gaps stop growing
        rng = stream(41, 0)
        from tests.test_graphs import random_graph

        for trial in range(50):
            n = int(rng.integers(2, 33))
            g = random_graph(rng, n)
            adj = normalized_adjacency(g)
            params = LayerParams(c_l=0.8, alpha1=1.0, alpha2=0.0, beta=0.0)
            x = project_rows(rng.normal(size=(n, 3)))
            x0 = np.zeros_like(x)
            gaps = []
            prev = x
            for _ in range(64):
                nxt = project_rows(layer_forward(adj, prev, x0, params))
                gaps.append(float(np.linalg.norm(nxt - prev)))
                prev = nxt
            tail = gaps[8:]
            assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))


class TestArtifactsIo:
    def test_save_files(self, tmp_path):
        ds = gen_chain_dataset(2, 4, 2, 3, seed=5)
        artifacts = run_pipeline(ds, chain_config(level="edge", eps=4.0, k=2))
        from caribou.pipeline import save_artifacts

        emb = tmp_path / "embedding.csv"
        plan = tmp_path / "plan.json"
        save_artifacts(artifacts, emb, plan)
        rows = emb.read_text().strip().split("\n")
        assert len(rows) == ds.graph.num_nodes
        import json

        sidecar = json.loads(plan.read_text())
        assert sidecar["sigma"] == artifacts.plan.sigma
        assert sidecar["per_hop_noise_std"] == artifacts.per_hop_noise_std
        loaded = np.array([[float(v) for v in line.split(",")] for line in rows])
        assert np.array_equal(loaded, artifacts.x_k_final)
