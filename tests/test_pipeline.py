import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

import caribou._pool
import caribou.graphs
import caribou.pipeline
from caribou.accountant import PrivacySpec, _rounding_slack, sensitivity_for_level
from caribou.graphs import (
    LabeledDataset,
    _float32_aggregation,
    build_graph,
    gen_chain_dataset,
    normalized_adjacency,
)
from caribou.layers import LayerParams, layer_forward, project_rows
from caribou._pool import MIN_CELLS
from caribou.pipeline import (
    PipelineConfig,
    RunArtifacts,
    _draw_noise,
    _row_blocks,
    run_pipeline,
    sample_gaussian_matrix,
)
from caribou.prng import stream
from tests.helpers import per_value_csv


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

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 40),
        d=st.integers(1, 5),
        std=st.floats(0.0, 10.0),
        cuts=st.lists(st.integers(1, 39), max_size=40),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=6, d=1, std=1.0, cuts=[1, 2, 3, 4, 5], seed=0)
    def test_chunked_draws_equal_one_whole_draw(self, n, d, std, cuts, seed):
        bounds = sorted({0, n, *(c for c in cuts if c < n)})
        chunked = np.empty((n, d))
        rng = stream(seed, 3)
        for a, b in zip(bounds, bounds[1:]):
            _draw_noise(chunked[a:b], std, rng)
        whole = np.empty((n, d))
        _draw_noise(whole, std, stream(seed, 3))
        assert np.array_equal(chunked, whole)


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


def float32_product(adj, x32):
    """Â @ X as the hops form it: each row's stored entries, in order, are
    summed in float32 in chunks of at most ``graphs._SUM_TERMS``, and the
    chunk sums are added in float64.  Chunk k of every row at once is the
    product of the float32 matrix of the entries k*L up to (k+1)*L of each
    row; a row without such entries adds zero."""
    terms = caribou.graphs._SUM_TERMS
    lengths = np.diff(adj.indptr)
    rows = np.repeat(np.arange(adj.shape[0]), lengths)
    position = np.arange(adj.nnz) - np.repeat(adj.indptr[:-1], lengths)
    total = np.zeros(x32.shape)
    for k in range(-(-int(lengths.max()) // terms)):
        keep = position // terms == k
        chunk = csr_array((adj.data[keep].astype(np.float32), (rows[keep], adj.indices[keep])),
                          shape=adj.shape)
        total += chunk @ x32
    return total


def reference_release(ds, cfg, noise_std):
    """The hop loop written out: the float32 product of the float32
    iterate, the layer's float64 terms, the hop's Gaussian, projection."""
    adj = normalized_adjacency(ds.graph)
    p = cfg.cgl
    x = ds.features.copy()
    for hop in range(cfg.k_hops):
        x32 = x.astype(np.float32)
        mean = x32.mean(axis=0, dtype=np.float64)
        x = p.c_l * (p.alpha1 * float32_product(adj, x32) + p.alpha2 * mean) + p.beta * ds.features
        x = x + stream(cfg.seed, 0x40C4, hop).normal(0.0, noise_std, size=x.shape)
        x = project_rows(x)
    return x


def reference_release_float64(ds, cfg, noise_std):
    """The same loop with the exact layer map in float64: the oracle the
    release stays within the rounding bound of."""
    adj = normalized_adjacency(ds.graph)
    x = ds.features.copy()
    for hop in range(cfg.k_hops):
        x = layer_forward(adj, x, ds.features, cfg.cgl)
        x = x + stream(cfg.seed, 0x40C4, hop).normal(0.0, noise_std, size=x.shape)
        x = project_rows(x)
    return x


# one feature matrix at the pool cutoff (row blocks on worker threads) and
# one below it (one block on the calling thread)
ABOVE_CUTOFF = (8192, 64)
BELOW_CUTOFF = (500, 8)


def count_calls(monkeypatch, name, fail_at=None):
    """Replace ``caribou.pipeline.<name>`` by a wrapper that records, per
    call, the thread it ran on and how many threads were alive, and raises
    on call number ``fail_at``."""
    original = getattr(caribou.pipeline, name)
    calls = []
    lock = threading.Lock()

    def wrapper(*args):
        with lock:
            number = len(calls)
            calls.append((threading.current_thread(), threading.active_count()))
        if number == fail_at:
            raise ArithmeticError(f"call {number} failed")
        return original(*args)

    monkeypatch.setattr(caribou.pipeline, name, wrapper)
    return calls


class TestNoiseOverlap:
    def test_sizes_straddle_the_cutoff(self):
        assert ABOVE_CUTOFF[0] * ABOVE_CUTOFF[1] >= MIN_CELLS
        assert BELOW_CUTOFF[0] * BELOW_CUTOFF[1] < MIN_CELLS

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

    @pytest.mark.parametrize(
        "block_rows, cpus",
        [(1000, 2), (ABOVE_CUTOFF[0], 2), (10_000, 2), (1000, 3), (1000, 1)],
        ids=["ragged-blocks", "one-block", "n-below-one-block", "three-cpus", "one-cpu"],
    )
    def test_equals_reference_loop_for_any_blocks_and_cpus(self, block_rows, cpus, monkeypatch):
        monkeypatch.setattr(caribou._pool, "BLOCK_ROWS", block_rows)
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: cpus)
        ds = random_dataset(*ABOVE_CUTOFF, seed=6)
        for level in ("edge", "node"):
            cfg = mixed_config(level, 1)
            artifacts = run_pipeline(ds, cfg)
            expected = reference_release(ds, cfg, artifacts.per_hop_noise_std)
            assert np.array_equal(artifacts.x_k_final, expected)

    @pytest.mark.parametrize(
        "block_rows, cpus",
        [(1000, 2), (ABOVE_CUTOFF[0], 2), (1000, 3), (1000, 1)],
        ids=["ragged-blocks", "one-block", "three-cpus", "one-cpu"],
    )
    def test_equals_reference_loop_with_cut_rows(self, block_rows, cpus, monkeypatch):
        monkeypatch.setattr(caribou.graphs, "_SUM_TERMS", 4)
        monkeypatch.setattr(caribou._pool, "BLOCK_ROWS", block_rows)
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: cpus)
        ds = random_dataset(*ABOVE_CUTOFF, seed=10)
        agg, first = _float32_aggregation(ds.graph)
        assert first is not None and agg.shape[0] > ds.graph.num_nodes
        for level in ("edge", "node"):
            cfg = mixed_config(level, 2)
            artifacts = run_pipeline(ds, cfg)
            expected = reference_release(ds, cfg, artifacts.per_hop_noise_std)
            assert np.array_equal(artifacts.x_k_final, expected)

    @pytest.mark.parametrize("terms", [64, 4], ids=["whole-rows", "cut-rows"])
    @pytest.mark.parametrize("level", ["edge", "node", "none"])
    def test_within_the_rounding_bound_of_the_float64_loop(self, level, terms, monkeypatch):
        # with the same noise, each hop adds at most e and the next contracts
        # it by c_l: projection is non-expansive
        monkeypatch.setattr(caribou.graphs, "_SUM_TERMS", terms)
        ds = random_dataset(*BELOW_CUTOFF, seed=9)
        k = 6
        cfg = mixed_config(level, 4, k=k)
        artifacts = run_pipeline(ds, cfg)
        exact = reference_release_float64(ds, cfg, artifacts.per_hop_noise_std)
        c = cfg.cgl.c_l
        e = _rounding_slack("edge", ds.graph.num_nodes, cfg.cgl) / 2
        gap = float(np.linalg.norm(artifacts.x_k_final - exact))
        assert 0 < gap <= e * (1 - c**k) / (1 - c)

    @pytest.mark.parametrize("size", [ABOVE_CUTOFF, BELOW_CUTOFF], ids=["above", "below"])
    def test_level_none_equals_noiseless_reference_loop(self, size, monkeypatch):
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: 2)
        ds = random_dataset(*size, seed=8)
        cfg = mixed_config("none", 3)
        artifacts = run_pipeline(ds, cfg)
        assert artifacts.per_hop_noise_std == 0.0
        assert np.array_equal(artifacts.x_k_final, reference_release(ds, cfg, 0.0))

    def test_column_major_features_give_the_same_release(self):
        ds = random_dataset(*ABOVE_CUTOFF, seed=7)
        cfg = mixed_config("edge", 2)
        expected = run_pipeline(ds, cfg).x_k_final
        column_major = replace(ds, features=np.asfortranarray(ds.features))
        assert np.array_equal(run_pipeline(column_major, cfg).x_k_final, expected)

    def test_equals_reference_loop_under_frequent_thread_switches(self, monkeypatch):
        monkeypatch.setattr(caribou._pool, "BLOCK_ROWS", 1000)
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: 4)
        ds = random_dataset(*ABOVE_CUTOFF, seed=5)
        cfg = mixed_config("edge", 7, k=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            artifacts = run_pipeline(ds, cfg)
            batched = run_pipeline(ds, cfg, [8, 7])
        finally:
            sys.setswitchinterval(interval)
        expected = reference_release(ds, cfg, artifacts.per_hop_noise_std)
        assert np.array_equal(artifacts.x_k_final, expected)
        assert np.array_equal(batched.x_k_final[1], expected)
        single = run_pipeline(ds, replace(cfg, seed=8)).x_k_final
        assert np.array_equal(batched.x_k_final[0], single)

    @pytest.mark.parametrize(
        "size, cpus", [(ABOVE_CUTOFF, 2), (ABOVE_CUTOFF, 1), (BELOW_CUTOFF, 2)],
        ids=["above", "above-one-cpu", "below"],
    )
    def test_worker_thread_only_above_cutoff(self, size, cpus, monkeypatch):
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: cpus)
        ds = random_dataset(*size, seed=3)
        before = threading.active_count()
        calls = count_calls(monkeypatch, "_layer_rows")
        run_pipeline(ds, mixed_config("edge", 0))
        assert threading.active_count() == before
        # row blocks above the cutoff, on any number of CPUs
        blocks = -(-size[0] // caribou._pool.BLOCK_ROWS) if size == ABOVE_CUTOFF else 1
        assert len(calls) == 3 * blocks
        if size == ABOVE_CUTOFF and cpus > 1:
            # the calling thread is the pool's last worker
            assert all(before < alive <= before + cpus - 1 for _, alive in calls)
        else:
            assert calls == [(threading.main_thread(), before)] * 3 * blocks

    def test_blocks_follow_the_size_not_the_cpus(self, monkeypatch):
        monkeypatch.setattr(caribou._pool, "BLOCK_ROWS", 3000)
        ds = random_dataset(*ABOVE_CUTOFF, seed=3)
        counts = []
        for cpus in (1, 2, 3):
            with monkeypatch.context() as patch:
                patch.setattr(caribou._pool, "usable_cpus", lambda: cpus)
                calls = count_calls(patch, "_layer_rows")
                run_pipeline(ds, mixed_config("edge", 0, k=2))
            counts.append(len(calls))
        # three blocks of 8192 rows per hop, two hops
        assert counts == [6, 6, 6]

    def test_failing_hop_reaches_caller_and_ends_worker(self, monkeypatch):
        monkeypatch.setattr(caribou._pool, "BLOCK_ROWS", 3000)
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: 2)
        ds = random_dataset(*ABOVE_CUTOFF, seed=4)
        before = threading.active_count()
        # Three blocks per hop, so hop 2 makes the calls numbered 6, 7 and 8
        # of each helper.  The draw fails before any of hop 2's rows are
        # drawn, or after its first block's; or one block task fails.
        for name, fail_at, calls_made, projected in (
            ("_draw_noise", 6, 7, 6), ("_draw_noise", 7, 8, 7), ("_layer_rows", 7, 9, 8),
        ):
            with monkeypatch.context() as patch:
                calls = count_calls(patch, name, fail_at=fail_at)
                projections = count_calls(patch, "_project_rows_inplace")
                raised = []

                def call():
                    try:
                        run_pipeline(ds, mixed_config("edge", 0, k=4))
                    except ArithmeticError as exc:
                        raised.append(str(exc))

                # a hang fails the test instead of stalling the suite
                caller = threading.Thread(target=call, daemon=True)
                caller.start()
                caller.join(timeout=30)
            case = (name, fail_at)
            assert not caller.is_alive(), case
            assert raised == [f"call {fail_at} failed"], case
            # no call of hop 3; a block whose noise was never drawn has no task
            assert len(calls) == calls_made, case
            assert len(projections) == projected, case
            assert threading.active_count() == before, case

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_peak_memory_holds_one_float64_and_one_float32_buffer(self, cpus, monkeypatch):
        monkeypatch.setattr(caribou._pool, "BLOCK_ROWS", 512)
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: cpus)
        ds = random_dataset(*ABOVE_CUTOFF, seed=2)
        cfg = mixed_config("edge", 0)
        run_pipeline(ds, cfg)  # so that no lazy import of a first call is traced
        tracemalloc.start()
        try:
            run_pipeline(ds, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the hop's float64 output and the float32 iterate, 1.5 times the
        # features, plus the blocks in flight
        assert peak < 2.0 * ds.features.nbytes

    def test_row_blocks_are_views_of_the_adjacency(self):
        graph = random_dataset(50, 2, seed=1).graph
        adj = normalized_adjacency(graph)
        agg, first = _float32_aggregation(graph)
        assert first is None and _float32_aggregation(graph)[0] is agg
        assert np.array_equal(agg.indptr, adj.indptr)
        assert np.array_equal(agg.indices, adj.indices)
        assert np.array_equal(agg.data, adj.data.astype(np.float32))
        blocks = _row_blocks(agg, first, 16)
        assert [(a, b) for a, b, *_ in blocks] == [(0, 16), (16, 32), (32, 48), (48, 50)]
        for a, b, rows, starts in blocks:
            assert starts is None
            assert np.shares_memory(rows.data, agg.data)
            assert np.shares_memory(rows.indices, agg.indices)
            assert np.array_equal(rows.toarray(), agg.toarray()[a:b])

    def test_row_blocks_of_cut_rows(self, monkeypatch):
        # a star: the hub's row of 30 entries is cut into chunks of 4
        monkeypatch.setattr(caribou.graphs, "_SUM_TERMS", 4)
        graph = build_graph(30, [(0, v) for v in range(1, 30)])
        adj = normalized_adjacency(graph)
        agg, first = _float32_aggregation(graph)
        assert first.tolist() == [0, *range(8, 38)]
        assert np.diff(agg.indptr).tolist() == [4] * 7 + [2] + [2] * 29
        assert np.array_equal(agg.indices, adj.indices)
        assert np.array_equal(agg.data, adj.data.astype(np.float32))
        blocks = _row_blocks(agg, first, 16)
        assert [(a, b) for a, b, *_ in blocks] == [(0, 16), (16, 30)]
        (_, _, head, starts), (_, _, tail, none) = blocks
        assert starts.tolist() == [0, *range(8, 23)] and none is None
        assert np.shares_memory(head.data, agg.data) and np.shares_memory(tail.data, agg.data)
        dense = adj.toarray().astype(np.float32)
        assert np.array_equal(head.toarray()[:8].sum(axis=0), dense[0])
        assert np.array_equal(head.toarray()[8:], dense[1:16])
        assert np.array_equal(tail.toarray(), dense[16:])

def record_trims(monkeypatch):
    """Replace ``_pool._trim_heap`` by a recorder of the memory that
    tracemalloc traces at each call, None while it is not tracing."""
    calls = []

    def recorder():
        calls.append(tracemalloc.get_traced_memory()[0] if tracemalloc.is_tracing() else None)

    monkeypatch.setattr(caribou._pool, "_trim_heap", recorder)
    return calls


class TestHeapTrim:
    """A run on row blocks gives the C heap's free pages back once, after
    it has let go of its float32 iterate and blocks; a run of one block
    never does."""

    @pytest.mark.parametrize("seeds", [None, [3, 4]], ids=["single", "batched"])
    def test_one_trim_per_pooled_run(self, seeds, monkeypatch):
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: 2)
        trims = record_trims(monkeypatch)
        ds = random_dataset(*ABOVE_CUTOFF, seed=11)
        run_pipeline(ds, mixed_config("edge", 0), seeds)
        assert trims == [None]
        run_pipeline(ds, mixed_config("none", 0), seeds)
        assert trims == [None, None]

    @pytest.mark.parametrize("size, cpus", [(BELOW_CUTOFF, 2), (ABOVE_CUTOFF, 1)],
                             ids=["below-cutoff", "one-cpu"])
    def test_trim_only_above_cutoff(self, size, cpus, monkeypatch):
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: cpus)
        trims = record_trims(monkeypatch)
        ds = random_dataset(*size, seed=11)
        for seeds in (None, [3, 4]):
            run_pipeline(ds, mixed_config("edge", 0), seeds)
        # one trim per run on row blocks, whether or not it opened a pool
        assert trims == ([None, None] if size == ABOVE_CUTOFF else [])

    def test_trim_comes_after_the_iterate_is_freed(self, monkeypatch):
        block_rows = 512
        monkeypatch.setattr(caribou._pool, "BLOCK_ROWS", block_rows)
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: 2)
        cfg = mixed_config("edge", 0)
        # so that no lazy import of a first call is traced
        run_pipeline(random_dataset(*ABOVE_CUTOFF, seed=2), cfg)
        ds = random_dataset(*ABOVE_CUTOFF, seed=3)
        trims = record_trims(monkeypatch)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = run_pipeline(ds, cfg).x_k_final
        finally:
            tracemalloc.stop()
        agg, _ = _float32_aggregation(ds.graph)
        kept = out.nbytes + agg.data.nbytes + agg.indices.nbytes + agg.indptr.nbytes
        block = block_rows * out.shape[1] * out.itemsize
        # with the float32 iterate still held the growth would be 1.5 times
        # the output, above this bound
        assert kept + block < 1.5 * out.nbytes
        assert len(trims) == 1 and trims[0] - before < kept + block

    def test_release_is_the_same_without_malloc_trim(self, monkeypatch):
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: 2)
        ds = random_dataset(*ABOVE_CUTOFF, seed=5)
        cfg = mixed_config("edge", 3)
        trimmed = run_pipeline(ds, cfg).x_k_final
        # the C library has no malloc_trim: the run goes on without it
        monkeypatch.setattr(caribou._pool, "_malloc_trim", lambda: None)
        assert np.array_equal(run_pipeline(ds, cfg).x_k_final, trimmed)


SEEDS = (0, 7, 2**40 + 3, 11, 2**63 - 1)


def assert_slices_equal_single_releases(ds, cfg, seeds, features=None):
    batched = run_pipeline(ds, cfg, seeds, features)
    assert batched.x_k_final.shape == (len(seeds), *ds.features.shape)
    for t, (release, seed) in enumerate(zip(batched.x_k_final, seeds)):
        alone = ds if features is None else replace(ds, features=features[t])
        single = run_pipeline(alone, replace(cfg, seed=seed))
        assert np.array_equal(release, single.x_k_final)
        assert batched.plan == single.plan
        assert batched.per_hop_noise_std == single.per_hop_noise_std


def release_features(ds, t, seed):
    """t feature matrices of ``ds``'s shape, each its features plus noise,
    projected back onto the unit ball."""
    rng = np.random.default_rng(seed)
    return np.stack([project_rows(ds.features + rng.normal(0.0, 0.3, ds.features.shape))
                     for _ in range(t)])


class TestBatchedReleases:
    """T seeds make T releases in one pass; slice t has the bits of the
    release with seed t."""

    @pytest.mark.parametrize("t", [1, 2, 5])
    @pytest.mark.parametrize("level", ["edge", "node", "none"])
    def test_slices_equal_single_releases(self, level, t):
        ds = random_dataset(*BELOW_CUTOFF, seed=12)
        assert_slices_equal_single_releases(ds, mixed_config(level, 0), SEEDS[:t])

    @pytest.mark.parametrize("terms", [64, 4], ids=["whole-rows", "cut-rows"])
    @pytest.mark.parametrize(
        "block_rows, cpus", [(64, 1), (64, 2), (100, 3), (300, 2)],
        ids=["one-cpu", "two-cpus", "three-cpus", "one-block"],
    )
    def test_slices_equal_single_releases_on_row_blocks(self, block_rows, cpus, terms,
                                                        monkeypatch):
        # one release of 300 x 3 stays below the cutoff, so the single
        # releases run as one block on this thread and the batches of two
        # and five on row blocks
        monkeypatch.setattr(caribou._pool, "MIN_CELLS", 1000)
        monkeypatch.setattr(caribou._pool, "BLOCK_ROWS", block_rows)
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(caribou.graphs, "_SUM_TERMS", terms)
        ds = random_dataset(300, 3, seed=13)
        assert (_float32_aggregation(ds.graph)[1] is not None) == (terms == 4)
        for level in ("edge", "node"):
            for t in (1, 2, 5):
                assert_slices_equal_single_releases(ds, mixed_config(level, 1), SEEDS[:t])

    def test_k0_releases_the_features_per_seed(self):
        ds = gen_chain_dataset(2, 4, 2, 3, seed=0)
        x_k = run_pipeline(ds, chain_config(k=0), [3, 4]).x_k_final
        assert x_k.shape == (2, *ds.features.shape)
        assert all(np.array_equal(release, ds.features) for release in x_k)

    def test_batch_equals_reference_loop_per_seed(self):
        ds = random_dataset(*BELOW_CUTOFF, seed=14)
        cfg = mixed_config("edge", 0)
        artifacts = run_pipeline(ds, cfg, SEEDS[:2])
        for release, seed in zip(artifacts.x_k_final, SEEDS):
            expected = reference_release(ds, replace(cfg, seed=seed), artifacts.per_hop_noise_std)
            assert np.array_equal(release, expected)

    @pytest.mark.parametrize(
        "cfg",
        [mixed_config("edge", 0), mixed_config("none", 0), chain_config("edge")],
        ids=["mixed-edge", "mixed-none", "plain-edge"],
    )
    @pytest.mark.parametrize("size", [BELOW_CUTOFF, ABOVE_CUTOFF],
                             ids=["below-cutoff", "above-cutoff"])
    def test_release_features_equal_single_releases(self, size, cfg, monkeypatch):
        # above the cutoff each release alone already runs on row blocks
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: 2)
        ds = random_dataset(*size, seed=15)
        assert_slices_equal_single_releases(ds, cfg, SEEDS[:3], release_features(ds, 3, 1))

    @pytest.mark.parametrize("terms", [64, 4], ids=["whole-rows", "cut-rows"])
    def test_release_features_on_row_blocks(self, terms, monkeypatch):
        monkeypatch.setattr(caribou._pool, "MIN_CELLS", 1000)
        monkeypatch.setattr(caribou._pool, "BLOCK_ROWS", 64)
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: 2)
        monkeypatch.setattr(caribou.graphs, "_SUM_TERMS", terms)
        ds = random_dataset(300, 3, seed=13)
        assert (_float32_aggregation(ds.graph)[1] is not None) == (terms == 4)
        for level in ("edge", "node"):
            for t in (1, 2, 5):
                assert_slices_equal_single_releases(ds, mixed_config(level, 1), SEEDS[:t],
                                                    release_features(ds, t, t))

    def test_k0_releases_each_release_features(self):
        ds = gen_chain_dataset(2, 4, 2, 3, seed=0)
        features = release_features(ds, 2, 3)
        x_k = run_pipeline(ds, chain_config(k=0), [3, 4], features).x_k_final
        assert np.array_equal(x_k, features) and not np.shares_memory(x_k, features)
        assert_slices_equal_single_releases(ds, chain_config(k=0), [3, 4], features)

    @pytest.mark.parametrize("seeds, shape", [
        ([3, 4], (3, 8, 3)), ([3, 4], (2, 7, 3)), ([3, 4], (2, 8, 4)), ([3, 4], (8, 3)),
        (None, (1, 8, 3)),
    ], ids=["releases", "rows", "columns", "one-matrix", "no-seeds"])
    def test_features_of_a_wrong_shape_rejected(self, seeds, shape):
        ds = gen_chain_dataset(2, 4, 2, 3, seed=0)
        features = np.zeros(shape)
        with pytest.raises(ValueError, match=r"one \(8, 3\) matrix per seed") as info:
            run_pipeline(ds, chain_config(k=2), seeds, features)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("k", [0, 2])
    def test_release_features_above_unit_norm_rejected(self, k):
        ds = gen_chain_dataset(2, 4, 2, 3, seed=0)
        features = release_features(ds, 3, 4)
        features[1, 5] = [1.0, 1.0, 0.0]
        with pytest.raises(ValueError, match="row norm <= 1"):
            run_pipeline(ds, chain_config(k=k), [3, 4, 5], features)

    def test_empty_seeds_rejected(self):
        ds = gen_chain_dataset(2, 4, 2, 3, seed=0)
        with pytest.raises(ValueError, match="seeds") as info:
            run_pipeline(ds, chain_config(k=2), [])
        assert "\n" not in str(info.value)


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

    @pytest.mark.parametrize("k", [2.0, 2.5, True, -1])
    def test_k_hops_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="k_hops"):
            replace(chain_config(k=2), k_hops=k)

    @pytest.mark.parametrize("cap", [0, -3, 2.5, 3.0, True, "3"])
    def test_bad_max_degree_rejected(self, cap):
        with pytest.raises(ValueError, match="max_degree"):
            replace(chain_config(level="node"), max_degree=cap)

    @pytest.mark.parametrize("cap", [None, 1, np.int64(7)])
    def test_max_degree_accepts_none_or_a_positive_integer(self, cap):
        assert replace(chain_config(level="node"), max_degree=cap).max_degree == cap


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

    @pytest.mark.parametrize("level", ["edge", "node", "none"])
    def test_delta_is_the_sensitivity_plus_the_rounding_slack(self, level):
        ds = gen_chain_dataset(4, 6, 2, 4, seed=3)
        cfg = chain_config(level=level, eps=4.0, k=2)
        plan = run_pipeline(ds, cfg).plan
        slack = _rounding_slack(level, ds.graph.num_nodes, cfg.cgl)
        assert plan.rounding_slack == slack
        assert plan.delta_mp == sensitivity_for_level(level, ds.graph, cfg.cgl) + slack
        assert plan.to_dict()["rounding_slack"] == slack
        assert (slack > 0) == (level != "none")

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("level", ["none", "edge"])
    def test_non_finite_features_rejected(self, value, level):
        # a NaN row norm passes `norm > 1`; the row must not be released
        ds = gen_chain_dataset(2, 3, 2, 3, seed=0)
        features = ds.features.copy()
        features[1, 0] = value
        bad = replace(ds, features=features)
        with pytest.raises(ValueError, match="finite"):
            run_pipeline(bad, chain_config(level=level, eps=8.0, k=2))

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
        assert sidecar["rounding_slack"] == artifacts.plan.rounding_slack > 0
        # the per-hop std is the plan's noise_std, written once
        assert sidecar["noise_std"] == artifacts.per_hop_noise_std
        assert "per_hop_noise_std" not in sidecar
        loaded = np.array([[float(v) for v in line.split(",")] for line in rows])
        assert np.array_equal(loaded, artifacts.x_k_final)
        assert emb.read_text() == per_value_csv(artifacts.x_k_final)
