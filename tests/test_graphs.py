import hashlib
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

import caribou.graphs
from caribou.graphs import (
    Graph,
    LabeledDataset,
    ParseError,
    build_graph,
    degree_stats,
    gen_chain_dataset,
    load_dataset,
    normalized_adjacency,
    _split_counts,
    stratified_split,
    write_dataset,
    write_float_csv,
)
from caribou.layers import project_rows
from caribou.prng import stream
from tests.helpers import per_value_csv
from tests.verify import (
    enumerate_edge_neighbors,
    enumerate_node_neighbors,
    reference_build_graph,
    reference_graph_edges,
    spectral_norm,
)


def random_graph(rng, n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = rng.random(len(pairs)) < 0.4
    return build_graph(n, [p for p, keep in zip(pairs, mask) if keep])


class TestBuildGraph:
    def test_smallest_connected(self):
        g = build_graph(2, [(0, 1)])
        assert g.num_edges == 1
        assert degree_stats(g) == (1, 1)

    def test_symmetrization_dedup(self):
        g = build_graph(3, [(0, 1), (1, 0), (1, 2)])
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_single_isolated_node(self):
        g = build_graph(1, [])
        assert g.num_nodes == 1 and g.num_edges == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_graph(2, [(0, 2)])

    def test_self_loops_dropped_and_counted(self):
        g = build_graph(3, [(0, 0), (1, 1), (0, 1)])
        assert g.num_edges == 1
        assert g.dropped_self_loops == 2


    def test_accepts_pairs_array_and_empty_input(self):
        from_pairs = build_graph(4, [(2, 3), (0, 1), (3, 2)])
        from_array = build_graph(4, np.array([[3, 2], [1, 0], [2, 2]]))
        assert from_pairs.edges.tolist() == [[0, 1], [2, 3]]
        assert np.array_equal(from_array.edges, from_pairs.edges)
        assert from_array.dropped_self_loops == 1
        for n in (0, 3):
            g = build_graph(n, [])
            assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64
            assert np.array_equal(g.degrees, np.zeros(n))

    def test_badly_shaped_pairs_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            build_graph(3, [(0, 1, 2)])


class TestGraphInvariants:
    @pytest.mark.parametrize(
        "edges, match",
        [
            ([[1, 2], [0, 1]], r"edge \(0, 1\) is out of order"),
            ([[0, 1], [0, 1]], r"edge \(0, 1\) is out of order or repeated"),
            ([[0, 1], [1, 1]], r"edge \(1, 1\) invalid"),
            ([[2, 1]], r"edge \(2, 1\) invalid"),
            ([[-1, 1]], r"edge \(-1, 1\) invalid"),
            ([[0, 1], [1, 3]], r"edge \(1, 3\) invalid for 3 nodes"),
        ],
    )
    def test_bad_edge_arrays_name_first_bad_edge(self, edges, match):
        with pytest.raises(ValueError, match=match):
            Graph(num_nodes=3, edges=np.array(edges))

    @pytest.mark.parametrize("shape", [(2,), (1, 3), (2, 2, 1)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            Graph(num_nodes=3, edges=np.zeros(shape, dtype=np.int64))

    def test_edges_read_only_and_detached_from_input(self):
        source = np.array([[0, 1], [1, 2]])
        g = Graph(num_nodes=3, edges=source)
        source[0] = (0, 2)
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        with pytest.raises(ValueError, match="read-only"):
            g.edges[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            build_graph(3, [(0, 1)]).edges[0, 0] = 1

    def test_degrees_count_both_endpoints(self):
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (3, 1)])
        assert g.degrees.tolist() == [3, 2, 1, 2, 0]


def _outcome(call):
    """The edge bytes and shape ``call`` returns, or its error's type and text."""
    try:
        edges, *rest = call()
    except ValueError as exc:
        return type(exc), str(exc)
    assert edges.dtype == np.int64 and not edges.flags.writeable
    return edges.tobytes(), edges.shape, *rest


def _wrapping_edge(n: int, v: int) -> tuple[int, int]:
    """A row (u, v) with u < 0 whose int64 key u * n + v wraps to a small
    positive K; ``n`` is odd, so it has an inverse modulo 2**64."""
    for key in range(2, 1000):
        u = (key - v) * pow(n, -1, 1 << 64) % (1 << 64)
        if u >= 1 << 63:
            return u - (1 << 64), key
    raise AssertionError("no negative u below K = 1000")


_IDS = st.integers(-3, 14)


class TestChecksMatchReference:
    """``build_graph`` and ``Graph`` keep the edges, the self-loop count and
    the first error of the per-row oracles in ``tests.verify``."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 12),
        pairs=st.one_of(
            st.lists(st.tuples(_IDS, _IDS), max_size=30),
            st.lists(st.lists(_IDS, min_size=1, max_size=3), max_size=4),
            st.lists(_IDS, max_size=4),
        ),
    )
    def test_messy_pair_lists(self, n, pairs):
        def built():
            g = build_graph(n, pairs)
            return g.edges, g.dropped_self_loops

        assert _outcome(built) == _outcome(lambda: reference_build_graph(n, pairs))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(0, 12))
    def test_raw_edge_arrays(self, data, n):
        # a valid sorted edge set, then at most one fault
        node = st.integers(0, max(n - 1, 0))
        drawn = data.draw(st.lists(st.tuples(node, node), max_size=20))
        rows = [[u, v] for u, v in sorted({(min(p), max(p)) for p in drawn if p[0] != p[1]})]
        fault = data.draw(st.sampled_from(
            ["none", "swap", "repeat", "reverse", "v=n", "u<0", "random"]))
        i = data.draw(st.integers(0, max(len(rows) - 1, 0)))
        if fault == "random":
            rows = data.draw(st.lists(st.lists(_IDS, min_size=2, max_size=2), max_size=12))
        elif fault == "swap" and len(rows) > 1:
            j = (i + 1) % len(rows)
            rows[i], rows[j] = rows[j], rows[i]
        elif rows and fault == "repeat":
            rows.insert(i, list(rows[i]))
        elif rows and fault == "reverse":
            rows[i].reverse()
        elif rows and fault == "v=n":
            rows[i][1] = n
        elif rows and fault == "u<0":
            rows[i][0] = -data.draw(st.integers(1, 5))
        edges = np.array(rows, dtype=np.int64).reshape(-1, 2)
        want = _outcome(lambda: (reference_graph_edges(n, edges),))
        assert _outcome(lambda: (Graph(num_nodes=n, edges=edges).edges,)) == want

    @pytest.mark.parametrize("n", [3, 7, 1_000_001])
    def test_a_wrapped_key_after_the_first_row_is_invalid(self, n):
        u, key = _wrapping_edge(n, 2)
        edges = np.array([[0, 1], [u, 2]], dtype=np.int64)
        # the keys increase, so only the row check can reject the edge
        keys = edges[:, 0] * n + edges[:, 1]
        assert keys.tolist() == [1, key]
        message = f"edge ({u}, 2) invalid for {n} nodes"
        for check in (lambda: Graph(num_nodes=n, edges=edges),
                      lambda: reference_graph_edges(n, edges)):
            with pytest.raises(ValueError) as info:
                check()
            assert str(info.value) == message


class TestNormalizedAdjacency:
    def test_two_nodes_one_edge_all_half(self):
        adj = normalized_adjacency(build_graph(2, [(0, 1)])).toarray()
        assert np.allclose(adj, 0.5)

    def test_isolated_node_identity(self):
        adj = normalized_adjacency(build_graph(1, [])).toarray()
        assert np.allclose(adj, [[1.0]])

    def test_triangle_all_one_third(self):
        adj = normalized_adjacency(build_graph(3, [(0, 1), (1, 2), (0, 2)])).toarray()
        assert np.allclose(adj, 1.0 / 3.0)

    def test_symmetric_and_spectral_norm_bounded(self):
        rng = stream(7, 1)
        for trial in range(100):
            n = int(rng.integers(2, 33))
            g = random_graph(rng, n)
            adj = normalized_adjacency(g)
            dense = adj.toarray()
            assert np.allclose(dense, dense.T)
            assert spectral_norm(adj, tol=1e-8, seed=trial) <= 1.0 + 1e-6

    def test_regular_graph_rows_sum_to_one(self):
        # cycles are 2-regular; complete graphs are (n-1)-regular
        cycle = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        assert np.allclose(normalized_adjacency(cycle).toarray().sum(axis=1), 1.0, atol=1e-12)
        complete = build_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        assert np.allclose(normalized_adjacency(complete).toarray().sum(axis=1), 1.0, atol=1e-12)


    def test_built_once_per_graph_and_read_only(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        adj = normalized_adjacency(g)
        assert normalized_adjacency(g) is adj
        for arr in (adj.data, adj.indices, adj.indptr):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_int32_indices_multiply_like_int64(self):
        rng = stream(7, 2)
        for n in (1, 5, 40):
            adj = normalized_adjacency(random_graph(rng, n))
            assert adj.indices.dtype == np.int32 and adj.indptr.dtype == np.int32
            wide = adj.copy()
            wide.indices = adj.indices.astype(np.int64)
            wide.indptr = adj.indptr.astype(np.int64)
            x = rng.normal(size=(n, 6))
            assert np.array_equal(adj @ x, wide @ x)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 24),
        pairs=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=80),
    )
    def test_matches_dense_reference(self, n, pairs):
        # nodes without a pair stay isolated
        g = build_graph(n, [(u, v) for u, v in pairs if u < n and v < n])
        a_tilde = np.eye(n)
        for u, v in g.edges.tolist():
            a_tilde[u, v] = a_tilde[v, u] = 1.0
        scale = 1.0 / np.sqrt(a_tilde.sum(axis=1))
        reference = scale[:, None] * a_tilde * scale[None, :]
        assert np.abs(normalized_adjacency(g).toarray() - reference).max(initial=0.0) <= 1e-15

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 24),
        pairs=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=80),
    )
    def test_built_in_row_order(self, n, pairs):
        # nodes without a pair stay isolated; n = 1 has no edge
        g = build_graph(n, [(u, v) for u, v in pairs if u < n and v < n])
        adj = normalized_adjacency(g)
        assert adj.has_sorted_indices
        assert all((np.diff(row) > 0).all() for row in np.split(adj.indices, adj.indptr[1:-1]))
        reference = interleaved_adjacency(g)
        reference.sort_indices()
        for got, want in ((adj.data, reference.data), (adj.indices, reference.indices),
                          (adj.indptr, reference.indptr)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def interleaved_adjacency(g):
    """Â from COO entries in interleaved order, the diagonal, then (u, v) and
    (v, u) for each edge in turn, which meets most rows' columns out of
    order, so the conversion sorts them."""
    deg_plus_one = g.degrees + 1.0
    u, v = g.edges[:, 0], g.edges[:, 1]
    w = 1.0 / np.sqrt(deg_plus_one[u] * deg_plus_one[v])
    diag = np.arange(g.num_nodes)
    rows = np.concatenate([diag, np.stack([u, v], axis=1).ravel()])
    cols = np.concatenate([diag, np.stack([v, u], axis=1).ravel()])
    vals = np.concatenate([1.0 / deg_plus_one, np.repeat(w, 2)])
    adj = csr_array((vals, (rows, cols)), shape=(g.num_nodes, g.num_nodes))
    adj.indices = adj.indices.astype(np.int32)
    adj.indptr = adj.indptr.astype(np.int32)
    return adj


class TestDegreeStats:
    def test_path(self):
        assert degree_stats(build_graph(3, [(0, 1), (1, 2)])) == (1, 2)

    def test_triangle(self):
        assert degree_stats(build_graph(3, [(0, 1), (1, 2), (0, 2)])) == (2, 2)

    def test_isolated(self):
        assert degree_stats(build_graph(1, [])) == (0, 0)


class TestEdgeNeighbors:
    def test_single_edge_removal(self):
        g = build_graph(2, [(0, 1)])
        neighbors = list(enumerate_edge_neighbors(g))
        assert len(neighbors) == 1
        assert neighbors[0].num_edges == 0

    def test_empty_graph_additions(self):
        neighbors = list(enumerate_edge_neighbors(build_graph(3, [])))
        assert len(neighbors) == 3
        assert all(n.num_edges == 1 for n in neighbors)

    def test_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        neighbors = list(enumerate_edge_neighbors(g))
        assert len(neighbors) == 3
        assert all(n.num_edges == 2 for n in neighbors)

    def test_count_is_n_choose_2(self):
        rng = stream(11, 2)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            g = random_graph(rng, n)
            assert sum(1 for _ in enumerate_edge_neighbors(g)) == math.comb(n, 2)


class TestNodeNeighbors:
    def test_removals_two_node_graph(self):
        g = build_graph(2, [(0, 1)])
        removals = [h for h in enumerate_node_neighbors(g, 0) if h.num_nodes == 1]
        assert len(removals) == 2
        assert all(h.num_edges == 0 for h in removals)

    def test_addition_with_cap_one(self):
        g = build_graph(1, [])
        additions = [h for h in enumerate_node_neighbors(g, 1) if h.num_nodes == 2]
        assert len(additions) == 2
        assert sorted(h.num_edges for h in additions) == [0, 1]

    def test_triangle_removals_are_paths(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        removals = [h for h in enumerate_node_neighbors(g, 0) if h.num_nodes == 2]
        assert len(removals) == 3
        assert all(h.num_edges == 1 for h in removals)


class TestChainDataset:
    def test_chain_s_shape(self):
        ds = gen_chain_dataset(6, 8, 2, 5, seed=3)
        assert ds.graph.num_nodes == 48
        assert ds.num_classes == 2
        assert ds.features.shape == (48, 5)
        assert ds.train_mask.size == 8
        assert ds.test_mask.size == 32

    def test_chain_x_shape(self):
        ds = gen_chain_dataset(10, 15, 2, 5, seed=3)
        assert ds.graph.num_nodes == 150
        assert ds.train_mask.size == 25
        assert ds.test_mask.size == 100

    def test_degenerate_single_node(self):
        ds = gen_chain_dataset(1, 1, 1, 1, seed=0)
        assert ds.graph.num_nodes == 1
        assert ds.graph.num_edges == 0
        assert np.allclose(ds.features, [[1.0]])

    def test_only_heads_have_features(self):
        ds = gen_chain_dataset(4, 6, 2, 5, seed=0)
        norms = np.linalg.norm(ds.features, axis=1)
        heads = np.arange(0, 24, 6)
        assert np.allclose(norms[heads], 1.0)
        others = np.setdiff1d(np.arange(24), heads)
        assert np.allclose(norms[others], 0.0)

    def test_deterministic_per_seed(self):
        a = gen_chain_dataset(6, 8, 2, 5, seed=42)
        b = gen_chain_dataset(6, 8, 2, 5, seed=42)
        assert np.array_equal(a.graph.edges, b.graph.edges)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.train_mask, b.train_mask)
        assert np.array_equal(a.test_mask, b.test_mask)
        c = gen_chain_dataset(6, 8, 2, 5, seed=43)
        assert not np.array_equal(a.train_mask, c.train_mask)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            gen_chain_dataset(5, 8, 2, 5, seed=0)

    def test_split_is_stratified(self):
        ds = gen_chain_dataset(6, 8, 2, 5, seed=9)
        train_labels = ds.labels[ds.train_mask]
        assert (train_labels == 0).sum() == (train_labels == 1).sum() == 4


class TestStratifiedSplit:
    def test_disjoint_and_sized(self):
        labels = np.array([0, 0, 0, 1, 1, 1, 0, 1])
        train, test = stratified_split(labels, 4, 4, stream(0, 1))
        assert train.size == 4 and test.size == 4
        assert not set(train) & set(test)

    def test_too_large_split_rejected(self):
        with pytest.raises(ValueError):
            stratified_split(np.array([0, 1]), 2, 1, stream(0, 1))

    @pytest.mark.parametrize("counts", [(-1, 1), (1, -1)])
    def test_negative_count_rejected(self, counts):
        with pytest.raises(ValueError, match="non-negative"):
            stratified_split(np.array([0, 1, 0, 1]), *counts, stream(0, 1))

    def test_no_labeled_nodes_reported_before_the_counts(self):
        # the default counts of zero labeled nodes are (1, -1)
        with pytest.raises(ValueError, match="no labeled nodes"):
            stratified_split(np.full(4, -1), *_split_counts(0), stream(0, 1))

    def test_leftover_fill_matches_loop_definition(self):
        # uneven classes leave quota for the uniform leftover fill
        labels = np.array([0] * 7 + [1] * 5 + [2] * 9 + [-1] * 3)
        for seed in range(8):
            rng = stream(seed, 3)
            labeled = np.flatnonzero(labels >= 0)
            train, test = [], []
            for cls in (0, 1, 2):
                perm = rng.permutation(np.flatnonzero(labels == cls))
                train.extend(int(i) for i in perm[:1])
                test.extend(int(i) for i in perm[1:4])
            used = set(train) | set(test)
            leftovers = [int(i) for i in rng.permutation(labeled) if int(i) not in used]
            train += leftovers[:2]
            test += leftovers[2:4]
            got = stratified_split(labels, 5, 11, stream(seed, 3))
            assert got[0].tolist() == sorted(train)
            assert got[1].tolist() == sorted(test)
            assert got[0].dtype == got[1].dtype == np.int64

    @pytest.mark.parametrize("n_train, n_test, train_sha, test_sha", [
        # 1666 and 6666 do not divide by 4 classes: the leftover fill runs
        (1666, 6666, "5f8f9548e830a96ba9a05978cd9aaf18477fd20425a89491df11607eb5dfa7e6",
         "80d15bc709af4e6dfccbb332176f682165058acf14755110c7154bcce2396a58"),
        (1664, 6664, "0a17128aeff8623bab26d2e150bc4dbbfb332cd4ce808ca72ae6303ad173552f",
         "02d629f0d6c6ab28fb3048e67bb535538aa9a33c070d292cc5db9edde0cad462"),
    ], ids=["leftover-fill", "even-quota"])
    def test_seeded_masks_keep_their_bytes(self, n_train, n_test, train_sha, test_sha):
        labels = stream(0, 0x5917).integers(0, 4, size=10_000)
        labels[::50] = -1
        train, test = stratified_split(labels, n_train, n_test, stream(1, 0x5917))
        assert (train.size, test.size) == (n_train, n_test)
        assert hashlib.sha256(train.astype("<i8").tobytes()).hexdigest() == train_sha
        assert hashlib.sha256(test.astype("<i8").tobytes()).hexdigest() == test_sha


SPLIT_LABELS = np.array([0, 1, 0, 1])


class TestCounts:
    """Every integer count of ``graphs`` goes through ``layers._check_count``:
    a float, a bool or a count below its least is one ValueError."""

    @pytest.mark.parametrize("call, message", [
        (lambda: build_graph(3.5, [(0, 1)]), "num_nodes must be a non-negative integer, got 3.5"),
        (lambda: build_graph(True, []), "num_nodes must be a non-negative integer, got True"),
        (lambda: Graph(num_nodes=-1, edges=np.zeros((0, 2))),
         "num_nodes must be a non-negative integer, got -1"),
        (lambda: stratified_split(SPLIT_LABELS, True, 1, stream(0, 1)),
         "n_train must be a non-negative integer, got True"),
        (lambda: stratified_split(SPLIT_LABELS, 1.0, 1, stream(0, 1)),
         "n_train must be a non-negative integer, got 1.0"),
        (lambda: stratified_split(SPLIT_LABELS, 1, 2.5, stream(0, 1)),
         "n_test must be a non-negative integer, got 2.5"),
        (lambda: gen_chain_dataset(2.0, 4, 1, 3, seed=0),
         "num_chains must be an integer >= 1, got 2.0"),
        (lambda: gen_chain_dataset(True, 4, 1, 3, seed=0),
         "num_chains must be an integer >= 1, got True"),
        (lambda: gen_chain_dataset(2.5, 4, 2, 3, seed=0),
         "num_chains must be an integer >= 1, got 2.5"),
        (lambda: gen_chain_dataset(0, 4, 1, 3, seed=0),
         "num_chains must be an integer >= 1, got 0"),
        (lambda: gen_chain_dataset(2, 4.5, 1, 3, seed=0),
         "chain_len must be an integer >= 1, got 4.5"),
        (lambda: gen_chain_dataset(2, 4, 1.0, 3, seed=0),
         "num_classes must be an integer >= 1, got 1.0"),
        (lambda: gen_chain_dataset(2, 4, 1, 3.0, seed=0),
         "feat_dim must be an integer >= 1, got 3.0"),
    ], ids=["graph-float", "graph-bool", "graph-negative", "split-bool", "split-float",
            "split-test-float", "chains-float", "chains-bool", "chains-fraction", "chains-zero",
            "length-float", "classes-float", "dim-float"])
    def test_count_rejected_with_one_message(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


class TestLabeledDataset:
    def make(self, train, test):
        labels = np.array([0, 1, -1, 1])
        return LabeledDataset(
            graph=build_graph(4, [(0, 1)]),
            features=np.zeros((4, 2)),
            labels=labels,
            train_mask=np.array(train, dtype=np.int64),
            test_mask=np.array(test, dtype=np.int64),
        )

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            self.make([0, 1], [3, 1])

    def test_first_out_of_range_id_named(self):
        with pytest.raises(ValueError, match=r"^training mask contains .* the first is 7$"):
            self.make([0, 7], [-2])

    def test_first_unlabeled_id_named(self):
        with pytest.raises(ValueError, match=r"^test mask contains .* the first is 2$"):
            self.make([0], [3, 2])

    def test_empty_masks_of_any_dtype_accepted(self):
        ds = self.make([], [])
        LabeledDataset(ds.graph, ds.features, ds.labels, np.array([]), np.array([]))

    @pytest.mark.parametrize("mask, problem", [
        ([True, False, True, False], "must hold integer node ids"),
        ([0.0, 1.0], "must hold integer node ids"),
        (["0", "1"], "must hold integer node ids"),
        ([[0], [1]], r"must be a 1-D array of node ids, got shape \(2, 1\)"),
    ], ids=["boolean", "float", "string", "two-d"])
    @pytest.mark.parametrize("field, name", [("train_mask", "training mask"),
                                             ("test_mask", "test mask")])
    def test_mask_of_non_integer_ids_rejected(self, field, name, mask, problem):
        # numpy would read a boolean mask as ids 0 and 1
        ds = self.make([], [])
        with pytest.raises(ValueError, match=f"^{name} {problem}"):
            LabeledDataset(ds.graph, ds.features, ds.labels, **{field: np.array(mask)})

    @pytest.mark.parametrize("labels", [[0.0, 1.0, -1.0, 1.0], [True, False, False, True]],
                             ids=["float", "boolean"])
    def test_labels_of_non_integers_rejected(self, labels):
        ds = self.make([], [])
        with pytest.raises(ValueError, match="^labels must hold integer classes, got dtype"):
            LabeledDataset(ds.graph, ds.features, np.array(labels))

    @pytest.mark.parametrize("shape", [(4,), (3, 2), (4, 2, 1)])
    def test_features_not_one_row_per_node_rejected(self, shape):
        ds = self.make([], [])
        message = f"features must have shape (nodes, dims) = (4, d), got {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            LabeledDataset(ds.graph, np.zeros(shape), ds.labels)


def write_files(tmp_path, edges="0 1\n", features="1,0\n0,1\n", labels="0,0\n1,1\n"):
    paths = [tmp_path / n for n in ("e.txt", "f.csv", "l.csv")]
    for path, text in zip(paths, (edges, features, labels)):
        path.write_bytes(text.encode())
    return paths


FLOAT_FIELDS = ["0.5", "-1", "+2e-3", ".5", "5.", "1E3", "nan", "-inf", "Infinity", "1_0",
                "0x1", "1d2", "", "1 2", "\u0663", "\xa01", "1\x0c", "\x1c2", "\x0b3", "\x001",
                "1e400", "5e-324", "-0.0"]
INT_FIELDS = ["0", "1", "2", "-1", "+1", "007", "1.0", "1e1", "1_0", "\u0661", "",
              "9223372036854775808", "99999999999999999999", "\x1c1", "1\x0c", "\xa02", "x"]


def file_text(sep, fields):
    """Texts of a data file: lines of fields, padded and joined by ``sep``,
    with comment and blank lines and any line ending."""
    field = st.tuples(st.sampled_from(["", " ", "\t"]), st.sampled_from(fields),
                      st.sampled_from(["", " "])).map("".join)
    line = st.one_of(
        st.lists(field, min_size=1, max_size=3).map(sep.join),
        st.sampled_from(["", "  ", "# comment, 1", "\u00a0"]),
    )
    return st.tuples(st.lists(line, max_size=6), st.sampled_from(["\n", "\r\n", "\r"])).map(
        lambda parts: parts[1].join(parts[0]) + parts[1])


def scan_only(edge_path, feature_path, label_path):
    """``load_dataset``'s arrays as the line-by-line scans alone read them,
    with a loop in which a node's last line sets its class."""
    features = project_rows(caribou.graphs._scan_features(
        feature_path, caribou.graphs._data_lines(feature_path)))
    n = features.shape[0]
    edges = caribou.graphs._scan_edges(edge_path, caribou.graphs._data_lines(edge_path), n)
    pairs = caribou.graphs._scan_labels(label_path, caribou.graphs._data_lines(label_path), n)
    labels = np.full(n, -1, dtype=np.int64)
    for node, cls in pairs.tolist():
        labels[node] = cls
    return features, build_graph(n, edges).edges, labels


#: One file with a fault, the line the fault is on, and the error's text
#: after the "path:line: " prefix.
PARSE_ERRORS = {
    "bad-float": ({"features": "1,0\n\n1,x\n"}, "f.csv", 3, "bad float in '1,x'"),
    "width": ({"features": "# a, b\n1,0\n1,0,0\n"}, "f.csv", 3, "expected 2 columns, got 3"),
    "empty-features": ({"features": "# none\n\n"}, "f.csv", 0, "feature file is empty"),
    "nan": ({"features": "1,0\nnan,0\n"}, "f.csv", 2, "non-finite feature value"),
    "edge-fields": ({"edges": "0 1\n0 1 1\n"}, "e.txt", 2, "expected 'u v', got '0 1 1'"),
    "edge-id": ({"edges": "0 x\n"}, "e.txt", 1, "bad node id in '0 x'"),
    "edge-range": ({"edges": "\n0 2\n"}, "e.txt", 2, "edge (0, 2) out of range for 2 nodes"),
    "edge-one-field": ({"edges": "0\n1\n"}, "e.txt", 1, "expected 'u v', got '0'"),
    "label-fields": ({"labels": "0,0,0\n"}, "l.csv", 1, "expected 'node_id,class_id', got '0,0,0'"),
    "label-int": ({"labels": "0,0\n1,1.0\n"}, "l.csv", 2, "bad integer in '1,1.0'"),
    "label-range": ({"labels": "0,0\n-1,0\n"}, "l.csv", 2, "node id -1 out of range for 2 nodes"),
    "class-int64": ({"labels": "0,9223372036854775808\n"}, "l.csv", 1,
                    "class id 9223372036854775808 does not fit in int64"),
    # the reader's grammar is narrower than Python's float() and int():
    # underscores, non-ASCII digits and control characters are faults
    "float-underscore": ({"features": "1,0\n1_0,0\n"}, "f.csv", 2, "bad float in '1_0,0'"),
    "edge-underscore": ({"edges": "0 1_0\n"}, "e.txt", 1, "bad node id in '0 1_0'"),
    "label-underscore": ({"labels": "0,1_0\n"}, "l.csv", 1, "bad integer in '0,1_0'"),
    "float-non-ascii": ({"features": "1,0\n\u0663,0\n"}, "f.csv", 2,
                        "character outside printable ASCII in " + repr("\u0663,0")),
    "edge-non-ascii": ({"edges": "0\u20031\n"}, "e.txt", 1,
                       "character outside printable ASCII in " + repr("0\u20031")),
    "label-non-ascii": ({"labels": "\u0661,0\n"}, "l.csv", 1,
                        "character outside printable ASCII in " + repr("\u0661,0")),
    "control-char": ({"features": "1,0\n1,\x1c0\n"}, "f.csv", 2,
                     "character outside printable ASCII in " + repr("1,\x1c0")),
}


class TestDatasetIo:
    def test_roundtrip(self, tmp_path):
        rng = stream(3, 9)
        n = 60
        features = project_rows(rng.normal(size=(n, 5))) * 0.9  # inside the ball
        features[3] = [-0.0, 1e-05, 5e-324, 0.0, 1 / 3]
        labels = rng.integers(-1, 3, size=n)
        ds = LabeledDataset(
            graph=build_graph(n, rng.integers(0, n, size=(150, 2))),
            features=features,
            labels=labels,
        )
        paths = [tmp_path / n for n in ("e.txt", "f.csv", "l.csv")]
        write_dataset(ds, *paths)
        loaded = load_dataset(*paths)
        assert np.array_equal(loaded.graph.edges, ds.graph.edges)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)
        assert paths[1].read_text() == per_value_csv(features)

    @pytest.mark.parametrize("rows", [0, 1, 3, 4, 5, 9])
    def test_float_csv_matches_the_per_value_writer(self, tmp_path, monkeypatch, rows):
        # 4-row chunks: none, one short, one full, one full plus a short one
        monkeypatch.setattr(caribou.graphs, "_WRITE_ROWS", 4)
        special = [-0.0, 1e-05, 1e16, 5e-324, 0.1, -1 / 3, 2.0**-1074, 1.7976931348623157e308]
        matrix = stream(rows, 1).normal(size=(rows, len(special)))
        matrix[::2] = special
        write_float_csv(tmp_path / "m.csv", matrix)
        assert (tmp_path / "m.csv").read_text() == per_value_csv(matrix)

    def test_crlf_comments_and_blank_lines_read_alike(self, tmp_path):
        plain = load_dataset(*write_files(tmp_path, "0 1\n1 2\n", "1,0\n0,1\n0.5,0.5\n",
                                          "0,0\n2,1\n"))
        edges = "# edges\r\n\r\n  0 1  \r\n\t1\t2\r\n"
        features = "\r\n# x,y\r\n1,0\r\n 0 , 1 \r\n\r\n0.5,0.5"
        labels = "0,0\r\n   # none\r\n2, 1\r\n"
        messy = load_dataset(*write_files(tmp_path, edges, features, labels))
        assert np.array_equal(messy.graph.edges, plain.graph.edges)
        assert np.array_equal(messy.features, plain.features)
        assert np.array_equal(messy.labels, plain.labels)

    def test_crlf_line_numbers_count_every_line(self, tmp_path):
        paths = write_files(tmp_path, edges="# c\r\n\r\n0 1\r\n0 7\r\n")
        with pytest.raises(ParseError, match="e.txt:4: edge") as info:
            load_dataset(*paths)
        assert info.value.line_no == 4

    @pytest.mark.parametrize("case", list(PARSE_ERRORS), ids=list(PARSE_ERRORS))
    def test_parse_error_names_the_line(self, tmp_path, case):
        files, name, line_no, message = PARSE_ERRORS[case]
        paths = write_files(tmp_path, **files)
        with pytest.raises(ParseError) as info:
            load_dataset(*paths)
        assert str(info.value) == f"{tmp_path / name}:{line_no}: {message}"
        assert info.value.line_no == line_no

    @pytest.mark.parametrize(
        "files, line_no",
        [
            # the bulk reader fails on line 3; the scan finds line 2 first
            ({"edges": "0 1\n0 5\n0 1 1\n"}, 2),
            ({"edges": "0 1\n0 1 1\n0 5\n"}, 2),
            ({"labels": "0,0\n5,0\n1,x\n"}, 2),
            ({"labels": "0,0\n1,x\n5,0\n"}, 2),
            ({"features": "1,0\n1,0,0\n1,x\n"}, 2),
            ({"features": "1,0\n1,x\n1,0,0\n"}, 2),
            # a non-finite value is found only once every line parses
            ({"features": "1,0\nnan,0\n1,x\n"}, 3),
        ],
    )
    def test_first_bad_line_wins(self, tmp_path, files, line_no):
        with pytest.raises(ParseError) as info:
            load_dataset(*write_files(tmp_path, **files))
        assert info.value.line_no == line_no

    @settings(max_examples=200, deadline=None)
    @given(
        features=file_text(",", FLOAT_FIELDS),
        edges=file_text(" ", INT_FIELDS),
        labels=file_text(",", INT_FIELDS),
    )
    def test_bulk_reader_agrees_with_the_line_scan(self, features, edges, labels):
        # numpy's reader may never accept a line, or read a value, that the
        # line-by-line scan would not
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_files(Path(tmp), edges, features, labels)
            try:
                expected = scan_only(*paths)
            except ParseError as exc:
                with pytest.raises(ParseError) as info:
                    load_dataset(*paths)
                assert str(info.value) == str(exc)
                return
            ds = load_dataset(*paths)
        assert np.array_equal(ds.features, expected[0])
        assert np.array_equal(ds.graph.edges, expected[1])
        assert np.array_equal(ds.labels, expected[2])

    def test_repeated_node_keeps_its_last_class(self, tmp_path):
        # node 0 listed 300 times; its last line gives class 2
        labels = "".join(f"0,{i % 2}\n" for i in range(299)) + "1,1\n0,2\n"
        ds = load_dataset(*write_files(tmp_path, labels=labels))
        assert ds.labels.tolist() == [2, 1]

    def test_three_node_path(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\n1 2\n")
        (tmp_path / "f.csv").write_text("1,0\n0,1\n0,0\n")
        (tmp_path / "l.csv").write_text("0,0\n1,1\n2,1\n")
        ds = load_dataset(tmp_path / "e.txt", tmp_path / "f.csv", tmp_path / "l.csv")
        assert ds.graph.num_nodes == 3
        assert ds.graph.edges.tolist() == [[0, 1], [1, 2]]

    def test_rows_projected_on_load(self, tmp_path):
        (tmp_path / "e.txt").write_text("")
        (tmp_path / "f.csv").write_text("3,4\n")
        (tmp_path / "l.csv").write_text("0,0\n")
        ds = load_dataset(tmp_path / "e.txt", tmp_path / "f.csv", tmp_path / "l.csv")
        assert np.allclose(ds.features, [[0.6, 0.8]])

    def test_empty_edge_file(self, tmp_path):
        (tmp_path / "e.txt").write_text("# no edges\n")
        (tmp_path / "f.csv").write_text("1,0\n0,1\n")
        (tmp_path / "l.csv").write_text("0,0\n1,1\n")
        ds = load_dataset(tmp_path / "e.txt", tmp_path / "f.csv", tmp_path / "l.csv")
        assert ds.graph.num_edges == 0

    def test_malformed_line_reports_position(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\nbogus\n")
        (tmp_path / "f.csv").write_text("1,0\n0,1\n")
        (tmp_path / "l.csv").write_text("0,0\n")
        with pytest.raises(ParseError, match="e.txt:2"):
            load_dataset(tmp_path / "e.txt", tmp_path / "f.csv", tmp_path / "l.csv")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_reports_position(self, tmp_path, value):
        # float() parses these; projecting a NaN row leaves it NaN, and the
        # release would carry it to every node within K hops
        (tmp_path / "e.txt").write_text("0 1\n1 2\n2 3\n")
        (tmp_path / "f.csv").write_text(f"# x, y\n1,0\n{value},0\n0,1\n0.5,0.5\n")
        (tmp_path / "l.csv").write_text("0,0\n1,0\n2,1\n3,1\n")
        with pytest.raises(ParseError, match="f.csv:3: non-finite") as info:
            load_dataset(tmp_path / "e.txt", tmp_path / "f.csv", tmp_path / "l.csv")
        assert info.value.line_no == 3

    def test_dimension_mismatch(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 5\n")
        (tmp_path / "f.csv").write_text("1,0\n0,1\n")
        (tmp_path / "l.csv").write_text("0,0\n")
        with pytest.raises(ValueError, match="out of range"):
            load_dataset(tmp_path / "e.txt", tmp_path / "f.csv", tmp_path / "l.csv")
