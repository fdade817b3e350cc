import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caribou.graphs import (
    Graph,
    LabeledDataset,
    ParseError,
    build_graph,
    degree_stats,
    enumerate_edge_neighbors,
    enumerate_node_neighbors,
    gen_chain_dataset,
    load_dataset,
    normalized_adjacency,
    spectral_norm,
    stratified_split,
    write_dataset,
)
from caribou.prng import stream


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
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

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
        with pytest.raises(ValueError, match="mask id 7 out of range"):
            self.make([0, 7], [-2])

    def test_first_unlabeled_id_named(self):
        with pytest.raises(ValueError, match="mask id 2 is unlabeled"):
            self.make([0], [3, 2])

    def test_empty_masks_of_any_dtype_accepted(self):
        ds = self.make([], [])
        LabeledDataset(ds.graph, ds.features, ds.labels, np.array([]), np.array([]))


class TestDatasetIo:
    def test_roundtrip(self, tmp_path):
        ds = gen_chain_dataset(2, 4, 2, 3, seed=5)
        paths = [tmp_path / n for n in ("e.txt", "f.csv", "l.csv")]
        write_dataset(ds, *paths)
        loaded = load_dataset(*paths)
        assert np.array_equal(loaded.graph.edges, ds.graph.edges)
        assert np.allclose(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)

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

    def test_dimension_mismatch(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 5\n")
        (tmp_path / "f.csv").write_text("1,0\n0,1\n")
        (tmp_path / "l.csv").write_text("0,0\n")
        with pytest.raises(ValueError, match="out of range"):
            load_dataset(tmp_path / "e.txt", tmp_path / "f.csv", tmp_path / "l.csv")
