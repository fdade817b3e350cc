"""Graph containers, symmetric normalization, dataset files, and the
synthetic chain benchmark generator.

A graph's edges are one read-only (m, 2) int64 array of (u, v) rows with
u < v, sorted and unique, so every operation on the edge set is a
vectorized array operation.  The normalized adjacency is built at most
once per ``Graph`` object and cached with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np
from scipy.sparse import csr_array

from .layers import project_rows
from .prng import stream


class ParseError(ValueError):
    """Malformed dataset file; carries the offending path and line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class DegreeStats(NamedTuple):
    d_min: int
    d_max: int


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph with a deduplicated, self-loop-free edge set.

    ``edges`` is a read-only (m, 2) int64 array of (u, v) rows with u < v,
    sorted lexicographically and unique; a writable input array is copied
    first, so later writes by the caller cannot reach the graph.
    ``dropped_self_loops`` counts self-loops discarded during construction.
    Graphs compare and hash by identity: the cached normalized adjacency
    belongs to one object.
    """

    num_nodes: int
    edges: np.ndarray
    dropped_self_loops: int = 0

    def __post_init__(self) -> None:
        n = self.num_nodes
        if n < 0:
            raise ValueError("num_nodes must be non-negative")
        edges = np.asarray(self.edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must be an (m, 2) array, got shape {edges.shape}")
        if edges.flags.writeable:
            edges = edges.copy()
            edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        u, v = edges[:, 0], edges[:, 1]
        bad = (u < 0) | (u >= v) | (v >= n)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"edge ({u[i]}, {v[i]}) invalid for {n} nodes")
        keys = u * n + v
        bad = keys[1:] <= keys[:-1]
        if bad.any():
            i = int(bad.argmax()) + 1
            raise ValueError(
                f"edge ({u[i]}, {v[i]}) is out of order or repeated; "
                "edges must be sorted and unique"
            )

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.num_nodes)

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @cached_property
    def _normalized_adjacency(self) -> csr_array:
        deg_plus_one = self.degrees + 1.0
        n = self.num_nodes
        u, v = self.edges[:, 0], self.edges[:, 1]
        w = 1.0 / np.sqrt(deg_plus_one[u] * deg_plus_one[v])
        diag = np.arange(n)
        # COO order: the diagonal, then (u, v), (v, u) for each edge in turn
        rows = np.concatenate([diag, np.stack([u, v], axis=1).ravel()])
        cols = np.concatenate([diag, np.stack([v, u], axis=1).ravel()])
        vals = np.concatenate([1.0 / deg_plus_one, np.repeat(w, 2)])
        adj = csr_array((vals, (rows, cols)), shape=(n, n))
        # int32 indices, when they fit, shrink what each spmm reads; cast
        # after the build, which left less freed memory resident than
        # building from int32 coordinates
        if max(n, adj.nnz) <= np.iinfo(np.int32).max:
            adj.indices = adj.indices.astype(np.int32)
            adj.indptr = adj.indptr.astype(np.int32)
        for arr in (adj.data, adj.indices, adj.indptr):
            arr.flags.writeable = False
        return adj


def build_graph(num_nodes: int, edge_list) -> Graph:
    """Construct a Graph from (possibly messy) pair input.

    ``edge_list`` is any sequence of (u, v) pairs or an (m, 2) integer
    array.  Duplicate and reversed pairs collapse to one undirected edge;
    self-loops are dropped and counted; out-of-range ids raise.
    """
    n = num_nodes
    pairs = np.asarray(edge_list, dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edge_list must hold (u, v) pairs, got shape {pairs.shape}")
    u, v = pairs[:, 0], pairs[:, 1]
    bad = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"edge ({u[i]}, {v[i]}) out of range for {n} nodes")
    loops = u == v
    lo, hi = np.minimum(u, v)[~loops], np.maximum(u, v)[~loops]
    # sort + neighbour compare: np.unique is far slower on large key arrays
    keys = lo * n + hi
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    edges = np.stack(np.divmod(keys, n), axis=1)
    edges.flags.writeable = False
    return Graph(num_nodes=n, edges=edges, dropped_self_loops=int(loops.sum()))


def degree_stats(g: Graph) -> DegreeStats:
    """Exact minimum/maximum degree of the stored self-loop-free graph."""
    if g.num_nodes < 1:
        raise ValueError("degree stats need at least one node")
    deg = g.degrees
    return DegreeStats(int(deg.min()), int(deg.max()))


def normalized_adjacency(g: Graph) -> csr_array:
    """Symmetric normalized adjacency with the self-loop degree convention.

    Diagonal entries are 1/(d_u + 1); the entry for edge {u, v} is
    1/sqrt((d_u + 1)(d_v + 1)).  The spectral norm of the result is <= 1.
    Built once per ``Graph`` object; every call returns the same cached
    matrix, whose ``data``, ``indices`` and ``indptr`` are read-only.  The
    index arrays are int32 when the node and entry counts fit in it.
    """
    return g._normalized_adjacency


@dataclass(frozen=True)
class LabeledDataset:
    """Graph plus node features, labels, and disjoint train/test id sets.

    ``labels`` holds -1 for unlabeled nodes.
    """

    graph: Graph
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))
    test_mask: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))

    def __post_init__(self) -> None:
        n = self.graph.num_nodes
        if self.features.shape[0] != n:
            raise ValueError(
                f"feature rows ({self.features.shape[0]}) != num_nodes ({n})"
            )
        if self.labels.shape != (n,):
            raise ValueError("labels must be one entry per node")
        if np.isin(self.train_mask, self.test_mask).any():
            raise ValueError("train and test masks overlap")
        ids = np.concatenate([self.train_mask, self.test_mask])
        if not ids.size:
            return
        bad = (ids < 0) | (ids >= n)
        if bad.any():
            raise ValueError(f"mask id {ids[bad.argmax()]} out of range")
        bad = self.labels[ids] < 0
        if bad.any():
            raise ValueError(f"mask id {ids[bad.argmax()]} is unlabeled")

    @property
    def num_classes(self) -> int:
        labeled = self.labels[self.labels >= 0]
        return int(labeled.max()) + 1 if labeled.size else 0


def _split_counts(num_nodes: int) -> tuple[int, int]:
    # 1/6 train, 2/3 test; reproduces the benchmark preset counts
    # (48 -> 8/32, 60 -> 10/40, 90 -> 15/60, 150 -> 25/100).
    n_train = max(1, num_nodes // 6)
    n_test = min(num_nodes - n_train, (2 * num_nodes) // 3)
    return n_train, n_test


def stratified_split(
    labels: np.ndarray, n_train: int, n_test: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded disjoint train/test node sets, stratified by class when the
    requested counts divide evenly; leftover quota is filled uniformly."""
    labels = np.asarray(labels)
    labeled = np.flatnonzero(labels >= 0)
    if n_train + n_test > labeled.size:
        raise ValueError("split larger than the number of labeled nodes")
    classes = np.unique(labels[labeled])
    empty = np.array([], dtype=np.int64)
    train, test = [empty], [empty]
    for cls in classes:
        ids = np.flatnonzero(labels == cls)
        perm = rng.permutation(ids)
        take_tr = n_train // len(classes)
        take_te = n_test // len(classes)
        train.append(perm[:take_tr])
        test.append(perm[take_tr : take_tr + take_te])
    train, test = np.concatenate(train), np.concatenate(test)
    short_tr = n_train - train.size
    short_te = n_test - test.size
    if short_tr or short_te:
        perm = rng.permutation(labeled)
        leftovers = perm[~np.isin(perm, np.concatenate([train, test]))]
        train = np.concatenate([train, leftovers[:short_tr]])
        test = np.concatenate([test, leftovers[short_tr : short_tr + short_te]])
    return np.sort(train), np.sort(test)


def gen_chain_dataset(
    num_chains: int,
    chain_len: int,
    num_classes: int,
    feat_dim: int,
    seed: int,
) -> LabeledDataset:
    """Synthetic long-range benchmark: disjoint chains of equal length.

    Only the first node of each chain carries a feature (the one-hot class
    indicator); every other row is zero, so classifying interior nodes
    requires message passing along the chain.  The train/test split is
    seeded, stratified by class, with 1/6 of nodes for training and 2/3
    for testing.
    """
    if num_chains < 1 or chain_len < 1:
        raise ValueError("num_chains and chain_len must be positive")
    if num_classes < 1 or num_chains % num_classes != 0:
        raise ValueError("num_chains must be divisible by num_classes")
    if feat_dim < num_classes:
        raise ValueError("feat_dim must be at least num_classes")

    n = num_chains * chain_len
    chain_cls = np.arange(num_chains) % num_classes
    labels = np.repeat(chain_cls, chain_len)
    features = np.zeros((n, feat_dim))
    features[np.arange(0, n, chain_len), chain_cls] = 1.0
    # every node but the last of its chain links to its successor
    tails = np.arange(n).reshape(num_chains, chain_len)[:, :-1].ravel()
    graph = build_graph(n, np.stack([tails, tails + 1], axis=1))

    n_train, n_test = _split_counts(n)
    train, test = stratified_split(labels, n_train, n_test, stream(seed, 0xC4A1))
    return LabeledDataset(
        graph=graph,
        features=features,
        labels=labels,
        train_mask=train,
        test_mask=test,
    )


def _data_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line of ``path`` that is
    neither blank nor a '#' comment."""
    with path.open() as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield line_no, line


def load_dataset(edge_path, feature_path, label_path) -> LabeledDataset:
    """Read a dataset from the on-disk formats.

    Edge file: one "u v" pair per line.  Feature file: CSV, one row per
    node.  Label file: CSV "node_id,class_id".  Blank lines and '#'
    comments are skipped in all three.  Feature rows are projected to
    Euclidean norm <= 1 on load.
    """
    feature_path = Path(feature_path)
    rows, line_nos = [], []
    width = None
    for line_no, line in _data_lines(feature_path):
        parts = line.split(",")
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise ParseError(feature_path, line_no, f"bad float in {line!r}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(
                feature_path, line_no, f"expected {width} columns, got {len(row)}"
            )
        rows.append(row)
        line_nos.append(line_no)
    if not rows:
        raise ParseError(feature_path, 0, "feature file is empty")
    features = np.array(rows, dtype=float)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        # float() reads "nan" and "inf"; the release must never see them
        raise ParseError(feature_path, line_nos[int(finite.argmin())], "non-finite feature value")
    features = project_rows(features)
    n = features.shape[0]

    edge_path = Path(edge_path)
    edges = []
    for line_no, line in _data_lines(edge_path):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(edge_path, line_no, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(edge_path, line_no, f"bad node id in {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(edge_path, line_no, f"edge ({u}, {v}) out of range for {n} nodes")
        edges.append((u, v))

    label_path = Path(label_path)
    labels = np.full(n, -1, dtype=np.int64)
    for line_no, line in _data_lines(label_path):
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(label_path, line_no, f"expected 'node_id,class_id', got {line!r}")
        try:
            node, cls = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(label_path, line_no, f"bad integer in {line!r}") from None
        if not 0 <= node < n:
            raise ParseError(label_path, line_no, f"node id {node} out of range for {n} nodes")
        labels[node] = cls

    return LabeledDataset(graph=build_graph(n, edges), features=features, labels=labels)


def write_dataset(dataset: LabeledDataset, edge_path, feature_path, label_path) -> None:
    """Write the three dataset files in the formats ``load_dataset`` reads."""
    with Path(edge_path).open("w") as fh:
        for u, v in dataset.graph.edges.tolist():
            fh.write(f"{u} {v}\n")
    with Path(feature_path).open("w") as fh:
        for row in dataset.features:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    with Path(label_path).open("w") as fh:
        for node, cls in enumerate(dataset.labels):
            if cls >= 0:
                fh.write(f"{node},{cls}\n")
