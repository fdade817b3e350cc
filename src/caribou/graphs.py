"""Graph containers, symmetric normalization, adjacent-graph enumeration,
dataset files, and the synthetic chain benchmark generator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np
from scipy.sparse import csr_array

from .layers import project_rows
from .prng import stream

Edge = tuple[int, int]


class ParseError(ValueError):
    """Malformed dataset file; carries the offending path and line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class DegreeStats(NamedTuple):
    d_min: int
    d_max: int


@dataclass(frozen=True)
class Graph:
    """Undirected graph with a deduplicated, self-loop-free edge set.

    Edges are stored as sorted (u, v) pairs with u < v.  ``dropped_self_loops``
    counts self-loops discarded during construction.
    """

    num_nodes: int
    edges: frozenset[Edge]
    dropped_self_loops: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        for u, v in self.edges:
            if not (0 <= u < v < self.num_nodes):
                raise ValueError(f"edge ({u}, {v}) invalid for {self.num_nodes} nodes")

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.num_nodes, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def build_graph(num_nodes: int, edge_list) -> Graph:
    """Construct a Graph from (possibly messy) pair input.

    Duplicate and reversed pairs collapse to one undirected edge; self-loops
    are dropped and counted; out-of-range ids raise.
    """
    edges = set()
    dropped = 0
    for u, v in edge_list:
        u, v = int(u), int(v)
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValueError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
        if u == v:
            dropped += 1
            continue
        edges.add((min(u, v), max(u, v)))
    return Graph(num_nodes=num_nodes, edges=frozenset(edges), dropped_self_loops=dropped)


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
    """
    deg = g.degrees.astype(float)
    n = g.num_nodes
    nnz = n + 2 * g.num_edges
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=float)
    rows[:n] = np.arange(n)
    cols[:n] = np.arange(n)
    vals[:n] = 1.0 / (deg + 1.0)
    for i, (u, v) in enumerate(sorted(g.edges)):
        w = 1.0 / np.sqrt((deg[u] + 1.0) * (deg[v] + 1.0))
        rows[n + 2 * i : n + 2 * i + 2] = (u, v)
        cols[n + 2 * i : n + 2 * i + 2] = (v, u)
        vals[n + 2 * i : n + 2 * i + 2] = w
    return csr_array((vals, (rows, cols)), shape=(n, n))


def spectral_norm(mat, tol: float = 1e-6, max_iter: int = 10_000, seed: int = 0) -> float:
    """Largest singular value of a symmetric operator by power iteration."""
    n = mat.shape[0]
    rng = stream(seed, 0x5BEC)
    v = rng.normal(size=n)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iter):
        w = mat @ v
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        w /= norm_w
        if abs(norm_w - sigma) < tol * max(1.0, norm_w):
            return norm_w
        sigma = norm_w
        v = w
    return sigma


def enumerate_edge_neighbors(g: Graph) -> Iterator[Graph]:
    """All graphs differing from ``g`` in exactly one edge.

    Every unordered node pair is toggled once, so exactly C(n, 2) graphs
    are produced.
    """
    for u, v in itertools.combinations(range(g.num_nodes), 2):
        if g.has_edge(u, v):
            edges = g.edges - {(u, v)}
        else:
            edges = g.edges | {(u, v)}
        yield Graph(num_nodes=g.num_nodes, edges=frozenset(edges))


def remove_node(g: Graph, w: int) -> Graph:
    """Drop node ``w`` and its incident edges; ids above ``w`` shift down."""
    if not 0 <= w < g.num_nodes:
        raise ValueError(f"node {w} out of range")

    def relabel(u: int) -> int:
        return u if u < w else u - 1

    edges = frozenset(
        (relabel(u), relabel(v)) for u, v in g.edges if u != w and v != w
    )
    return Graph(num_nodes=g.num_nodes - 1, edges=edges)


def add_node(g: Graph, attach_to) -> Graph:
    """Append one node connected to each id in ``attach_to``."""
    new = g.num_nodes
    extra = {(min(u, new), max(u, new)) for u in attach_to}
    return Graph(num_nodes=new + 1, edges=frozenset(g.edges | extra))


def enumerate_node_neighbors(g: Graph, max_added_degree: int) -> Iterator[Graph]:
    """Graphs differing from ``g`` in one node and its incident edges.

    Removal side: every single-node deletion.  Addition side: one new node
    wired to each subset of existing nodes with size <= ``max_added_degree``
    (capped so enumeration stays polynomial).
    """
    for w in range(g.num_nodes):
        yield remove_node(g, w)
    for size in range(min(max_added_degree, g.num_nodes) + 1):
        for subset in itertools.combinations(range(g.num_nodes), size):
            yield add_node(g, subset)


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
        tr, te = set(self.train_mask.tolist()), set(self.test_mask.tolist())
        if tr & te:
            raise ValueError("train and test masks overlap")
        for idx in tr | te:
            if not 0 <= idx < n:
                raise ValueError(f"mask id {idx} out of range")
            if self.labels[idx] < 0:
                raise ValueError(f"mask id {idx} is unlabeled")

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
    train: list[int] = []
    test: list[int] = []
    for cls in classes:
        ids = np.flatnonzero(labels == cls)
        perm = rng.permutation(ids)
        take_tr = n_train // len(classes)
        take_te = n_test // len(classes)
        train.extend(int(i) for i in perm[:take_tr])
        test.extend(int(i) for i in perm[take_tr : take_tr + take_te])
    short_tr = n_train - len(train)
    short_te = n_test - len(test)
    if short_tr or short_te:
        used = set(train) | set(test)
        leftovers = [int(i) for i in rng.permutation(labeled) if int(i) not in used]
        train.extend(leftovers[:short_tr])
        test.extend(leftovers[short_tr : short_tr + short_te])
    return (
        np.array(sorted(train), dtype=np.int64),
        np.array(sorted(test), dtype=np.int64),
    )


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
    edges = []
    features = np.zeros((n, feat_dim))
    labels = np.empty(n, dtype=np.int64)
    for c in range(num_chains):
        base = c * chain_len
        cls = c % num_classes
        labels[base : base + chain_len] = cls
        features[base, cls] = 1.0
        for i in range(chain_len - 1):
            edges.append((base + i, base + i + 1))
    graph = build_graph(n, edges)

    n_train, n_test = _split_counts(n)
    train, test = stratified_split(labels, n_train, n_test, stream(seed, 0xC4A1))
    return LabeledDataset(
        graph=graph,
        features=features,
        labels=labels,
        train_mask=train,
        test_mask=test,
    )


def load_dataset(edge_path, feature_path, label_path) -> LabeledDataset:
    """Read a dataset from the on-disk formats.

    Edge file: one "u v" pair per line, '#' comments ignored.  Feature
    file: CSV, one row per node.  Label file: CSV "node_id,class_id".
    Feature rows are projected to Euclidean norm <= 1 on load.
    """
    feature_path = Path(feature_path)
    rows = []
    width = None
    with feature_path.open() as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
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
    if not rows:
        raise ParseError(feature_path, 0, "feature file is empty")
    features = project_rows(np.array(rows, dtype=float))
    n = features.shape[0]

    edge_path = Path(edge_path)
    edges = []
    with edge_path.open() as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(edge_path, line_no, f"expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(edge_path, line_no, f"bad node id in {line!r}") from None
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(
                    f"{edge_path}:{line_no}: edge ({u}, {v}) out of range for {n} nodes"
                )
            edges.append((u, v))

    label_path = Path(label_path)
    labels = np.full(n, -1, dtype=np.int64)
    with label_path.open() as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(
                    label_path, line_no, f"expected 'node_id,class_id', got {line!r}"
                )
            try:
                node, cls = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(label_path, line_no, f"bad integer in {line!r}") from None
            if not 0 <= node < n:
                raise ValueError(
                    f"{label_path}:{line_no}: node id {node} out of range for {n} nodes"
                )
            labels[node] = cls

    return LabeledDataset(graph=build_graph(n, edges), features=features, labels=labels)


def write_dataset(dataset: LabeledDataset, edge_path, feature_path, label_path) -> None:
    """Write the three dataset files in the formats ``load_dataset`` reads."""
    with Path(edge_path).open("w") as fh:
        for u, v in sorted(dataset.graph.edges):
            fh.write(f"{u} {v}\n")
    with Path(feature_path).open("w") as fh:
        for row in dataset.features:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    with Path(label_path).open("w") as fh:
        for node, cls in enumerate(dataset.labels):
            if cls >= 0:
                fh.write(f"{node},{cls}\n")
