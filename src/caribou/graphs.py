"""Graph containers, symmetric normalization, dataset files, and the
synthetic chain benchmark generator.

A graph's edges are one read-only (m, 2) int64 array of (u, v) rows with
u < v, sorted and unique, so every operation on the edge set is a
vectorized array operation.  The normalized adjacency is built at most
once per ``Graph`` object and cached with it, and so is the float32 copy
that the release's hops multiply by, whose format only this module knows:
Â's values rounded to float32, with each row of more than ``_SUM_TERMS``
entries cut, in order, into chunks of at most that many, one matrix row
each, so that no float32 sum of the product holds more; the chunk sums are
added in float64.  ``_aggregation_blocks`` gives each row block's product.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_array

from .layers import _check_count, project_rows
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
    first, so later writes by the caller cannot reach the graph.  ValueError
    for, in this order, a bad ``num_nodes``, shape, row, or row order.
    ``dropped_self_loops`` counts self-loops discarded during construction.
    Graphs compare and hash by identity: the cached normalized adjacency
    belongs to one object.
    """

    num_nodes: int
    edges: np.ndarray
    dropped_self_loops: int = 0

    def __post_init__(self) -> None:
        n = self.num_nodes
        _check_count("num_nodes", n, 0)
        edges = np.asarray(self.edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must be an (m, 2) array, got shape {edges.shape}")
        if edges.flags.writeable:
            edges = edges.copy()
            edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        u, v = edges[:, 0], edges[:, 1]
        if u.size and not (u.min() >= 0 and v.max() < n and (u < v).all()):
            i = int(((u < 0) | (u >= v) | (v >= n)).argmax())
            raise ValueError(f"edge ({u[i]}, {v[i]}) invalid for {n} nodes")
        keys = u * n  # after the row check, so that no bad row wraps into order
        keys += v
        if not (keys[1:] > keys[:-1]).all():
            i = int((keys[1:] <= keys[:-1]).argmax()) + 1
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

    def _adjacency(self) -> csr_array:
        """A newly built Â, whose arrays are read-only."""
        deg_plus_one = self.degrees + 1.0
        n = self.num_nodes
        u, v = self.edges[:, 0], self.edges[:, 1]
        w = 1.0 / np.sqrt(deg_plus_one[u] * deg_plus_one[v])
        diag = np.arange(n)
        # COO order: (v, u) for every edge, the diagonal, then (u, v) for
        # every edge.  The edges are sorted, so the conversion, which keeps
        # each row's entries in this order, meets every row's columns in
        # ascending order and has no indices to sort.
        rows = np.concatenate([v, diag, u])
        cols = np.concatenate([u, diag, v])
        vals = np.concatenate([w, 1.0 / deg_plus_one, w])
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

    @cached_property
    def _normalized_adjacency(self) -> csr_array:
        return self._adjacency()

    @cached_property
    def _aggregation(self) -> tuple[csr_array, np.ndarray | None]:
        # rounded from a float64 Â that is not kept; building the float32
        # values directly left release-1e5's peak RSS 13 MB higher, through
        # glibc's dynamic mmap threshold
        adj = self._adjacency()
        adj.data = adj.data.astype(np.float32)
        adj.data.flags.writeable = False
        lengths = np.diff(adj.indptr)
        if not (lengths > _SUM_TERMS).any():
            return adj, None
        chunks = -(-lengths // _SUM_TERMS)  # every row holds its diagonal
        first = np.concatenate([[0], np.cumsum(chunks)])
        row = np.repeat(np.arange(self.num_nodes), chunks)
        # chunk k of row i starts k * L entries into the row
        starts = adj.indptr[row] + (np.arange(first[-1]) - first[row]) * _SUM_TERMS
        agg = csr_array((first[-1], self.num_nodes), dtype=np.float32)
        # set after construction, so that Â's arrays are shared, not copied
        agg.indptr = np.append(starts, adj.nnz).astype(adj.indptr.dtype)
        agg.indices, agg.data = adj.indices, adj.data
        agg.indptr.flags.writeable = False
        return agg, first


def build_graph(num_nodes: int, edge_list) -> Graph:
    """Construct a Graph from (possibly messy) pair input.

    ``edge_list`` is any sequence of (u, v) pairs or an (m, 2) integer
    array.  Duplicate and reversed pairs collapse to one undirected edge;
    self-loops are dropped and counted; out-of-range ids raise.
    """
    n = num_nodes
    _check_count("num_nodes", n, 0)
    pairs = np.asarray(edge_list, dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edge_list must hold (u, v) pairs, got shape {pairs.shape}")
    u, v = pairs[:, 0], pairs[:, 1]
    if pairs.size and not (pairs.min() >= 0 and pairs.max() < n):
        i = int(((pairs < 0) | (pairs >= n)).any(axis=1).argmax())
        raise ValueError(f"edge ({u[i]}, {v[i]}) out of range for {n} nodes")
    keys = np.minimum(u, v)
    keys *= n
    np.add(keys, np.maximum(u, v), out=keys)
    loops = u == v
    if dropped := int(np.count_nonzero(loops)):
        keys = keys[~loops]
    # sort + neighbour compare: np.unique is far slower on large key arrays
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    edges = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, n, out=(edges[:, 0], edges[:, 1]))
    edges.flags.writeable = False
    return Graph(num_nodes=n, edges=edges, dropped_self_loops=dropped)


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


#: The most terms one float32 sum of the hop's product holds: L in the
#: rounding bound of ``accountant``.  A row of Â with more stored entries
#: is summed in chunks of at most L (module docstring).  The
#: largest row of a 1e5-node graph with mean degree 13 holds about 32.
_SUM_TERMS = 64


def _block_product(rows: csr_array, starts: np.ndarray | None, x32: np.ndarray) -> np.ndarray:
    """``rows @ x32``, with chunk rows ``starts[i]`` up to ``starts[i + 1]``
    added up in float64, in order, into row i, if ``starts`` is given."""
    product = rows @ x32
    if starts is not None:
        product = np.add.reduceat(product, starts, axis=0, dtype=np.float64)
    return product


def _aggregation_blocks(g: Graph, block_rows: int) -> list[tuple[int, int, partial]]:
    """The rows of the float32 Â (module docstring) as ``(start, stop,
    product)`` blocks of ``block_rows`` rows: ``product(x32)`` is rows
    ``start`` up to ``stop`` of Â @ ``x32``, in float32, or in float64 if
    the block cuts a row.  A block's matrix is the cached read-only one,
    or a CSR view of its ``data`` and ``indices`` with its own ``indptr``."""
    # first[i] is row i's first chunk, first[-1] the chunk count; None: no cut
    agg, first = g._aggregation
    n = g.num_nodes
    blocks = []
    for a in range(0, n, block_rows):
        b = min(a + block_rows, n)
        ca, cb = (a, b) if first is None else (int(first[a]), int(first[b]))
        starts = None if cb - ca == b - a else first[a:b] - ca
        if cb - ca == agg.shape[0]:
            rows = agg
        else:
            lo, hi = agg.indptr[ca], agg.indptr[cb]
            rows = csr_array((cb - ca, n), dtype=agg.dtype)
            # set after construction: the constructor copies an array that
            # is a view of less than half of its base
            rows.indptr = agg.indptr[ca : cb + 1] - lo
            rows.indices = agg.indices[lo:hi]
            rows.data = agg.data[lo:hi]
        blocks.append((a, b, partial(_block_product, rows, starts)))
    return blocks


def _mask_labels(labels: np.ndarray, mask: np.ndarray, name: str,
                 nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The node ids of ``mask`` and their labels, for ``nodes`` rows with
    one entry of ``labels`` each.  ValueError for labels of another length
    or of non-integers, a mask that is not 1-D, a non-empty mask of
    non-integers, and, naming the first in mask order, an id outside
    [0, nodes) or of an unlabeled (negative) node; ``name`` names the mask."""
    ids, labels = np.asarray(mask), np.asarray(labels)
    if len(labels) != nodes:
        raise ValueError(f"labels hold {len(labels)} entries for {nodes} feature rows")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must hold integer classes, got dtype {labels.dtype}")
    if ids.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array of node ids, got shape {ids.shape}")
    # a boolean mask would be read as ids 0 and 1, a fraction truncated
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integer node ids, got dtype {ids.dtype}")
    ids = ids.astype(np.int64, copy=False)
    # numpy would read a negative id from the end
    bad = (ids < 0) | (ids >= nodes)
    bad[~bad] = labels[ids[~bad]] < 0
    if bad.any():
        raise ValueError(f"{name} contains unlabeled nodes or ids outside "
                         f"[0, {nodes}); the first is {ids[bad.argmax()]}")
    return ids, labels[ids]


@dataclass(frozen=True)
class LabeledDataset:
    """Graph plus node features, labels, and disjoint train/test id sets.

    ``labels`` holds one integer class per node, -1 for an unlabeled node.
    Each mask is a 1-D array of integer ids of labeled nodes, checked by
    ``_mask_labels``; an empty mask may have any dtype.
    """

    graph: Graph
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))
    test_mask: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))

    def __post_init__(self) -> None:
        n = self.graph.num_nodes
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError(
                f"features must have shape (nodes, dims) = ({n}, d), got {self.features.shape}"
            )
        if self.labels.shape != (n,):
            raise ValueError("labels must be one entry per node")
        train, _ = _mask_labels(self.labels, self.train_mask, "training mask", n)
        in_test = np.zeros(n, dtype=bool)
        in_test[_mask_labels(self.labels, self.test_mask, "test mask", n)[0]] = True
        if in_test[train].any():
            raise ValueError("train and test masks overlap")

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
    if not labeled.size:
        raise ValueError("no labeled nodes to split")
    _check_count("n_train", n_train, 0)
    _check_count("n_test", n_test, 0)
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
        taken = np.zeros(labels.size, dtype=bool)
        taken[train] = taken[test] = True
        leftovers = perm[~taken[perm]]
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
    for name, count in (("num_chains", num_chains), ("chain_len", chain_len),
                        ("num_classes", num_classes), ("feat_dim", feat_dim)):
        _check_count(name, count, 1)
    if num_chains % num_classes != 0:
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


def _data_lines(path: Path) -> list[tuple[int, str]]:
    """(line number, stripped line) for each line of ``path`` that is
    neither blank nor a '#' comment."""
    with path.open() as fh:
        text = fh.read()
    return [
        (line_no, line)
        for line_no, raw in enumerate(text.split("\n"), start=1)
        if (line := raw.strip()) and not line.startswith("#")
    ]


#: A character outside the grammar of a data line: printable ASCII and tabs.
_BAD_CHAR = re.compile(r"[^\t -~]")
#: The ASCII characters outside the grammar that numpy's reader takes as
#: blanks, as it takes every Unicode space.
_NUMPY_BLANKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")
_INT64 = np.iinfo(np.int64)


def _numpy_grammar(text: list[str]) -> bool:
    """Whether numpy reads ``text`` by the grammar of ``load_dataset``: no
    line holds a non-ASCII character or one of ``_NUMPY_BLANKS``, and numpy
    rejects every other character outside it.  One search of the joined
    lines costs far less than one search per line."""
    joined = "".join(text)
    return joined.isascii() and not any(c in joined for c in _NUMPY_BLANKS)


def _bulk(lines: list[tuple[int, str]], dtype, delimiter: str | None) -> np.ndarray | None:
    """The kept lines as one 2-D array read by numpy's C reader, or ``None``
    when there are none or the reader rejects them."""
    text = [line for _, line in lines]
    if not text or not _numpy_grammar(text):
        return None
    try:
        return np.loadtxt(text, dtype=dtype, delimiter=delimiter, comments=None, ndmin=2)
    except ValueError:
        return None


def _number(cast, text: str):
    """``cast(text)`` without the underscores ``float`` and ``int`` accept."""
    if "_" in text:
        raise ValueError(text)
    return cast(text)


def _check_chars(path: Path, line_no: int, line: str) -> None:
    if _BAD_CHAR.search(line):
        raise ParseError(path, line_no, f"character outside printable ASCII in {line!r}")


# The scans below read the kept lines one at a time and raise the
# ``ParseError`` of the first bad line.  ``load_dataset`` runs one only when
# the bulk reader or a whole-array check fails; each returns its table when
# it finds no fault.


def _scan_features(path: Path, lines: list[tuple[int, str]]) -> np.ndarray:
    rows = []
    width = None
    for line_no, line in lines:
        _check_chars(path, line_no, line)
        parts = line.split(",")
        try:
            row = [_number(float, p) for p in parts]
        except ValueError:
            raise ParseError(path, line_no, f"bad float in {line!r}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(path, line_no, f"expected {width} columns, got {len(row)}")
        rows.append(row)
    if not rows:
        raise ParseError(path, 0, "feature file is empty")
    features = np.array(rows, dtype=float)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        # float() reads "nan" and "inf"; the release must never see them
        raise ParseError(path, lines[int(finite.argmin())][0], "non-finite feature value")
    return features


def _scan_edges(path: Path, lines: list[tuple[int, str]], n: int) -> np.ndarray:
    edges = []
    for line_no, line in lines:
        _check_chars(path, line_no, line)
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(path, line_no, f"expected 'u v', got {line!r}")
        try:
            u, v = _number(int, parts[0]), _number(int, parts[1])
        except ValueError:
            raise ParseError(path, line_no, f"bad node id in {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(path, line_no, f"edge ({u}, {v}) out of range for {n} nodes")
        edges.append((u, v))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def _scan_labels(path: Path, lines: list[tuple[int, str]], n: int) -> np.ndarray:
    pairs = []
    for line_no, line in lines:
        _check_chars(path, line_no, line)
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(path, line_no, f"expected 'node_id,class_id', got {line!r}")
        try:
            node, cls = _number(int, parts[0]), _number(int, parts[1])
        except ValueError:
            raise ParseError(path, line_no, f"bad integer in {line!r}") from None
        if not 0 <= node < n:
            raise ParseError(path, line_no, f"node id {node} out of range for {n} nodes")
        if not _INT64.min <= cls <= _INT64.max:
            raise ParseError(path, line_no, f"class id {cls} does not fit in int64")
        pairs.append((node, cls))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _in_range(ids: np.ndarray, n: int) -> bool:
    return bool(((ids >= 0) & (ids < n)).all())


def load_dataset(edge_path, feature_path, label_path) -> LabeledDataset:
    """Read a dataset from the on-disk formats.

    Edge file: one "u v" pair per line.  Feature file: CSV, one row per
    node.  Label file: CSV "node_id,class_id"; a node listed twice keeps
    its last class.  Blank lines and lines whose first non-blank character
    is '#' are skipped in all three.  Feature rows are projected to
    Euclidean norm <= 1 on load.

    Grammar of the other lines: printable ASCII characters and tabs only.
    Fields are separated by "," (features, labels) or by runs of spaces and
    tabs (edges), with spaces and tabs allowed around each field.  A node
    or class id is a decimal integer with an optional sign; a feature value
    is a decimal or exponent literal with an optional sign, or "nan"/"inf"/
    "infinity" in any case, which are then rejected as non-finite.  Unlike
    Python's ``int`` and ``float``, the grammar has no underscores, no
    non-ASCII digits or spaces and no control characters but the tab.

    Every fault raises a ``ParseError`` naming the first bad line of the
    first file that has one, read in the order features, edges, labels; in
    the feature file, a line that does not parse comes before a non-finite
    value.
    """
    feature_path = Path(feature_path)
    lines = _data_lines(feature_path)
    features = _bulk(lines, np.float64, ",")
    if features is None or not np.isfinite(features).all():
        features = _scan_features(feature_path, lines)
    features = project_rows(features)
    n = features.shape[0]

    edge_path = Path(edge_path)
    lines = _data_lines(edge_path)
    edges = _bulk(lines, np.int64, None)
    if edges is None or edges.shape[1] != 2 or not _in_range(edges, n):
        edges = _scan_edges(edge_path, lines, n)

    label_path = Path(label_path)
    lines = _data_lines(label_path)
    pairs = _bulk(lines, np.int64, ",")
    if pairs is None or pairs.shape[1] != 2 or not _in_range(pairs[:, 0], n):
        pairs = _scan_labels(label_path, lines, n)
    nodes, classes = pairs[:, 0], pairs[:, 1]
    # the first index of each node in the reversed pairs is its last line;
    # numpy leaves the outcome of a repeated index in an assignment unspecified
    _, last = np.unique(nodes[::-1], return_index=True)
    last = nodes.size - 1 - last
    labels = np.full(n, -1, dtype=np.int64)
    labels[nodes[last]] = classes[last]

    return LabeledDataset(graph=build_graph(n, edges), features=features, labels=labels)


#: Rows per ``tolist`` chunk in ``write_float_csv``: enough that the per-chunk
#: calls cost little, few enough that one chunk's Python floats stay small.
_WRITE_ROWS = 1024


def write_float_csv(path, matrix) -> None:
    """Write a 2-D float array as CSV, one line per row, each value as
    ``repr(float(v))``: the shortest text that reads back to the same float."""
    rows = np.asarray(matrix, dtype=np.float64)
    with Path(path).open("w") as fh:
        for start in range(0, rows.shape[0], _WRITE_ROWS):
            chunk = rows[start : start + _WRITE_ROWS].tolist()
            fh.writelines([",".join(map(repr, row)) + "\n" for row in chunk])


def write_dataset(dataset: LabeledDataset, edge_path, feature_path, label_path) -> None:
    """Write the three dataset files in the formats ``load_dataset`` reads."""
    with Path(edge_path).open("w") as fh:
        fh.writelines(f"{u} {v}\n" for u, v in dataset.graph.edges.tolist())
    write_float_csv(feature_path, dataset.features)
    labeled = np.flatnonzero(dataset.labels >= 0)
    with Path(label_path).open("w") as fh:
        classes = dataset.labels[labeled].tolist()
        fh.writelines(f"{node},{cls}\n" for node, cls in zip(labeled.tolist(), classes))
