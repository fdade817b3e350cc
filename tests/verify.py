"""Verification oracles: brute-force and numerical checks of the closed
forms the system relies on.

Each oracle recomputes a quantity the program states analytically by
direct enumeration or probing on small inputs: the layer sensitivities
(over every adjacent graph), the normalized adjacency's spectral norm, the
layer's Lipschitz constant, the hops' product without rounding error, and
the head's gradients.  They are slow by design.  Two more restate the
graph checks with one elementwise test per row, as ``graphs`` first made
them: the edge array check of ``Graph`` and the pair cleaning of
``build_graph``.  The per-order Renyi
costs of a K-hop release under either accountant, and the GDP-to-RDP
conversion, restate what ``accountant.calibrate_sigma`` composes in one
closed form.  All of them exist for the tests, so they live with the tests
rather than in the ``caribou`` package; import them as ``tests.verify``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from typing import Iterator

import numpy as np

from caribou import model
from caribou.accountant import convergent_factor
from caribou.graphs import Graph, build_graph, degree_stats, normalized_adjacency
from caribou.layers import LayerParams, _check_count, layer_forward
from caribou.prng import stream


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


def reference_graph_edges(num_nodes, edges) -> np.ndarray:
    """The edge array a ``Graph`` of ``num_nodes`` nodes stores for
    ``edges``, read-only, or the ValueError it raises: each row check is one
    per-row mask over every edge, and the order check compares the keys
    u * n + v only after every row is known to be valid."""
    n = num_nodes
    _check_count("num_nodes", n, 0)
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"edges must be an (m, 2) array, got shape {edges.shape}")
    edges = edges.copy()
    edges.flags.writeable = False
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
    return edges


def reference_build_graph(num_nodes, edge_list) -> tuple[np.ndarray, int]:
    """``build_graph``'s edges and self-loop count for a pair list, or the
    ValueError it raises, from per-row masks, ``np.unique`` and the check
    of ``reference_graph_edges``; the node count is checked last."""
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
    edges = np.unique(np.stack([lo, hi], axis=1), axis=0).reshape(-1, 2)
    return reference_graph_edges(n, edges), int(loops.sum())


def enumerate_edge_neighbors(g: Graph) -> Iterator[Graph]:
    """All graphs differing from ``g`` in exactly one edge.

    Every unordered node pair is toggled once, in lexicographic order, so
    exactly C(n, 2) graphs are produced.
    """
    n = g.num_nodes
    keys = g.edges[:, 0] * n + g.edges[:, 1]
    for u, v in zip(*np.triu_indices(n, k=1)):
        key = u * n + v
        i = int(np.searchsorted(keys, key))
        if i < keys.size and keys[i] == key:
            edges = np.delete(g.edges, i, axis=0)
        else:
            edges = np.insert(g.edges, i, (u, v), axis=0)
        yield Graph(num_nodes=n, edges=edges)


def remove_node(g: Graph, w: int) -> Graph:
    """Drop node ``w`` and its incident edges; ids above ``w`` shift down."""
    if not 0 <= w < g.num_nodes:
        raise ValueError(f"node {w} out of range")
    kept = g.edges[(g.edges != w).all(axis=1)]
    # the relabelling is monotone, so the rows stay sorted
    return Graph(num_nodes=g.num_nodes - 1, edges=kept - (kept > w))


def add_node(g: Graph, attach_to) -> Graph:
    """Append one node connected to each id in ``attach_to``."""
    new = g.num_nodes
    attach = np.asarray(attach_to, dtype=np.int64).reshape(-1)
    if ((attach < 0) | (attach >= new)).any():
        raise ValueError(f"attach_to must hold existing node ids, got {attach.tolist()}")
    extra = np.stack([attach, np.full_like(attach, new)], axis=1)
    return build_graph(new + 1, np.concatenate([g.edges, extra]))


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


def empirical_lipschitz(adj, params: LayerParams, trials: int, seed: int) -> float:
    """Probe the layer's Lipschitz constant with random input pairs.

    Returns max over trials of ||f(X) - f(Y)||_F / ||X - Y||_F with the
    residual term held fixed (it cancels in the difference).  The value
    never exceeds ``params.c_l`` up to rounding.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = adj.shape[0]
    rng = stream(seed, 0xE11)
    x0 = np.zeros((n, 4))
    worst = 0.0
    for _ in range(trials):
        while True:
            x = rng.normal(size=(n, 4))
            y = rng.normal(size=(n, 4))
            gap = float(np.linalg.norm(x - y))
            if gap > 1e-12:
                break
        diff = layer_forward(adj, x, x0, params) - layer_forward(adj, y, x0, params)
        worst = max(worst, float(np.linalg.norm(diff)) / gap)
    return worst


def _layer_core(adj, x: np.ndarray, params: LayerParams) -> np.ndarray:
    # the layer with a zero residual: the residual term cancels between
    # adjacent graphs on shared nodes and is covered by the additive 1 in
    # the node-level bound
    return layer_forward(adj, x, x, replace(params, beta=0.0))


def brute_force_edge_sensitivity(
    g: Graph, params: LayerParams, trials: int, seed: int, feat_dim: int = 4
) -> float:
    """Empirical lower estimate of the edge-level sensitivity.

    Maximizes ||c_l * alpha1 * (A - A') X||_F over all single-edge toggles
    and ``trials`` random matrices with unit-norm rows.  Pairs where either
    graph has an isolated node are skipped (outside the formula's domain).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = stream(seed, 0xED6E)
    base = normalized_adjacency(g)
    n = g.num_nodes
    draws = rng.normal(size=(trials, n, feat_dim))
    draws /= np.linalg.norm(draws, axis=2, keepdims=True)
    worst = 0.0
    base_ok = degree_stats(g).d_min >= 1
    for other in enumerate_edge_neighbors(g):
        if not base_ok or degree_stats(other).d_min < 1:
            continue
        diff_op = params.c_l * params.alpha1 * (base - normalized_adjacency(other))
        dense = diff_op.toarray()
        for x in draws:
            worst = max(worst, float(np.linalg.norm(dense @ x)))
    return worst


def brute_force_node_sensitivity(
    g: Graph,
    params: LayerParams,
    trials: int,
    max_added_degree: int,
    seed: int,
    feat_dim: int = 4,
) -> float:
    """Empirical lower estimate of the node-level sensitivity.

    Compares the aggregation output on ``g`` against every neighbour from
    ``enumerate_node_neighbors`` (each single-node removal, then each
    capped single-node addition), padding the missing row with zeros;
    inputs are random with unit-norm rows.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = stream(seed, 0x60DE)
    n = g.num_nodes
    adj_g = normalized_adjacency(g)
    draws = rng.normal(size=(trials, n + 1, feat_dim))
    draws /= np.linalg.norm(draws, axis=2, keepdims=True)
    outs_g = [_layer_core(adj_g, x_full[:n], params) for x_full in draws]
    worst = 0.0

    for i, other in enumerate(enumerate_node_neighbors(g, max_added_degree)):
        adj_o = normalized_adjacency(other)
        # the first n neighbours remove node i; the rest append node n
        keep = [j for j in range(n) if j != i]
        for x_full, out_g in zip(draws, outs_g):
            if i < n:
                out_o = _layer_core(adj_o, x_full[:n][keep], params)
                gap = (
                    np.linalg.norm(out_g[keep] - out_o) ** 2
                    + np.linalg.norm(out_g[i]) ** 2
                )
            else:
                out_o = _layer_core(adj_o, x_full, params)
                gap = (
                    np.linalg.norm(out_o[:n] - out_g) ** 2
                    + np.linalg.norm(out_o[n]) ** 2
                )
            worst = max(worst, math.sqrt(float(gap)))
    return worst


def exact_product(adj, x: np.ndarray) -> np.ndarray:
    """``adj @ x`` with each entry summed by ``math.fsum``: the correctly
    rounded sum of the float64 products, the oracle for the float32 product
    of the hops.  ``adj`` is a CSR matrix."""
    out = np.zeros((adj.shape[0], x.shape[1]))
    for i in range(adj.shape[0]):
        lo, hi = adj.indptr[i], adj.indptr[i + 1]
        terms = adj.data[lo:hi, None] * x[adj.indices[lo:hi]]
        out[i] = [math.fsum(column) for column in terms.T.tolist()]
    return out


def param_row(head: model.MlpHead) -> np.ndarray:
    """``head``'s parameters as a one-row buffer laid out as
    ``model._param_views`` describes."""
    parts = (head.weights[0], head.biases[0], head.weights[1], head.biases[1])
    return np.concatenate([np.ravel(p) for p in parts])[None]


def grad_check(
    head: model.MlpHead,
    x0: np.ndarray,
    xk: np.ndarray,
    labels: np.ndarray,
    tol: float = 1e-5,
) -> bool:
    """Compare analytic gradients against central finite differences.

    Relative criterion per parameter: |a - n| <= tol * max(1, |a|, |n|).
    Losses and gradients come from ``model._HeadPass.loss_and_grads``, the
    method ``train_head`` calls every epoch, looked up at each call so a
    test can substitute it.
    """
    inputs = model.head_inputs(x0, xk)
    labels = np.asarray(labels)
    num_classes = head.sizes[-1]
    onehot = np.eye(num_classes)[labels]
    params = param_row(head)
    passes = model._HeadPass(params, head.sizes[1], inputs[None], onehot[None])
    # the pass reuses its gradient buffer on the next call
    analytic = passes.loss_and_grads()[1][0].copy()
    flat = params[0]
    h = 1e-6
    for idx, a in enumerate(analytic):
        orig = flat[idx]
        flat[idx] = orig + h
        loss_plus = passes.loss_and_grads()[0][0]
        flat[idx] = orig - h
        loss_minus = passes.loss_and_grads()[0][0]
        flat[idx] = orig
        numeric = (loss_plus - loss_minus) / (2.0 * h)
        if abs(a - numeric) > tol * max(1.0, abs(a), abs(numeric)):
            return False
    return True


def rdp_epsilon_convergent(
    k: int, gamma: float, delta_mp: float, sigma: float, alpha: float
) -> float:
    """Renyi cost of a K-hop contractive pipeline at order ``alpha``:
    (alpha / 2) * (delta_mp / sigma)^2 * convergent_factor(k, gamma)."""
    if delta_mp == 0.0:
        return 0.0
    if sigma == 0.0:
        return math.inf
    return 0.5 * alpha * (delta_mp / sigma) ** 2 * convergent_factor(k, gamma)


def rdp_epsilon_linear(k: int, delta_mp: float, sigma: float, alpha: float) -> float:
    """Plain K-fold composition baseline: K * alpha * delta_mp^2 / (2 sigma^2)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if delta_mp == 0.0:
        return 0.0
    if sigma == 0.0:
        return math.inf
    return 0.5 * alpha * (delta_mp / sigma) ** 2 * k


def gdp_to_rdp(mu: float, alpha: float) -> float:
    """A mu-GDP mechanism is (alpha, alpha * mu^2 / 2)-RDP."""
    if mu < 0:
        raise ValueError("mu must be non-negative")
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    return 0.5 * alpha * mu * mu
