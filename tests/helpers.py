"""Shared fixtures for synthetic audit/acceptance datasets, and the bench's
list of traced functions."""

import ast
from pathlib import Path

import numpy as np

from caribou.graphs import LabeledDataset, build_graph
from caribou.layers import project_rows
from caribou.prng import stream


def dense_block_dataset(
    num_nodes: int = 20,
    intra_p: float = 0.9,
    inter_p: float = 0.45,
    feature_noise: float = 0.3,
    seed: int = 0,
) -> LabeledDataset:
    """Two communities with dense intra-block wiring and noisy class features.

    Dense enough that random edge subsets keep every degree positive, which
    the edge-level privacy bounds require.
    """
    rng = stream(seed, 0xB10C)
    half = num_nodes // 2
    labels = np.array([0] * half + [1] * (num_nodes - half), dtype=np.int64)
    edges = []
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            p = intra_p if labels[u] == labels[v] else inter_p
            if rng.random() < p:
                edges.append((u, v))
    onehot = np.eye(2)[labels]
    features = project_rows(onehot + feature_noise * rng.normal(size=(num_nodes, 2)))
    return LabeledDataset(
        graph=build_graph(num_nodes, edges),
        features=features,
        labels=labels,
        train_mask=np.arange(num_nodes, dtype=np.int64),
        test_mask=np.array([], dtype=np.int64),
    )


def per_value_csv(matrix) -> str:
    """The float CSV text as the per-value writer made it: the reference
    that the bulk row writer must match byte for byte."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in matrix)


BENCH_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def bench_targets() -> dict[str, tuple[str, ...]]:
    """``TARGETS`` of ``bench/spans.py``, read by ``ast`` without importing
    the bench: the functions ``caribou.<module>.<function>`` it times."""
    tree = ast.parse(BENCH_SPANS.read_text())
    return next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.AnnAssign) and node.target.id == "TARGETS"
    )
