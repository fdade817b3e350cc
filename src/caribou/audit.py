"""Empirical privacy auditing via a challenger/attacker membership game.

Each trial trains the full pipeline on a challenger-sampled training graph,
flips a membership bit, and asks a black-box attacker to score the
challenge item.  Scores over all trials are summarized by rank-based AUC
(0.5 = chance).  Two attacks are provided: an edge-influence probe (does
nudging node v's features move node u's prediction?) and a node-confidence
probe (is the model unusually confident on this node?).

A game runs its trials in batches, each in three steps:

1. for each trial, in order: sample the training graph or subgraph, run
   the training release and form the head's inputs;
2. train the batch's heads in one pass (``model._fit_heads``);
3. for each trial, in order: draw the bit and the challenge, then score.

A trial joins the current batch while its head's input shape and class
count match the batch's and the stacked inputs, plus the normalized
adjacency entries of the edge trials' own training graphs, stay below
``_pool.MIN_CELLS`` (``model._joins_batch``); the node game serves every
trial on the shared graph, and its subgraphs can lack a class, which ends
a batch.  Reports do not depend on the batches: each trial draws from its
own stream, keyed by its index, for the sample, the bit and the challenge,
and from seeds keyed by its index for the release, the head and the
queries; a head trained in a batch has the bits of the same head trained
alone; and the attacker sees the trials in order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Literal, NamedTuple

import numpy as np
from scipy.stats import rankdata

from .graphs import Graph, LabeledDataset, degree_stats
from .layers import project_rows
from .model import MlpHead, TrainConfig, _fit_heads, _head_data, _joins_batch, predict_proba
from .pipeline import PipelineConfig, run_pipeline
from .prng import stream

AttackName = Literal["edge_influence", "node_confidence"]

#: query callable: (node, optional (row, additive nudge)) -> probability vector
ModelQuery = Callable[..., np.ndarray]

_TRIAL_STREAM = 0xA0D1
_QUERY_LIMIT = 1 << 20


@dataclass(frozen=True)
class AuditConfig:
    attack: AttackName = "edge_influence"
    trials: int = 20
    seed: int = 0
    perturb_scale: float = 1e-3
    edge_keep_fraction: float = 0.7
    node_keep_fraction: float = 0.7

    def __post_init__(self) -> None:
        if self.attack not in ("edge_influence", "node_confidence"):
            raise ValueError(f"unknown attack {self.attack!r}")
        if self.trials < 10:
            raise ValueError("at least 10 trials are required")
        if not 0 < self.perturb_scale < math.inf:
            raise ValueError(
                f"perturb_scale must be positive and finite, got {self.perturb_scale!r}"
            )
        for frac in (self.edge_keep_fraction, self.node_keep_fraction):
            if not 0.0 < frac < 1.0:
                raise ValueError("keep fractions must be in (0, 1)")


@dataclass(frozen=True)
class AuditReport:
    scores: list[float]
    membership_bits: list[int]
    auc: float
    discarded_trials: int = 0

    def to_jsonl(self) -> str:
        lines = [
            json.dumps({"trial": i, "score": s, "member": b})
            for i, (s, b) in enumerate(zip(self.scores, self.membership_bits))
        ]
        lines.append(
            json.dumps(
                {
                    "summary": True,
                    "auc": self.auc,
                    "trials": len(self.scores),
                    "discarded_trials": self.discarded_trials,
                }
            )
        )
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_jsonl())


def auc(scores, bits) -> float:
    """Rank-based AUC with ties counted one half.

    Equals the probability that a random member outscores a random
    non-member, with ties contributing 0.5.
    """
    scores = np.asarray(scores, dtype=float)
    bits = np.asarray(bits, dtype=int)
    if scores.shape != bits.shape or scores.ndim != 1:
        raise ValueError("scores and bits must be equal-length vectors")
    n_pos = int(bits.sum())
    n_neg = int(bits.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both membership classes must be present")
    ranks = rankdata(scores)
    u = ranks[bits == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def edge_influence_score(
    model_query: ModelQuery, u: int, v: int, perturb_scale: float
) -> float:
    """Influence of node v's features on node u's prediction.

    Queries the model twice (plain, and with row v nudged by
    ``perturb_scale`` in every coordinate) and returns the L1 change in
    u's probability vector per unit nudge.  Higher values suggest the
    edge {u, v} was present in the training graph.
    """
    base = np.asarray(model_query(u))
    nudged = np.asarray(model_query(u, (v, perturb_scale)))
    return float(np.abs(nudged - base).sum() / perturb_scale)


def node_confidence_score(model_query: ModelQuery, node: int) -> float:
    """Maximum class probability of the node; members tend to score higher."""
    return float(np.asarray(model_query(node)).max())


def _sample_edge_subset(g: Graph, keep_fraction: float, rng, require_min_degree: bool,
                        max_tries: int = 200) -> Graph:
    keep = max(1, round(keep_fraction * g.num_edges))
    for _ in range(max_tries):
        chosen = rng.choice(g.num_edges, size=keep, replace=False)
        sub = Graph(num_nodes=g.num_nodes, edges=g.edges[np.sort(chosen)])
        if not require_min_degree or degree_stats(sub).d_min >= 1:
            return sub
    raise RuntimeError(
        "could not sample a training edge subset with minimum degree >= 1; "
        "use a denser graph or a larger keep fraction"
    )


def _induced_subgraph(g: Graph, nodes: np.ndarray) -> tuple[Graph, np.ndarray]:
    """Induced subgraph on ``nodes`` (sorted); returns it with the id map."""
    nodes = np.sort(np.asarray(nodes, dtype=np.int64))
    position = np.full(g.num_nodes, -1, dtype=np.int64)
    position[nodes] = np.arange(nodes.size)
    relabelled = position[g.edges]
    # the relabelling is monotone, so the kept rows stay sorted
    kept = relabelled[(relabelled >= 0).all(axis=1)]
    return Graph(num_nodes=nodes.size, edges=kept), nodes


class _PipelineModel:
    """A trained head over the pipeline, exposed as a black-box query
    interface.

    Queries run inference on ``serve_on`` and count against
    ``_QUERY_LIMIT``.  Every query reruns inference end to end with a fresh
    counter-derived noise stream, so a private pipeline answers queries
    noisily while a non-private one is deterministic.
    """

    def __init__(
        self,
        head: MlpHead,
        serve_on: LabeledDataset,
        pipeline_cfg: PipelineConfig,
        query_seed: int,
    ):
        self.head = head
        self._dataset = serve_on
        self._cfg = pipeline_cfg
        self._query_seed = query_seed
        self._queries = 0

    def query(self, node: int, nudge: tuple[int, float] | None = None) -> np.ndarray:
        self._queries += 1
        if self._queries > _QUERY_LIMIT:
            raise RuntimeError("query budget exhausted")
        features = _nudged_features(self._dataset.features, nudge)
        probe = replace(self._dataset, features=features)
        cfg = replace(self._cfg, seed=stream_seed(self._query_seed, self._queries))
        artifacts = run_pipeline(probe, cfg)
        return predict_proba(self.head, features[node], artifacts.x_k_final[node])


def _nudged_features(features: np.ndarray, nudge: tuple[int, float] | None) -> np.ndarray:
    """Apply an additive row nudge; the serving pipeline re-normalizes, so
    the probed row is projected back onto the unit ball."""
    if nudge is None:
        return features
    row, scale = nudge
    out = features.copy()
    out[row] = project_rows(out[row] + scale)
    return out


def stream_seed(seed: int, index: int) -> int:
    """Derive a 63-bit child seed from (seed, index) via a keyed stream."""
    return int(stream(seed, 0x5EED, index % (1 << 32)).integers(0, 1 << 63))


def _absent_pairs(g: Graph) -> np.ndarray:
    """Node pairs (u < v) without an edge, as rows in lexicographic order."""
    n = g.num_nodes
    u, v = np.triu_indices(n, k=1)
    absent = ~np.isin(u * n + v, g.edges[:, 0] * n + g.edges[:, 1])
    return np.stack([u[absent], v[absent]], axis=1)


#: A trial's challenge picker: draws the membership bit and the challenge
#: from the trial's generator; None when no non-member exists.
_Challenge = Callable[[], "tuple[object, int] | None"]


def _edge_trial(
    dataset: LabeledDataset, pipeline_cfg: PipelineConfig, audit_cfg: AuditConfig,
    rng: np.random.Generator,
) -> tuple[LabeledDataset, LabeledDataset, _Challenge]:
    """Sample an edge subset as the training graph; return the training
    set, the set queries run on (the same) and the challenge picker:
    members are present edges, non-members uniformly drawn absent pairs."""
    training_graph = _sample_edge_subset(
        dataset.graph,
        audit_cfg.edge_keep_fraction,
        rng,
        require_min_degree=pipeline_cfg.spec.level != "none",
    )
    train_set = replace(dataset, graph=training_graph)

    def challenge():
        bit = int(rng.integers(0, 2))
        if bit == 1:
            members = training_graph.edges
            return tuple(members[int(rng.integers(0, len(members)))].tolist()), bit
        absent = _absent_pairs(training_graph)
        if not absent.size:
            return None
        return tuple(absent[int(rng.integers(0, len(absent)))].tolist()), bit

    return train_set, train_set, challenge


def _node_trial(
    dataset: LabeledDataset, pipeline_cfg: PipelineConfig, audit_cfg: AuditConfig,
    rng: np.random.Generator,
) -> tuple[LabeledDataset, LabeledDataset, _Challenge]:
    """Sample an induced subgraph as the training set; queries run on the
    full graph.  Members are the subgraph's nodes."""
    n = dataset.graph.num_nodes
    keep = max(2, round(audit_cfg.node_keep_fraction * n))
    need_degree = pipeline_cfg.spec.level != "none"
    for _ in range(200):
        member_nodes = np.sort(rng.choice(n, size=keep, replace=False))
        sub_graph, id_map = _induced_subgraph(dataset.graph, member_nodes)
        if not need_degree or degree_stats(sub_graph).d_min >= 1:
            break
    else:
        raise RuntimeError(
            "could not sample a training subgraph with minimum degree >= 1"
        )
    sub_set = LabeledDataset(
        graph=sub_graph,
        features=dataset.features[id_map],
        labels=dataset.labels[id_map],
        train_mask=np.arange(len(id_map)),
        test_mask=np.array([], dtype=np.int64),
    )

    def challenge():
        bit = int(rng.integers(0, 2))
        if bit == 1:
            return int(member_nodes[int(rng.integers(0, len(member_nodes)))]), bit
        outside = np.setdiff1d(np.arange(n), member_nodes)
        if not outside.size:
            return None
        return int(outside[int(rng.integers(0, len(outside)))]), bit

    return sub_set, dataset, challenge


class _Released(NamedTuple):
    """A trial after step 1: its training release's head problem, the
    pipeline config it ran with and what scoring it needs."""

    trial: int
    cfg: PipelineConfig
    serve_on: LabeledDataset
    challenge: _Challenge
    problem: tuple[np.ndarray, np.ndarray]


def _released_batches(dataset, pipeline_cfg, audit_cfg, sample) -> Iterator[list[_Released]]:
    """Step 1 for each trial in order: sample its training set with
    ``sample`` and release it.  The trials come in batches whose heads
    train in one pass; the next batch is released only once the caller
    asks for it, so at most one batch of training sets is held.  The
    normalized adjacency of each training graph a batch holds counts
    toward its ``_pool.MIN_CELLS``."""
    batch: list[_Released] = []
    graph_cells = 0
    for trial in range(audit_cfg.trials):
        rng = stream(audit_cfg.seed, _TRIAL_STREAM, trial)
        train_set, serve_on, challenge = sample(dataset, pipeline_cfg, audit_cfg, rng)
        cfg = replace(pipeline_cfg, seed=stream_seed(audit_cfg.seed, 2 * trial))
        release = run_pipeline(train_set, cfg)
        problem = _head_data(train_set.features, release.x_k_final, train_set.labels,
                             train_set.train_mask)
        # a trial that serves on its own training graph holds that graph's
        # cached normalized adjacency: n diagonal entries and two per edge
        held = serve_on.graph
        cells = 0 if held is dataset.graph else held.num_nodes + 2 * held.num_edges
        if batch and not _joins_batch(batch[0].problem, len(batch), problem, graph_cells + cells):
            yield batch
            batch, graph_cells = [], 0
        batch.append(_Released(trial, cfg, serve_on, challenge, problem))
        graph_cells += cells
    yield batch


def _edge_attack(perturb_scale: float, query: ModelQuery, pair: tuple[int, int]) -> float:
    return edge_influence_score(query, *pair, perturb_scale)


def run_mia_game(
    dataset: LabeledDataset,
    pipeline_cfg: PipelineConfig,
    train_cfg: TrainConfig,
    audit_cfg: AuditConfig,
    score_fn: Callable[[ModelQuery, object], float] | None = None,
) -> AuditReport:
    """Play the challenger/attacker game for ``audit_cfg.trials`` rounds.

    Edge attack: the challenger keeps a random edge subset as the training
    graph; members are present edges, non-members uniformly drawn absent
    pairs.  Node attack: the challenger trains on a random induced
    subgraph and the attacker queries the full graph.  Non-finite attacker
    scores discard the trial (counted in the report).

    ``score_fn(query, challenge)`` replaces the built-in attacker when
    given; the challenge is an (u, v) pair for the edge game and a node id
    for the node game.  It is called at most once per trial, in trial
    order.
    """
    if audit_cfg.attack == "edge_influence":
        sample, attack = _edge_trial, partial(_edge_attack, audit_cfg.perturb_scale)
    else:
        sample, attack = _node_trial, node_confidence_score
    attack = score_fn or attack
    scores: list[float] = []
    bits: list[int] = []
    discarded = 0
    for batch in _released_batches(dataset, pipeline_cfg, audit_cfg, sample):
        heads = _fit_heads([r.problem for r in batch], train_cfg, [r.cfg.seed for r in batch])
        for released, head in zip(batch, heads):
            query_seed = stream_seed(audit_cfg.seed, 2 * released.trial + 1)
            model = _PipelineModel(head, released.serve_on, released.cfg, query_seed)
            picked = released.challenge()
            score = math.nan if picked is None else float(attack(model.query, picked[0]))
            if not math.isfinite(score):
                discarded += 1
                continue
            scores.append(score)
            bits.append(picked[1])
    return AuditReport(
        scores=scores,
        membership_bits=bits,
        auc=auc(scores, bits),
        discarded_trials=discarded,
    )
