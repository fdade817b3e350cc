"""Empirical privacy auditing via a challenger/attacker membership game.

Each trial trains the full pipeline on a challenger-sampled training graph,
flips a membership bit, and asks a black-box attacker (``Attacker``) to
score the challenge item from the answers to the queries it states up
front.  Scores over all trials are summarized by rank-based AUC (0.5 =
chance).  Two attacks are provided: an edge-influence probe (does nudging
node v's features move node u's prediction?) and a node-confidence probe
(is the model unusually confident on this node?).

A game runs its trials in batches, each in three steps:

1. for each trial, in order: sample the training graph or subgraph, draw
   the membership bit and the challenge, take the attacker's queries for
   it, run the training release, form the head's inputs and make the
   release each query reads, of which it keeps the two rows the answer
   reads.  An edge trial serves on its own training graph and makes its
   training release and its queries' releases in one ``run_pipeline`` call.  The node trials serve on the shared graph, and
   the query releases of a batch's node trials are one call once the
   batch is complete.  A trial for which no non-member exists has no
   challenge; it is discarded here, before any release;
2. train the batch's heads in one pass (``model._fit_heads``);
3. for each trial, in order: answer each query from its rows with the
   trial's head, and score the challenge.

Query i of a trial (counted from 1) reads a release on the graph the trial
serves on, with its nudge applied to the public features and seed
``stream_seed(query_seed, i)``: a private pipeline answers noisily.

A trial joins the current batch while its head's input shape and class
count match the batch's and the stacked inputs stay below
``_pool.MIN_CELLS`` (``model._joins_batch``); the node game's subgraphs
can lack a class, which ends a batch.  Reports do not depend on the
batches: each trial draws from its own stream, keyed by its index, for
the sample, the bit and the challenge, and from seeds keyed by its index
for the release, the head and the queries; a release made in a batch of
seeds and features has the bits of the same release made alone, and so
has a head trained in a batch; and the attacker scores the trials in
order.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Literal, NamedTuple

import numpy as np

from .graphs import Graph, LabeledDataset, degree_stats
from .layers import _check_count, project_rows
from .model import TrainConfig, _fit_heads, _head_data, _joins_batch, predict_proba
from .pipeline import PipelineConfig, run_pipeline
from .prng import stream

AttackName = Literal["edge_influence", "node_confidence"]

_TRIAL_STREAM = 0xA0D1


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
        _check_count("trials", self.trials, 10)
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
    non-member, with ties contributing 0.5.  Each score's rank is the mean
    of the 1-based positions its tie group spans in sorted order, an exact
    half-integer.
    """
    scores = np.asarray(scores, dtype=float)
    bits = np.asarray(bits, dtype=int)
    if scores.shape != bits.shape or scores.ndim != 1:
        raise ValueError("scores and bits must be equal-length vectors")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite (found a NaN or infinite score)")
    n_pos = int(bits.sum())
    n_neg = int(bits.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both membership classes must be present")
    order = np.argsort(scores)
    ordered = scores[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], scores.size]
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    u = ranks[bits == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


class Attacker(NamedTuple):
    """A black-box attacker whose queries are fixed before any answer.

    ``queries(challenge)`` lists a trial's queries in order, each a (node,
    nudge) pair asking for the node's class probabilities from a release
    whose features have row ``nudge[0]`` moved by ``nudge[1]`` in every
    coordinate (None: no row moved).  ``score(challenge, answers)`` scores
    the challenge from those probability vectors, in the same order.  The
    challenge is a (u, v) pair in the edge game, a node id in the node
    game."""

    queries: Callable[[object], list[tuple[int, tuple[int, float] | None]]]
    score: Callable[[object, list[np.ndarray]], float]


def edge_influence_score(base: np.ndarray, nudged: np.ndarray, perturb_scale: float) -> float:
    """Influence of node v's features on node u's prediction.

    ``base`` is u's probability vector and ``nudged`` the same with row v
    nudged by ``perturb_scale`` in every coordinate; returns the L1 change
    per unit nudge.  Higher values suggest the edge {u, v} was present in
    the training graph.
    """
    return float(np.abs(np.asarray(nudged) - np.asarray(base)).sum() / perturb_scale)


def node_confidence_score(probs: np.ndarray) -> float:
    """Maximum class probability of the node; members tend to score higher."""
    return float(np.asarray(probs).max())


def _builtin_attacker(audit_cfg: AuditConfig) -> Attacker:
    """The attacker ``audit_cfg.attack`` names."""
    scale = audit_cfg.perturb_scale
    if audit_cfg.attack == "edge_influence":
        # node u, then node u with row v nudged
        return Attacker(lambda pair: [(pair[0], None), (pair[0], (pair[1], scale))],
                        lambda pair, answers: edge_influence_score(*answers, scale))
    return Attacker(lambda node: [(node, None)],
                    lambda node, answers: node_confidence_score(*answers))


def _sample_edge_subset(g: Graph, keep_fraction: float, rng, require_min_degree: bool,
                        max_tries: int = 200) -> Graph:
    keep = max(1, round(keep_fraction * g.num_edges))
    for _ in range(max_tries):
        chosen = rng.choice(g.num_edges, size=keep, replace=False)
        edges = g.edges[np.sort(chosen)]
        edges.flags.writeable = False  # a fresh array: Graph need not copy it
        sub = Graph(num_nodes=g.num_nodes, edges=edges)
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
    kept.flags.writeable = False
    return Graph(num_nodes=nodes.size, edges=kept), nodes


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


def _absent_pair(g: Graph, rng: np.random.Generator) -> tuple[int, int] | None:
    """A node pair (u, v), u < v, without an edge, uniform over all such
    pairs; None when every pair is an edge.  Draws an ordered pair of
    distinct nodes and rejects it while it is an edge, found by a binary
    search of the sorted edge keys, so memory stays O(m)."""
    n = g.num_nodes
    if g.num_edges == n * (n - 1) // 2:
        return None
    keys = g.edges[:, 0] * n + g.edges[:, 1]
    while True:
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n - 1))
        b += b >= a  # uniform over the other n - 1 nodes
        u, v = min(a, b), max(a, b)
        i = int(np.searchsorted(keys, u * n + v))
        if i == keys.size or keys[i] != u * n + v:
            return u, v


#: A trial's challenge and membership bit, drawn from the trial's
#: generator; None when no non-member exists.
_Picked = "tuple[object, int] | None"


def _edge_trial(
    dataset: LabeledDataset, pipeline_cfg: PipelineConfig, audit_cfg: AuditConfig,
    rng: np.random.Generator,
) -> tuple[LabeledDataset, LabeledDataset, _Picked]:
    """Sample an edge subset as the training graph, then the bit and the
    challenge; return the training set, the set queries run on (the same)
    and the challenge with its bit: members are present edges, non-members
    uniformly drawn absent pairs."""
    training_graph = _sample_edge_subset(
        dataset.graph,
        audit_cfg.edge_keep_fraction,
        rng,
        require_min_degree=pipeline_cfg.spec.level != "none",
    )
    train_set = replace(dataset, graph=training_graph)
    bit = int(rng.integers(0, 2))
    if bit == 1:
        members = training_graph.edges
        pair = tuple(members[int(rng.integers(0, len(members)))].tolist())
    else:
        pair = _absent_pair(training_graph, rng)
    return train_set, train_set, None if pair is None else (pair, bit)


def _node_trial(
    dataset: LabeledDataset, pipeline_cfg: PipelineConfig, audit_cfg: AuditConfig,
    rng: np.random.Generator,
) -> tuple[LabeledDataset, LabeledDataset, _Picked]:
    """Sample an induced subgraph as the training set, then the bit and the
    challenge; queries run on the full graph.  Members are the subgraph's
    nodes."""
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
    )

    bit = int(rng.integers(0, 2))
    if bit == 1:
        node = int(member_nodes[int(rng.integers(0, len(member_nodes)))])
    else:
        outside = np.setdiff1d(np.arange(n), member_nodes)
        node = int(outside[int(rng.integers(0, len(outside)))]) if outside.size else None
    return sub_set, dataset, None if node is None else (node, bit)


class _Released(NamedTuple):
    """A trial after step 1: its training release's seed, whether it serves
    on the shared dataset, its challenge, bit and head problem, and its
    queries as (node, nudge, release seed) with, in the same order, the
    rows each answer reads (filled in when the batch completes if shared)."""

    seed: int
    shared: bool
    challenge: object
    bit: int
    problem: tuple[np.ndarray, np.ndarray]
    queries: list
    rows: list


def _release_rows(dataset: LabeledDataset, cfg: PipelineConfig, seeds: list[int],
                  queries: list) -> tuple[np.ndarray, list]:
    """``dataset``'s releases in one ``run_pipeline`` call: one on its own
    features per seed in ``seeds``, then one per (node, nudge, seed) query
    with its nudge applied (the features are stacked only when a query has
    a nudge).  Returns the former and, per query, the copied (feature row,
    release row) pair its answer reads."""
    lead = len(seeds)
    features = [dataset.features] * lead + [_nudged_features(dataset.features, nudge)
                                            for _, nudge, _ in queries]
    unnudged = all(nudge is None for _, nudge, _ in queries)
    made = run_pipeline(dataset, cfg, [*seeds, *(seed for _, _, seed in queries)],
                        None if unnudged else np.stack(features)).x_k_final
    rows = [(x0[node].copy(), x_k[node].copy())
            for (node, _, _), x0, x_k in zip(queries, features[lead:], made[lead:])]
    return made[:lead], rows


def _check_queries(queries: list, n: int) -> None:
    """Raise ValueError unless each query is a (node, nudge) pair whose
    nudge is None or (row, scale), shape tested first, with node and row
    integers in [0, n) (no bool, no float, and no negative id, which numpy
    reads from the end) and a finite scale."""
    for query in queries:
        match query:
            case (node, None) | (node, (_, _)):
                row, scale = (node, 0.0) if query[1] is None else query[1]
            case _:
                node = row = scale = None
        if not (all(isinstance(i, numbers.Integral) and not isinstance(i, bool) and 0 <= i < n
                    for i in (node, row))
                and isinstance(scale, numbers.Real) and math.isfinite(scale)):
            raise ValueError(f"query {query!r} is not a (node, None) or (node, (row, scale)) "
                             f"pair, or is outside [0, {n}), not an integer id or has a "
                             "non-finite scale")


def _release_trial(dataset, pipeline_cfg, audit_cfg, sample, attacker: Attacker,
                   trial: int) -> _Released | None:
    """Step 1 of the module docstring for trial ``trial``, with ``sample``
    drawing the training set, bit and challenge; None for a trial without
    a challenge.  Its training graph is not held past the call."""
    rng = stream(audit_cfg.seed, _TRIAL_STREAM, trial)
    train_set, serve_on, picked = sample(dataset, pipeline_cfg, audit_cfg, rng)
    if picked is None:
        return None
    declared = list(attacker.queries(picked[0]))
    _check_queries(declared, len(serve_on.features))
    query_seed = stream_seed(audit_cfg.seed, 2 * trial + 1)
    queries = [(node, nudge, stream_seed(query_seed, i))
               for i, (node, nudge) in enumerate(declared, 1)]
    seed = stream_seed(audit_cfg.seed, 2 * trial)
    shared = serve_on is not train_set
    (training,), rows = _release_rows(train_set, replace(pipeline_cfg, seed=seed), [seed],
                                      [] if shared else queries)
    problem = _head_data(train_set.features, training, train_set.labels, train_set.train_mask)
    return _Released(seed, shared, *picked, problem, queries, rows)


def _released_batches(dataset, pipeline_cfg, audit_cfg, sample,
                      attacker: Attacker) -> Iterator[list[_Released]]:
    """``_release_trial`` for each trial in order.  The trials come in
    batches whose heads train in one pass; the next batch is released only
    once the caller asks for it."""

    def complete(batch):
        # the rows of the trials that serve on the shared dataset
        wanted = [(r, query) for r in batch if r.shared for query in r.queries]
        if wanted:
            _, rows = _release_rows(dataset, pipeline_cfg, [], [query for _, query in wanted])
            for (r, _), pair in zip(wanted, rows):
                r.rows.append(pair)
        return batch

    batch: list[_Released] = []
    for trial in range(audit_cfg.trials):
        released = _release_trial(dataset, pipeline_cfg, audit_cfg, sample, attacker, trial)
        if released is None:
            continue
        if batch and not _joins_batch(batch[0].problem, len(batch), released.problem):
            yield complete(batch)
            batch = []
        batch.append(released)
    if batch:
        yield complete(batch)


def run_mia_game(
    dataset: LabeledDataset,
    pipeline_cfg: PipelineConfig,
    train_cfg: TrainConfig,
    audit_cfg: AuditConfig,
    attacker: Attacker | None = None,
) -> AuditReport:
    """Play the challenger/attacker game for ``audit_cfg.trials`` rounds.

    Edge attack: the challenger keeps a random edge subset as the training
    graph; members are present edges, non-members uniformly drawn absent
    pairs.  Node attack: the challenger trains on a random induced
    subgraph and the attacker queries the full graph.  A non-finite
    attacker score discards the trial, and so does the lack of a
    non-member to draw (both counted in the report).

    ``attacker`` replaces the attacker that ``audit_cfg.attack`` names when
    given; ``audit_cfg.attack`` still picks the game.  Its queries for a
    challenge are taken, and checked against the graph, before any release
    of the trial, and query i is answered from its own release (see the
    module docstring).  Its ``score`` is called at most once per trial, in
    trial order.
    """
    sample = _edge_trial if audit_cfg.attack == "edge_influence" else _node_trial
    if attacker is None:
        attacker = _builtin_attacker(audit_cfg)
    scores: list[float] = []
    bits: list[int] = []
    scored = 0
    for batch in _released_batches(dataset, pipeline_cfg, audit_cfg, sample, attacker):
        heads = _fit_heads([r.problem for r in batch], train_cfg, [r.seed for r in batch])
        for released, head in zip(batch, heads):
            answers = [predict_proba(head, *pair) for pair in released.rows]
            score = float(attacker.score(released.challenge, answers))
            scored += 1
            if math.isfinite(score):
                scores.append(score)
                bits.append(released.bit)
    if len(set(bits)) < 2:
        keep = "edge_keep_fraction" if sample is _edge_trial else "node_keep_fraction"
        raise ValueError(
            f"both membership classes must be present: {audit_cfg.trials - scored} trials were "
            f"discarded for lack of a non-member and {scored - len(scores)} for a non-finite "
            f"score; a smaller {keep} or a larger graph leaves non-members to draw"
        )
    return AuditReport(
        scores=scores,
        membership_bits=bits,
        auc=auc(scores, bits),
        discarded_trials=audit_cfg.trials - len(scores),
    )
