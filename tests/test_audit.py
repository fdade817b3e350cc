import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import caribou._pool
import caribou.audit
from caribou.accountant import PrivacySpec
from caribou.audit import (
    _TRIAL_STREAM,
    AuditConfig,
    AuditReport,
    _absent_pairs,
    _induced_subgraph,
    _PipelineModel,
    _sample_edge_subset,
    auc,
    edge_influence_score,
    node_confidence_score,
    run_mia_game,
    stream_seed,
)
from caribou.graphs import LabeledDataset, build_graph, degree_stats, gen_chain_dataset
from caribou.layers import LayerParams
from caribou.model import DpSgdConfig, TrainConfig, train_head
from caribou.pipeline import PipelineConfig, run_pipeline
from caribou.prng import stream
from tests.helpers import dense_block_dataset


def brute_force_auc(scores, bits):
    pos = [s for s, b in zip(scores, bits) if b == 1]
    neg = [s for s, b in zip(scores, bits) if b == 0]
    total = 0.0
    for p, n in itertools.product(pos, neg):
        if p > n:
            total += 1.0
        elif p == n:
            total += 0.5
    return total / (len(pos) * len(neg))


def make_pipeline_cfg(level="none", eps=8.0, k=1, c_l=0.5, seed=0):
    params = LayerParams(c_l=c_l, alpha1=1.0, alpha2=0.0, beta=0.0)
    spec = PrivacySpec(
        epsilon=eps,
        delta=1e-3,
        level=level,
        k_hops=max(k, 1),
        gamma=c_l if level != "none" else 0.0,
    )
    return PipelineConfig(cgl=params, spec=spec, k_hops=k, seed=seed)


FAST_TRAIN = TrainConfig(epochs=60, learning_rate=0.5, hidden_units=8)
DP_TRAIN = TrainConfig(epochs=30, learning_rate=0.5, hidden_units=4,
                       dp=DpSgdConfig(clip_norm=1.0, noise_mult=1.1))


def trained_model(dataset, pipeline_cfg, train_cfg, query_seed, serve_on=None):
    """The query interface over a pipeline run and a head trained on
    ``dataset`` by their public functions, one model at a time."""
    artifacts = run_pipeline(dataset, pipeline_cfg)
    head = train_head(dataset.features, artifacts.x_k_final, dataset.labels,
                      dataset.train_mask, train_cfg, seed=pipeline_cfg.seed)
    return _PipelineModel(head, dataset if serve_on is None else serve_on, pipeline_cfg,
                          query_seed)


def reference_edge_trial(dataset, pipeline_cfg, train_cfg, audit_cfg, rng, trial, score_fn):
    training_graph = _sample_edge_subset(
        dataset.graph, audit_cfg.edge_keep_fraction, rng,
        require_min_degree=pipeline_cfg.spec.level != "none",
    )
    train_set = replace(dataset, graph=training_graph)
    model = trained_model(
        train_set, replace(pipeline_cfg, seed=stream_seed(audit_cfg.seed, 2 * trial)),
        train_cfg, query_seed=stream_seed(audit_cfg.seed, 2 * trial + 1),
    )
    bit = int(rng.integers(0, 2))
    if bit == 1:
        members = training_graph.edges
        u, v = members[int(rng.integers(0, len(members)))].tolist()
    else:
        absent = _absent_pairs(training_graph)
        if not absent.size:
            return math.nan, 0
        u, v = absent[int(rng.integers(0, len(absent)))].tolist()
    if score_fn is not None:
        return float(score_fn(model.query, (u, v))), bit
    return edge_influence_score(model.query, u, v, audit_cfg.perturb_scale), bit


def reference_node_trial(dataset, pipeline_cfg, train_cfg, audit_cfg, rng, trial, score_fn):
    n = dataset.graph.num_nodes
    keep = max(2, round(audit_cfg.node_keep_fraction * n))
    for _ in range(200):
        member_nodes = np.sort(rng.choice(n, size=keep, replace=False))
        sub_graph, id_map = _induced_subgraph(dataset.graph, member_nodes)
        if pipeline_cfg.spec.level == "none" or degree_stats(sub_graph).d_min >= 1:
            break
    else:
        raise RuntimeError("could not sample a training subgraph with minimum degree >= 1")
    sub_set = LabeledDataset(
        graph=sub_graph, features=dataset.features[id_map], labels=dataset.labels[id_map],
        train_mask=np.arange(len(id_map)), test_mask=np.array([], dtype=np.int64),
    )
    model = trained_model(
        sub_set, replace(pipeline_cfg, seed=stream_seed(audit_cfg.seed, 2 * trial)),
        train_cfg, query_seed=stream_seed(audit_cfg.seed, 2 * trial + 1), serve_on=dataset,
    )
    bit = int(rng.integers(0, 2))
    if bit == 1:
        node = int(member_nodes[int(rng.integers(0, len(member_nodes)))])
    else:
        outside = np.setdiff1d(np.arange(n), member_nodes)
        if not outside.size:
            return math.nan, 0
        node = int(outside[int(rng.integers(0, len(outside)))])
    if score_fn is not None:
        return float(score_fn(model.query, node)), bit
    return node_confidence_score(model.query, node), bit


def reference_run_mia_game(dataset, pipeline_cfg, train_cfg, audit_cfg, score_fn=None):
    """The game as a sequential loop: each trial trains its own head with
    ``train_head``, then draws its bit and challenge and is scored."""
    play = reference_edge_trial if audit_cfg.attack == "edge_influence" else reference_node_trial
    scores, bits, discarded = [], [], 0
    for trial in range(audit_cfg.trials):
        rng = stream(audit_cfg.seed, _TRIAL_STREAM, trial)
        score, bit = play(dataset, pipeline_cfg, train_cfg, audit_cfg, rng, trial, score_fn)
        if not math.isfinite(score):
            discarded += 1
            continue
        scores.append(score)
        bits.append(bit)
    return AuditReport(scores=scores, membership_bits=bits, auc=auc(scores, bits),
                       discarded_trials=discarded)


def flaky_score_fn():
    """A stateful attacker: every third call scores NaN, the others count
    calls, so the report depends on the order of the calls."""
    calls = itertools.count()

    def flaky(query, challenge):
        return math.nan if next(calls) % 3 == 0 else float(next(calls))

    return flaky


class TestAuc:
    def test_perfect_separation(self):
        assert auc([1, 2, 3, 10, 11], [0, 0, 0, 1, 1]) == 1.0

    def test_all_ties_is_half(self):
        assert auc([0.5] * 10, [0, 1] * 5) == 0.5

    def test_worked_example(self):
        scores = [0.1, 0.4, 0.35, 0.8]
        bits = [0, 0, 1, 1]
        assert auc(scores, bits) == pytest.approx(0.75)
        assert auc(scores, bits) == pytest.approx(brute_force_auc(scores, bits))

    def test_matches_brute_force_on_random_inputs(self):
        rng = stream(61, 0)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            scores = rng.integers(0, 6, size=n).astype(float).tolist()
            bits = rng.integers(0, 2, size=n).tolist()
            if sum(bits) in (0, n):
                continue
            assert auc(scores, bits) == pytest.approx(brute_force_auc(scores, bits))

    def test_complement_property(self):
        rng = stream(62, 0)
        for _ in range(30):
            n = int(rng.integers(4, 30))
            scores = rng.normal(size=n).tolist()
            bits = ([0, 1] * n)[:n]
            assert auc(scores, bits) + auc([-s for s in scores], bits) == pytest.approx(1.0)

    def test_one_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1, 1])


class TestEdgeInfluenceScore:
    def test_no_message_path_scores_zero(self):
        # K = 0: predictions never see other rows
        ds = dense_block_dataset(num_nodes=8, seed=1)
        cfg = make_pipeline_cfg(level="none", k=0)
        model = trained_model(ds, cfg, FAST_TRAIN, query_seed=5)
        for u, v in [(0, 3), (2, 7), (5, 1)]:
            assert edge_influence_score(model.query, u, v, 1e-3) == pytest.approx(0.0, abs=1e-9)

    def test_connected_pair_outscores_disconnected(self):
        from caribou.graphs import LabeledDataset, build_graph

        features = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        labels = np.array([0, 1, 1], dtype=np.int64)
        ds = LabeledDataset(
            graph=build_graph(3, [(0, 1)]),
            features=features,
            labels=labels,
            train_mask=np.arange(3),
            test_mask=np.array([], dtype=np.int64),
        )
        model = trained_model(ds, make_pipeline_cfg(level="none", k=1), FAST_TRAIN, query_seed=2)
        connected = edge_influence_score(model.query, 0, 1, 1e-3)
        disconnected = edge_influence_score(model.query, 0, 2, 1e-3)
        assert connected > disconnected

    def test_score_stable_under_scale_halving(self):
        ds = dense_block_dataset(num_nodes=10, seed=3)
        model = trained_model(ds, make_pipeline_cfg(level="none", k=1), FAST_TRAIN, query_seed=4)
        full = edge_influence_score(model.query, 0, 1, 1e-3)
        half = edge_influence_score(model.query, 0, 1, 5e-4)
        assert half == pytest.approx(full, rel=0.10)


class TestNodeConfidenceScore:
    def test_uniform_model(self):
        query = lambda node, nudge=None: np.array([0.25, 0.25, 0.25, 0.25])
        assert node_confidence_score(query, 0) == pytest.approx(0.25)

    def test_bounds(self):
        rng = stream(63, 0)
        for _ in range(100):
            logits = rng.normal(size=4)
            probs = np.exp(logits) / np.exp(logits).sum()
            score = node_confidence_score(lambda n, _=None, p=probs: p, 0)
            assert 0.25 - 1e-12 <= score <= 1.0


class TestRunMiaGame:
    def test_deterministic_per_seed(self):
        ds = dense_block_dataset(seed=5)
        cfg = make_pipeline_cfg(level="none", k=1)
        audit_cfg = AuditConfig(attack="edge_influence", trials=10, seed=7)
        a = run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg)
        b = run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg)
        assert a.scores == b.scores
        assert a.membership_bits == b.membership_bits
        assert a.auc == b.auc

    def test_constant_attacker_scores_half(self):
        ds = dense_block_dataset(seed=5)
        cfg = make_pipeline_cfg(level="none", k=1)
        audit_cfg = AuditConfig(attack="edge_influence", trials=12, seed=3)
        report = run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg, score_fn=lambda q, c: 1.0)
        assert report.auc == 0.5

    def test_nonfinite_scores_discarded_and_counted(self):
        ds = dense_block_dataset(seed=5)
        cfg = make_pipeline_cfg(level="none", k=1)
        audit_cfg = AuditConfig(attack="edge_influence", trials=12, seed=3)
        calls = itertools.count()

        def flaky(query, challenge):
            return math.nan if next(calls) % 3 == 0 else float(next(calls))

        report = run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg, score_fn=flaky)
        assert report.discarded_trials > 0
        assert len(report.scores) + report.discarded_trials == 12

    def test_non_private_edge_attack_beats_chance(self):
        ds = dense_block_dataset(seed=6)
        cfg = make_pipeline_cfg(level="none", k=1)
        audit_cfg = AuditConfig(attack="edge_influence", trials=14, seed=9)
        report = run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg)
        assert report.auc >= 0.7

    def test_node_attack_runs(self):
        ds = dense_block_dataset(seed=8)
        cfg = make_pipeline_cfg(level="none", k=1)
        audit_cfg = AuditConfig(attack="node_confidence", trials=10, seed=2)
        report = run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg)
        assert len(report.scores) + report.discarded_trials == 10
        assert all(0.0 <= s <= 1.0 for s in report.scores)

    def test_node_attack_queries_count_against_budget(self, monkeypatch):
        import caribou.audit

        monkeypatch.setattr(caribou.audit, "_QUERY_LIMIT", 0)
        ds = dense_block_dataset(seed=8)
        cfg = make_pipeline_cfg(level="none", k=1)
        audit_cfg = AuditConfig(attack="node_confidence", trials=10, seed=2)
        with pytest.raises(RuntimeError, match="query budget exhausted"):
            run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg)

    def test_trials_minimum_enforced(self):
        with pytest.raises(ValueError):
            AuditConfig(trials=5)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1e-3])
    def test_bad_perturb_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="perturb_scale"):
            AuditConfig(perturb_scale=scale)


def record_batches(monkeypatch):
    """Record the (T, m, d_in, C) of every batched pass of heads."""
    original = caribou.audit._fit_heads
    shapes = []

    def recording(problems, cfg, seeds):
        inputs, onehot = problems[0]
        shapes.append((len(problems), *inputs.shape, onehot.shape[1]))
        return original(problems, cfg, seeds)

    monkeypatch.setattr(caribou.audit, "_fit_heads", recording)
    return shapes


GAMES = {
    "edge": ("edge_influence", "edge"),
    "node": ("node_confidence", "node"),
}


class TestGameEqualsSequentialReference:
    """The game trains its heads in batches; its report must equal that of
    the sequential loop, in which every trial trains its own head."""

    @pytest.mark.parametrize("scorer", ["builtin", "stateful"])
    @pytest.mark.parametrize("train_cfg", [FAST_TRAIN, DP_TRAIN], ids=["plain", "dp"])
    @pytest.mark.parametrize("game", sorted(GAMES))
    def test_report_equals_reference(self, game, train_cfg, scorer, monkeypatch):
        attack, level = GAMES[game]
        ds = dense_block_dataset(seed=5)
        cfg = make_pipeline_cfg(level=level, k=2)
        audit_cfg = AuditConfig(attack=attack, trials=10, seed=3)
        expected = reference_run_mia_game(
            ds, cfg, train_cfg, audit_cfg, flaky_score_fn() if scorer == "stateful" else None
        )
        batches = record_batches(monkeypatch)
        report = run_mia_game(
            ds, cfg, train_cfg, audit_cfg, flaky_score_fn() if scorer == "stateful" else None
        )
        assert report == expected
        # every trial's head has the same shape, so one pass trains them all
        assert [shape[0] for shape in batches] == [10]

    @pytest.mark.parametrize(
        "min_cells, sizes",
        # each edge trial holds its head's 20 x 4 inputs and the 210
        # normalized adjacency entries of its training graph (20 nodes, 95
        # of 136 edges), 290 cells: two fit below 600 cells, and one alone
        # reaches 50 cells and trains alone.  Below 1000 cells the inputs
        # of all ten trials (800 cells) fit, so only the adjacency splits.
        [(600, [2] * 5), (50, [1] * 10), (1000, [3, 3, 3, 1])],
        ids=["batches-of-two", "each-alone", "adjacency-splits"],
    )
    def test_report_equals_reference_when_split(self, min_cells, sizes, monkeypatch):
        monkeypatch.setattr(caribou._pool, "MIN_CELLS", min_cells)
        ds = dense_block_dataset(seed=5)
        cfg = make_pipeline_cfg(level="edge", k=2)
        audit_cfg = AuditConfig(attack="edge_influence", trials=10, seed=3)
        for train_cfg in (FAST_TRAIN, DP_TRAIN):
            expected = reference_run_mia_game(ds, cfg, train_cfg, audit_cfg, flaky_score_fn())
            batches = record_batches(monkeypatch)
            report = run_mia_game(ds, cfg, train_cfg, audit_cfg, flaky_score_fn())
            assert report == expected
            assert [shape[0] for shape in batches] == sizes

    def test_node_game_counts_only_head_inputs(self, monkeypatch):
        # node trials serve on the shared graph, so only their heads' 14 x 4
        # inputs count: all ten fit below 561 cells
        monkeypatch.setattr(caribou._pool, "MIN_CELLS", 10 * 14 * 4 + 1)
        ds = dense_block_dataset(seed=5)
        cfg = make_pipeline_cfg(level="node", k=2)
        audit_cfg = AuditConfig(attack="node_confidence", trials=10, seed=3)
        expected = reference_run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg)
        batches = record_batches(monkeypatch)
        assert run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg) == expected
        assert batches == [(10, 14, 4, 2)]

    def test_node_game_with_differing_class_counts(self, monkeypatch):
        # class 2 has one node, so some training subgraphs lack it and
        # their heads have two classes, not three
        ds = dense_block_dataset(seed=8)
        labels = ds.labels.copy()
        labels[0] = 2
        ds = replace(ds, labels=labels)
        cfg = make_pipeline_cfg(level="node", k=2)
        # with this seed, trials 0, 8 and 11 leave node 0 out
        audit_cfg = AuditConfig(attack="node_confidence", trials=12, seed=6)
        for train_cfg in (FAST_TRAIN, DP_TRAIN):
            expected = reference_run_mia_game(ds, cfg, train_cfg, audit_cfg)
            batches = record_batches(monkeypatch)
            report = run_mia_game(ds, cfg, train_cfg, audit_cfg)
            assert report == expected
            assert [(shape[0], shape[3]) for shape in batches] == [
                (1, 2), (7, 3), (1, 2), (2, 3), (1, 2)
            ]


def random_graph(seed, n, p):
    rng = stream(seed, 0x6A)
    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return build_graph(n, pairs)


def edge_tuples(g):
    return [tuple(e) for e in g.edges.tolist()]


class TestChallengeSamplers:
    """Each sampler equals its tuple-based definition, order included: the
    trial RNG indexes these lists, so their order fixes the challenges."""

    def test_absent_pairs_match_definition(self):
        for seed, n, p in [(0, 0, 0.5), (1, 1, 0.5), (2, 9, 0.0), (3, 9, 1.0), (4, 23, 0.4)]:
            g = random_graph(seed, n, p)
            present = set(edge_tuples(g))
            expected = [pair for pair in itertools.combinations(range(n), 2) if pair not in present]
            got = _absent_pairs(g)
            assert got.shape == (len(expected), 2)
            assert [tuple(r) for r in got.tolist()] == expected

    def test_induced_subgraph_matches_definition(self):
        g = random_graph(5, 30, 0.3)
        rng = stream(5, 1)
        for size in (0, 1, 7, 30):
            nodes = rng.choice(30, size=size, replace=False)
            sub, id_map = _induced_subgraph(g, nodes)
            order = sorted(int(i) for i in nodes)
            position = {orig: new for new, orig in enumerate(order)}
            expected = sorted(
                (position[u], position[v])
                for u, v in edge_tuples(g)
                if u in position and v in position
            )
            assert id_map.tolist() == order
            assert sub.num_nodes == size
            assert edge_tuples(sub) == expected

    @pytest.mark.parametrize("require_min_degree", [False, True])
    def test_edge_subset_matches_definition(self, require_min_degree):
        # sparse enough that the minimum-degree requirement forces redraws
        g = random_graph(6, 16, 0.25)
        for seed in range(5):
            sub = _sample_edge_subset(g, 0.7, stream(seed, 2), require_min_degree)
            rng = stream(seed, 2)
            edges = sorted(edge_tuples(g))
            keep = max(1, round(0.7 * len(edges)))
            while True:
                chosen = rng.choice(len(edges), size=keep, replace=False)
                expected = sorted(edges[i] for i in chosen)
                covered = {w for e in expected for w in e}
                if not require_min_degree or len(covered) == g.num_nodes:
                    break
            assert edge_tuples(sub) == expected


class TestAuditReport:
    def test_jsonl_roundtrip(self, tmp_path):
        report = AuditReport(
            scores=[0.2, 0.9], membership_bits=[0, 1], auc=1.0, discarded_trials=1
        )
        path = tmp_path / "audit.jsonl"
        report.save(path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3
        import json

        summary = json.loads(lines[-1])
        assert summary["summary"] is True
        assert summary["auc"] == 1.0
        assert summary["discarded_trials"] == 1
