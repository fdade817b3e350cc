import collections
import contextlib
import gc
import importlib
import itertools
import math
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import caribou._pool
import caribou.audit
from caribou.accountant import PrivacySpec
from caribou.audit import (
    _TRIAL_STREAM,
    Attacker,
    AuditConfig,
    AuditReport,
    _absent_pair,
    _induced_subgraph,
    _nudged_features,
    _sample_edge_subset,
    auc,
    edge_influence_score,
    node_confidence_score,
    run_mia_game,
    stream_seed,
)
from caribou.graphs import LabeledDataset, build_graph, degree_stats, gen_chain_dataset
from caribou.layers import LayerParams
from caribou.model import DpSgdConfig, TrainConfig, predict_proba, train_head
from caribou.pipeline import PipelineConfig, run_pipeline
from caribou.prng import stream
from tests.helpers import bench_targets, dense_block_dataset


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


def rankdata_auc(scores, bits):
    """The AUC by ``scipy.stats.rankdata``'s average ranks, as ``auc`` states it."""
    scores, bits = np.asarray(scores, dtype=float), np.asarray(bits)
    n_pos = int(bits.sum())
    u = rankdata(scores)[bits == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * (bits.size - n_pos)))


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


def trained_head(dataset, pipeline_cfg, train_cfg):
    """A head trained on a pipeline run over ``dataset`` by their public
    functions, one head at a time."""
    artifacts = run_pipeline(dataset, pipeline_cfg)
    return train_head(dataset.features, artifacts.x_k_final, dataset.labels,
                      dataset.train_mask, train_cfg, seed=pipeline_cfg.seed)


def reference_answers(head, serve_on, pipeline_cfg, query_seed, queries):
    """Answer each (node, nudge) query from its own release: query i
    (counted from 1) on ``serve_on`` with its nudge applied, with seed
    ``stream_seed(query_seed, i)``."""
    answers = []
    for i, (node, nudge) in enumerate(queries, 1):
        features = _nudged_features(serve_on.features, nudge)
        cfg = replace(pipeline_cfg, seed=stream_seed(query_seed, i))
        x_k = run_pipeline(replace(serve_on, features=features), cfg).x_k_final
        answers.append(predict_proba(head, features[node], x_k[node]))
    return answers


def reference_influence(head, serve_on, pipeline_cfg, query_seed, u, v, scale):
    """The edge-influence attack: u's answer, then u's answer with row v
    nudged by ``scale``."""
    answers = reference_answers(head, serve_on, pipeline_cfg, query_seed,
                                [(u, None), (u, (v, scale))])
    return edge_influence_score(*answers, scale)


def reference_edge_trial(dataset, pipeline_cfg, train_cfg, audit_cfg, rng, trial, attacker):
    training_graph = _sample_edge_subset(
        dataset.graph, audit_cfg.edge_keep_fraction, rng,
        require_min_degree=pipeline_cfg.spec.level != "none",
    )
    train_set = replace(dataset, graph=training_graph)
    cfg = replace(pipeline_cfg, seed=stream_seed(audit_cfg.seed, 2 * trial))
    query_seed = stream_seed(audit_cfg.seed, 2 * trial + 1)
    head = trained_head(train_set, cfg, train_cfg)
    bit = int(rng.integers(0, 2))
    if bit == 1:
        members = training_graph.edges
        u, v = members[int(rng.integers(0, len(members)))].tolist()
    else:
        n = training_graph.num_nodes
        present = set(edge_tuples(training_graph))
        if len(present) == n * (n - 1) // 2:
            return math.nan, 0
        # an ordered pair of distinct nodes, redrawn while it is an edge
        while True:
            a = int(rng.integers(0, n))
            b = int(rng.integers(0, n - 1))
            b = b + 1 if b >= a else b
            u, v = sorted((a, b))
            if (u, v) not in present:
                break
    if attacker is not None:
        answers = reference_answers(head, train_set, cfg, query_seed, attacker.queries((u, v)))
        return float(attacker.score((u, v), answers)), bit
    return reference_influence(head, train_set, cfg, query_seed, u, v, audit_cfg.perturb_scale), bit


def reference_node_trial(dataset, pipeline_cfg, train_cfg, audit_cfg, rng, trial, attacker):
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
    cfg = replace(pipeline_cfg, seed=stream_seed(audit_cfg.seed, 2 * trial))
    query_seed = stream_seed(audit_cfg.seed, 2 * trial + 1)
    head = trained_head(sub_set, cfg, train_cfg)
    bit = int(rng.integers(0, 2))
    if bit == 1:
        node = int(member_nodes[int(rng.integers(0, len(member_nodes)))])
    else:
        outside = np.setdiff1d(np.arange(n), member_nodes)
        if not outside.size:
            return math.nan, 0
        node = int(outside[int(rng.integers(0, len(outside)))])
    # the queries run on the full graph
    if attacker is not None:
        answers = reference_answers(head, dataset, cfg, query_seed, attacker.queries(node))
        return float(attacker.score(node, answers)), bit
    (probs,) = reference_answers(head, dataset, cfg, query_seed, [(node, None)])
    return node_confidence_score(probs), bit


def reference_run_mia_game(dataset, pipeline_cfg, train_cfg, audit_cfg, attacker=None):
    """The game as a sequential loop: each trial trains its own head with
    ``train_head``, then draws its bit and challenge, and each query of
    its attacker reruns ``run_pipeline``."""
    play = reference_edge_trial if audit_cfg.attack == "edge_influence" else reference_node_trial
    scores, bits, discarded = [], [], 0
    for trial in range(audit_cfg.trials):
        rng = stream(audit_cfg.seed, _TRIAL_STREAM, trial)
        score, bit = play(dataset, pipeline_cfg, train_cfg, audit_cfg, rng, trial, attacker)
        if not math.isfinite(score):
            discarded += 1
            continue
        scores.append(score)
        bits.append(bit)
    return AuditReport(scores=scores, membership_bits=bits, auc=auc(scores, bits),
                       discarded_trials=discarded)


def flaky_attacker():
    """A stateful attacker with one query: the challenge's last node, with
    the row of its first node nudged.  Every third score is NaN; the
    others count calls and add the answer's first probability, so the
    report depends on the order of the calls and on the answers."""
    calls = itertools.count()

    def queries(challenge):
        nodes = np.atleast_1d(challenge).tolist()
        return [(nodes[-1], (nodes[0], 0.5))]

    def score(challenge, answers):
        return math.nan if next(calls) % 3 == 0 else next(calls) + float(answers[0][0])

    return Attacker(queries, score)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_score_rejected(self, bad):
        with pytest.raises(ValueError, match="scores must be finite"):
            auc([0.1, bad, 0.3, 0.2], [0, 1, 1, 0])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                # few distinct values, so most draws hold ties
                st.one_of(
                    st.sampled_from([-1.5, 0.0, 0.25, 0.25000000000000006, 3.0]),
                    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
                ),
                st.integers(0, 1),
            ),
            min_size=2,
            max_size=60,
        ).filter(lambda pairs: 0 < sum(b for _, b in pairs) < len(pairs))
    )
    def test_equals_rankdata_formula(self, pairs):
        scores, bits = zip(*pairs)
        assert auc(scores, bits) == rankdata_auc(scores, bits)


class TestEdgeInfluenceScore:
    def test_no_message_path_scores_zero(self):
        # K = 0: predictions never see other rows
        ds = dense_block_dataset(num_nodes=8, seed=1)
        cfg = make_pipeline_cfg(level="none", k=0)
        head = trained_head(ds, cfg, FAST_TRAIN)
        for u, v in [(0, 3), (2, 7), (5, 1)]:
            score = reference_influence(head, ds, cfg, 5, u, v, 1e-3)
            assert score == pytest.approx(0.0, abs=1e-9)

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
        cfg = make_pipeline_cfg(level="none", k=1)
        head = trained_head(ds, cfg, FAST_TRAIN)
        connected = reference_influence(head, ds, cfg, 2, 0, 1, 1e-3)
        disconnected = reference_influence(head, ds, cfg, 2, 0, 2, 1e-3)
        assert connected > disconnected

    def test_score_stable_under_scale_halving(self):
        ds = dense_block_dataset(num_nodes=10, seed=3)
        cfg = make_pipeline_cfg(level="none", k=1)
        head = trained_head(ds, cfg, FAST_TRAIN)
        full = reference_influence(head, ds, cfg, 4, 0, 1, 1e-3)
        half = reference_influence(head, ds, cfg, 4, 0, 1, 5e-4)
        assert half == pytest.approx(full, rel=0.10)


class TestNodeConfidenceScore:
    def test_uniform_model(self):
        assert node_confidence_score(np.array([0.25, 0.25, 0.25, 0.25])) == pytest.approx(0.25)

    def test_bounds(self):
        rng = stream(63, 0)
        for _ in range(100):
            logits = rng.normal(size=4)
            probs = np.exp(logits) / np.exp(logits).sum()
            score = node_confidence_score(probs)
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
        constant = Attacker(lambda challenge: [], lambda challenge, answers: 1.0)
        report = run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg, constant)
        assert report.auc == 0.5

    def test_nonfinite_scores_discarded_and_counted(self):
        ds = dense_block_dataset(seed=5)
        cfg = make_pipeline_cfg(level="none", k=1)
        audit_cfg = AuditConfig(attack="edge_influence", trials=12, seed=3)
        calls = itertools.count()

        def flaky(challenge, answers):
            return math.nan if next(calls) % 3 == 0 else float(next(calls))

        report = run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg, Attacker(lambda c: [], flaky))
        assert report.discarded_trials > 0
        assert len(report.scores) + report.discarded_trials == 12

    def test_infinite_scores_discarded_before_auc(self):
        # auc rejects a non-finite score; the game drops them first
        ds = dense_block_dataset(seed=5)
        cfg = make_pipeline_cfg(level="none", k=1)
        audit_cfg = AuditConfig(attack="edge_influence", trials=12, seed=3)
        calls = itertools.count()

        def unbounded(challenge, answers):
            i = next(calls)
            return {0: math.inf, 1: -math.inf}.get(i % 4, float(i))

        report = run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg, Attacker(lambda c: [], unbounded))
        assert report.discarded_trials == 6
        assert report.scores == [2.0, 3.0, 6.0, 7.0, 10.0, 11.0]
        assert report.auc == rankdata_auc(report.scores, report.membership_bits)

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

    def test_trials_minimum_enforced(self):
        with pytest.raises(ValueError):
            AuditConfig(trials=5)

    @pytest.mark.parametrize("trials", [10.0, 12.5, True])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ValueError, match="trials"):
            AuditConfig(trials=trials)

    @pytest.mark.parametrize(
        "node, nudge", [(-1, None), (20, None), (0, (-1, 1.0)), (0, (20, 1.0))],
        ids=["negative-node", "node-n", "negative-nudge", "nudge-n"],
    )
    def test_query_outside_the_graph_rejected(self, node, nudge, monkeypatch):
        # numpy alone would answer a query of node -1 with node n - 1
        ds = dense_block_dataset(seed=5)
        assert ds.graph.num_nodes == 20
        cfg = make_pipeline_cfg(level="none", k=1)
        audit_cfg = AuditConfig(attack="node_confidence", trials=10, seed=2)
        attacker = Attacker(lambda c: [(0, None), (node, nudge)], lambda c, answers: 1.0)
        releases = count_releases(monkeypatch)
        with pytest.raises(ValueError, match=r"outside \[0, 20\)"):
            run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg, attacker)
        # every declared query is checked before the first trial's release
        assert releases == []

    @pytest.mark.parametrize(
        "node, nudge",
        [(1.0, None), (True, None), (0, (1.0, 1.0)), (0, (1, math.nan)), (0, (1, math.inf))],
        ids=["float-node", "bool-node", "float-nudge-row", "nan-scale", "infinite-scale"],
    )
    def test_malformed_query_rejected(self, node, nudge, monkeypatch):
        # each got past a range check alone: a float id fails in numpy's
        # indexing, True reads row 1 as a (1, d) block, a NaN scale fails in
        # the release and an infinite one warns in the projection first
        ds = dense_block_dataset(seed=5)
        cfg = make_pipeline_cfg(level="none", k=1)
        audit_cfg = AuditConfig(attack="node_confidence", trials=10, seed=2)
        attacker = Attacker(lambda c: [(0, None), (node, nudge)], lambda c, answers: 1.0)
        releases = count_releases(monkeypatch)
        with pytest.raises(ValueError, match="not an integer id or has a non-finite scale"):
            run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg, attacker)
        assert releases == []

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


class TestTracedFunctionsRunOnTheCallingThread:
    """Workers run only private helpers and numpy, so the bench's tracer,
    which wraps public functions and keeps one span stack, sees every call
    on the calling thread."""

    @pytest.mark.parametrize("train_cfg", [FAST_TRAIN, DP_TRAIN], ids=["plain", "dp"])
    @pytest.mark.parametrize("game", sorted(GAMES))
    def test_every_bench_target_runs_on_the_calling_thread(self, game, train_cfg, monkeypatch):
        # 2 CPUs, and pools from one cell on with blocks of 4 rows, so the
        # releases and every head, each trained alone, lend tasks to a worker
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: 2)
        monkeypatch.setattr(caribou._pool, "MIN_CELLS", 1)
        monkeypatch.setattr(caribou._pool, "BLOCK_ROWS", 4)
        pools = []
        thread_pool = caribou._pool.thread_pool

        @contextlib.contextmanager
        def recorded_pool(cells):
            with thread_pool(cells) as pool:
                pools.append(pool is not None)
                yield pool

        monkeypatch.setattr(caribou._pool, "thread_pool", recorded_pool)
        calls = []
        lock = threading.Lock()

        def wrap(name, fn):
            def wrapper(*args, **kwargs):
                with lock:
                    calls.append((name, threading.current_thread() is threading.main_thread()))
                return fn(*args, **kwargs)
            return wrapper

        targets = {
            f"{module}.{name}": getattr(importlib.import_module(f"caribou.{module}"), name)
            for module, names in bench_targets().items()
            for name in names
        }
        wrappers = {id(fn): wrap(name, fn) for name, fn in targets.items()}
        # every binding of a target in the package, as the bench installs them
        for key, module in list(sys.modules.items()):
            if key == "caribou" or key.startswith("caribou."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        monkeypatch.setattr(module, attr, wrappers[id(value)])
        attack, level = GAMES[game]
        report = caribou.audit.run_mia_game(
            dense_block_dataset(seed=5), make_pipeline_cfg(level=level, k=2), train_cfg,
            AuditConfig(attack=attack, trials=10, seed=3),
        )
        assert len(report.scores) + report.discarded_trials == 10
        assert {"audit.run_mia_game", "pipeline.run_pipeline", "prng.stream",
                "model.predict_proba"} <= {name for name, _ in calls}
        assert pools and all(pools)
        assert [name for name, on_main in calls if not on_main] == []


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
            ds, cfg, train_cfg, audit_cfg, flaky_attacker() if scorer == "stateful" else None
        )
        batches = record_batches(monkeypatch)
        report = run_mia_game(
            ds, cfg, train_cfg, audit_cfg, flaky_attacker() if scorer == "stateful" else None
        )
        assert report == expected
        # every trial's head has the same shape, so one pass trains them all
        assert [shape[0] for shape in batches] == [10]

    @pytest.mark.parametrize(
        "min_cells, sizes",
        # only the stacked inputs count, 20 x 4 = 80 cells an edge trial:
        # two fit below 170 cells (160), three do not (240), and one alone
        # reaches 50 cells and trains alone.  Below 1000 cells all ten fit
        # (800): a training graph's normalized adjacency and the rows a
        # trial holds for its answers do not count.
        [(170, [2] * 5), (50, [1] * 10), (1000, [10])],
        ids=["batches-of-two", "each-alone", "adjacency-ignored"],
    )
    def test_report_equals_reference_when_split(self, min_cells, sizes, monkeypatch):
        monkeypatch.setattr(caribou._pool, "MIN_CELLS", min_cells)
        ds = dense_block_dataset(seed=5)
        cfg = make_pipeline_cfg(level="edge", k=2)
        audit_cfg = AuditConfig(attack="edge_influence", trials=10, seed=3)
        for train_cfg in (FAST_TRAIN, DP_TRAIN):
            expected = reference_run_mia_game(ds, cfg, train_cfg, audit_cfg, flaky_attacker())
            batches = record_batches(monkeypatch)
            report = run_mia_game(ds, cfg, train_cfg, audit_cfg, flaky_attacker())
            assert report == expected
            assert [shape[0] for shape in batches] == sizes

    @pytest.mark.parametrize("min_cells, sizes", [(561, [10]), (560, [9, 1])],
                             ids=["all-fit", "one-over"])
    def test_node_game_counts_held_releases(self, min_cells, sizes, monkeypatch):
        # held releases do not count: a node trial holds only its head's
        # 14 x 4 inputs, 56 cells, and the rows its one answer reads, so
        # all ten fit below 561 cells and nine below 560
        monkeypatch.setattr(caribou._pool, "MIN_CELLS", min_cells)
        ds = dense_block_dataset(seed=5)
        cfg = make_pipeline_cfg(level="node", k=2)
        audit_cfg = AuditConfig(attack="node_confidence", trials=10, seed=3)
        expected = reference_run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg)
        batches = record_batches(monkeypatch)
        assert run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg) == expected
        assert batches == [(size, 14, 4, 2) for size in sizes]

    @pytest.mark.parametrize("min_cells, sizes", [(801, [10]), (800, [9, 1])],
                             ids=["all-fit", "one-over"])
    def test_edge_game_counts_held_releases(self, min_cells, sizes, monkeypatch):
        # neither held releases nor training graphs count: an edge trial of
        # the built-in attacker holds its head's 20 x 4 inputs, 80 cells,
        # and the rows of its first and its nudged answer, but not its
        # training graph, so all ten fit below 801 cells and nine below 800
        monkeypatch.setattr(caribou._pool, "MIN_CELLS", min_cells)
        ds = dense_block_dataset(seed=5)
        cfg = make_pipeline_cfg(level="edge", k=2)
        audit_cfg = AuditConfig(attack="edge_influence", trials=10, seed=3)
        expected = reference_run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg)
        batches = record_batches(monkeypatch)
        assert run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg) == expected
        assert batches == [(size, 20, 4, 2) for size in sizes]

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


class TestTrialsHoldOnlyTheirRows:
    """Between its release and its scoring a trial holds, for each query,
    the feature row and the release row its answer reads, and no graph."""

    @pytest.mark.parametrize("game", sorted(GAMES))
    def test_no_trial_holds_its_training_graph(self, game, monkeypatch):
        # below 170 cells, batches of two edge trials (20 x 4 inputs) or of
        # three node trials (14 x 4), so batches are yielded inside the loop
        monkeypatch.setattr(caribou._pool, "MIN_CELLS", 170)
        ds = dense_block_dataset(seed=5)
        graphs = []
        for name in ("_sample_edge_subset", "_induced_subgraph"):
            def recording(*args, _original=getattr(caribou.audit, name), **kwargs):
                out = _original(*args, **kwargs)
                graphs.append(weakref.ref(out[0] if isinstance(out, tuple) else out))
                return out

            monkeypatch.setattr(caribou.audit, name, recording)
        batches = caribou.audit._released_batches
        sizes = []

        def checked(*args):
            for batch in batches(*args):
                gc.collect()
                assert graphs and [ref for ref in graphs if ref() is not None] == []
                for released in batch:
                    assert len(released.rows) == len(released.queries) > 0
                    for row in (a for pair in released.rows for a in pair):
                        # a copy of one row, not a view of an (n, d) release
                        assert row.shape == (ds.features.shape[1],) and row.base is None
                sizes.append(len(batch))
                yield batch

        monkeypatch.setattr(caribou.audit, "_released_batches", checked)
        attack, level = GAMES[game]
        report = run_mia_game(ds, make_pipeline_cfg(level=level, k=2), FAST_TRAIN,
                              AuditConfig(attack=attack, trials=10, seed=3))
        assert sizes == ([2] * 5 if game == "edge" else [3, 3, 3, 1])
        assert len(report.scores) + report.discarded_trials == 10


def count_releases(monkeypatch):
    """Record the number of releases of every ``run_pipeline`` call the
    game makes, through the name the game calls it by."""
    original = caribou.audit.run_pipeline
    releases = []

    def counting(dataset, cfg, seeds=None, features=None):
        releases.append(1 if seeds is None else len(seeds))
        return original(dataset, cfg, seeds, features)

    monkeypatch.setattr(caribou.audit, "run_pipeline", counting)
    return releases


class TestReleasesAndQueries:
    """Every release of a game runs inside ``run_pipeline``, some of them
    in one call, and each is one the attacker declared."""

    @pytest.mark.parametrize(
        "game, per_trial, calls",
        # edge: the training release, the first query and the nudged query
        # in one call; node: the training release alone and the first
        # queries of the one batch in one call
        [("edge", 3, 10), ("node", 2, 11)],
    )
    def test_every_release_runs_in_run_pipeline(self, game, per_trial, calls, monkeypatch):
        attack, level = GAMES[game]
        ds = dense_block_dataset(seed=5)
        cfg = make_pipeline_cfg(level=level, k=2)
        audit_cfg = AuditConfig(attack=attack, trials=10, seed=3)
        expected = reference_run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg)
        releases = count_releases(monkeypatch)
        assert run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg) == expected
        assert sum(releases) == per_trial * audit_cfg.trials
        assert len(releases) == calls

    @pytest.mark.parametrize("game", sorted(GAMES))
    def test_custom_attacker_releases_in_the_same_calls(self, game, monkeypatch):
        # one query a trial: released with an edge trial's training release,
        # and with the other node trials' queries in the batch's one call
        attack, level = GAMES[game]
        ds = dense_block_dataset(seed=5)
        cfg = make_pipeline_cfg(level=level, k=2)
        audit_cfg = AuditConfig(attack=attack, trials=10, seed=3)
        expected = reference_run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg, flaky_attacker())
        releases = count_releases(monkeypatch)
        assert run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg, flaky_attacker()) == expected
        assert releases == ([2] * 10 if game == "edge" else [1] * 10 + [10])

    @pytest.mark.parametrize(
        "game, sizes",
        # below 600 cells: the 20 x 4 inputs of seven edge trials fit (560
        # cells), of eight do not (640); the 14 x 4 inputs of all ten node
        # trials fit (560 cells)
        [("edge", [7, 3]), ("node", [10])],
    )
    def test_no_release_ahead_for_a_custom_attacker(self, game, sizes, monkeypatch):
        monkeypatch.setattr(caribou._pool, "MIN_CELLS", 600)
        attack, level = GAMES[game]
        ds = dense_block_dataset(seed=5)
        cfg = make_pipeline_cfg(level=level, k=2)
        audit_cfg = AuditConfig(attack=attack, trials=10, seed=3)

        never_queries = Attacker(lambda c: [], lambda challenge, answers: float(np.sum(challenge)))

        expected = reference_run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg, never_queries)
        releases = count_releases(monkeypatch)
        batches = record_batches(monkeypatch)
        assert run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg, never_queries) == expected
        # each trial's training release, alone: no query's release with an
        # edge trial's, no batched call for the node trials
        assert releases == [1] * audit_cfg.trials
        assert [shape[0] for shape in batches] == sizes

    @pytest.mark.parametrize("game", sorted(GAMES))
    def test_trial_without_a_non_member_makes_no_release(self, game, monkeypatch):
        # every training graph is the whole triangle (3 of 3 edges kept, or
        # all 3 nodes), so a trial whose bit is 0 has no non-member to draw
        attack, _ = GAMES[game]
        ds = LabeledDataset(graph=build_graph(3, [(0, 1), (0, 2), (1, 2)]),
                            features=np.eye(3)[:, :2], labels=np.array([0, 1, 0]),
                            train_mask=np.arange(3))
        cfg = make_pipeline_cfg(level="none", k=1)
        audit_cfg = AuditConfig(attack=attack, trials=10, seed=3, edge_keep_fraction=0.9,
                                node_keep_fraction=0.9)
        # only members are left, so the AUC is undefined, as in the reference
        with pytest.raises(ValueError, match="both membership classes"):
            reference_run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg)
        challenges = []

        def counting(challenge, answers):
            challenges.append(challenge)
            return 1.0

        for attacker in (Attacker(lambda c: [], counting), None):
            releases = count_releases(monkeypatch)
            with pytest.raises(ValueError, match="both membership classes") as info:
                run_mia_game(ds, cfg, FAST_TRAIN, audit_cfg, attacker)
            scored = len(challenges)
            assert 0 < scored < audit_cfg.trials
            # the error names the cause and the fix
            assert (f"{audit_cfg.trials - scored} trials were discarded for lack of a "
                    "non-member") in str(info.value)
            assert f"smaller {game}_keep_fraction" in str(info.value)
            assert "and 0 for a non-finite score" in str(info.value)
            # a trial with a challenge makes its releases as in any game;
            # one without makes none
            assert releases == ([1] * scored if attacker else
                                [3] * scored if game == "edge" else [1] * scored + [scored])


def random_graph(seed, n, p):
    rng = stream(seed, 0x6A)
    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return build_graph(n, pairs)


def edge_tuples(g):
    return [tuple(e) for e in g.edges.tolist()]


class TestChallengeSamplers:
    """Each sampler equals its tuple-based definition, order included: the
    trial RNG indexes these lists, so their order fixes the challenges."""

    def test_absent_pair_draw_is_uniform_over_absent_pairs(self):
        # 5 nodes, 4 edges: 6 absent pairs
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
        present = set(edge_tuples(g))
        absent = [p for p in itertools.combinations(range(5), 2) if p not in present]
        rng = stream(8, 3)
        draws = 6000
        counts = collections.Counter(_absent_pair(g, rng) for _ in range(draws))
        assert set(counts) == set(absent)
        expected = draws / len(absent)
        chi2 = sum((counts[p] - expected) ** 2 / expected for p in absent)
        # the 0.999 quantile of chi-square with 5 degrees of freedom
        assert chi2 < 20.52

    def test_absent_pair_without_absent_pairs_is_none(self):
        rng = stream(9, 3)
        for n in (0, 1, 2, 6):
            complete = build_graph(n, list(itertools.combinations(range(n), 2)))
            assert _absent_pair(complete, rng) is None
        assert _absent_pair(build_graph(2, []), rng) == (0, 1)

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
