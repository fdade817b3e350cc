"""The benchmark's workloads: input generators, the program's own set-up,
the timed job and the checks on every output.

Inputs come from numpy generators seeded by the workload seed; the program
receives only the generated arrays or files.  Every program call goes
through a module attribute (``pipeline.run_pipeline``, not a name imported
here), so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from caribou import accountant, audit, cli, graphs, layers, model, pipeline

ROW_NORM_TOL = 1e-9
C_L = 0.9
K_HOPS = 8
EPSILON = 4.0
DELTA = 1e-5
HEAD_EPOCHS = 100


class Ops:
    """Counts attempted and failed operations and times each operation.

    An operation fails when it raises or when its check reports a problem.
    With ``tracer`` set, each operation is also a root span carrying its
    label, so the per-layer spans below it can be grouped by operation.
    """

    def __init__(self) -> None:
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, label: str, fn, check, count: int = 1):
        """Run ``fn``; return its result (None if it raised) and its time.

        ``count`` is the number of operations the call stands for; each
        problem ``check`` reports fails one of them.
        """
        self.attempted += count
        span = self.tracer.open("op", label=label) if self.tracer else None
        start = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if span is not None:
            self.tracer.close(span)
        if error is None:
            try:
                problems = check(result)
            except Exception as exc:  # noqa: BLE001 - output not as expected
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        if problems:
            self.failed += min(count, len(problems))
            self.problems.extend(f"{label}: {p}" for p in problems)
        return result, elapsed


def _pipeline_config(level: str, seed: int) -> pipeline.PipelineConfig:
    return pipeline.PipelineConfig(
        cgl=layers.LayerParams(c_l=C_L, alpha1=1.0, alpha2=0.0, beta=0.0),
        spec=accountant.PrivacySpec(
            epsilon=EPSILON, delta=DELTA, level=level, k_hops=K_HOPS, gamma=C_L
        ),
        k_hops=K_HOPS,
        seed=seed,
    )


def _plan_problems(plan: dict) -> list[str]:
    """Checks on a noise plan, given as ``NoisePlan.to_dict()``."""
    problems = []
    if not plan["eps_achieved"] <= EPSILON:
        problems.append(f"eps_achieved {plan['eps_achieved']!r} > target {EPSILON!r}")
    if plan["noise_std"] != plan["delta_mp"] * plan["sigma"]:
        problems.append("noise_std != delta_mp * sigma")
    return problems


def _embedding_problems(x: np.ndarray, rows: int) -> list[str]:
    if x.ndim != 2 or x.shape[0] != rows:
        return [f"embedding has shape {x.shape}, expected {rows} rows"]
    if not np.all(np.isfinite(x)):
        return ["embedding has non-finite entries"]
    worst = float(np.linalg.norm(x, axis=1).max())
    if worst > 1.0 + ROW_NORM_TOL:
        return [f"embedding row norm {worst!r} exceeds 1"]
    return []


def _release_problems(arts, rows: int) -> list[str]:
    problems = _plan_problems(arts.plan.to_dict())
    if arts.per_hop_noise_std != arts.plan.delta_mp * arts.plan.sigma:
        problems.append("per_hop_noise_std != delta_mp * sigma")
    return problems + _embedding_problems(arts.x_k_final, rows)


def _setup_dataset(ops: Ops, edges, unique_edges: int, features, labels, split, rng):
    """The program's set-up on generated arrays: ``build_graph``, then
    ``stratified_split`` and ``LabeledDataset``.  Returns (dataset, time)."""
    nodes = labels.shape[0]

    def build():
        g = graphs.build_graph(nodes, edges)
        train, test = graphs.stratified_split(labels, *split, rng)
        return graphs.LabeledDataset(graph=g, features=features, labels=labels,
                                     train_mask=train, test_mask=test)

    def problems(ds) -> list[str]:
        g = ds.graph
        if (g.num_nodes, g.num_edges) != (nodes, unique_edges):
            return [f"graph has {g.num_nodes} nodes / {g.num_edges} edges, "
                    f"expected {nodes} / {unique_edges}"]
        if (ds.train_mask.size, ds.test_mask.size) != split:
            return [f"split has {ds.train_mask.size} / {ds.test_mask.size} nodes"]
        return []

    return ops.run("setup", build, problems)


def _unique_edges(edges: np.ndarray) -> int:
    lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
    return int(np.unique(np.stack([lo, hi], axis=1), axis=0).shape[0])


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@dataclass(frozen=True)
class ReleaseSize:
    nodes: int = 100_000
    classes: int = 4
    dim: int = 64
    edges_per_node: int = 6
    intra_fraction: float = 0.8
    signal: float = 0.3


class Release:
    """release-1e5: release X^(K) of a planted-partition graph, then fit
    and evaluate a non-DP head.  Normalization and the per-hop spmm, noise
    and projection do nearly all the work; it calibrates once and does no
    I/O."""

    setups_per_round = 1

    def __init__(self, seed: int, size: str, out_dir: Path) -> None:
        self.seed = seed
        s = ReleaseSize() if size == "full" else ReleaseSize(nodes=2_000)
        self.size = s
        rng = np.random.default_rng([seed, 1])
        n = s.nodes
        self.labels = rng.integers(0, s.classes, size=n).astype(np.int64)
        by_class = np.argsort(self.labels, kind="stable")
        counts = np.bincount(self.labels, minlength=s.classes)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        m = s.edges_per_node * n
        u = rng.integers(0, n, size=m)
        # the intra-class endpoint is a uniform member of u's class
        pick = (rng.random(m) * counts[self.labels[u]]).astype(np.int64)
        same = by_class[starts[self.labels[u]] + pick]
        v = np.where(rng.random(m) < s.intra_fraction, same, rng.integers(0, n, size=m))
        path = rng.permutation(n)
        edges = np.concatenate([
            np.stack([u, v], axis=1),
            np.stack([path[:-1], path[1:]], axis=1),  # every degree >= 1
        ]).astype(np.int64)
        self.edges = edges[edges[:, 0] != edges[:, 1]]
        self.num_edges = _unique_edges(self.edges)
        centroids = _unit_rows(rng.normal(size=(s.classes, s.dim)))
        noise = rng.normal(scale=1.0 / math.sqrt(s.dim), size=(n, s.dim))
        self.features = _unit_rows(s.signal * centroids[self.labels] + noise)
        self.n_train, self.n_test = n // 6, (2 * n) // 3

    def input_sizes(self) -> dict:
        s = self.size
        return {"nodes": s.nodes, "edge_rows": int(self.edges.shape[0]),
                "edges": self.num_edges, "feature_dim": s.dim, "classes": s.classes,
                "train_nodes": self.n_train, "test_nodes": self.n_test}

    def setup(self, ops: Ops):
        return _setup_dataset(ops, self.edges, self.num_edges, self.features, self.labels,
                              (self.n_train, self.n_test), np.random.default_rng([self.seed, 2]))

    def job(self, ds, ops: Ops) -> float:
        rows = self.size.nodes
        chance = 1.0 / self.size.classes
        cfg = _pipeline_config("edge", self.seed)
        arts, t_release = ops.run("run_pipeline", lambda: pipeline.run_pipeline(ds, cfg),
                                lambda a: _release_problems(a, rows))
        head, t_head = ops.run(
            "train_head",
            lambda: model.train_head(ds.features, arts.x_k_final, ds.labels, ds.train_mask,
                                     model.TrainConfig(epochs=HEAD_EPOCHS), seed=self.seed),
            lambda h: [] if all(np.isfinite(h.loss_history)) else ["non-finite loss"],
        )
        _, t_eval = ops.run(
            "evaluate",
            lambda: model.evaluate(head, ds.features, arts.x_k_final, ds.labels, ds.test_mask),
            lambda acc: [] if acc > chance else [f"test accuracy {acc!r} <= chance"],
        )
        return t_release + t_head + t_eval


@dataclass(frozen=True)
class AuditSize:
    nodes: int = 200
    trials: int = 20
    intra_p: float = 0.9
    inter_p: float = 0.45
    feature_noise: float = 0.3


class Audit:
    """audit-200: an edge-level edge-influence game and a node-level
    node-confidence game on a dense two-block graph.  Every trial retrains
    and every query reruns the pipeline on a small graph, so per-call fixed
    costs dominate; the hop arithmetic is a few percent."""

    setups_per_round = 8

    def __init__(self, seed: int, size: str, out_dir: Path) -> None:
        self.seed = seed
        s = AuditSize() if size == "full" else AuditSize(nodes=40, trials=10)
        self.size = s
        rng = np.random.default_rng([seed, 3])
        half = s.nodes // 2
        self.labels = np.array([0] * half + [1] * (s.nodes - half), dtype=np.int64)
        u, v = np.triu_indices(s.nodes, k=1)
        p = np.where(self.labels[u] == self.labels[v], s.intra_p, s.inter_p)
        keep = rng.random(u.size) < p
        self.edges = np.stack([u[keep], v[keep]], axis=1).astype(np.int64)
        raw = np.eye(2)[self.labels] + s.feature_noise * rng.normal(size=(s.nodes, 2))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        self.features = raw / np.maximum(norms, 1.0)

    def input_sizes(self) -> dict:
        s = self.size
        return {"nodes": s.nodes, "edges": int(self.edges.shape[0]),
                "trials_per_game": s.trials, "games": 2}

    def setup(self, ops: Ops):
        # every node trains, as the audit game expects
        return _setup_dataset(ops, self.edges, len(self.edges), self.features, self.labels,
                              (self.size.nodes, 0), np.random.default_rng([self.seed, 4]))

    def _report_problems(self, report) -> list[str]:
        problems = ["discarded trial"] * report.discarded_trials
        if len(report.scores) + report.discarded_trials != self.size.trials:
            problems.append(f"{len(report.scores)} scores for {self.size.trials} trials")
        if not (math.isfinite(report.auc) and 0.0 <= report.auc <= 1.0):
            problems.append(f"auc {report.auc!r} outside [0, 1]")
        return problems

    def job(self, ds, ops: Ops) -> float:
        wall = 0.0
        head = model.TrainConfig(epochs=HEAD_EPOCHS)
        for attack, level in (("edge_influence", "edge"), ("node_confidence", "node")):
            cfg = _pipeline_config(level, self.seed)
            game = audit.AuditConfig(attack=attack, trials=self.size.trials, seed=self.seed)
            _, elapsed = ops.run(
                f"mia_{attack}", lambda: audit.run_mia_game(ds, cfg, head, game),
                self._report_problems, count=self.size.trials,
            )
            wall += elapsed
        return wall


@dataclass(frozen=True)
class ChainSet:
    name: str
    argv: tuple[str, ...]
    nodes: int
    edges: int


def _chain_set(name: str, argv: tuple[str, ...], chains: int, length: int) -> ChainSet:
    return ChainSet(name, argv, chains * length, chains * (length - 1))


def _call_cli(argv: list[str]):
    """Run ``caribou.cli.main`` in process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _json_output(result) -> tuple[dict | None, list[str]]:
    code, stdout = result
    if code != 0:
        return None, [f"exit code {code}"]
    lines = stdout.strip().splitlines()
    try:
        payload = json.loads(lines[0]) if len(lines) == 1 else None
    except json.JSONDecodeError:
        payload = None
    if not isinstance(payload, dict):
        return None, [f"expected one JSON object on stdout, got {stdout[:80]!r}"]
    return payload, []


def _line_count(path: Path) -> int:
    with path.open() as fh:
        return sum(1 for _ in fh)


def _clear(directory: Path) -> None:
    """Delete earlier outputs, so that a check cannot pass on stale files."""
    for stale in directory.glob("*"):
        stale.unlink()


@dataclass(frozen=True)
class Command:
    label: str
    argv: list[str]
    chain: ChainSet | None = None  # the dataset a ``train`` reads
    out: Path | None = None  # where a ``train`` writes its artifacts


class CliChain:
    """cli-chain: one client runs a closed loop of in-process
    ``caribou.cli.main`` calls on chain datasets read from files.  The
    DP-SGD head and encoder, dataset reading and artifact writing dominate;
    the graphs are small."""

    setups_per_round = 1

    def __init__(self, seed: int, size: str, out_dir: Path) -> None:
        self.seed = seed
        self.root = out_dir / f"cli-chain-{size}-seed{seed}"
        presets = [
            _chain_set(name, ("--preset", name), *dims[:2])
            for name, dims in sorted(cli.CHAIN_PRESETS.items())
        ]
        chains, length = (200, 50) if size == "full" else (8, 50)
        big = _chain_set(
            "file", ("--chains", str(chains), "--length", str(length), "--features", "8"),
            chains, length,
        )
        self.sets = [*presets, big]
        self.commands = [
            self._train("train_chain", chain, level, encoder)
            for chain in presets for level in ("edge", "node") for encoder in (True, False)
        ]
        self.commands += [self._train("train_file", big, level, False)
                          for level in ("edge", "node")]
        self.commands += [
            Command("noise_table", ["noise-table", "--eps", str(EPSILON), "--delta", "1e-3",
                                    "--alpha", "6", "--gamma", str(C_L)]),
            Command("calibrate", ["calibrate", "--eps", str(EPSILON), "--delta", str(DELTA),
                                  "--k", str(K_HOPS), "--gamma", str(C_L),
                                  "--delta-mp", "1.0"]),
        ]
        self.expected_table = accountant.format_noise_table(
            accountant.noise_table(EPSILON, 1e-3, 6.0, C_L)
        )

    def _data_dir(self, chain: ChainSet) -> Path:
        return self.root / "data" / chain.name

    def _train(self, label: str, chain: ChainSet, level: str, encoder: bool) -> Command:
        data = self._data_dir(chain)
        run = f"{chain.name}-{level}-{'enc' if encoder else 'raw'}"
        config = {
            "dataset": {"edges": str(data / "edges.txt"),
                        "features": str(data / "features.csv"),
                        "labels": str(data / "labels.csv")},
            "seed": self.seed,
            "cgl": {"c_l": C_L, "alpha1": 1.0, "alpha2": 0.0, "beta": 0.0},
            "privacy": {"level": level, "epsilon": EPSILON, "delta": DELTA,
                        "k_hops": K_HOPS},
            "train": {"epochs": HEAD_EPOCHS, "learning_rate": 0.5, "hidden_units": 16,
                      "dp": {"clip_norm": 1.0, "noise_mult": 1.0}},
            "encoder": {"enabled": encoder},
        }
        path = self.root / "configs" / f"{run}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(config, indent=2))
        out = self.root / "runs" / run
        out.mkdir(parents=True, exist_ok=True)
        return Command(label, ["train", "--config", str(path), "--out-dir", str(out)],
                       chain, out)

    def input_sizes(self) -> dict:
        return {
            "datasets": {c.name: {"nodes": c.nodes, "edges": c.edges} for c in self.sets},
            "commands_per_pass": len(self.commands),
        }

    def _gen_problems(self, chain: ChainSet, result) -> list[str]:
        payload, problems = _json_output(result)
        if problems:
            return problems
        if (payload.get("nodes"), payload.get("edges")) != (chain.nodes, chain.edges):
            return [f"gen-chain reported {payload.get('nodes')} nodes / "
                    f"{payload.get('edges')} edges"]
        data = self._data_dir(chain)
        expected = {"edges.txt": chain.edges, "features.csv": chain.nodes,
                    "labels.csv": chain.nodes}
        for name, rows in expected.items():
            found = _line_count(data / name) if (data / name).exists() else None
            if found != rows:
                problems.append(f"{name} has {found} rows, expected {rows}")
        return problems

    def setup(self, ops: Ops):
        total = 0.0
        for chain in self.sets:
            data = self._data_dir(chain)
            data.mkdir(parents=True, exist_ok=True)
            _clear(data)
            argv = ["gen-chain", *chain.argv, "--seed", str(self.seed), "--out-dir", str(data)]
            _, elapsed = ops.run("gen_chain", lambda: _call_cli(argv),
                                 lambda r: self._gen_problems(chain, r))
            total += elapsed
        return None, total

    @staticmethod
    def _train_problems(command: Command, result) -> list[str]:
        payload, problems = _json_output(result)
        if problems:
            return problems
        out = command.out
        missing = [n for n in ("embedding.csv", "plan.json", "head.json", "results.json")
                   if not (out / n).exists()]
        if missing:
            return [f"missing artifacts {missing}"]
        if json.loads((out / "results.json").read_text()) != payload:
            problems.append("results.json differs from the printed results")
        problems += _plan_problems(payload["noise_plan"])
        plan = json.loads((out / "plan.json").read_text())
        problems += _plan_problems(plan)
        embedding = np.loadtxt(out / "embedding.csv", delimiter=",", ndmin=2)
        problems += _embedding_problems(embedding, command.chain.nodes)
        return problems

    @staticmethod
    def _calibrate_problems(result) -> list[str]:
        payload, problems = _json_output(result)
        return problems or _plan_problems(payload)

    def _check(self, command: Command):
        if command.label == "noise_table":
            return lambda r: (
                [] if r == (0, self.expected_table) else ["noise-table output differs"]
            )
        if command.label == "calibrate":
            return self._calibrate_problems
        return lambda r: self._train_problems(command, r)

    def job(self, state, ops: Ops) -> float:
        wall = 0.0
        for command in self.commands:
            if command.out is not None:
                _clear(command.out)
            _, elapsed = ops.run(command.label, lambda: _call_cli(command.argv),
                                 self._check(command))
            wall += elapsed
        return wall


WORKLOADS = {"release-1e5": Release, "audit-200": Audit, "cli-chain": CliChain}
