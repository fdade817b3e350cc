"""Command-line surface: dataset generation, noise calibration, the
noise-scale table, training/evaluation runs, audits, and seed sweeps.

Runs are described by a JSON config; command line flags override config
fields.  The config keys read here are ``dataset`` (``preset``, or
``edges``/``features``/``labels`` files with optional ``train_count`` and
``test_count``), ``cgl`` (``c_l``, ``alpha1``, ``alpha2``, ``beta``),
``privacy`` (``level``, ``mode``, ``epsilon``, ``delta``, ``k_hops``,
``max_degree``), ``train`` (``epochs``, ``learning_rate``, ``hidden_units``,
``dp``: ``clip_norm``/``noise_mult``), ``encoder.enabled``, ``budgets``
(``eps_dae_at_alpha``, ``eps_cm_at_alpha``), ``audit`` (see ``cmd_audit``),
``sweep``, ``seed`` and ``output_dir``.  The CARIBOU_OUT environment
variable overrides the output directory.

Exit codes: 0 for success, 1 for a failed run, 2 for a usage error.  Every
error is reported as one JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import _pool
from .accountant import (
    DEFAULT_K_VALUES,
    CalibrationError,
    ModuleBudgets,
    PrivacySpec,
    calibrate_sigma,
    format_noise_table,
    noise_table,
)
from .audit import AuditConfig, run_mia_game
from .graphs import (
    LabeledDataset,
    gen_chain_dataset,
    load_dataset,
    stratified_split,
    write_dataset,
)
from .layers import LayerParams
from .model import DpSgdConfig, TrainConfig, evaluate, train_head, train_linear_encoder
from .pipeline import PipelineConfig, run_pipeline, save_artifacts
from .prng import stream

CHAIN_PRESETS = {
    "chain-s": (6, 8, 2, 5),
    "chain-m": (6, 10, 2, 5),
    "chain-l": (6, 15, 2, 5),
    "chain-x": (10, 15, 2, 5),
}

DATASET_FILES = ("edges.txt", "features.csv", "labels.csv")


class CliError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


def _fail(stage: str, exc: BaseException) -> int:
    record = {"error": type(exc).__name__, "stage": stage, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)
    return 1


class _JsonErrorParser(argparse.ArgumentParser):
    """Reports usage errors as one JSON line on stderr and exits with 2.

    Subparsers are built from the parser's own class, so they inherit this.
    """

    def error(self, message: str):
        _fail("usage", argparse.ArgumentError(None, f"{self.prog}: {message}"))
        self.exit(2)


def _out_dir(config: dict, flag_value: str | None) -> Path:
    env = os.environ.get("CARIBOU_OUT")
    chosen = env or flag_value or config.get("output_dir") or "."
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _dataset_from_config(config: dict) -> LabeledDataset:
    spec = config.get("dataset")
    if not isinstance(spec, dict):
        raise CliError("dataset", "config needs a 'dataset' object")
    seed = int(config.get("seed", 0))
    has_preset = "preset" in spec
    has_files = "edges" in spec or "features" in spec or "labels" in spec
    if has_preset == has_files:
        raise CliError(
            "dataset", "dataset must specify exactly one of 'preset' or file paths"
        )
    if has_preset:
        name = spec["preset"]
        if name not in CHAIN_PRESETS:
            raise CliError("dataset", f"unknown preset {name!r}")
        chains, length, classes, dim = CHAIN_PRESETS[name]
        return gen_chain_dataset(chains, length, classes, dim, seed=seed)
    for key in ("edges", "features", "labels"):
        if key not in spec:
            raise CliError("dataset", f"dataset files need '{key}'")
        if not Path(spec[key]).exists():
            raise CliError("dataset", f"{key} file {spec[key]!r} does not exist")
    dataset = load_dataset(spec["edges"], spec["features"], spec["labels"])
    n_labeled = int((dataset.labels >= 0).sum())
    n_train = int(spec.get("train_count", max(1, n_labeled // 6)))
    n_test = int(spec.get("test_count", (2 * n_labeled) // 3))
    train, test = stratified_split(dataset.labels, n_train, n_test, stream(seed, 0x5917))
    return replace(dataset, train_mask=train, test_mask=test)


def _layer_params(config: dict) -> LayerParams:
    cgl = config.get("cgl", {})
    return LayerParams(
        c_l=float(cgl.get("c_l", 0.9)),
        alpha1=float(cgl.get("alpha1", 1.0)),
        alpha2=float(cgl.get("alpha2", 0.0)),
        beta=float(cgl.get("beta", 0.0)),
    )


def _privacy_spec(config: dict, params: LayerParams) -> tuple[PrivacySpec, str]:
    privacy = config.get("privacy", {})
    level = privacy.get("level", "none")
    mode = privacy.get("mode", "convergent")
    spec = PrivacySpec(
        epsilon=float(privacy.get("epsilon", 1.0)),
        delta=float(privacy.get("delta", 1e-3)),
        level=level,
        k_hops=int(privacy.get("k_hops", 1)),
        gamma=params.c_l if level != "none" else 0.0,
    )
    return spec, mode


def _train_config(config: dict) -> TrainConfig:
    train = config.get("train", {})
    dp = train.get("dp")
    dp_cfg = None
    if dp:
        dp_cfg = DpSgdConfig(
            clip_norm=float(dp["clip_norm"]), noise_mult=float(dp["noise_mult"])
        )
    return TrainConfig(
        epochs=int(train.get("epochs", 300)),
        learning_rate=float(train.get("learning_rate", 0.5)),
        hidden_units=int(train.get("hidden_units", 16)),
        dp=dp_cfg,
    )


def _budgets(config: dict) -> ModuleBudgets:
    raw = config.get("budgets", {})
    return ModuleBudgets(
        eps_dae_at_alpha=float(raw.get("eps_dae_at_alpha", 0.0)),
        eps_cm_at_alpha=float(raw.get("eps_cm_at_alpha", 0.0)),
    )


def _pipeline_config(config: dict) -> tuple[PipelineConfig, TrainConfig]:
    params = _layer_params(config)
    spec, mode = _privacy_spec(config, params)
    cfg = PipelineConfig(
        cgl=params,
        spec=spec,
        k_hops=spec.k_hops,
        seed=int(config.get("seed", 0)),
        mode=mode,
        budgets=_budgets(config),
        max_degree=config.get("privacy", {}).get("max_degree"),
    )
    return cfg, _train_config(config)


def _run_train(config: dict, out_dir: Path) -> dict:
    dataset = _dataset_from_config(config)
    cfg, train_cfg = _pipeline_config(config)

    features = dataset.features
    encoder_cfg = config.get("encoder", {})
    encoder_result = None
    if encoder_cfg.get("enabled"):
        encoder = train_linear_encoder(
            features, dataset.labels, dataset.train_mask, train_cfg, cfg.seed
        )
        features = encoder.encode(features)
        dataset = replace(dataset, features=features)
        encoder_result = {"dae_rdp_coeff": encoder.dae_rdp_coeff}

    artifacts = run_pipeline(dataset, cfg)
    head = train_head(
        features,
        artifacts.x_k_final,
        dataset.labels,
        dataset.train_mask,
        train_cfg,
        seed=cfg.seed,
    )
    acc_train = evaluate(head, features, artifacts.x_k_final, dataset.labels, dataset.train_mask)
    acc_test = evaluate(head, features, artifacts.x_k_final, dataset.labels, dataset.test_mask)

    save_artifacts(artifacts, out_dir / "embedding.csv", out_dir / "plan.json")
    head.save(out_dir / "head.json")
    results = {
        "accuracy_train": acc_train,
        "accuracy_test": acc_test,
        "noise_plan": artifacts.plan.to_dict(),
        "seed": cfg.seed,
    }
    if train_cfg.dp is not None:
        results["eps_cm_at_alpha_star"] = head.eps_cm(artifacts.plan.alpha_star)
    if encoder_result is not None:
        results["encoder"] = encoder_result
    _write_json(out_dir / "results.json", results)
    return results


def cmd_gen_chain(args) -> int:
    if args.preset:
        chains, length, classes, dim = CHAIN_PRESETS[args.preset]
    else:
        chains, length, classes, dim = args.chains, args.length, args.classes, args.features
    try:
        dataset = gen_chain_dataset(chains, length, classes, dim, seed=args.seed)
        out = _out_dir({}, args.out_dir)
        paths = [out / name for name in DATASET_FILES]
        write_dataset(dataset, *paths)
    except Exception as exc:  # noqa: BLE001
        return _fail("gen-chain", exc)
    print(
        json.dumps(
            {
                "nodes": dataset.graph.num_nodes,
                "edges": dataset.graph.num_edges,
                "classes": dataset.num_classes,
                "train_nodes": int(dataset.train_mask.size),
                "test_nodes": int(dataset.test_mask.size),
                "files": [str(p) for p in paths],
            }
        )
    )
    return 0


def cmd_calibrate(args) -> int:
    try:
        spec = PrivacySpec(
            epsilon=args.eps,
            delta=args.delta,
            level="edge",
            k_hops=args.k,
            gamma=args.gamma,
        )
        budgets = ModuleBudgets(
            eps_dae_at_alpha=args.eps_dae, eps_cm_at_alpha=args.eps_cm
        )
        alphas = [args.alpha] if args.alpha is not None else None
        plan = calibrate_sigma(
            spec, args.delta_mp, budgets, mode=args.mode, alphas=alphas
        )
    except (CalibrationError, ValueError) as exc:
        return _fail("calibrate", exc)
    print(json.dumps(plan.to_dict(), sort_keys=True))
    return 0


def cmd_noise_table(args) -> int:
    try:
        rows = noise_table(args.eps, args.delta, args.alpha, args.gamma, args.k_values)
        text = format_noise_table(rows, args.digits)
    except (CalibrationError, ValueError) as exc:
        return _fail("noise-table", exc)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _apply_overrides(config: dict, args) -> dict:
    config = json.loads(json.dumps(config))
    if args.seed is not None:
        config["seed"] = args.seed
    if getattr(args, "epsilon", None) is not None:
        config.setdefault("privacy", {})["epsilon"] = args.epsilon
    if getattr(args, "level", None) is not None:
        config.setdefault("privacy", {})["level"] = args.level
    if getattr(args, "k_hops", None) is not None:
        config.setdefault("privacy", {})["k_hops"] = args.k_hops
    return config


def cmd_train(args) -> int:
    started = time.monotonic()
    try:
        config = _apply_overrides(_load_config(args.config), args)
        out_dir = _out_dir(config, args.out_dir)
        results = _run_train(config, out_dir)
    except Exception as exc:  # noqa: BLE001
        return _fail("train", exc)
    status = {
        "command": "train",
        "wall_time_ms": int(1000 * (time.monotonic() - started)),
        "output_dir": str(out_dir),
    }
    print(json.dumps(status), file=sys.stderr)
    print(json.dumps(results, sort_keys=True))
    return 0


def cmd_audit(args) -> int:
    started = time.monotonic()
    try:
        config = _apply_overrides(_load_config(args.config), args)
        out_dir = _out_dir(config, args.out_dir)
        dataset = _dataset_from_config(config)
        cfg, train_cfg = _pipeline_config(config)
        audit_raw = config.get("audit", {})
        audit_cfg = AuditConfig(
            attack=audit_raw.get("attack", "edge_influence"),
            trials=int(audit_raw.get("trials", 20)),
            seed=int(audit_raw.get("seed", config.get("seed", 0))),
            perturb_scale=float(audit_raw.get("perturb_scale", 1e-3)),
            edge_keep_fraction=float(audit_raw.get("edge_keep_fraction", 0.7)),
            node_keep_fraction=float(audit_raw.get("node_keep_fraction", 0.7)),
        )
        report = run_mia_game(dataset, cfg, train_cfg, audit_cfg)
        report.save(out_dir / "audit.jsonl")
    except Exception as exc:  # noqa: BLE001
        return _fail("audit", exc)
    status = {
        "command": "audit",
        "wall_time_ms": int(1000 * (time.monotonic() - started)),
        "output_dir": str(out_dir),
    }
    print(json.dumps(status), file=sys.stderr)
    print(json.dumps({"auc": report.auc, "trials": len(report.scores)}))
    return 0


def _sweep_one(payload: tuple[int, dict]) -> dict:
    index, config = payload
    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    results = _run_train(config, out_dir)
    return {"run": index, "seed": config.get("seed"), **results}


def cmd_sweep(args) -> int:
    try:
        base = _load_config(args.config)
        out_root = _out_dir(base, args.out_dir)
        overrides = base.get("sweep")
        if args.seeds:
            overrides = [{"seed": s} for s in args.seeds]
        if not overrides:
            raise CliError("sweep", "no sweep overrides: set 'sweep' in the config or pass --seeds")
        jobs = []
        for i, patch in enumerate(overrides):
            config = json.loads(json.dumps(base))
            config.pop("sweep", None)
            for key, value in patch.items():
                if isinstance(value, dict):
                    config.setdefault(key, {}).update(value)
                else:
                    config[key] = value
            config.setdefault("seed", int(base.get("seed", 0)) + i)
            config["output_dir"] = str(out_root / f"run_{i:03d}")
            jobs.append((i, config))
        # the executor starts all its processes at the first submit, so it
        # gets no more than there are runs
        workers = min(args.workers, len(jobs))
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                summaries = list(pool.map(_sweep_one, jobs))
        else:
            summaries = [_sweep_one(job) for job in jobs]
        _write_json(out_root / "sweep_summary.json", {"runs": summaries})
    except Exception as exc:  # noqa: BLE001
        return _fail("sweep", exc)
    print(json.dumps({"runs": len(summaries), "output_dir": str(out_root)}))
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _JsonErrorParser(
        prog="caribou",
        description="Differentially private multi-layer graph message passing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-chain", help="write a synthetic chain dataset")
    p.add_argument("--preset", default=None, choices=sorted(CHAIN_PRESETS))
    p.add_argument("--chains", type=int, default=6)
    p.add_argument("--length", type=int, default=8)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--features", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_gen_chain)

    p = sub.add_parser("calibrate", help="calibrate the noise multiplier")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--delta-mp", type=float, required=True)
    p.add_argument("--alpha", type=float, default=None, help="pin one Renyi order")
    p.add_argument("--mode", choices=["convergent", "linear"], default="convergent")
    p.add_argument("--eps-dae", type=float, default=0.0)
    p.add_argument("--eps-cm", type=float, default=0.0)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("noise-table", help="emit the K-sweep noise-scale CSV")
    p.add_argument("--eps", type=float, default=4.0)
    p.add_argument("--delta", type=float, default=1e-3)
    p.add_argument("--alpha", type=float, default=6.0)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--k-values", type=int, nargs="+", default=list(DEFAULT_K_VALUES))
    p.add_argument("--digits", choices=["4g", "full"], default="4g")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_noise_table)

    p = sub.add_parser("train", help="run the pipeline and train the head")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--level", choices=["edge", "node", "none"], default=None)
    p.add_argument("--k-hops", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("audit", help="run the membership-inference game")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("sweep", help="run independent configs in parallel")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", type=int, nargs="*", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=_positive_int, default=max(1, _pool.usable_cpus() // 2))
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help exits with 0, a usage error with 2
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
