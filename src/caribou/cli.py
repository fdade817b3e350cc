"""Command-line surface: dataset generation, noise calibration, the
noise-scale table, training/evaluation runs, audits, and seed sweeps.

Runs are described by a JSON config; command line flags override config
fields.  The config keys are ``dataset`` (``preset``, or
``edges``/``features``/``labels`` files with optional ``train_count`` and
``test_count``), ``cgl`` (``c_l``, ``alpha1``, ``alpha2``, ``beta``),
``privacy`` (``level``, ``mode``, ``epsilon``, ``delta``, ``k_hops``,
``max_degree``), ``train`` (``epochs``, ``learning_rate``, ``hidden_units``,
``dp``: ``clip_norm``/``noise_mult``), ``encoder.enabled``, ``audit`` (the
fields of ``AuditConfig``; its ``seed`` falls back to the config's),
``sweep`` (a list of objects, each patching the config of one run),
``seed`` and ``output_dir``.  Any other key is an error, and so is a
boolean or a fraction for an integer key, a boolean for a number key, a
non-string for a key that holds a path or a name, a non-boolean
``encoder.enabled``, a ``train_count`` or ``test_count`` below 1 and a
``max_degree`` that is neither ``null`` nor an integer of at least 1.
``train``, ``audit`` and every run of a ``sweep`` read and check all of
these, also the sections they do not use;
``audit`` runs no encoder and rejects ``encoder.enabled: true``.
``privacy.level`` (or ``--level``) is required.  ``train.dp`` is absent,
``null`` or an object with both keys, ``noise_mult`` > 0; node level needs it.
A missing key takes the default of the dataclass it feeds; only the values
that no dataclass defaults are defaulted here: the ``cgl`` coefficients,
``epsilon`` 1.0, ``delta`` 1e-3 and ``seed`` 0.  The CARIBOU_OUT
environment variable overrides the output directory, which a command
creates only when it writes there, after every check has passed.

Calibration composes the K-hop release alone.  A DP-SGD head or encoder
states its cost once, as a Renyi coefficient (``cm_rdp_coeff`` in
``head.json``, ``encoder.dae_rdp_coeff`` in ``results.json``); a node-level
``results.json`` names what no epsilon covers in ``outside_guarantee``.

Exit codes: 0 for success, 1 for a failed run, 2 for a usage error.  Every
error is reported as one JSON line on stderr; ``main`` turns each failure
of a command into that line, with the command name as its ``stage``.

Large hops and heads run in row-block tasks on every usable CPU, the
calling thread included, with numpy's bundled OpenBLAS held to one thread
meanwhile (``caribou._pool`` says why and what to set when numpy bundles
another BLAS).
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
from typing import NamedTuple

from . import _pool
from .accountant import (
    DEFAULT_K_VALUES,
    PrivacySpec,
    calibrate_sigma,
    format_noise_table,
    noise_table,
)
from .audit import AuditConfig, run_mia_game
from .graphs import (
    LabeledDataset,
    _split_counts,
    gen_chain_dataset,
    load_dataset,
    stratified_split,
    write_dataset,
)
from .layers import LayerParams, _check_count
from .model import DpSgdConfig, TrainConfig, evaluate, train_head, train_linear_encoder
from .pipeline import PipelineConfig, _max_degree, run_pipeline, save_artifacts
from .prng import stream

CHAIN_PRESETS = {
    "chain-s": (6, 8, 2, 5),
    "chain-m": (6, 10, 2, 5),
    "chain-l": (6, 15, 2, 5),
    "chain-x": (10, 15, 2, 5),
}

DATASET_FILES = ("edges.txt", "features.csv", "labels.csv")


class CliError(ValueError):
    """A config that cannot be run."""


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


def _as_is(value):
    return value


def _int(value) -> int:
    # bool is a subclass of int, and int() truncates a fraction
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError
    return int(value)


def _float(value) -> float:
    if isinstance(value, bool):
        raise ValueError
    return float(value)


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError
    return value


def _str(value) -> str:
    if not isinstance(value, str):
        raise ValueError
    return value


# Each config object's keys, with the cast that reads each value.  The
# sections of the top level are read by their own tables.
_TOP_LEVEL = {
    **dict.fromkeys(
        ("dataset", "cgl", "privacy", "train", "encoder", "audit", "sweep"), _as_is
    ),
    "seed": _int,
    "output_dir": _str,
}
_DATASET = {
    "preset": _str, "edges": _str, "features": _str, "labels": _str,
    "train_count": _int, "test_count": _int,
}
_PRIVACY = {
    "level": _str, "mode": _str, "epsilon": _float, "delta": _float, "k_hops": _int,
    "max_degree": _max_degree,
}
_TRAIN = {"epochs": _int, "learning_rate": _float, "hidden_units": _int, "dp": _as_is}
_DP = {"clip_norm": _float, "noise_mult": _float}
_ENCODER = {"enabled": _bool}
_AUDIT = {
    "attack": _str, "trials": _int, "seed": _int, "perturb_scale": _float,
    "edge_keep_fraction": _float, "node_keep_fraction": _float,
}
# The values that no dataclass defaults: ``LayerParams`` has no defaults,
# and ``PrivacySpec`` none for its target.
_CGL_DEFAULTS = {"c_l": 0.9, "alpha1": 1.0, "alpha2": 0.0, "beta": 0.0}
_PRIVACY_DEFAULTS = {"epsilon": 1.0, "delta": 1e-3}


def _read(raw, section: str, casts: dict, required: tuple[str, ...] = ()) -> dict:
    """The keys of the config object ``raw``, each cast by ``casts``.

    ``section`` names the object in errors.  A key that ``casts`` lacks, a
    missing ``required`` key and a value its cast rejects raise
    ``CliError``.  Other missing keys are left out, so that each takes the
    default of the dataclass the values are passed to.
    """
    if not isinstance(raw, dict):
        raise CliError(f"{section!r} must be a JSON object, got {raw!r}")
    unknown = [key for key in raw if key not in casts]
    if unknown:
        raise CliError(f"unknown key {unknown[0]!r} in {section!r}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise CliError(f"{section!r} needs {missing[0]!r}")
    values = {}
    for key, value in raw.items():
        try:
            values[key] = casts[key](value)
        except (TypeError, ValueError):
            raise CliError(f"cannot read {section}.{key} from {value!r}") from None
    return values


def _given(args, *names: str) -> dict:
    """The flags among ``names`` given on the command line; the others are
    left to the defaults of the function they are passed to."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _out_dir(config: dict, flag_value: str | None) -> Path:
    """The output directory; the command creates it when it writes there.
    The config's ``output_dir`` is checked even when it is overridden."""
    configured = _read(config, "config", _TOP_LEVEL).get("output_dir")
    return Path(os.environ.get("CARIBOU_OUT") or flag_value or configured or ".")


def _write_json(path: Path, payload: dict) -> None:
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


class _Run(NamedTuple):
    """Every section of a run config, read and checked."""

    dataset: dict
    pipeline: PipelineConfig
    train: TrainConfig
    encoder: bool
    audit: AuditConfig


def _sweep_patches(config: dict) -> list[dict]:
    patches = config.get("sweep", [])
    if not isinstance(patches, list) or not all(isinstance(p, dict) for p in patches):
        raise CliError(f"'sweep' must be a list of JSON objects, got {patches!r}")
    return patches


def _dataset_spec(raw) -> dict:
    spec = _read(raw, "dataset", _DATASET)
    has_preset = "preset" in spec
    has_files = "edges" in spec or "features" in spec or "labels" in spec
    if has_preset == has_files:
        raise CliError("dataset must specify exactly one of 'preset' or file paths")
    if has_preset and spec["preset"] not in CHAIN_PRESETS:
        raise CliError(f"unknown preset {spec['preset']!r}")
    if has_files:
        for key in ("edges", "features", "labels"):
            if key not in spec:
                raise CliError(f"dataset files need '{key}'")
    # with no node to train or to test on, a run would fail after its release
    for key in ("train_count", "test_count"):
        if key in spec:
            _check_count(f"dataset.{key}", spec[key], 1)
    return spec


def _read_run(config: dict) -> _Run:
    """Read and check every section of a run config, also those the command
    does not use, so that no typo passes unnoticed; reads no file."""
    seed = _read(config, "config", _TOP_LEVEL).get("seed", 0)
    _sweep_patches(config)
    dataset = _dataset_spec(config.get("dataset"))
    cgl = _read(config.get("cgl", {}), "cgl", dict.fromkeys(_CGL_DEFAULTS, _float))
    params = LayerParams(**{**_CGL_DEFAULTS, **cgl})
    privacy = _read(config.get("privacy", {}), "privacy", _PRIVACY, required=("level",))
    run_keys = {key: privacy.pop(key) for key in ("mode", "max_degree") if key in privacy}
    spec = PrivacySpec(
        **{**_PRIVACY_DEFAULTS, **privacy},
        gamma=params.c_l if privacy["level"] != "none" else 0.0,
    )
    cfg = PipelineConfig(cgl=params, spec=spec, k_hops=spec.k_hops, seed=seed, **run_keys)
    train = _read(config.get("train", {}), "train", _TRAIN)
    dp = train.pop("dp", None)
    if dp is None and spec.level == "node":
        raise CliError("a node-level run needs 'train.dp': its head reads private rows")
    if dp is not None:
        train["dp"] = DpSgdConfig(**_read(dp, "train.dp", _DP, required=tuple(_DP)))
        if train["dp"].noise_mult == 0:  # the library's noiseless reference step
            raise CliError("train.dp.noise_mult must be positive; 'train.dp': null runs without DP")
    encoder = _read(config.get("encoder", {}), "encoder", _ENCODER)
    audit = _read(config.get("audit", {}), "audit", _AUDIT)
    return _Run(
        dataset=dataset,
        pipeline=cfg,
        train=TrainConfig(**train),
        encoder=encoder.get("enabled", False),
        audit=AuditConfig(**{"seed": seed, **audit}),
    )


def _load(spec: dict, seed: int) -> LabeledDataset:
    """The dataset of a checked ``dataset`` section, split by ``seed``."""
    if "preset" in spec:
        chains, length, classes, dim = CHAIN_PRESETS[spec["preset"]]
        return gen_chain_dataset(chains, length, classes, dim, seed=seed)
    for key in ("edges", "features", "labels"):
        if not Path(spec[key]).exists():
            raise CliError(f"{key} file {spec[key]!r} does not exist")
    dataset = load_dataset(spec["edges"], spec["features"], spec["labels"])
    n_train, n_test = _split_counts(int((dataset.labels >= 0).sum()))
    train, test = stratified_split(
        dataset.labels, spec.get("train_count", n_train), spec.get("test_count", n_test),
        stream(seed, 0x5917),
    )
    return replace(dataset, train_mask=train, test_mask=test)


def _run_train(config: dict, out_dir: Path) -> dict:
    run = _read_run(config)
    cfg, train_cfg = run.pipeline, run.train
    dataset = _load(run.dataset, cfg.seed)

    features = dataset.features
    encoder = None
    if run.encoder:
        encoder = train_linear_encoder(
            features, dataset.labels, dataset.train_mask, train_cfg, cfg.seed
        )
        features = encoder.encode(features)
        dataset = replace(dataset, features=features)

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

    out_dir.mkdir(parents=True, exist_ok=True)
    save_artifacts(artifacts, out_dir / "embedding.csv", out_dir / "plan.json")
    head.save(out_dir / "head.json")
    results = {
        "accuracy_train": acc_train,
        "accuracy_test": acc_test,
        "noise_plan": artifacts.plan.to_dict(),
        "seed": cfg.seed,
    }
    if cfg.spec.level == "node":  # read from private test labels
        results["outside_guarantee"] = ["accuracy_test"]
    if train_cfg.dp is not None:
        results["eps_cm_at_alpha_star"] = head.cm_rdp_coeff * artifacts.plan.alpha_star
    if encoder is not None:
        results["encoder"] = {"dae_rdp_coeff": encoder.dae_rdp_coeff}
    _write_json(out_dir / "results.json", results)
    return results


# Each command returns what ``main`` prints on stdout (a JSON object, or
# text as it is) and, for a run, the output directory for the status line.


def cmd_gen_chain(args) -> tuple[dict, None]:
    if args.preset:
        chains, length, classes, dim = CHAIN_PRESETS[args.preset]
    else:
        chains, length, classes, dim = args.chains, args.length, args.classes, args.features
    dataset = gen_chain_dataset(chains, length, classes, dim, seed=args.seed)
    out = _out_dir({}, args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in DATASET_FILES]
    write_dataset(dataset, *paths)
    return {
        "nodes": dataset.graph.num_nodes,
        "edges": dataset.graph.num_edges,
        "classes": dataset.num_classes,
        "train_nodes": int(dataset.train_mask.size),
        "test_nodes": int(dataset.test_mask.size),
        "files": [str(p) for p in paths],
    }, None


def cmd_calibrate(args) -> tuple[dict, None]:
    spec = PrivacySpec(epsilon=args.eps, delta=args.delta, k_hops=args.k, gamma=args.gamma)
    alphas = [args.alpha] if args.alpha is not None else None
    plan = calibrate_sigma(spec, args.delta_mp, alphas=alphas, **_given(args, "mode"))
    return plan.to_dict(), None


def cmd_noise_table(args) -> tuple[str, None]:
    rows = noise_table(args.eps, args.delta, args.alpha, args.gamma, args.k_values)
    text = format_noise_table(rows, args.digits)
    if not args.out:
        return text, None
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(text)
    return "", None


def _run_config(args) -> tuple[dict, Path]:
    """The config of a ``train`` or ``audit`` run with its flags applied,
    and the run's output directory."""
    config = _load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    for key in ("epsilon", "level", "k_hops"):
        if getattr(args, key, None) is not None:
            config.setdefault("privacy", {})[key] = getattr(args, key)
    return config, _out_dir(config, args.out_dir)


def cmd_train(args) -> tuple[dict, Path]:
    config, out_dir = _run_config(args)
    return _run_train(config, out_dir), out_dir


def cmd_audit(args) -> tuple[dict, Path]:
    config, out_dir = _run_config(args)
    run = _read_run(config)
    if run.encoder:
        raise CliError("encoder.enabled must be false for an audit, which does not run the encoder")
    dataset = _load(run.dataset, run.pipeline.seed)
    report = run_mia_game(dataset, run.pipeline, run.train, run.audit)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.save(out_dir / "audit.jsonl")
    return {"auc": report.auc, "trials": len(report.scores)}, out_dir


def _sweep_one(payload: tuple[int, dict]) -> dict:
    index, config = payload
    results = _run_train(config, Path(config["output_dir"]))
    return {"run": index, "seed": config.get("seed"), **results}


def cmd_sweep(args) -> tuple[dict, None]:
    base = _load_config(args.config)
    out_root = _out_dir(base, args.out_dir)
    overrides = _sweep_patches(base)
    if args.seeds:
        overrides = [{"seed": s} for s in args.seeds]
    if not overrides:
        raise CliError("no sweep overrides: set 'sweep' in the config or pass --seeds")
    jobs = []
    for i, patch in enumerate(overrides):
        config = json.loads(json.dumps(base))
        config.pop("sweep", None)
        for key, value in patch.items():
            if isinstance(value, dict):
                config.setdefault(key, {}).update(value)
            else:
                config[key] = value
        config.setdefault("seed", i)
        config["output_dir"] = str(out_root / f"run_{i:03d}")
        try:
            _read_run(config)
        except ValueError as exc:  # a CliError, or a value a config class rejects
            raise CliError(f"sweep run {i}: {exc}") from None
        jobs.append((i, config))
    # the executor starts all its processes at the first submit, so it
    # gets no more than there are runs
    workers = min(args.workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(_sweep_one, jobs))
    else:
        summaries = [_sweep_one(job) for job in jobs]
    out_root.mkdir(parents=True, exist_ok=True)
    _write_json(out_root / "sweep_summary.json", {"runs": summaries})
    return {"runs": len(summaries), "output_dir": str(out_root)}, None


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
    # left out, it takes the default of calibrate_sigma
    p.add_argument("--mode", choices=["convergent", "linear"], default=argparse.SUPPRESS)
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

    # no abbreviated flags, so that a --seed is not taken for --seeds
    p = sub.add_parser("sweep", help="run independent configs in parallel", allow_abbrev=False)
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", type=int, nargs="*", default=None)
    p.add_argument("--workers", type=_positive_int, default=max(1, _pool.usable_cpus() // 2))
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help exits with 0, a usage error with 2
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        payload, out_dir = args.func(args)
    except Exception as exc:  # noqa: BLE001 - every failure ends as one JSON line
        return _fail(args.command, exc)
    if out_dir is not None:
        status = {
            "command": args.command,
            "wall_time_ms": int(1000 * (time.monotonic() - started)),
            "output_dir": str(out_dir),
        }
        print(json.dumps(status), file=sys.stderr)
    if isinstance(payload, str):
        sys.stdout.write(payload)
    else:
        print(json.dumps(payload, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
