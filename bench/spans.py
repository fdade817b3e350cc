"""In-memory span recorder and the timing wrappers of the traced run.

The wrappers are installed from the benchmark's own files, at every binding
a caller uses: ``caribou.pipeline.normalized_adjacency`` and
``caribou.graphs.normalized_adjacency`` are the same function object, and
both names are replaced, so calls made inside ``run_pipeline``,
``run_mia_game`` and ``cli.main`` are timed without editing the program.
Each span keeps its parent; a span's self time is its duration minus that
of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field

#: Public functions timed per layer; the layer name is the module name.
TARGETS: dict[str, tuple[str, ...]] = {
    "graphs": ("build_graph", "normalized_adjacency", "load_dataset", "write_dataset"),
    "layers": ("layer_forward", "project_rows"),
    "pipeline": ("run_pipeline", "sample_gaussian_matrix", "save_artifacts"),
    "accountant": ("calibrate_sigma", "sensitivity_for_level", "noise_table"),
    "prng": ("stream",),
    "model": ("train_head", "train_linear_encoder", "evaluate", "predict_proba"),
    "audit": ("run_mia_game",),
    "cli": ("main",),
}

#: Per-layer metrics derived from the spans, beyond each target's
#: ``<layer>.<function>_s`` (inclusive time) and ``_calls`` (exact count):
#: unit, and the function they are measured at.
DERIVED: dict[str, tuple[str, str]] = {
    "layers.bytes_per_hop": ("B", "layers.layer_forward"),
    "pipeline.self_s": ("s", "pipeline.run_pipeline"),
    "model.epoch_ms": ("ms", "model.train_head"),
    "audit.trial_ms": ("ms", "audit.run_mia_game"),
    "audit.self_s": ("s", "audit.run_mia_game"),
    "audit.discarded_trials": ("count", "audit.run_mia_game"),
    "cli.train_chain_ms": ("ms", "cli.main"),
    "cli.train_file_ms": ("ms", "cli.main"),
    "cli.noise_table_ms": ("ms", "cli.main"),
    "cli.calibrate_ms": ("ms", "cli.main"),
    "cli.self_s": ("s", "cli.main"),
}

#: Every per-layer metric of the traced run: its unit and the function it
#: is measured at.  A metric is absent when that function no longer exists.
PER_LAYER: dict[str, tuple[str, str]] = {
    **{
        f"{layer}.{fn}{suffix}": (unit, f"{layer}.{fn}")
        for layer, names in TARGETS.items()
        for fn in names
        for suffix, unit in (("_s", "s"), ("_calls", "count"))
    },
    **DERIVED,
}

#: Metrics that must repeat exactly between runs of the same code and seed.
EXACT = tuple(name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "B"))


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()


def _bytes_per_hop(adj, x) -> int:
    """Bytes one spmm moves, computed from array sizes: A-hat's values,
    column indices and row pointers are read once, X is read once and the
    product is written once.  Cache misses are not counted."""
    adj_bytes = adj.data.nbytes + adj.indices.nbytes + adj.indptr.nbytes
    return int(adj_bytes + 2 * x.shape[0] * x.shape[1] * x.dtype.itemsize)


#: What a span records from its call's arguments and from its result.
_ARG_ATTRS = {
    "layers.layer_forward": lambda a: {"bytes": _bytes_per_hop(a["adj"], a["x_k"])},
    "model.train_head": lambda a: {"epochs": a["cfg"].epochs},
    "audit.run_mia_game": lambda a: {"trials": a["audit_cfg"].trials},
}
_RESULT_ATTRS = {
    "audit.run_mia_game": lambda r: {"discarded": r.discarded_trials},
}


def _wrap(tracer: Tracer, name: str, fn):
    from_args = _ARG_ATTRS.get(name)
    from_result = _RESULT_ATTRS.get(name)
    signature = inspect.signature(fn) if from_args else None

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        attrs = {}
        if from_args:
            try:
                attrs = from_args(signature.bind(*args, **kwargs).arguments)
            except (AttributeError, KeyError, TypeError):
                pass  # a changed signature leaves the derived metric absent
        span = tracer.open(name, **attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if from_result:
            try:
                span.attrs.update(from_result(result))
            except AttributeError:
                pass
        return result

    return timed


class Instrumentation:
    """Installs the wrappers around ``targets`` into every loaded
    ``caribou`` module and restores the original bindings on exit.  A
    target that no longer exists is skipped and listed in ``missing``."""

    def __init__(self, tracer: Tracer, targets: dict[str, tuple[str, ...]] = TARGETS) -> None:
        self.tracer = tracer
        self.targets = targets
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        self.missing = []
        wrappers = {}
        for layer, names in self.targets.items():
            try:
                module = importlib.import_module(f"caribou.{layer}")
            except ImportError:
                module = None
            for fn_name in names:
                fn = getattr(module, fn_name, None)
                if fn is None:
                    self.missing.append(f"{layer}.{fn_name}")
                    continue
                wrappers[id(fn)] = _wrap(self.tracer, f"{layer}.{fn_name}", fn)
        modules = [m for key, m in sys.modules.items()
                   if key == "caribou" or key.startswith("caribou.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def layer_metrics(spans: list[Span], missing: list[str]) -> dict[str, float | None]:
    """Per-layer metrics of one round (one set-up plus one timed job).

    ``spans`` holds only that round's spans.  A metric whose target
    function is missing is None (absent).
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    children: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.duration

    def self_total(name: str) -> float:
        return sum(s.duration - children.get(s.id, 0.0) for s in by_name.get(name, ()))

    def per_unit(name: str, key: str, scale: float) -> float:
        units = sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))
        return scale * total(name) / units if units else 0.0

    forward = by_name.get("layers.layer_forward", [])
    spans_by_id = {s.id: s for s in spans}

    def cli_median_ms(label: str) -> float:
        times = [
            s.duration for s in by_name.get("cli.main", ())
            if s.parent is not None and spans_by_id[s.parent].attrs.get("label") == label
        ]
        return 1000.0 * statistics.median(times) if times else 0.0

    values: dict[str, float | None] = {}
    for layer, names in TARGETS.items():
        for fn in names:
            values[f"{layer}.{fn}_s"] = total(f"{layer}.{fn}")
            values[f"{layer}.{fn}_calls"] = calls(f"{layer}.{fn}")
    values.update({
        # None when the arguments no longer expose the arrays it is computed from
        "layers.bytes_per_hop": (
            None if any("bytes" not in s.attrs for s in forward)
            else sum(s.attrs["bytes"] for s in forward) / len(forward) if forward else 0.0
        ),
        "pipeline.self_s": self_total("pipeline.run_pipeline"),
        "model.epoch_ms": per_unit("model.train_head", "epochs", 1000.0),
        "audit.trial_ms": per_unit("audit.run_mia_game", "trials", 1000.0),
        "audit.self_s": self_total("audit.run_mia_game"),
        "audit.discarded_trials": sum(
            s.attrs.get("discarded", 0) for s in by_name.get("audit.run_mia_game", ())
        ),
        "cli.train_chain_ms": cli_median_ms("train_chain"),
        "cli.train_file_ms": cli_median_ms("train_file"),
        "cli.noise_table_ms": cli_median_ms("noise_table"),
        "cli.calibrate_ms": cli_median_ms("calibrate"),
        "cli.self_s": self_total("cli.main"),
    })
    for metric, (_, source) in PER_LAYER.items():
        if source in missing:
            values[metric] = None
    return values
