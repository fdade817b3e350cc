"""Benchmark of the caribou program: three workloads, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload release-1e5 --seed 1 --seconds 36 --trace 0

With ``--trace 0`` the run times the workload with tracing off and reports
the end-to-end metrics named in ``BENCHMARK.json``.  With ``--trace 1`` it
alternates untraced and traced rounds (one set-up plus one timed job each)
and reports the per-layer metrics, medians over the traced rounds; the
traced wall time minus the untraced one is the tracing overhead.  Every
operation's output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
results file with an environment record, and for traced runs a spans file,
are written to ``.bench_out/``.

Times are reported at a fixed host speed.  The shared host this benchmark
runs on drifts in speed by tens of percent over minutes, which no length of
run averages out.  So a fixed reference computation, owned by the benchmark,
is timed before every round and after the last.  Each time measured in a
round is multiplied by ``REF_SECONDS`` over the mean of the reference times
taken just before and just after that round, and the run reports medians of
these: the time the program would take on a host on which the reference
takes ``REF_SECONDS``.  The medians of the measured times and the reference
time are printed and saved too (``raw_metrics``, ``host.*``).

Seed ``HELD_OUT_SEED`` is kept out of development runs; use it only to
confirm a claim made on other seeds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# BLAS threads are fixed before numpy loads: at most the two cores of the
# reference machine, and one so that dense products do not contend.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
HELD_OUT_SEED = 20_260_917
SIZES = ("full", "toy")
#: Reported times are scaled to a host on which one reference sample takes
#: this long (about what it takes on the 2-vCPU machine the bounds were set on).
REF_SECONDS = 0.08
#: Units of the metrics that are times, and so are scaled.
TIME_UNITS = ("s", "ms")


class Reference:
    """A fixed computation that measures the host's current speed.

    It mixes the three kinds of work the program does, in about equal
    parts: interpreter work building dicts of sets (as graph construction
    does), a loop of small dense products, and streaming over arrays larger
    than the L2 cache.  It uses only Python and numpy, never the program,
    so no change to the program changes it.  The garbage collector is off
    while it runs, so the program's live objects do not change its time.
    """

    REPEATS = 3  # one sample is the median of this many timings

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._pairs = [tuple(p) for p in rng.integers(0, 5_000, size=(36_000, 2)).tolist()]
        self._mat = rng.normal(size=(64, 64))
        self._vec = rng.normal(size=1_000_000)
        self._out = np.empty_like(self._vec)
        self.samples: list[float] = []

    def _time_once(self) -> float:
        import numpy as np

        start = time.perf_counter()
        adj: dict[int, set[int]] = {}
        for a, b in self._pairs:
            adj.setdefault(min(a, b), set()).add(max(a, b))
        x = self._mat
        for _ in range(190):
            x = np.tanh(0.01 * (x @ self._mat))
        for _ in range(20):
            np.multiply(self._vec, 1.0001, out=self._out)
            np.add(self._out, self._vec, out=self._out)
        return time.perf_counter() - start

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(_median(self._time_once() for _ in range(self.REPEATS)))
        finally:
            if enabled:
                gc.enable()

    def factors(self) -> list[float]:
        """Factor to the reference host speed of each round, in order: the
        round after sample i has REF_SECONDS over the mean of samples i and
        i + 1."""
        s = self.samples
        return [2.0 * REF_SECONDS / (a + b) for a, b in zip(s, s[1:])]


def _load_program():
    """Import caribou from this checkout's ``src``; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "caribou" / "__init__.py").is_file():
        print(f"no program source at {src / 'caribou'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import caribou

    if Path(caribou.__file__).resolve().parent != (src / "caribou").resolve():
        print(f"caribou imported from {caribou.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return caribou


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    """SHA-256 over the program's and the benchmark's source files."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "caribou").rglob("*.py"))
    files += sorted(Path(__file__).resolve().parent.glob("*.py"))
    for path in files:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args, inputs: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"library": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "platform": platform.platform(),
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
    }


def _median(values) -> float:
    return float(statistics.median(list(values)))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, ops, ref: Reference, seconds: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics with tracing off: medians over rounds of set-up
    and timed job, repeated for ``seconds``, at the reference host speed and
    as measured; also every round's times, for the results file.  One timer
    stays on ``run_pipeline``: ``embed_s`` is its time per job, how long
    data owners wait for the released X^(K)."""
    import spans

    tracer = spans.Tracer()
    setups, walls, embeds = [], [], []  # setups holds one list per round
    with spans.Instrumentation(tracer, {"pipeline": ("run_pipeline",)}) as inst:
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            state = None  # frees the previous inputs before the next round
            ref.sample()
            setups.append([])
            for _ in range(wl.setups_per_round):
                state = None
                state, elapsed = wl.setup(ops)
                setups[-1].append(elapsed)
            first = len(tracer.spans)
            walls.append(wl.job(state, ops))
            embeds.append(sum(s.duration for s in tracer.spans[first:]))
        state = None
    ref.sample()

    def times(factors: list[float]) -> dict:
        return {
            "setup_s": (_median(t * f for ts, f in zip(setups, factors) for t in ts), "s"),
            "wall_s": (_median(w * f for w, f in zip(walls, factors)), "s"),
            "embed_s": (None if inst.missing
                        else _median(e * f for e, f in zip(embeds, factors)), "s"),
        }

    metrics = {**times(ref.factors()), "peak_rss_mb": (_peak_rss_mb(), "MB"),
               "rounds": (len(walls), "count")}
    samples = {"setup_s": setups, "wall_s": walls, "embed_s": embeds, "ref_s": ref.samples}
    return metrics, times([1.0] * len(walls)), samples


def _setup_and_job(wl, ops) -> float:
    state, _ = wl.setup(ops)
    return wl.job(state, ops)


def measure_traced(wl, ops, ref: Reference, seconds: float,
                   spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics: medians over traced rounds, with the overhead, at
    the reference host speed and as measured."""
    import spans

    tracer = spans.Tracer()
    # each entry is (round number, value); round i follows reference sample i
    rounds, traced, untraced = [], [], []
    missing: list[str] = []
    start = time.perf_counter()
    # rounds alternate untraced and traced, beginning untraced, until both
    # kinds ran and ``seconds`` passed
    while not traced or time.perf_counter() - start < seconds:
        ref.sample()
        number = len(ref.samples) - 1
        if len(untraced) == len(traced):
            untraced.append((number, _setup_and_job(wl, ops)))
            continue
        first = len(tracer.spans)
        ops.tracer = tracer
        with spans.Instrumentation(tracer) as inst:
            traced.append((number, _setup_and_job(wl, ops)))
        ops.tracer = None
        missing = inst.missing
        rounds.append((number, spans.layer_metrics(tracer.spans[first:], missing)))
    ref.sample()
    with spans_path.open("w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                 "start": s.start, "end": s.end, "attrs": s.attrs}) + "\n")
    for name in spans.EXACT:
        values = [r[name] for _, r in rounds]
        if None not in values and len(set(values)) > 1:
            ops.attempted += 1
            ops.failed += 1
            ops.problems.append(f"{name} differs between rounds: {values}")

    def metrics(factors: list[float]) -> dict:
        def median(pairs, unit: str):
            if any(v is None for _, v in pairs):
                return None
            scaled = unit in TIME_UNITS
            return _median(v * factors[i] if scaled else v for i, v in pairs)

        out = {name: (median([(i, r[name]) for i, r in rounds], unit), unit)
               for name, (unit, _) in spans.PER_LAYER.items()}
        traced_s, untraced_s = median(traced, "s"), median(untraced, "s")
        out["trace.overhead_s"] = (traced_s - untraced_s, "s")
        out["trace.wall_s"] = (traced_s, "s")
        out["trace.untraced_wall_s"] = (untraced_s, "s")
        return out

    measured = metrics([1.0] * len(ref.samples))
    scaled = metrics(ref.factors())
    scaled["trace.rounds"] = (len(rounds), "count")
    scaled["trace.missing_targets"] = (len(missing), "count")
    return scaled, {k: v for k, v in measured.items() if v[1] in TIME_UNITS}


def check_counts_repeat(metrics: dict, key: str, ops) -> None:
    """The exact counts of a traced run must equal those of any earlier
    traced run of the same source, workload, size and seed."""
    import spans

    counts = {name: metrics[name][0] for name in spans.EXACT}
    path = OUT_DIR / f"counts-{key}.json"
    ops.attempted += 1
    if path.is_file():
        earlier = json.loads(path.read_text())
        differ = sorted(n for n in counts if earlier.get(n) != counts[n])
        if differ:
            ops.failed += 1
            ops.problems.append(f"counts differ from the earlier traced run: {differ}")
        return
    path.write_text(json.dumps(counts, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="toy shrinks every input, for the benchmark's own test")
    args = parser.parse_args(argv)

    manifest_path = ROOT / "BENCHMARK.json"
    if not manifest_path.is_file():
        print(f"missing {manifest_path}", file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text())
    _load_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.environ.pop("CARIBOU_OUT", None)  # the CLI's outputs stay in .bench_out
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.size}-seed{args.seed}"

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, OUT_DIR)
    ops = workloads.Ops()
    ref = Reference()
    samples = {}
    if args.trace:
        metrics, raw_metrics = measure_traced(wl, ops, ref, args.seconds,
                                              OUT_DIR / f"{tag}-spans.jsonl")
        check_counts_repeat(metrics, f"{tag}-{_source_digest()[:16]}", ops)
        reported = manifest["per_layer"]
    else:
        metrics, raw_metrics, samples = measure(wl, ops, ref, args.seconds)
        reported = manifest["end_to_end"]
    metrics["host.ref_s"] = (_median(ref.samples), "s")
    metrics["host.ref_samples"] = (len(ref.samples), "count")
    metrics["error_rate"] = (ops.failed / ops.attempted, "ratio")

    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        measured = raw_metrics.get(name, (None,))[0]
        note = "" if measured is None else f"  (measured {measured:.6g})"
        print(f"{args.workload:12s} {name:36s} {shown:>14s} {unit}{note}")
    for problem in ops.problems:
        print(f"FAILED {problem}", file=sys.stderr)

    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
            for m in reported
            if metrics.get(m["name"], (None,))[0] is not None
        },
    }
    record = {"environment": environment(args, wl.input_sizes()), "result": result,
              "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw_metrics.items()},
              "samples": samples, "problems": ops.problems}
    path = OUT_DIR / f"{tag}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
