"""The benchmark's own test: every workload at toy size, untraced and traced.

Run from the root of the checkout:  python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "embed_s": "s", "peak_rss_mb": "MB",
                    "error_rate": "ratio"}
SEED = 5


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result


def record_of(workload: str, trace: int) -> dict:
    path = ROOT / ".bench_out" / f"{workload}-toy-seed{SEED}-trace{trace}.json"
    return json.loads(path.read_text())


def assert_reports(result: dict, manifest_metrics: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in manifest_metrics}
    for m in manifest_metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_of(run_bench(workload, 0))
    assert_reports(result, MANIFEST["end_to_end"])
    record = record_of(workload, 0)
    for name, unit in END_TO_END_UNITS.items():
        assert record["all_metrics"][name]["unit"] == unit
        assert record["all_metrics"][name]["value"] is not None
    assert record["all_metrics"]["error_rate"]["value"] == 0
    env = record["environment"]
    assert env["seed"] == SEED and env["inputs"] and env["nproc"] >= 1
    assert env["blas"]["threads"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_exact_counts(workload):
    first = result_of(run_bench(workload, 1))
    assert_reports(first, MANIFEST["per_layer"])
    record = record_of(workload, 1)
    for name, (unit, _) in spans.PER_LAYER.items():
        assert record["all_metrics"][name] == {
            "value": record["all_metrics"][name]["value"], "unit": unit
        }
        assert record["all_metrics"][name]["value"] is not None, name
    assert "trace.overhead_s" in record["all_metrics"]
    assert record["all_metrics"]["error_rate"]["value"] == 0
    # the second traced run compares its counts with the first one's
    second = result_of(run_bench(workload, 1))
    for name in spans.EXACT:
        if name in first["metrics"]:
            assert second["metrics"][name] == first["metrics"][name]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_target_is_absent_not_fatal(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    from caribou import audit, cli, pipeline  # noqa: F401 - cli imports run_mia_game

    original = pipeline.run_pipeline
    monkeypatch.delattr(audit, "run_mia_game")
    tracer = spans.Tracer()
    with spans.Instrumentation(tracer) as inst:
        assert pipeline.run_pipeline is not original
    assert pipeline.run_pipeline is original
    assert inst.missing == ["audit.run_mia_game"]
    values = spans.layer_metrics(tracer.spans, inst.missing)
    assert values["audit.run_mia_game_s"] is None
    assert values["audit.trial_ms"] is None
    assert values["graphs.build_graph_calls"] == 0
