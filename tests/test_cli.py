import json

import numpy as np
import pytest

import caribou._pool
from caribou import cli
from caribou.accountant import noise_table
from caribou.cli import main
from caribou.graphs import load_dataset, write_dataset
from tests.helpers import dense_block_dataset


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(path, **overrides):
    config = {
        "dataset": {"preset": "chain-s"},
        "cgl": {"c_l": 0.9, "alpha1": 1.0, "alpha2": 0.0, "beta": 0.0},
        "privacy": {"level": "none", "k_hops": 8},
        "train": {"epochs": 200, "learning_rate": 0.5, "hidden_units": 16},
        "seed": 0,
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    path.write_text(json.dumps(config))
    return path


def write_path_config(tmp_path, edges="0 1\n1 2\n2 3\n", features="1,0\n0,1\n0,1\n0.5,0.5\n",
                      labels="0,0\n1,0\n2,1\n3,1\n"):
    """A train config on a 4-node path read from the given file texts."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "edges.txt").write_text(edges)
    (data / "features.csv").write_text(features)
    (data / "labels.csv").write_text(labels)
    cfg = write_config(
        tmp_path / "cfg.json",
        privacy={"level": "edge", "k_hops": 2, "epsilon": 4.0},
        output_dir=str(tmp_path / "out"),
    )
    config = json.loads(cfg.read_text())
    config["cgl"]["c_l"] = 0.9
    config["dataset"] = {name: str(data / f"{name}.{ext}") for name, ext in
                         (("edges", "txt"), ("features", "csv"), ("labels", "csv"))}
    config["dataset"].update(train_count=2, test_count=2)
    cfg.write_text(json.dumps(config))
    return cfg


class TestGenChain:
    def test_preset_chain_s(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["gen-chain", "--preset", "chain-s", "--seed", "1", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        info = json.loads(out)
        assert info["nodes"] == 48
        ds = load_dataset(tmp_path / "edges.txt", tmp_path / "features.csv", tmp_path / "labels.csv")
        assert ds.graph.num_nodes == 48

    def test_preset_chain_l(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["gen-chain", "--preset", "chain-l", "--seed", "1", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        info = json.loads(out)
        assert info["nodes"] == 90
        assert info["edges"] == 6 * 14

    def test_custom_degenerate(self, tmp_path, capsys):
        code, out, _ = run_cli(
            [
                "gen-chain", "--chains", "1", "--length", "1", "--classes", "1",
                "--features", "1", "--seed", "0", "--out-dir", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["nodes"] == 1

    def test_unknown_preset_fails(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["gen-chain", "--preset", "chain-z", "--out-dir", str(tmp_path)], capsys
        )
        assert code == 2  # argparse rejects the choice
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert "--preset" in json.loads(lines[0])["message"]

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(["--help"], capsys)
        assert code == 0
        assert out.startswith("usage: caribou")

    def test_env_var_overrides_out_dir(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("CARIBOU_OUT", str(target))
        code, _, _ = run_cli(
            ["gen-chain", "--preset", "chain-s", "--seed", "1", "--out-dir", str(tmp_path / "flag")],
            capsys,
        )
        assert code == 0
        assert (target / "edges.txt").exists()


class TestCalibrate:
    def test_reference_k1(self, capsys):
        code, out, _ = run_cli(
            [
                "calibrate", "--eps", "4", "--delta", "1e-3", "--k", "1",
                "--gamma", "0.9", "--delta-mp", "1", "--alpha", "6",
            ],
            capsys,
        )
        assert code == 0
        plan = json.loads(out)
        assert plan["sigma"] == pytest.approx(1.07, rel=0.01)

    def test_linear_k128(self, capsys):
        code, out, _ = run_cli(
            [
                "calibrate", "--eps", "4", "--delta", "1e-3", "--k", "128",
                "--gamma", "0.9", "--delta-mp", "1", "--alpha", "6", "--mode", "linear",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["sigma"] == pytest.approx(12.11, rel=0.01)

    def test_zero_sensitivity(self, capsys):
        code, out, _ = run_cli(
            [
                "calibrate", "--eps", "4", "--delta", "1e-3", "--k", "2",
                "--gamma", "0.9", "--delta-mp", "0",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["sigma"] == 0.0

    def test_infeasible_exits_nonzero_with_json_error(self, capsys):
        code, _, err = run_cli(
            [
                "calibrate", "--eps", "0.05", "--delta", "1e-3", "--k", "2",
                "--gamma", "0.9", "--delta-mp", "1",
            ],
            capsys,
        )
        assert code == 1
        record = json.loads(err.strip().split("\n")[-1])
        assert record["error"] == "CalibrationError"
        assert "floor" in record["message"]

    @pytest.mark.parametrize("eps", ["inf", "nan"])
    def test_non_finite_epsilon_is_one_line_error(self, capsys, eps):
        code, out, err = run_cli(
            [
                "calibrate", "--eps", eps, "--delta", "1e-3", "--k", "2",
                "--gamma", "0.9", "--delta-mp", "1",
            ],
            capsys,
        )
        assert code == 1 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ValueError"


class TestNoiseTable:
    def test_default_rows(self, capsys):
        code, out, _ = run_cli(["noise-table"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "K,sigma_linear,sigma_convergent"
        assert len(lines) == 9
        ks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ks == [1, 2, 4, 8, 16, 32, 64, 128]

    def test_k8_row_values(self, capsys):
        code, out, _ = run_cli(["noise-table"], capsys)
        row = [line for line in out.strip().split("\n") if line.startswith("8,")][0]
        _, lin, conv = row.split(",")
        assert float(lin) == pytest.approx(3.04, rel=0.01)
        assert float(conv) == pytest.approx(3.00, rel=0.05)

    def test_k1_entries_equal(self, capsys):
        code, out, _ = run_cli(["noise-table"], capsys)
        row = [line for line in out.strip().split("\n") if line.startswith("1,")][0]
        _, lin, conv = row.split(",")
        assert lin == conv

    def test_full_digits_parse_back_exactly(self, capsys):
        code, out, _ = run_cli(["noise-table", "--digits", "full"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "K,sigma_linear,sigma_convergent"
        parsed = [
            (int(k), float(lin), float(conv))
            for k, lin, conv in (line.split(",") for line in lines[1:])
        ]
        assert parsed == noise_table(4.0, 1e-3, 6.0, 0.9)

    def test_write_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "table.csv"
        code, out, _ = run_cli(["noise-table", "--out", str(out_file)], capsys)
        assert code == 0
        assert out == ""
        assert out_file.read_text().startswith("K,sigma_linear")


class TestTrain:
    def test_non_private_chain_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
        code, out, _ = run_cli(["train", "--config", str(cfg)], capsys)
        assert code == 0
        results = json.loads(out)
        assert results["accuracy_test"] == 1.0
        written = json.loads((tmp_path / "out" / "results.json").read_text())
        assert written == results
        assert (tmp_path / "out" / "embedding.csv").exists()
        assert (tmp_path / "out" / "plan.json").exists()

    def test_k0_equals_features_only_baseline(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            privacy={"level": "none", "k_hops": 0},
            output_dir=str(tmp_path / "out"),
        )
        code, out, _ = run_cli(["train", "--config", str(cfg)], capsys)
        assert code == 0
        accuracy = json.loads(out)["accuracy_test"]

        from caribou.graphs import gen_chain_dataset
        from caribou.model import TrainConfig, evaluate, train_head

        ds = gen_chain_dataset(6, 8, 2, 5, seed=0)
        head = train_head(
            ds.features, ds.features, ds.labels, ds.train_mask,
            TrainConfig(epochs=200, learning_rate=0.5, hidden_units=16), seed=0,
        )
        baseline = evaluate(head, ds.features, ds.features, ds.labels, ds.test_mask)
        assert accuracy == baseline

    def test_k0_noise_plan_is_noiseless(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            privacy={"level": "none", "k_hops": 0},
            output_dir=str(tmp_path / "out"),
        )
        code, _, _ = run_cli(["train", "--config", str(cfg)], capsys)
        assert code == 0
        plan = json.loads((tmp_path / "out" / "results.json").read_text())["noise_plan"]
        assert plan["sigma"] == 0
        assert plan["alpha_star"] > 1

    def test_k0_rejected_at_edge_level(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            privacy={"level": "edge", "k_hops": 0},
            output_dir=str(tmp_path / "out"),
        )
        code, _, err = run_cli(["train", "--config", str(cfg)], capsys)
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert "k_hops" in json.loads(lines[0])["message"]

    @pytest.mark.parametrize(
        "override",
        [{"cgl": {"alpha1": "nan", "alpha2": "nan"}}, {"train": {"learning_rate": "nan"}},
         {"train": {"dp": {"clip_norm": "nan", "noise_mult": 1.0}}}],
        ids=["alphas", "learning_rate", "clip_norm"],
    )
    def test_nan_config_value_is_one_line_error(self, tmp_path, capsys, override):
        cfg = write_config(
            tmp_path / "cfg.json", privacy={"level": "edge", "k_hops": 8, "epsilon": 4.0},
            output_dir=str(tmp_path / "out"), **override,
        )
        code, out, err = run_cli(["train", "--config", str(cfg)], capsys)
        assert code == 1 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["stage"] == "train" and record["error"] == "ValueError"
        assert "nan" in record["message"]
        assert not (tmp_path / "out" / "results.json").exists()

    def test_flag_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
        code, out, _ = run_cli(
            ["train", "--config", str(cfg), "--level", "edge", "--epsilon", "8", "--seed", "5"],
            capsys,
        )
        assert code == 0
        results = json.loads(out)
        assert results["seed"] == 5
        assert results["noise_plan"]["sigma"] > 0

    def test_pipeline_error_propagates_with_stage(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            privacy={"level": "edge", "k_hops": 8, "epsilon": 0.01},
            output_dir=str(tmp_path / "out"),
        )
        code, _, err = run_cli(["train", "--config", str(cfg)], capsys)
        assert code == 1
        record = json.loads(err.strip().split("\n")[-1])
        assert record["stage"] == "train"
        assert record["error"] == "CalibrationError"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_feature_file_is_one_line_error(self, tmp_path, capsys, value):
        # a 4-node path whose second feature row is not finite: nothing may
        # be released, since the NaN pattern would show node 1's K-hop
        # neighbourhood
        cfg = write_path_config(tmp_path, features=f"1,0\n{value},0\n0,1\n0.5,0.5\n")
        code, out, err = run_cli(["train", "--config", str(cfg)], capsys)
        assert code == 1 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["stage"] == "train" and record["error"] == "ParseError"
        assert "features.csv:2: non-finite" in record["message"]
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize(
        "files, message",
        [({"edges": "# path\n0 1\n1 4\n"}, "edges.txt:3: edge (1, 4) out of range"),
         ({"labels": "0,0\n\n7,1\n"}, "labels.csv:3: node id 7 out of range")],
        ids=["edge", "label"],
    )
    def test_out_of_range_id_is_parse_error(self, tmp_path, capsys, files, message):
        cfg = write_path_config(tmp_path, **files)
        code, out, err = run_cli(["train", "--config", str(cfg)], capsys)
        assert code == 1 and out == ""
        [line] = err.strip().splitlines()
        record = json.loads(line)
        assert record["stage"] == "train" and record["error"] == "ParseError"
        assert message in record["message"]

    def test_missing_dataset_file_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            dataset={"edges": "nope.txt", "features": "nope.csv", "labels": "nope.csv"},
        )
        config = json.loads(cfg.read_text())
        config["dataset"].pop("preset", None)
        cfg.write_text(json.dumps(config))
        code, _, err = run_cli(["train", "--config", str(cfg)], capsys)
        assert code == 1
        assert "does not exist" in json.loads(err.strip().split("\n")[-1])["message"]


def make_audit_config(tmp_path, level="none"):
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    ds = dense_block_dataset(num_nodes=14, seed=2)
    write_dataset(ds, data / "edges.txt", data / "features.csv", data / "labels.csv")
    config = {
        "dataset": {
            "edges": str(data / "edges.txt"),
            "features": str(data / "features.csv"),
            "labels": str(data / "labels.csv"),
            "train_count": 10,
            "test_count": 4,
        },
        "cgl": {"c_l": 0.5, "alpha1": 1.0, "alpha2": 0.0, "beta": 0.0},
        "privacy": {"level": level, "k_hops": 1, "epsilon": 1.0},
        "train": {"epochs": 60, "learning_rate": 0.5, "hidden_units": 8},
        "audit": {"attack": "edge_influence", "trials": 10, "seed": 4},
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "audit_cfg.json"
    path.write_text(json.dumps(config))
    return path



class TestAudit:
    def test_audit_writes_jsonl(self, tmp_path, capsys):
        cfg = make_audit_config(tmp_path)
        code, out, _ = run_cli(["audit", "--config", str(cfg)], capsys)
        assert code == 0
        summary = json.loads(out)
        assert 0.0 <= summary["auc"] <= 1.0
        lines = (tmp_path / "out" / "audit.jsonl").read_text().strip().split("\n")
        assert json.loads(lines[-1])["summary"] is True
        assert len(lines) == summary["trials"] + 1

    @pytest.mark.parametrize("scale", ["nan", "inf", 0.0])
    def test_bad_perturb_scale_is_one_line_error(self, tmp_path, capsys, scale):
        cfg = make_audit_config(tmp_path)
        config = json.loads(cfg.read_text())
        config["audit"]["perturb_scale"] = scale
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(["audit", "--config", str(cfg)], capsys)
        assert code == 1 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["stage"] == "audit" and record["error"] == "ValueError"
        assert "perturb_scale" in record["message"]
        assert not (tmp_path / "out" / "audit.jsonl").exists()

    def test_audit_deterministic(self, tmp_path, capsys):
        cfg = make_audit_config(tmp_path)
        run_cli(["audit", "--config", str(cfg), "--out-dir", str(tmp_path / "a")], capsys)
        run_cli(["audit", "--config", str(cfg), "--out-dir", str(tmp_path / "b")], capsys)
        a = (tmp_path / "a" / "audit.jsonl").read_bytes()
        b = (tmp_path / "b" / "audit.jsonl").read_bytes()
        assert a == b


class TestSweep:
    def test_seed_fanout(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            train={"epochs": 50, "learning_rate": 0.5, "hidden_units": 8},
            output_dir=str(tmp_path / "sweep"),
        )
        code, out, _ = run_cli(
            ["sweep", "--config", str(cfg), "--seeds", "0", "1", "--workers", "1"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["runs"] == 2
        summary = json.loads((tmp_path / "sweep" / "sweep_summary.json").read_text())
        assert [r["seed"] for r in summary["runs"]] == [0, 1]
        assert (tmp_path / "sweep" / "run_000" / "results.json").exists()
        assert (tmp_path / "sweep" / "run_001" / "results.json").exists()

    def test_sweep_without_overrides_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        code, _, err = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert code == 1
        assert "sweep" in json.loads(err.strip().split("\n")[-1])["message"]

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_bad_worker_count_is_usage_error(self, workers, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        code, out, err = run_cli(
            ["sweep", "--config", str(cfg), "--seeds", "0", "--workers", workers], capsys
        )
        assert code == 2
        assert out == ""
        [line] = err.strip().split("\n")
        assert json.loads(line)["stage"] == "usage"
        assert "--workers" in json.loads(line)["message"]

    @pytest.mark.parametrize(
        "workers, seeds, processes",
        [("5000", ["0", "1"], [2]), ("2", ["0", "1", "2"], [2]), ("8", ["0"], []),
         ("1", ["0", "1"], [])],
        ids=["capped-at-runs", "below-runs", "one-run", "one-worker"],
    )
    def test_process_count_capped_at_run_count(
        self, workers, seeds, processes, tmp_path, capsys, monkeypatch
    ):
        started = []

        class RecordingExecutor:
            """Runs the jobs in this process and records the process count
            a real executor would have started."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingExecutor)
        cfg = write_config(
            tmp_path / "cfg.json",
            train={"epochs": 5, "learning_rate": 0.5, "hidden_units": 4},
            output_dir=str(tmp_path / "sweep"),
        )
        code, out, _ = run_cli(
            ["sweep", "--config", str(cfg), "--seeds", *seeds, "--workers", workers], capsys
        )
        assert code == 0
        assert json.loads(out)["runs"] == len(seeds)
        assert started == processes

    @pytest.mark.parametrize("cpus, default", [(1, 1), (2, 1), (8, 4)])
    def test_default_workers_follow_usable_cpus(self, cpus, default, monkeypatch):
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: cpus)
        args = cli.build_parser().parse_args(["sweep", "--config", "cfg.json"])
        assert args.workers == default


def one_error(err: str) -> dict:
    """The one JSON line a failed command writes to stderr."""
    [line] = err.strip().splitlines()
    return json.loads(line)


def no_artifacts(out_dir) -> bool:
    return not out_dir.exists() or not any(out_dir.rglob("*"))


class TestOneErrorBoundary:
    @pytest.mark.parametrize(
        "command, path, key",
        [
            ("train", (), "sed"),
            ("train", ("dataset",), "presett"),
            ("train", ("cgl",), "c_L"),
            ("train", ("privacy",), "levle"),
            ("train", ("train",), "epoch"),
            ("train", ("train", "dp"), "clip"),
            ("train", ("encoder",), "enable"),
            ("train", ("budgets",), "eps_dae"),
            ("audit", ("audit",), "trails"),
        ],
        ids=["top-level", "dataset", "cgl", "privacy", "train", "train.dp", "encoder",
             "budgets", "audit"],
    )
    def test_unknown_key_is_one_line_error(self, command, path, key, tmp_path, capsys):
        if command == "train":
            cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"),
                               train={"dp": {"clip_norm": 1.0, "noise_mult": 1.0}},
                               encoder={"enabled": False}, budgets={})
        else:
            cfg = make_audit_config(tmp_path)
        config = json.loads(cfg.read_text())
        if path == ("privacy",):
            # a misspelt level left the release without noise
            config["privacy"] = {"levle": "edge", "epsilon": 1.0}
        else:
            section = config
            for name in path:
                section = section[name]
            section[key] = 1
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 1 and out == ""
        record = one_error(err)
        assert record["stage"] == command and record["error"] == "CliError"
        assert repr(key) in record["message"]
        assert repr(".".join(path) or "config") in record["message"]
        assert no_artifacts(tmp_path / "out")

    @pytest.mark.parametrize("command", ["train", "audit"])
    def test_missing_privacy_level_is_one_line_error(self, command, tmp_path, capsys):
        if command == "train":
            cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
        else:
            cfg = make_audit_config(tmp_path)
        config = json.loads(cfg.read_text())
        config["privacy"] = {"epsilon": 1.0, "k_hops": 1}
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 1 and out == ""
        record = one_error(err)
        assert record["stage"] == command and record["error"] == "CliError"
        assert "'level'" in record["message"]
        assert no_artifacts(tmp_path / "out")
        if command == "train":  # the flag supplies the level
            code, out, _ = run_cli([command, "--config", str(cfg), "--level", "none"], capsys)
            assert code == 0 and json.loads(out)

    @pytest.mark.parametrize(
        "command, error",
        [("gen-chain", "ValueError"), ("calibrate", "CalibrationError"),
         ("noise-table", "IsADirectoryError"), ("train", "FileNotFoundError"),
         ("audit", "ValueError"), ("sweep", "CliError")],
    )
    def test_failure_is_one_line_with_command_stage(self, command, error, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", sweep=[{"sed": 1}],
                           output_dir=str(tmp_path / "sweep"))
        audit_cfg = make_audit_config(tmp_path)
        config = json.loads(audit_cfg.read_text())
        config["audit"]["trials"] = 5
        audit_cfg.write_text(json.dumps(config))
        argv = {
            # 3 chains cannot be split among 2 classes
            "gen-chain": ["--chains", "3", "--classes", "2", "--out-dir", str(tmp_path)],
            "calibrate": ["--eps", "0.05", "--delta", "1e-3", "--k", "2", "--gamma", "0.9",
                          "--delta-mp", "1"],
            "noise-table": ["--out", str(tmp_path)],
            "train": ["--config", str(tmp_path / "missing.json")],
            "audit": ["--config", str(audit_cfg)],
            "sweep": ["--config", str(cfg), "--workers", "1"],
        }[command]
        code, out, err = run_cli([command, *argv], capsys)
        assert code == 1 and out == ""
        record = one_error(err)
        assert record["stage"] == command and record["error"] == error

    @pytest.mark.parametrize("command", ["train", "audit"])
    def test_run_prints_status_line(self, command, tmp_path, capsys):
        if command == "train":
            cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
        else:
            cfg = make_audit_config(tmp_path)
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 0 and json.loads(out)
        status = one_error(err)
        assert status["command"] == command
        assert status["output_dir"] == str(tmp_path / "out")
        assert status["wall_time_ms"] >= 0

    def test_sweep_seed_flag_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        code, out, err = run_cli(["sweep", "--config", str(cfg), "--seed", "3"], capsys)
        assert code == 2 and out == ""
        record = one_error(err)
        assert record["stage"] == "usage" and "--seed" in record["message"]
