import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import caribou
from tests.helpers import bench_targets

ORACLES = (
    "brute_force_edge_sensitivity",
    "brute_force_node_sensitivity",
    "empirical_lipschitz",
    "enumerate_edge_neighbors",
    "enumerate_node_neighbors",
    "gdp_to_rdp",
    "grad_check",
    "rdp_epsilon_convergent",
    "rdp_epsilon_linear",
    "reference_build_graph",
    "reference_graph_edges",
    "spectral_norm",
)

PACKAGE_DIR = Path(caribou.__file__).parent


class TestPublicApi:
    def test_no_oracle_exported(self):
        assert not set(ORACLES) & set(caribou.__all__)
        assert not any(hasattr(caribou, name) for name in ORACLES)

    def test_every_exported_name_resolves(self):
        missing = [name for name in caribou.__all__ if not hasattr(caribou, name)]
        assert missing == []

    def test_verify_holds_every_oracle(self):
        from tests import verify

        assert all(callable(getattr(verify, name)) for name in ORACLES)

    def test_import_leaves_scipy_stats_and_special_unloaded(self):
        code = (
            "import sys, caribou, caribou.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "(['scipy', 'stats'], ['scipy', 'special'])))"
        )
        src = str(PACKAGE_DIR.parent)
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert result.stdout.strip() == "[]"

    def test_no_package_module_defines_an_oracle(self):
        offenders = [
            f"{path.name}:{node.name}"
            for path in sorted(PACKAGE_DIR.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in ORACLES
        ]
        assert offenders == []

    def test_only_graphs_knows_the_sparse_storage(self):
        # Â's CSR arrays and its chunk sums belong to ``graphs``; every other
        # module asks it for a block's product
        offenders = [
            f"{path.name}:{node.lineno}"
            for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "graphs.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Import)
                and any(alias.name.split(".")[0] == "scipy" for alias in node.names))
            or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy")
            or (isinstance(node, ast.Attribute) and node.attr in ("indptr", "indices", "reduceat"))
        ]
        assert offenders == []

    def test_only_pipeline_knows_the_hop_blocks(self):
        # a hop's blocks are its noise ranges, of pipeline._NOISE_ROWS rows;
        # _pool.BLOCK_ROWS sizes the head's blocks alone
        offenders = [
            f"{path.name}:{node.lineno}"
            for path in sorted(PACKAGE_DIR.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            # a name read or bound, an attribute, or a name imported
            if ("BLOCK_ROWS" if path.name == "pipeline.py" else "_NOISE_ROWS")
            in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        ]
        assert offenders == []

    def test_every_bench_target_exists(self):
        # the bench times caribou.<module>.<function> for each of these; a
        # missing one leaves its per-layer metrics empty
        targets = bench_targets()
        missing = [
            f"{module}.{name}"
            for module, names in targets.items()
            for name in names
            if not callable(getattr(importlib.import_module(f"caribou.{module}"), name, None))
        ]
        assert targets and missing == []
