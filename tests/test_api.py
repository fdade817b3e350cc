import ast
import os
import subprocess
import sys
from pathlib import Path

import caribou

ORACLES = (
    "brute_force_edge_sensitivity",
    "brute_force_node_sensitivity",
    "empirical_lipschitz",
    "enumerate_edge_neighbors",
    "enumerate_node_neighbors",
    "grad_check",
    "spectral_norm",
)

PACKAGE_DIR = Path(caribou.__file__).parent


def imported_modules(path):
    """Dotted names a module imports, relative imports resolved in caribou."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "caribou" + (f".{base}" if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


class TestPublicApi:
    def test_no_oracle_exported(self):
        assert not set(ORACLES) & set(caribou.__all__)
        assert not any(hasattr(caribou, name) for name in ORACLES)

    def test_every_exported_name_resolves(self):
        missing = [name for name in caribou.__all__ if not hasattr(caribou, name)]
        assert missing == []

    def test_verify_holds_every_oracle(self):
        from caribou import verify

        assert all(callable(getattr(verify, name)) for name in ORACLES)

    def test_import_leaves_verify_unloaded(self):
        code = "import sys, caribou; print('caribou.verify' in sys.modules)"
        src = str(PACKAGE_DIR.parent)
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert result.stdout.strip() == "False"

    def test_no_production_module_imports_verify(self):
        offenders = [
            path.name
            for path in sorted(PACKAGE_DIR.glob("*.py"))
            if path.name != "verify.py" and "caribou.verify" in imported_modules(path)
        ]
        assert offenders == []
