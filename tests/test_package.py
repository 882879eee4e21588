"""The package's public surface."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import errlens


def test_every_exported_name_resolves_and_the_list_is_sorted() -> None:
    missing = [name for name in errlens.__all__ if not hasattr(errlens, name)]
    assert missing == []
    assert list(errlens.__all__) == sorted(errlens.__all__)
    assert len(set(errlens.__all__)) == len(errlens.__all__)


def test_importing_the_cli_does_not_load_the_nearest_neighbour_index() -> None:
    # scipy.spatial is imported only when external predictions first answer
    # bare rows, so start-up stays as cheap for every other command
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, errlens.cli; print('scipy.spatial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def _reads_files(tree: ast.AST) -> bool:
    """Whether a module opens a file for reading or parses CSV or JSON input."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if not (isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax")):
                return True
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and (
                (func.value.id, func.attr) in {("csv", "reader"), ("csv", "DictReader"),
                                               ("json", "load"), ("json", "loads")}):
            return True
    return False


def test_only_the_two_readers_read_input_files() -> None:
    # every input file goes through data.read_csv or serialize.load_json
    src = Path(errlens.__file__).resolve().parent
    readers = {path.name for path in src.glob("*.py")
               if _reads_files(ast.parse(path.read_text(encoding="utf-8")))}
    assert readers == {"data.py", "serialize.py"}
