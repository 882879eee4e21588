"""The package's public surface."""

from __future__ import annotations

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import errlens


def test_every_exported_name_resolves_and_the_list_is_sorted() -> None:
    missing = [name for name in errlens.__all__ if not hasattr(errlens, name)]
    assert missing == []
    assert list(errlens.__all__) == sorted(errlens.__all__)
    assert len(set(errlens.__all__)) == len(errlens.__all__)


def test_start_up_and_runs_load_neither_scipy_nor_xml_nor_the_web_stack(tmp_path) -> None:
    # the sigmoid and the ridge solve use numpy only, the SVG escaping a
    # str.translate table, and explanations run on one thread, so runs load
    # no scipy, xml, web stack, html or concurrent.futures;
    # distinct categories come from a sort, not np.unique, which loads
    # numpy.ma; modules the bare interpreter loaded before errlens are not
    # counted
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "\n".join([
        "import json, sys",
        "before = set(sys.modules)",
        "from errlens.cli import main",
        "assert 'numpy.ma' not in sys.modules",
        "d = sys.argv[1]",
        "assert main(['synth', '--rows', '120', '--features', '3', '--seed', '7',",
        "             '--out-dir', d]) == 0",
        "assert main(['pipeline', '--data', d + '/synth.csv', '--rounds', '4',",
        "             '--n-samples', '50', '--jobs', '1', '--out-dir', d + '/pipe']) == 0",
        "with open(d + '/p.csv', 'w') as fh:",
        "    fh.write('row_id,probability\\n' + ''.join(",
        "        f'{i},{0.9 if i % 3 == 0 else 0.1}\\n' for i in range(120)))",
        "assert main(['mine', '--data', d + '/synth.csv', '--predictions', d + '/p.csv',",
        "             '--categorical', 'f2', '--n-samples', '50', '--jobs', '1',",
        "             '--out-dir', d + '/mine']) == 0",
        "banned = ('scipy', 'xml.sax', 'urllib', 'http', 'html', 'concurrent', 'numpy.ma')",
        "print(json.dumps(sorted(m for m in set(sys.modules) - before",
        "                        if any(m == b or m.startswith(b + '.') for b in banned))))",
    ])
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "[]"


def test_the_readme_library_example_runs_and_prints_what_it_says(tmp_path) -> None:
    # the README's one python block, run as written, so it follows the API
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    error_rate, region, region_rate = out.stdout.splitlines()
    assert error_rate == "0.156"
    assert region == "f0 > 0.756548583185128"
    assert round(float(region_rate), 3) == 0.434
    assert (tmp_path / "demo" / "lib" / "report_test.json").exists()



def test_the_readme_quick_start_prints_what_it_says(tmp_path) -> None:
    # the README's quick-start console block, run command by command: each
    # errlens command's printed line and the report's head
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick start.*?```console\n(.*?)```", readme, flags=re.DOTALL)[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    steps = re.findall(r"^\$ (.*)\n((?:[^$\n].*\n)*)", block, flags=re.MULTILINE)
    assert [cmd.split()[0] for cmd, _ in steps] == ["errlens", "errlens", "head"]
    for cmd, expected in steps:
        program, *args = shlex.split(cmd)
        if program == "errlens":
            printed = subprocess.run([sys.executable, "-m", "errlens", *args], cwd=tmp_path,
                                     env=env, capture_output=True, text=True, check=True,
                                     timeout=300).stdout
        else:
            lines, name = int(args[0].removeprefix("-")), args[1]
            printed = "".join((tmp_path / name).read_text(encoding="utf-8")
                              .splitlines(keepends=True)[:lines])
        assert printed == expected

def _trees() -> dict[str, ast.AST]:
    src = Path(errlens.__file__).resolve().parent
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in src.glob("*.py")}


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
    readers = {name for name, tree in _trees().items() if _reads_files(tree)}
    assert readers == {"data.py", "serialize.py"}


def test_only_data_constructs_a_csv_writer() -> None:
    # every CSV goes through data.write_csv_rows, whose "\r\n" row ends make
    # csv quote a lone "\r"
    writers = {name for name, tree in _trees().items() if any(
        isinstance(node, ast.Attribute) and node.attr == "writer"
        and isinstance(node.value, ast.Name) and node.value.id == "csv"
        for node in ast.walk(tree))}
    assert writers == {"data.py"}


def test_every_exported_name_is_used_by_the_program_or_named_in_the_readme() -> None:
    # a name neither the program nor README uses is surface kept for nothing
    used = {getattr(node, "id", None) or getattr(node, "attr", None)
            for name, tree in _trees().items() if name != "__init__.py"
            for node in ast.walk(tree)}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert [name for name in errlens.__all__
            if name not in used and not re.search(rf"\b{name}\b", readme)] == []
