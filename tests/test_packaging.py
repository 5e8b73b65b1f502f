import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def _third_party_imports() -> set[str]:
    found = set()
    for path in (ROOT / "src" / "latentseal").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"latentseal"}


def test_dependencies_match_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[\s\[<>=!~;]", dep)[0] for dep in project["dependencies"]}
    assert declared == _third_party_imports()


def _file_reads() -> set[tuple[str, str]]:
    """(module, function) of every open() for reading, read_bytes() and read_text() call in the package."""
    found = set()

    def is_read(call: ast.Call) -> bool:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            mode = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
            # no mode is "r", and a mode that is not a literal counts as a read
            return not (mode and isinstance(mode[0], ast.Constant) and "r" not in mode[0].value)
        return name in ("read_bytes", "read_text")

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Call) and is_read(child):
                found.add((module, function))
            visit(child, module, function)

    for path in (ROOT / "src" / "latentseal").glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def test_outside_files_are_read_through_one_capped_reader():
    # load_model bounds each layer by the bytes left in the file instead
    assert _file_reads() == {("errors", "read_file"), ("codec", "load_model")}


def _fresh_python(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports latentseal from src."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    assert _fresh_python("import sys, latentseal.cli; print('scipy' in sys.modules)") == "False"


def test_key_checks_leave_numpy_ma_unloaded(tmp_path):
    # numpy.ma is imported lazily, on first use, at a cost every cold CLI run would pay
    prefix = str(tmp_path / "k")
    code = (
        "import sys\n"
        "from latentseal import cli, henon\n"
        f"assert cli.main(['keygen', {prefix!r}, '--seed', '1']) == 0\n"
        f"henon.load_sym_key({prefix!r} + '.sym')\n"
        "print('numpy.ma' in sys.modules)"
    )
    assert _fresh_python(code).endswith("False")


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first attribute access, which an evaluated
    # `np.random.Generator` annotation would make every cold CLI run pay
    assert _fresh_python("import sys, latentseal.cli; print('numpy.random' in sys.modules)") == "False"
