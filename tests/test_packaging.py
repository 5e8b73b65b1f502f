import ast
import gc
import importlib
import re
import socket
import subprocess
import sys
import types
from pathlib import Path

import pytest

from conftest import ROOT, chain, python


def _imported(paths) -> set[str]:
    """Top-level names of the modules the files at paths import, "." for any relative import."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                found.add(node.module.split(".")[0] if node.level == 0 else ".")
    return found


def test_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[\s\[<>=!~;]", dep)[0] for dep in project["dependencies"]}
    package = (ROOT / "src" / "latentseal").glob("*.py")
    assert declared == _imported(package) - set(sys.stdlib_module_names) - {"latentseal", "."}


def test_the_reference_arithmetic_the_tests_check_against_shares_no_code_with_latentseal():
    # tier-1 takes its zigzag, DCT, windowed SSIM, MSE and payload-size oracles from it
    assert _imported([ROOT / "perfbench" / "reference.py"]) == {"math", "numpy"}


def _callers(is_target) -> set[tuple[str, str]]:
    """(module, function) of every call in the package for which is_target(name, call) holds."""
    found = set()

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if is_target(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None), child):
                    found.add((module, function))
            visit(child, module, function)

    for path in (ROOT / "src" / "latentseal").glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def _is_read(name: str, call: ast.Call) -> bool:
    """An open() for reading, a read_bytes() or a read_text()."""
    if name == "open":
        mode = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
        # no mode is "r", and a mode that is not a literal counts as a read
        return not (mode and isinstance(mode[0], ast.Constant) and "r" not in mode[0].value)
    return name in ("read_bytes", "read_text")


def test_outside_files_are_read_through_one_capped_reader():
    assert _callers(_is_read) == {("errors", "open_file")}


_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _is_write(name: str, call: ast.Call) -> bool:
    """An open() with a w, x, a or + mode, an os.open() whose flags name one that
    writes, a write_bytes() or write_text(), or numpy's save, savetxt or tofile."""
    if name != "open":
        return name in ("write_bytes", "write_text", "save", "savetxt", "tofile")
    if getattr(getattr(call.func, "value", None), "id", None) == "os":
        return any(getattr(n, "attr", None) in _WRITE_FLAGS for arg in call.args[1:] for n in ast.walk(arg))
    mode = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    # a mode that is not a literal counts as a write
    return bool(mode) and not (isinstance(mode[0], ast.Constant) and not set("wxa+") & set(mode[0].value))


def test_every_file_is_written_through_the_one_writer():
    assert _callers(_is_write) == {("errors", "atomic_write")}


def test_only_the_program_entry_freezes_the_heap():
    # a frozen heap is never collected again, and a paused collector collects
    # nothing, which only a process that is about to exit can afford; library
    # callers of cli.main must not pay it
    assert _callers(lambda name, call: name == "freeze") == {("cli", "run")}
    assert _callers(lambda name, call: name == "disable") == {("cli", "run")}


def test_installed_script_is_the_program_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"latentseal": "latentseal.cli:run"}


def _cache_breaches() -> list[str]:
    """Every lru_cache without a literal integer maxsize, every functools.cache
    on a function that takes parameters, and every use of OrderedDict."""
    breaches = []
    for path in (ROOT / "src" / "latentseal").glob("*.py"):
        tree = ast.parse(path.read_text())
        bounded, cached_without_parameters = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                if sizes and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int:
                    bounded.add(id(node.func))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
                    cached_without_parameters.update(id(d) for d in node.decorator_list)
        for node in ast.walk(tree):
            names = [a.name for a in node.names] if isinstance(node, (ast.Import, ast.ImportFrom)) else []
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            where = f"{path.stem}:{node.lineno}" if hasattr(node, "lineno") else path.stem
            if name == "lru_cache" and id(node) not in bounded:
                breaches.append(f"{where} lru_cache without a literal maxsize")
            if name == "cache" and id(node) not in cached_without_parameters:
                breaches.append(f"{where} functools.cache not on a zero-parameter function")
            if name == "OrderedDict" or "OrderedDict" in names:
                breaches.append(f"{where} OrderedDict")
    return breaches


def test_every_cache_is_bounded():
    assert _cache_breaches() == []


def test_every_numeric_cli_argument_is_range_checked():
    # no add_argument passes a bare type=int or type=float: each number goes
    # through a cli._checked rule, so an out-of-range value exits 2
    unchecked = [
        node.lineno
        for node in ast.walk(ast.parse((ROOT / "src" / "latentseal" / "cli.py").read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "add_argument"
        and any(k.arg == "type" and isinstance(k.value, ast.Name) and k.value.id in ("int", "float") for k in node.keywords)
    ]
    assert unchecked == []


def _fresh_python(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports latentseal from src."""
    result = subprocess.run(**python("-c", code), capture_output=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_run_freezes_the_heap_then_exits_with_mains_code():
    # main runs with the collector paused, and the heap is frozen by the time run exits
    code = (
        "import gc\n"
        "from latentseal import cli\n"
        "cli.main = lambda argv=None: print(gc.isenabled()) or 7\n"
        "try:\n"
        "    cli.run()\n"
        "except SystemExit as e:\n"
        "    print(gc.get_freeze_count() > 0, e.code)\n"
    )
    assert _fresh_python(code).splitlines() == ["False", "True 7"]


def test_main_in_process_leaves_the_heap_unfrozen(tmp_path):
    from latentseal import cli

    assert gc.get_freeze_count() == 0
    assert cli.main(["keygen", str(tmp_path / "k"), "--seed", "1"]) == 0
    assert cli.main(["make-model", str(tmp_path / "d.lscm"), "--m", "4"]) == 0
    assert gc.get_freeze_count() == 0


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """The modules one new interpreter has loaded after a real encrypt and decrypt through cli.main, and
    after a keygen and load_sym_key as well: keygen loads numpy.random, so it runs second."""
    from latentseal import cli, images

    tmp = tmp_path_factory.mktemp("loaded")
    keys, model, img, sealed = tmp / "key", tmp / "dct.lscm", tmp / "in.pgm", tmp / "p.lsp"
    assert cli.main(["keygen", str(keys), "--seed", "42"]) == 0
    assert cli.main(["make-model", str(model), "--m", "16"]) == 0
    images.write_image(images.smooth_gradient(16), img)
    runs = [chain("encrypt", img, model, keys, sealed), chain("decrypt", sealed, model, keys, img)]
    code = (
        "import sys\n"
        "from latentseal import cli\n"
        + "".join(f"assert cli.main({argv!r}) == 0\n" for argv in runs)
        + "print('loaded', *sys.modules)\n"
        "from latentseal import henon\n"
        f"assert cli.main(['keygen', {str(tmp / 'k')!r}, '--seed', '1']) == 0\n"
        f"henon.load_sym_key({str(tmp / 'k.sym')!r})\n"
        "print('loaded', *sys.modules)\n"
    )
    after_chain, after_keys = (set(line.split()[1:]) for line in _fresh_python(code).splitlines() if line.startswith("loaded "))
    return after_chain, after_keys


def test_cli_import_leaves_scipy_unloaded(loaded):
    assert "scipy" not in loaded[0]


def test_key_checks_leave_numpy_ma_unloaded(loaded):
    # numpy.ma is imported lazily, on first use, at a cost every cold CLI run would pay
    assert "numpy.ma" not in loaded[1]


def test_cli_import_leaves_numpy_random_unloaded(loaded):
    # numpy loads numpy.random on first attribute access, which an evaluated
    # `np.random.Generator` annotation would make every cold CLI run pay
    assert "numpy.random" not in loaded[0]


def test_cli_import_loads_only_what_encrypt_and_decrypt_run(loaded):
    # cryptography's serialization package pulls in its SSH module, and
    # transfer pulls in socket; encrypt and decrypt use neither, nor train
    unused = [
        "cryptography.hazmat.primitives.serialization",
        "hashlib",
        "socket",
        "latentseal.train",
        "latentseal.transfer",
    ]
    assert [m for m in unused if m in loaded[0]] == []


def _program(args: list[str]) -> tuple[int, list[str], set[str]]:
    """Exit code, stderr lines and every module imported, of a new `python -X importtime -m latentseal.cli args`."""
    result = subprocess.run(**python("-X", "importtime", "-m", "latentseal.cli", *args), capture_output=True, timeout=60)
    lines = result.stderr.splitlines()
    imported = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    return result.returncode, [line for line in lines if not line.startswith("import time:")], imported


def test_send_and_recv_load_neither_numpy_nor_cryptography(tmp_path):
    # a relay runs send and recv, which only move sealed bytes: a valid payload to a closed port, and no sender
    from latentseal import wire

    payload = tmp_path / "p.lsp"
    payload.write_bytes(wire._pack_header(0, 1, 1, 1) + bytes(4 + wire.OVERHEAD))
    with socket.socket() as closed:  # bound but not listening, so a connect to it is refused
        closed.bind(("127.0.0.1", 0))
        port = closed.getsockname()[1]
        send_code, send_err, send_imports = _program(["send", str(payload), f"127.0.0.1:{port}"])
    recv_code, recv_err, recv_imports = _program(["recv", "0", "--out", str(tmp_path / "r.lsp"), "--timeout", "0.05"])
    for imported in (send_imports, recv_imports):
        assert "latentseal.transfer" in imported
        assert [name for name in imported if name.split(".")[0] in ("numpy", "cryptography")] == []
    assert (send_code, recv_code) == (3, 3)
    assert len(send_err) == 1 and re.fullmatch(rf"error: cannot send to 127\.0\.0\.1:{port}: .*Connection refused", send_err[0])
    assert recv_err == ["error: no sender within 0.05 s"]
    assert list(tmp_path.iterdir()) == [payload]


def test_every_module_level_import_is_used_in_its_module():
    # a name imported only for callers to take from here would give it a second home
    unused = []
    for path in sorted((ROOT / "src" / "latentseal").glob("*.py")):
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) and getattr(stmt, "module", None) != "__future__":
                bound = [(alias.asname or alias.name).split(".")[0] for alias in stmt.names]
                unused += [f"{path.stem}: {name}" for name in bound if name not in loaded]
    assert unused == []


def test_every_public_name_is_loaded_by_the_program_or_the_benchmark():
    # a public def, class or constant that only tests read is API the program never runs
    benchmark = [path for path in (ROOT / "perfbench").glob("*.py") if not path.name.startswith("test_")]
    programs = [*(ROOT / "src" / "latentseal").glob("*.py"), *benchmark]
    loaded = set()
    for path in programs:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    unread = [
        f"{path.stem}.{name}"
        for path in sorted((ROOT / "src" / "latentseal").glob("*.py"))
        for name in sorted(_defined_at_top_level(path))
        if not name.startswith("_") and name not in loaded
    ]
    assert unread == []


def test_package_root_is_empty():
    # each name has one import path, its module's: the root binds none, not even on first use, and loads no module
    code = (
        "import sys, latentseal\n"
        "bound = [n for n in vars(latentseal) if not n.startswith('__') or n in ('__getattr__', '__all__')]\n"
        "print(bound, [m for m in sys.modules if m.startswith('latentseal.')], hasattr(latentseal, 'compress_encrypt'))"
    )
    assert _fresh_python(code) == "[] [] False"


def _defined_at_top_level(path: Path) -> set[str]:
    """The names that a module's own top-level def, class or assignment binds."""
    names = set()
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names.update(node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name))
    return names


def test_tests_read_each_name_from_its_home():
    # ecies.OVERHEAD reads only while ecies happens to import it from wire, its
    # home; a module object (transfer.socket, which tests patch) and a dunder
    # (cli.__file__) belong to the module they are read from
    defined = {path.stem: _defined_at_top_level(path) for path in (ROOT / "src" / "latentseal").glob("*.py")}
    strays = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        reads = []
        bound = {}  # name -> latentseal module, from this file's `from latentseal import ...`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "latentseal":
                bound.update((alias.asname or alias.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("latentseal."):
                reads += [(node.module.split(".", 1)[1], alias.name, node.lineno) for alias in node.names]
        reads += [
            (bound[node.value.id], node.attr, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id in bound
        ]
        for module, name, line in reads:
            value = getattr(importlib.import_module(f"latentseal.{module}"), name, None)
            if not (name.startswith("__") or name in defined[module] or isinstance(value, types.ModuleType)):
                strays.append(f"{path.name}:{line} {module}.{name}")
    assert strays == []
