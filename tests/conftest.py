"""Shared test tooling.

- python(*argv): the one child launcher, the Popen keyword arguments of `python *argv` in a new
  interpreter that imports latentseal from this checkout's src.
- listening_port(proc): the port a `recv` child listens on, from the `listening on port N` line it
  prints first; a test that talks to a receiver learns its port from the receiver, never picks one.
- chain(), keys and dct_model_path: the argument list of encrypt, decrypt or evaluate, and the seeded
  key files and m = 100 DCT model it reads.
- reference, at_both_budgets and the session's ECIES and Henon keys.
"""

import importlib.util
import os
import re
import sys
from pathlib import Path

import pytest

from latentseal import cli, ecies, henon, images

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def perfbench_module(name):
    """perfbench/<name>.py, loaded by path: the benchmark's files are not part of the package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the benchmark's own arithmetic, which imports nothing from latentseal: the independent oracle
# for the zigzag order, DCT coefficients, windowed SSIM, MSE and the payload size
reference = perfbench_module("reference")


def python(*argv):
    """Popen keyword arguments of `python *argv` in a new interpreter, in text mode, importing latentseal
    from this checkout's src."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {"args": [sys.executable, *argv], "env": {**os.environ, "PYTHONPATH": path}, "text": True}


def listening_port(proc) -> int:
    """The port a recv child started with stdout=PIPE listens on, from the first line it prints."""
    line = proc.stdout.readline()
    match = re.fullmatch(r"listening on port (\d+)\n", line)
    assert match, line
    return int(match[1])


KEY_FILES = {"encrypt": ("sym", "pub"), "decrypt": ("sym", "priv"), "evaluate": ("sym", "pub", "priv")}


def chain(command, source, model, keys, out):
    """Arguments of encrypt, decrypt or evaluate on source and model, with the key files of prefix
    keys that the command reads, writing out."""
    args = [command, str(source), "--model", str(model)]
    for suffix in KEY_FILES[command]:
        args += [f"--{suffix}", f"{keys}.{suffix}"]
    return args + ["--out", str(out)]


@pytest.fixture()
def keys(tmp_path):
    prefix = tmp_path / "key"
    assert cli.main(["keygen", str(prefix), "--seed", "42"]) == cli.EXIT_OK
    return prefix


@pytest.fixture()
def dct_model_path(tmp_path):
    path = tmp_path / "dct.lscm"
    assert cli.main(["make-model", str(path), "--m", "100"]) == cli.EXIT_OK
    return path


@pytest.fixture
def at_both_budgets(monkeypatch):
    """run() at the default images.BAND_BYTES and at 4 KiB: the two results, which a blocked pass must not tell apart.

    At 4 KiB a windowed-SSIM tile is max(68 // (w - 1), 2w - 1) columns wide with int32 sums, a metric chunk
    256 pixels and a P6 chunk 170 pixels.
    """
    def run_both(run):
        results = []
        for band_bytes in (images.BAND_BYTES, 4096):
            with monkeypatch.context() as m:
                m.setattr(images, "BAND_BYTES", band_bytes)
                results.append(run())
        return results

    return run_both


@pytest.fixture(scope="session")
def private_key():
    return ecies.keygen(bytes(range(32)))


@pytest.fixture(scope="session")
def public_key(private_key):
    return private_key.public_key()


@pytest.fixture(scope="session")
def sym_key():
    return henon.SymKey(0.123, 0.05)
