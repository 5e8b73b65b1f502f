import importlib.util
import socket
from pathlib import Path

import pytest

from latentseal import ecies, henon, images

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    """perfbench/<name>.py, loaded by path: the benchmark's files are not part of the package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the benchmark's own arithmetic, which imports nothing from latentseal: the independent oracle
# for the zigzag order, DCT coefficients, windowed SSIM, MSE and the payload size
reference = perfbench_module("reference")


def free_port():
    """A loopback port that was free when asked, for a receiver in another thread or process to listen on."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


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
