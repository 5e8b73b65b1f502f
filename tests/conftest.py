import importlib.util
import socket
from pathlib import Path

import pytest

from latentseal import ecies, henon

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


@pytest.fixture(scope="session")
def private_key():
    return ecies.keygen(bytes(range(32)))


@pytest.fixture(scope="session")
def public_key(private_key):
    return private_key.public_key()


@pytest.fixture(scope="session")
def sym_key():
    return henon.SymKey(0.123, 0.05)
