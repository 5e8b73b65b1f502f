import numpy as np
import pytest

from latentseal import ecies, henon, images


@pytest.fixture(scope="session")
def private_key():
    return ecies.keygen(bytes(range(32)))


@pytest.fixture(scope="session")
def public_key(private_key):
    return private_key.public_key()


@pytest.fixture(scope="session")
def sym_key():
    return henon.SymKey(0.123, 0.05)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def gradient_image():
    return images.smooth_gradient(256)


def random_image(rng, h, w):
    return rng.integers(0, 256, (h, w), dtype=np.uint8)
