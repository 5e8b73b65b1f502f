import numpy as np
import pytest
from cryptography.hazmat.primitives.asymmetric import ec

from latentseal import ecies, henon, images


def key_objects(kp: ecies.EciesKeypair) -> tuple[ec.EllipticCurvePublicKey, ec.EllipticCurvePrivateKey]:
    """The key objects of kp, as the chain takes them, built by cryptography's own constructors."""
    curve = ec.SECP256R1()
    return ec.EllipticCurvePublicKey.from_encoded_point(curve, kp.public_bytes), ec.derive_private_key(kp.private_scalar, curve)


@pytest.fixture(scope="session")
def keypair():
    return ecies.keygen(bytes(range(32)))


@pytest.fixture(scope="session")
def public_key(keypair):
    return key_objects(keypair)[0]


@pytest.fixture(scope="session")
def private_key(keypair):
    return key_objects(keypair)[1]


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
