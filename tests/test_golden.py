"""Golden vectors: sha256 digests of bitwise-pinned outputs.

Each case rebuilds one output from fixed inputs and compares its digest
with the value recorded when the vectors were generated.  Arrays hash
their dtype, shape and raw bytes, so any change in a single bit, in
precision or in layout fails the case.

Print the current digests with `PYTHONPATH=src python tests/test_golden.py`.
"""

import functools
import hashlib
from unittest import mock

import numpy as np
import pytest

from latentseal import cli, codec, ecies, henon, images, pipeline, train


KEY = henon.SymKey(0.123, 0.05)
EPH_SEED = bytes([7]) * 32
NEURAL_CONFIG = train.TrainConfig(m=4, hidden=(16,), epochs=20, seed=0, batch_size=4)

GOLDEN = {
    "henon_sequence": "51b77b48c7e23062558edf72adc0b1d03c6db14f5b7ac27cff7d9ea72b9dc057",
    "henon_trajectory": "c353568018a10d04aaae86d50621493ccac20d40d6acc78e7c5a4a092df391f9",
    "permutation_400": "8ea6c56a3fb35b578ba1636abdf94807b34ba62a1ee0cdd75d7cc90f25fc2370",
    "dct_gradient_m100.latent": "e73b10d4b1b3b73afd1822465868862b8f4b59eb929c166def885c3cf5a2f66c",
    "dct_gradient_m100.payload": "ae9a9deb5cf7b55d80e108219bf2a7e8b17a92d9f01e357a51e360a099976f3b",
    "dct_gradient_m100.pixels": "dc350a7209503c436a579bdd26d3433d25d78efea66a79dd81042998cca33ea4",
    "dct_random_m400.latent": "6db4ce09959efc9c96f97cbc8d0a9202c0e9e2012674ba514c5f23bcf2e72787",
    "dct_random_m400.payload": "b11746f8713884a62e8590171180dad17de72e95bd261c4796fce3e02f95d721",
    "dct_random_m400.pixels": "91ada9a8d6481fbb9f5bafdb645888a1cd431a6d56314413a956a0b8f4051387",
    "neural.latents": "293ee4704fe5fac91bd184b8c852cd9cc1a9ffcf2d3bef3d6e347f23cd6c78ee",
    "neural.decodes": "5b528672c59e287e49d35c1ac4f4bf0d95ad566249c7545d643226f3c51e13c4",
    "neural.ae_trace": "cb83c46955ee3457d9cbad5240227eb26d2ef8c89e005ec45d2265258ce58361",
    "neural.adversarial_trace": "e23478d0b8aaaf6d086eab74c4d23019cd3530928bffa4d515becd46d870d7a6",
    "neural.lscm": "47550a7ee054be6260416aa1bbc0d0c6c16aea6f1f35690e7f474701bad11f48",
    "keygen_42.priv": "bc8a2ea1f836edb148bf1931a6ace04b05d354e4bef4bc5d4771ef42c9499df9",
    "keygen_42.pub": "bfee47596de259269b10691ebc3187806fa2a978f8d7c57ab68cc98015d8e16a",
    "keygen_42.sym": "df9b9c62bd13cfb0a15aefdb315b3a269e28fc9ff6630dafa997c13bb46d73ac",
    "make_dataset": "be8f496f8ea098ebf1c8da335e39bbd2ca11d4faae2082fe78c3eba7c7b83419",
}


def _digest(value) -> str:
    if isinstance(value, np.ndarray):
        value = f"{value.dtype.str}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
    return hashlib.sha256(value).hexdigest()


def _dct_round_trip(img, m):
    """(latent, payload bytes, reconstructed pixels) under a seeded ephemeral key."""
    model = codec.dct_model(m)
    priv = ecies.keygen(bytes(range(32)))
    pub = priv.public_key()
    with mock.patch.object(ecies, "keygen", functools.partial(ecies.keygen, EPH_SEED)):  # fixes the seal's one ephemeral draw
        payload, _ = pipeline.compress_encrypt(img, model, KEY, pub)
    pixels, _ = pipeline.decrypt_reconstruct(payload, model, KEY, priv)
    return model.encode(img), payload.serialize(), pixels


def _gradient(m):
    return _dct_round_trip(images.smooth_gradient(256), m)


def _random(m):
    return _dct_round_trip(np.random.default_rng(48).integers(0, 256, (48, 80), dtype=np.uint8), m)


def _neural_dataset():
    rng = np.random.default_rng(3)
    return [rng.integers(0, 256, (8, 8), dtype=np.uint8) for _ in range(12)]


def _neural_model():
    return train.train_autoencoder(_neural_dataset(), NEURAL_CONFIG).model


def _neural_latents():
    model = _neural_model()
    return np.stack([model.encode(img) for img in _neural_dataset()])


def _neural_reconstructions():
    model = _neural_model()
    return np.stack([model.decode(v, 8, 8) for v in _neural_latents()])


def _adversarial_trace():
    config = train.TrainConfig(**{**vars(NEURAL_CONFIG), "lam": 0.1})
    with mock.patch.object(train, "DISC_HIDDEN", (8,)):  # the width the digest was recorded at
        result = train.train_autoencoder(_neural_dataset(), config)
    return np.array([result.ae_losses, result.disc_losses])


def _saved_model(tmp_path):
    path = tmp_path / "model.lscm"
    codec.save_model(_neural_model(), path)
    return path.read_bytes()


def _dataset_files(tmp_path):
    """Names and bytes of the files make_dataset writes: after the smooth gradient, seed 0 draws stripes,
    blobs, stripes and a tilted gradient, so every kind of _synthetic_image is pinned."""
    return b"".join(p.name.encode() + p.read_bytes() for p in images.make_dataset(tmp_path / "data", 5, 16, 0))


def _keygen_file(tmp_path, suffix):
    prefix = tmp_path / "keys"
    assert cli.main(["keygen", str(prefix), "--seed", "42"]) == cli.EXIT_OK
    return prefix.with_suffix(suffix).read_bytes()


CASES = {
    "henon_sequence": lambda tmp: henon.henon_trajectory(KEY, 500)[:, 0],
    "henon_trajectory": lambda tmp: henon.henon_trajectory(henon.SymKey(0.1, 0.1), 10000),
    "permutation_400": lambda tmp: henon.permutation_for_key(KEY, 400).astype("<i8"),
    "dct_gradient_m100.latent": lambda tmp: _gradient(100)[0],
    "dct_gradient_m100.payload": lambda tmp: _gradient(100)[1],
    "dct_gradient_m100.pixels": lambda tmp: _gradient(100)[2],
    "dct_random_m400.latent": lambda tmp: _random(400)[0],
    "dct_random_m400.payload": lambda tmp: _random(400)[1],
    "dct_random_m400.pixels": lambda tmp: _random(400)[2],
    "neural.latents": lambda tmp: _neural_latents(),
    "neural.decodes": lambda tmp: _neural_reconstructions(),
    "neural.ae_trace": lambda tmp: np.array(train.train_autoencoder(_neural_dataset(), NEURAL_CONFIG).ae_losses),
    "neural.adversarial_trace": lambda tmp: _adversarial_trace(),
    "neural.lscm": _saved_model,
    "make_dataset": _dataset_files,
    "keygen_42.priv": lambda tmp: _keygen_file(tmp, ".priv"),
    "keygen_42.pub": lambda tmp: _keygen_file(tmp, ".pub"),
    "keygen_42.sym": lambda tmp: _keygen_file(tmp, ".sym"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden(name, tmp_path):
    assert _digest(CASES[name](tmp_path)) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: _digest(case(Path(tmp))) for name, case in CASES.items()}
    for name, digest in digests.items():
        print(f'    "{name}": "{digest}",')
