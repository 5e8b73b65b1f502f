"""latentseal: latent-space image compression with chaotic shuffling and ECIES.

Each exported name is imported from its module on first use, so a process
loads only the modules it runs."""

import importlib

__version__ = "0.1.0"

_HOME = {  # exported name -> the module that defines it
    name: module
    for module, names in {
        "codec": "CodecModel dct_decode dct_encode dct_model load_model save_model",
        "ecies": "ecies_decrypt ecies_encrypt keygen",
        "henon": "SymKey deshuffle permutation_from_sequence shuffle",
        "metrics": "QualityReport mse psnr ssim",
        "pipeline": "EncryptedPayload compress_encrypt decrypt_reconstruct evaluate",
        "train": "TrainConfig gan_objective train_autoencoder",
    }.items()
    for name in names.split()
}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
