"""latentseal: latent-space image compression with chaotic shuffling and ECIES."""

from .codec import CodecModel, dct_decode, dct_encode, dct_model, load_model, save_model
from .ecies import ecies_decrypt, ecies_encrypt, keygen
from .henon import SymKey, deshuffle, permutation_from_sequence, shuffle
from .metrics import QualityReport, mse, psnr, ssim
from .pipeline import EncryptedPayload, compress_encrypt, decrypt_reconstruct, evaluate

__version__ = "0.1.0"


def __getattr__(name):
    """Training is imported on first use, so a cold encrypt or decrypt never loads it."""
    if name in ("TrainConfig", "gan_objective", "train_autoencoder"):
        from . import train

        return getattr(train, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CodecModel",
    "EncryptedPayload",
    "QualityReport",
    "SymKey",
    "TrainConfig",
    "compress_encrypt",
    "dct_decode",
    "dct_encode",
    "dct_model",
    "decrypt_reconstruct",
    "deshuffle",
    "ecies_decrypt",
    "ecies_encrypt",
    "evaluate",
    "gan_objective",
    "keygen",
    "load_model",
    "mse",
    "permutation_from_sequence",
    "psnr",
    "save_model",
    "shuffle",
    "ssim",
    "train_autoencoder",
]
