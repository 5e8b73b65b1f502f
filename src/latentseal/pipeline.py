"""End-to-end composition: codec -> keyed shuffle -> ECIES, and back.

Sender: encode the image to an m-element latent, shuffle it with the
permutation derived from the symmetric key's chaotic orbit, serialize
as 32-bit little-endian floats, and seal with the recipient public
key.  Receiver inverts each step.  The crypto and shuffle layers are
exactly lossless: the only loss in the chain is the codec's.
"""

import time
from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.asymmetric import ec

from .codec import CodecModel
from .ecies import ecies_decrypt, ecies_encrypt
from .errors import NonFiniteLatentError, ShapeMismatchError
from .henon import SymKey, deshuffle, permutation_for_key, shuffle
from .images import check_image
from .metrics import QualityReport, mse, psnr, ssim
from .wire import HEADER_LEN, _pack_header, header_fields


def _finite(latent: np.ndarray) -> np.ndarray:
    """latent, if every value is finite: the rule for latents sealed and opened
    alike, since anyone holding the public key can seal a NaN under a legal header."""
    if not np.isfinite(latent).all():
        raise NonFiniteLatentError(f"{np.count_nonzero(~np.isfinite(latent))} of {latent.size} latent values are not finite")
    return latent


@dataclass(frozen=True)
class EncryptedPayload:
    codec_id: int
    m: int
    width: int
    height: int
    ciphertext: bytes  # K || C || T

    def header_bytes(self) -> bytes:
        return _pack_header(self.codec_id, self.m, self.width, self.height)

    def serialize(self) -> bytes:
        return self.header_bytes() + self.ciphertext

    @classmethod
    def parse(cls, data: bytes) -> "EncryptedPayload":
        return cls(*header_fields(data, len(data)), data[HEADER_LEN:])


def compress_encrypt(
    img: np.ndarray, codec: CodecModel, sym: SymKey, pub: ec.EllipticCurvePublicKey
) -> tuple[EncryptedPayload, float]:
    """Encode, shuffle, seal; returns the payload and elapsed seconds."""
    start = time.perf_counter()
    h, w = check_image(img).shape
    # packed first, so an image or m that a receiver must refuse fails
    # before any encoding; the header rides as AEAD associated data, so
    # any header tampering that survives parsing still fails authentication
    header = _pack_header(codec.codec_id, codec.m, w, h)
    latent = _finite(codec.encode(img))
    shuffled = shuffle(latent, permutation_for_key(sym, codec.m))
    ct = ecies_encrypt(shuffled.astype("<f4").tobytes(), pub, aad=header)
    return EncryptedPayload(codec.codec_id, codec.m, w, h, ct), time.perf_counter() - start


def decrypt_reconstruct(
    payload: EncryptedPayload, codec: CodecModel, sym: SymKey, priv: ec.EllipticCurvePrivateKey
) -> tuple[np.ndarray, float]:
    """Open, deshuffle, decode; returns the image and elapsed seconds.

    A wrong private key fails authentication; a wrong symmetric key is
    cryptographically undetectable and simply yields a scrambled latent.
    """
    if payload.codec_id != codec.codec_id:
        raise ShapeMismatchError(
            f"payload codec id {payload.codec_id} != model {codec.codec_id}"
        )
    if codec.kind == "neural" and payload.width * payload.height != codec.input_size:
        raise ShapeMismatchError(
            f"payload declares {payload.width}x{payload.height}, model decodes {codec.input_size} pixels"
        )
    start = time.perf_counter()
    plain = ecies_decrypt(payload.ciphertext, priv, aad=payload.header_bytes())
    shuffled = _finite(np.frombuffer(plain, dtype="<f4")).astype(np.float64)
    latent = deshuffle(shuffled, permutation_for_key(sym, payload.m))
    return codec.decode(latent, payload.width, payload.height), time.perf_counter() - start


def evaluate(
    img: np.ndarray,
    codec: CodecModel,
    sym: SymKey,
    pub: ec.EllipticCurvePublicKey,
    priv: ec.EllipticCurvePrivateKey,
    window: int | None = None,
) -> QualityReport:
    """One report row: quality of the round trip plus both timings; window is ssim's."""
    payload, enc_s = compress_encrypt(img, codec, sym, pub)
    recon, dec_s = decrypt_reconstruct(payload, codec, sym, priv)
    err = mse(img, recon)  # once: PSNR is a function of it
    return QualityReport(ssim=ssim(img, recon, window), mse=err, psnr=psnr(err), encrypt_seconds=enc_s, decrypt_seconds=dec_s)
