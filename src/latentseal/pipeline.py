"""End-to-end composition: codec -> keyed shuffle -> ECIES, and back.

Sender: encode the image to an m-element latent, shuffle it with the
permutation derived from the symmetric key's chaotic orbit, serialize
as 32-bit little-endian floats, and seal with the recipient public
key.  Receiver inverts each step.  The crypto and shuffle layers are
exactly lossless: the only loss in the chain is the codec's.
"""

import struct
import time
from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.asymmetric import ec

from .codec import KIND_DCT, KIND_NEURAL, CodecModel
from .ecies import OVERHEAD, ecies_decrypt, ecies_encrypt
from .errors import BadHeaderError, MTooLargeError, NonFiniteLatentError, ShapeMismatchError
from .henon import SymKey, deshuffle, permutation_for_key, shuffle
from .images import MAX_PIXELS, check_image
from .metrics import QualityReport, mse, psnr, ssim

PAYLOAD_MAGIC = b"LSP1"
PAYLOAD_VERSION = 1
HEADER_LEN = 12  # magic(4) version(1) codec_id(1) m(2) width(2) height(2)
PAYLOAD_CAP = HEADER_LEN + 4 * 0xFFFF + OVERHEAD  # largest legal payload, 262 201 bytes
_HEADER_FIELDS = "<BBHHH"


def _check_header_fields(codec_id: int, m: int, width: int, height: int, m_error, field_error) -> None:
    """The header's field rules, shared by the sender and the receiver: codec
    id 0 (DCT) or 1 (neural), m and each side in 1..65535, width * height at
    most MAX_PIXELS, which bounds the decoder's allocation, and for DCT m at
    most width * height, the image's coefficient count."""
    if codec_id not in (KIND_DCT, KIND_NEURAL):
        raise field_error(f"codec id {codec_id} is neither {KIND_DCT} (DCT) nor {KIND_NEURAL} (neural)")
    if not 1 <= m <= 0xFFFF:
        raise m_error(f"m={m} outside the header's 1..65535")
    if not (1 <= width <= 0xFFFF and 1 <= height <= 0xFFFF and width * height <= MAX_PIXELS):
        raise field_error(f"image {width}x{height} outside the header's 1..65535 per side and {MAX_PIXELS} pixels")
    if codec_id == KIND_DCT and m > width * height:
        raise m_error(f"DCT m={m} exceeds the {width}x{height} image's {width * height} coefficients")


def _pack_header(codec_id: int, m: int, width: int, height: int) -> bytes:
    _check_header_fields(codec_id, m, width, height, MTooLargeError, ShapeMismatchError)
    return PAYLOAD_MAGIC + struct.pack(_HEADER_FIELDS, PAYLOAD_VERSION, codec_id, m, width, height)


def header_fields(header: bytes, length: int) -> tuple[int, int, int, int]:
    """(codec_id, m, width, height) of a payload of length bytes that starts
    with header, by decrypt's rules: the magic, the version, the field rules
    and a body of 4m + OVERHEAD bytes.  Anything else raises BadHeaderError.
    Only the first HEADER_LEN bytes of header are read."""
    if len(header) < HEADER_LEN or header[:4] != PAYLOAD_MAGIC:
        raise BadHeaderError("missing payload magic")
    version, codec_id, m, width, height = struct.unpack(_HEADER_FIELDS, header[4:HEADER_LEN])
    if version != PAYLOAD_VERSION:
        raise BadHeaderError(f"unsupported payload version {version}")
    _check_header_fields(codec_id, m, width, height, BadHeaderError, BadHeaderError)
    if length - HEADER_LEN != 4 * m + OVERHEAD:
        raise BadHeaderError(f"body length {length - HEADER_LEN} inconsistent with m={m}")
    return codec_id, m, width, height


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
    img: np.ndarray,
    codec: CodecModel,
    sym: SymKey,
    pub: ec.EllipticCurvePublicKey,
    eph_seed: bytes | None = None,
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
    ct = ecies_encrypt(shuffled.astype("<f4").tobytes(), pub, eph_seed, aad=header)
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
    return QualityReport(
        ssim=ssim(img, recon, window),
        mse=mse(img, recon),
        psnr=psnr(img, recon),
        encrypt_seconds=enc_s,
        decrypt_seconds=dec_s,
    )
