"""ECIES over secp256r1: ephemeral ECDH KEM + AES-256-GCM DEM.

A ciphertext is the bytes K || C || T: a 33-byte compressed ephemeral
public key, then AES-GCM's output, C the length of the plaintext and a
16-byte tag T.  Key and nonce are disjoint segments of HKDF-SHA-256
output keyed on the shared secret concatenated with K.

Keys are cryptography's key objects: keygen returns an
EllipticCurvePrivateKey, and the save functions take, and the loaders
return, the same objects.  A .priv is the 32-byte scalar and a .pub the
33-byte compressed point, each as hex and a newline; load_private_key
range-checks the scalar and load_public_key checks the point.  A caller
that seals or opens many messages loads each key once and passes the
object; this module keeps no per-key state.
"""

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .errors import KEY_FILE_CAP, AuthFailureError, InvalidPointError, IoError, atomic_write, read_file
from .wire import KEY_LEN, OVERHEAD  # the ciphertext's sizes are part of the payload's wire format

CURVE = ec.SECP256R1()
CURVE_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
KDF_INFO = b"latentseal-v1"


def _compress(pub: ec.EllipticCurvePublicKey) -> bytes:
    """SEC1 compressed point; cryptography's encoder would import its SSH module."""
    n = pub.public_numbers()
    return bytes((2 + (n.y & 1),)) + n.x.to_bytes(32, "big")


def _load_point(data: bytes) -> ec.EllipticCurvePublicKey:
    try:
        return ec.EllipticCurvePublicKey.from_encoded_point(CURVE, data)
    except ValueError as e:
        raise InvalidPointError(str(e)) from e


def _new_key(seed: bytes) -> ec.EllipticCurvePrivateKey:
    """The private key whose scalar a 32-byte seed gives.

    Rejection-samples: out-of-range candidates are replaced by their
    SHA-256 digest until a valid scalar appears.
    """
    if len(seed) != 32:
        raise ValueError("seed must be exactly 32 bytes")
    candidate = seed
    while True:
        scalar = int.from_bytes(candidate, "big")
        if 1 <= scalar < CURVE_ORDER:
            return ec.derive_private_key(scalar, CURVE)
        digest = hashes.Hash(hashes.SHA256())
        digest.update(candidate)
        candidate = digest.finalize()


def keygen(seed: bytes | None = None) -> ec.EllipticCurvePrivateKey:
    """A private key from fresh entropy; a 32-byte seed makes it deterministic."""
    return ec.generate_private_key(CURVE) if seed is None else _new_key(seed)


def _derive_key_nonce(shared: bytes, eph_pub: bytes) -> tuple[bytes, bytes]:
    okm = HKDF(
        algorithm=hashes.SHA256(), length=44, salt=None, info=KDF_INFO
    ).derive(shared + eph_pub)
    return okm[:32], okm[32:]


def ecies_encrypt(plaintext: bytes, pub: ec.EllipticCurvePublicKey, aad: bytes = b"") -> bytes:
    """Seal to K || C || T under the recipient's public key and a fresh ephemeral key.

    Each call draws its own ephemeral key: one reused for one recipient
    would repeat the GCM key and nonce.  Optional associated data is
    authenticated but not encrypted; the pipeline uses it to bind its
    payload header to the tag.
    """
    if not plaintext:
        raise ValueError("plaintext must be non-empty")
    eph = keygen()
    eph_pub = _compress(eph.public_key())
    shared = eph.exchange(ec.ECDH(), pub)
    key, nonce = _derive_key_nonce(shared, eph_pub)
    return eph_pub + AESGCM(key).encrypt(nonce, plaintext, aad)


def ecies_decrypt(ct: bytes, priv: ec.EllipticCurvePrivateKey, aad: bytes = b"") -> bytes:
    """Open K || C || T: InvalidPointError if short or K is bad, AuthFailureError on any tag mismatch."""
    if len(ct) < OVERHEAD + 1:
        raise InvalidPointError("ciphertext too short")
    eph_key = ct[:KEY_LEN]
    shared = priv.exchange(ec.ECDH(), _load_point(eph_key))
    key, nonce = _derive_key_nonce(shared, eph_key)
    try:
        return AESGCM(key).decrypt(nonce, ct[KEY_LEN:], aad)
    except InvalidTag as e:
        raise AuthFailureError("authentication tag mismatch") from e


def save_private_key(priv: ec.EllipticCurvePrivateKey, path) -> None:
    atomic_write(path, (priv.private_numbers().private_value.to_bytes(32, "big").hex() + "\n").encode(), 0o600)


def save_public_key(pub: ec.EllipticCurvePublicKey, path) -> None:
    atomic_write(path, (_compress(pub).hex() + "\n").encode())


def _key_bytes(path, size: int) -> bytes:
    """The size bytes a key file holds as hex; anything else is IoError naming path."""
    try:
        data = bytes.fromhex(read_file(path, KEY_FILE_CAP).decode())
    except ValueError as e:
        raise IoError(f"bad key file: {path}: {e}") from e
    if len(data) != size:
        raise IoError(f"bad key file: {path}: {len(data)} bytes, not {size}")
    return data


def load_private_key(path) -> ec.EllipticCurvePrivateKey:
    scalar = int.from_bytes(_key_bytes(path, 32), "big")
    if not 1 <= scalar < CURVE_ORDER:
        raise IoError(f"private scalar out of range: {path}")
    return ec.derive_private_key(scalar, CURVE)


def load_public_key(path) -> ec.EllipticCurvePublicKey:
    try:
        return _load_point(_key_bytes(path, KEY_LEN))
    except InvalidPointError as e:
        raise IoError(f"bad public key file: {path}: {e}") from e
