import hashlib
import hmac

import numpy as np
import pytest
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat
from hypothesis import given, settings
from hypothesis import strategies as st

from latentseal import codec, ecies, henon, images, pipeline
from latentseal.errors import AuthFailureError, InvalidPointError, IoError

GOLDEN_SCALAR = 0x66687AADF862BD776C8FC18B8E9F8E20089714856EE233B3902A591D0D5F2925
GOLDEN_PUB = "03893829bebc73eb4d24d7ed2f1444c907080834bd33671436269280bc603037af"
GOLDEN_CT = (
    "027a593180860c4037c83c12749845c8ee1424dd297fadcb895e358255d2c7d2b2"
    "3c6124ce49d7c68f62b69aa651de9ee6"
    "f9c5be7f65d0bb9fa3a4e1040558f59c"
)


def test_keygen_zero_seed_golden():
    # all-zero seed encodes scalar 0, which is rejection-sampled away
    kp = ecies.keygen(bytes(32))
    assert kp.private_scalar == GOLDEN_SCALAR
    assert kp.public_bytes.hex() == GOLDEN_PUB


def test_keygen_fresh_entropy():
    assert ecies.keygen().private_scalar != ecies.keygen().private_scalar


def test_keygen_seed_length():
    with pytest.raises(ValueError):
        ecies.keygen(b"short")


def test_encrypt_decrypt_round_trip(keypair):
    ct = ecies.ecies_encrypt(b"attack at dawn", keypair.public_bytes)
    assert ecies.ecies_decrypt(ct, keypair.private_scalar) == b"attack at dawn"


def test_golden_ciphertext(keypair):
    kp = ecies.keygen(bytes(32))
    ct = ecies.ecies_encrypt(b"golden plaintext", kp.public_bytes, eph_seed=bytes(range(32)))
    assert ct.hex() == GOLDEN_CT


def test_fresh_ephemerals(keypair):
    a = ecies.ecies_encrypt(b"same bytes", keypair.public_bytes)
    b = ecies.ecies_encrypt(b"same bytes", keypair.public_bytes)
    assert a[: ecies.KEY_LEN] != b[: ecies.KEY_LEN]
    assert a[ecies.KEY_LEN : -ecies.TAG_LEN] != b[ecies.KEY_LEN : -ecies.TAG_LEN]


def test_length_law(keypair):
    pt = bytes(400)
    ct = ecies.ecies_encrypt(pt, keypair.public_bytes)
    assert len(ct) == 449
    K, C, T = ct[:33], ct[33:-16], ct[-16:]
    assert K[0] in (2, 3)  # a compressed point's prefix
    assert (len(K), len(C), len(T)) == (33, 400, 16)


def test_empty_plaintext_rejected(keypair):
    with pytest.raises(ValueError):
        ecies.ecies_encrypt(b"", keypair.public_bytes)


def test_wrong_private_key(keypair):
    ct = ecies.ecies_encrypt(b"secret", keypair.public_bytes)
    other = ecies.keygen(bytes([7]) * 32)
    with pytest.raises(AuthFailureError):
        ecies.ecies_decrypt(ct, other.private_scalar)


def test_invalid_public_key():
    with pytest.raises(InvalidPointError):
        ecies.ecies_encrypt(b"x", b"\x02" + b"\xff" * 32)  # x >= field prime
    with pytest.raises(InvalidPointError):
        ecies.ecies_encrypt(b"x", b"\x05" + bytes(32))  # bad prefix


def test_single_bit_tamper(keypair):
    rng = np.random.default_rng(99)
    pt = bytes(rng.integers(0, 256, 40, dtype=np.uint8))
    blob = ecies.ecies_encrypt(pt, keypair.public_bytes)
    for _ in range(100):
        bit = int(rng.integers(len(blob) * 8))
        tampered = bytearray(blob)
        tampered[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises((AuthFailureError, InvalidPointError)):
            ecies.ecies_decrypt(bytes(tampered), keypair.private_scalar)


def test_every_prefix_and_an_extra_byte_fail_closed(keypair):
    ct = ecies.ecies_encrypt(b"prefix", keypair.public_bytes)
    for cut in [*range(len(ct)), None]:
        data = ct + b"\x00" if cut is None else ct[:cut]
        with pytest.raises((AuthFailureError, InvalidPointError)):
            ecies.ecies_decrypt(data, keypair.private_scalar)
    assert ecies.ecies_decrypt(ct, keypair.private_scalar) == b"prefix"


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=1, max_size=4096))
def test_round_trip_property(plaintext):
    kp = ecies.keygen(bytes([3]) * 32)
    ct = ecies.ecies_encrypt(plaintext, kp.public_bytes)
    assert ecies.ecies_decrypt(ct, kp.private_scalar) == plaintext
    assert len(ct) == len(plaintext) + ecies.OVERHEAD


def test_large_round_trip(keypair):
    pt = bytes(np.random.default_rng(1).integers(0, 256, 64 * 1024, dtype=np.uint8))
    ct = ecies.ecies_encrypt(pt, keypair.public_bytes)
    assert ecies.ecies_decrypt(ct, keypair.private_scalar) == pt


def test_deterministic_under_eph_seed(keypair):
    a = ecies.ecies_encrypt(b"fixed", keypair.public_bytes, eph_seed=bytes(32))
    b = ecies.ecies_encrypt(b"fixed", keypair.public_bytes, eph_seed=bytes(32))
    assert a == b


def test_key_file_round_trip(tmp_path, keypair):
    priv, pub = tmp_path / "k.priv", tmp_path / "k.pub"
    ecies.save_private_key(keypair, priv)
    ecies.save_public_key(keypair, pub)
    assert priv.read_text() == keypair.private_scalar.to_bytes(32, "big").hex() + "\n"
    assert pub.read_text() == keypair.public_bytes.hex() + "\n"
    assert ecies.load_private_key(priv) == keypair.private_scalar
    assert ecies.load_public_key(pub) == keypair.public_bytes


def test_key_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad"
    bad.write_text("not hex\n")
    with pytest.raises(IoError):
        ecies.load_private_key(bad)
    with pytest.raises(IoError):
        ecies.load_public_key(bad)


def test_wrong_key_still_fails_after_right_key_opened(keypair):
    ct = ecies.ecies_encrypt(b"cached", keypair.public_bytes)
    assert ecies.ecies_decrypt(ct, keypair.private_scalar) == b"cached"
    other = ecies.keygen(bytes([8]) * 32)
    with pytest.raises(AuthFailureError):
        ecies.ecies_decrypt(ct, other.private_scalar)
    assert ecies.ecies_decrypt(ct, keypair.private_scalar) == b"cached"


def test_two_recipients_open_only_their_own():
    alice, bob = ecies.keygen(bytes([1]) * 32), ecies.keygen(bytes([2]) * 32)
    for _ in range(2):
        to_alice = ecies.ecies_encrypt(b"for alice", alice.public_bytes)
        to_bob = ecies.ecies_encrypt(b"for bob", bob.public_bytes)
        assert ecies.ecies_decrypt(to_alice, alice.private_scalar) == b"for alice"
        assert ecies.ecies_decrypt(to_bob, bob.private_scalar) == b"for bob"
        with pytest.raises(AuthFailureError):
            ecies.ecies_decrypt(to_alice, bob.private_scalar)
        with pytest.raises(AuthFailureError):
            ecies.ecies_decrypt(to_bob, alice.private_scalar)


def test_invalid_recipient_point_rejected_every_call():
    for _ in range(3):
        with pytest.raises(InvalidPointError):
            ecies.ecies_encrypt(b"x", b"\x02" + b"\xff" * 32)


def test_public_key_load_decompresses_the_point_once_and_refuses_a_bad_one_every_time(tmp_path, keypair):
    path = tmp_path / "k.pub"
    ecies.save_public_key(keypair, path)
    ecies._recipient_point.cache_clear()
    pub = ecies.load_public_key(path)
    assert ecies._recipient_point.cache_info().currsize == 1
    ecies.ecies_encrypt(b"msg", pub)
    assert ecies._recipient_point.cache_info().misses == 1
    path.write_text("02" + "ff" * 32 + "\n")  # not a curve point
    for _ in range(2):
        with pytest.raises(IoError, match="k.pub"):
            ecies.load_public_key(path)


def test_per_key_caches_bounded_and_hold_no_ephemeral_state(keypair):
    assert ecies._recipient_point.cache_info().maxsize == 128
    assert ecies._private_key.cache_info().maxsize == 128
    ecies._recipient_point.cache_clear()
    ecies._private_key.cache_clear()
    for i in range(5):
        ct = ecies.ecies_encrypt(b"msg", keypair.public_bytes, eph_seed=bytes([i + 1]) * 32)
        assert ecies.ecies_decrypt(ct, keypair.private_scalar) == b"msg"
    # one long-term point and one long-term key; no ephemeral scalar or point K
    assert ecies._recipient_point.cache_info().currsize == 1
    assert ecies._private_key.cache_info().currsize == 1


def test_fresh_keys_are_valid_and_distinct(keypair):
    kp = ecies.keygen()
    assert 1 <= kp.private_scalar < ecies.CURVE_ORDER
    assert kp.public_bytes == ecies._compress(ecies._private_key(kp.private_scalar).public_key())
    a = ecies.ecies_encrypt(b"fresh", keypair.public_bytes)
    b = ecies.ecies_encrypt(b"fresh", keypair.public_bytes)
    assert a[: ecies.KEY_LEN] != b[: ecies.KEY_LEN]
    assert ecies.ecies_decrypt(a, keypair.private_scalar) == b"fresh"


@pytest.mark.parametrize("suffix", ["pub", "priv"])
def test_oversized_key_file_is_io_error(tmp_path, keypair, suffix):
    path = tmp_path / f"k.{suffix}"
    getattr(ecies, f"save_{'public' if suffix == 'pub' else 'private'}_key")(keypair, path)
    path.write_bytes(path.read_bytes() + b" " * (3 << 20))  # valid key, then 3 MiB of padding
    loader = ecies.load_public_key if suffix == "pub" else ecies.load_private_key
    with pytest.raises(IoError, match="over"):
        loader(path)


def test_compress_matches_cryptography_encoding():
    # ecies builds the SEC1 point itself; cryptography's own encoder is the oracle
    rng = np.random.default_rng(7)
    parities = set()
    for _ in range(256):
        _, priv = ecies._new_key(rng.bytes(32))
        pub = priv.public_key()
        expected = pub.public_bytes(Encoding.X962, PublicFormat.CompressedPoint)
        assert ecies._compress(pub) == expected
        parities.add(expected[0])
    assert parities == {2, 3}


def test_new_key_rejection_path_matches_sha256_oracle():
    seed = b"\xff" * 32
    assert int.from_bytes(seed, "big") >= ecies.CURVE_ORDER  # so the seed itself is rejected
    candidate = seed
    while not 1 <= int.from_bytes(candidate, "big") < ecies.CURVE_ORDER:
        candidate = hashlib.sha256(candidate).digest()
    assert candidate != seed
    scalar, priv = ecies._new_key(seed)
    assert scalar == int.from_bytes(candidate, "big") == priv.private_numbers().private_value


def _hkdf_sha256(ikm: bytes, info: bytes, length: int) -> bytes:
    """RFC 5869 HKDF with SHA-256 and no salt (HashLen zero bytes), on hmac alone."""
    prk = hmac.new(bytes(32), ikm, hashlib.sha256).digest()
    okm, block = b"", b""
    for counter in range(1, -(-length // 32) + 1):
        block = hmac.new(prk, block + info + bytes((counter,)), hashlib.sha256).digest()
        okm += block
    return okm[:length]


def test_hkdf_oracle_matches_rfc5869_case_3():
    # RFC 5869 appendix A.3: SHA-256, no salt, no info
    okm = _hkdf_sha256(bytes([0x0B]) * 22, b"", 42)
    assert okm.hex() == (
        "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
    )


def test_sealed_payload_opens_by_the_stated_composition(keypair, sym_key):
    # the README's composition, checked without ecies's KDF or AEAD code: ECDH with the
    # ephemeral point K, HKDF-SHA-256 over shared secret || K with info latentseal-v1, key
    # the first 32 and nonce the last 12 of 44 bytes, the 12-byte header as associated data
    img = images.smooth_gradient(64)
    model = codec.dct_model(100)
    payload, _ = pipeline.compress_encrypt(img, model, sym_key, keypair.public_bytes, eph_seed=bytes(range(1, 33)))
    header, ct = payload.header_bytes(), payload.ciphertext
    assert len(header) == 12 and payload.serialize() == header + ct
    eph = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256R1(), ct[:33])
    shared = ec.derive_private_key(keypair.private_scalar, ec.SECP256R1()).exchange(ec.ECDH(), eph)
    okm = _hkdf_sha256(shared + ct[:33], b"latentseal-v1", 44)
    key, nonce = okm[:32], okm[32:]
    plain = AESGCM(key).decrypt(nonce, ct[33:], header)
    latent = henon.shuffle(model.encode(img), henon.permutation_for_key(sym_key, 100))
    assert plain == latent.astype("<f4").tobytes()
    for i in range(len(header)):  # each header byte is bound by the tag
        with pytest.raises(InvalidTag):
            AESGCM(key).decrypt(nonce, ct[33:], header[:i] + bytes([header[i] ^ 1]) + header[i + 1 :])
