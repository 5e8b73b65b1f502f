import functools
import hashlib
import hmac
from unittest import mock

import numpy as np
import pytest
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat
from hypothesis import given, settings
from hypothesis import strategies as st

from latentseal import codec, ecies, henon, images, pipeline, wire
from latentseal.errors import AuthFailureError, InvalidPointError, IoError

from conftest import reference

GOLDEN_SCALAR = 0x66687AADF862BD776C8FC18B8E9F8E20089714856EE233B3902A591D0D5F2925
GOLDEN_PUB = "03893829bebc73eb4d24d7ed2f1444c907080834bd33671436269280bc603037af"
GOLDEN_CT = (
    "027a593180860c4037c83c12749845c8ee1424dd297fadcb895e358255d2c7d2b2"
    "3c6124ce49d7c68f62b69aa651de9ee6"
    "f9c5be7f65d0bb9fa3a4e1040558f59c"
)


def test_keygen_zero_seed_golden():
    # all-zero seed encodes scalar 0, which is rejection-sampled away
    priv = ecies.keygen(bytes(32))
    assert priv.private_numbers().private_value == GOLDEN_SCALAR
    assert ecies._compress(priv.public_key()).hex() == GOLDEN_PUB


def test_keygen_fresh_entropy():
    a, b = ecies.keygen(), ecies.keygen()
    assert isinstance(a, ec.EllipticCurvePrivateKey)
    assert a.private_numbers().private_value != b.private_numbers().private_value


def test_keygen_seed_length():
    with pytest.raises(ValueError):
        ecies.keygen(b"short")


def test_encrypt_decrypt_round_trip(public_key, private_key):
    ct = ecies.ecies_encrypt(b"attack at dawn", public_key)
    assert ecies.ecies_decrypt(ct, private_key) == b"attack at dawn"


def test_golden_ciphertext():
    pub = ecies.keygen(bytes(32)).public_key()
    with mock.patch.object(ecies, "keygen", functools.partial(ecies.keygen, bytes(range(32)))):  # fixes the seal's one ephemeral draw
        ct = ecies.ecies_encrypt(b"golden plaintext", pub)
    assert ct.hex() == GOLDEN_CT


def test_fresh_ephemerals(public_key):
    a = ecies.ecies_encrypt(b"same bytes", public_key)
    b = ecies.ecies_encrypt(b"same bytes", public_key)
    assert a[: wire.KEY_LEN] != b[: wire.KEY_LEN]
    assert a[wire.KEY_LEN : -wire.TAG_LEN] != b[wire.KEY_LEN : -wire.TAG_LEN]


def test_length_law(public_key):
    pt = bytes(400)
    ct = ecies.ecies_encrypt(pt, public_key)
    assert len(ct) == 449
    K, C, T = ct[:33], ct[33:-16], ct[-16:]
    assert K[0] in (2, 3)  # a compressed point's prefix
    assert (len(K), len(C), len(T)) == (33, 400, 16)


def test_empty_plaintext_rejected(public_key):
    with pytest.raises(ValueError):
        ecies.ecies_encrypt(b"", public_key)


def test_wrong_private_key(public_key):
    ct = ecies.ecies_encrypt(b"secret", public_key)
    other = ecies.keygen(bytes([7]) * 32)
    with pytest.raises(AuthFailureError):
        ecies.ecies_decrypt(ct, other)


def test_invalid_public_key():
    with pytest.raises(InvalidPointError):
        ecies._load_point(b"\x02" + b"\xff" * 32)  # x >= field prime
    with pytest.raises(InvalidPointError):
        ecies._load_point(b"\x05" + bytes(32))  # bad prefix


def test_single_bit_tamper(public_key, private_key):
    rng = np.random.default_rng(99)
    pt = bytes(rng.integers(0, 256, 40, dtype=np.uint8))
    blob = ecies.ecies_encrypt(pt, public_key)
    for _ in range(100):
        bit = int(rng.integers(len(blob) * 8))
        tampered = bytearray(blob)
        tampered[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises((AuthFailureError, InvalidPointError)):
            ecies.ecies_decrypt(bytes(tampered), private_key)


def test_every_prefix_and_an_extra_byte_fail_closed(public_key, private_key):
    for plaintext in (b"x", b"prefix"):  # b"x" seals to the shortest ciphertext, OVERHEAD + 1 bytes
        ct = ecies.ecies_encrypt(plaintext, public_key)
        for cut in [*range(len(ct)), None]:
            data = ct + b"\x00" if cut is None else ct[:cut]
            with pytest.raises((AuthFailureError, InvalidPointError)):
                ecies.ecies_decrypt(data, private_key)
        assert ecies.ecies_decrypt(ct, private_key) == plaintext


def test_round_trip_property(public_key, private_key):
    # 1000 plaintexts of 1..4096 bytes open to themselves, each sealed to its length plus the overhead
    rng = np.random.default_rng(7)
    for _ in range(1000):
        plaintext = rng.bytes(int(rng.integers(1, 4097)))
        ct = ecies.ecies_encrypt(plaintext, public_key)
        assert ecies.ecies_decrypt(ct, private_key) == plaintext
        assert len(ct) == len(plaintext) + reference.ECIES_OVERHEAD


def test_large_round_trip(public_key, private_key):
    pt = bytes(np.random.default_rng(1).integers(0, 256, 64 * 1024, dtype=np.uint8))
    ct = ecies.ecies_encrypt(pt, public_key)
    assert ecies.ecies_decrypt(ct, private_key) == pt


def test_key_file_round_trip(tmp_path, private_key, public_key):
    priv, pub = tmp_path / "k.priv", tmp_path / "k.pub"
    ecies.save_private_key(private_key, priv)
    ecies.save_public_key(public_key, pub)
    scalar = private_key.private_numbers().private_value
    assert priv.read_text() == scalar.to_bytes(32, "big").hex() + "\n"
    assert pub.read_text() == public_key.public_bytes(Encoding.X962, PublicFormat.CompressedPoint).hex() + "\n"
    assert ecies.load_private_key(priv).private_numbers().private_value == scalar
    assert ecies.load_public_key(pub) == public_key
    # save(load(f)) gives f back byte for byte
    ecies.save_private_key(ecies.load_private_key(priv), tmp_path / "again.priv")
    ecies.save_public_key(ecies.load_public_key(pub), tmp_path / "again.pub")
    assert (tmp_path / "again.priv").read_bytes() == priv.read_bytes()
    assert (tmp_path / "again.pub").read_bytes() == pub.read_bytes()


@pytest.mark.parametrize("text", ["0x00ff\n", " f_f \n", "ff\n", "00" * 31 + "ff00\n"], ids=["0x", "underscore", "short", "long"])
def test_private_key_file_holds_exactly_32_bytes_of_hex(tmp_path, text):
    path = tmp_path / "k.priv"
    path.write_text(text)
    with pytest.raises(IoError, match="k.priv"):
        ecies.load_private_key(path)
    path.write_text("00" * 31 + "ff")  # 64 hex digits, with or without the newline
    assert ecies.load_private_key(path).private_numbers().private_value == 255


def test_key_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad"
    bad.write_text("not hex\n")
    with pytest.raises(IoError):
        ecies.load_private_key(bad)
    with pytest.raises(IoError):
        ecies.load_public_key(bad)


def test_wrong_key_still_fails_after_right_key_opened(public_key, private_key):
    ct = ecies.ecies_encrypt(b"cached", public_key)
    assert ecies.ecies_decrypt(ct, private_key) == b"cached"
    other = ecies.keygen(bytes([8]) * 32)
    with pytest.raises(AuthFailureError):
        ecies.ecies_decrypt(ct, other)
    assert ecies.ecies_decrypt(ct, private_key) == b"cached"


def test_two_recipients_open_only_their_own():
    alice, bob = ecies.keygen(bytes([1]) * 32), ecies.keygen(bytes([2]) * 32)
    for _ in range(2):
        to_alice = ecies.ecies_encrypt(b"for alice", alice.public_key())
        to_bob = ecies.ecies_encrypt(b"for bob", bob.public_key())
        assert ecies.ecies_decrypt(to_alice, alice) == b"for alice"
        assert ecies.ecies_decrypt(to_bob, bob) == b"for bob"
        with pytest.raises(AuthFailureError):
            ecies.ecies_decrypt(to_alice, bob)
        with pytest.raises(AuthFailureError):
            ecies.ecies_decrypt(to_bob, alice)


def test_invalid_recipient_point_rejected_every_call():
    for _ in range(3):
        with pytest.raises(InvalidPointError):
            ecies._load_point(b"\x02" + b"\xff" * 32)


def test_public_key_load_refuses_a_bad_point_every_time(tmp_path):
    path = tmp_path / "k.pub"
    path.write_text("02" + "ff" * 32 + "\n")  # not a curve point
    for _ in range(2):
        with pytest.raises(IoError, match="k.pub"):
            ecies.load_public_key(path)


def test_fresh_keys_are_valid_and_distinct(public_key, private_key):
    assert 1 <= ecies.keygen().private_numbers().private_value < ecies.CURVE_ORDER
    a = ecies.ecies_encrypt(b"fresh", public_key)
    b = ecies.ecies_encrypt(b"fresh", public_key)
    assert a[: wire.KEY_LEN] != b[: wire.KEY_LEN]
    assert ecies.ecies_decrypt(a, private_key) == b"fresh"


@pytest.mark.parametrize("suffix", ["pub", "priv"])
def test_oversized_key_file_is_io_error(tmp_path, private_key, suffix):
    path = tmp_path / f"k.{suffix}"
    if suffix == "pub":
        ecies.save_public_key(private_key.public_key(), path)
    else:
        ecies.save_private_key(private_key, path)
    path.write_bytes(path.read_bytes() + b" " * (3 << 20))  # valid key, then 3 MiB of padding
    loader = ecies.load_public_key if suffix == "pub" else ecies.load_private_key
    with pytest.raises(IoError, match="over"):
        loader(path)


def test_compress_matches_cryptography_encoding():
    # ecies builds the SEC1 point itself; cryptography's own encoder is the oracle
    rng = np.random.default_rng(7)
    parities = set()
    for _ in range(256):
        pub = ecies._new_key(rng.bytes(32)).public_key()
        expected = pub.public_bytes(Encoding.X962, PublicFormat.CompressedPoint)
        assert ecies._compress(pub) == expected
        parities.add(expected[0])
    assert parities == {2, 3}


# P-256's field prime p and coefficient b, typed in from FIPS 186-4 D.1.2.3; a = -3
P256_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
P256_B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B


def _decompress(data: bytes) -> tuple[int, int] | None:
    """SEC 1 v2 2.3.4: (x, y) of a 33-byte compressed P-256 point, or None if it encodes none."""
    x = int.from_bytes(data[1:], "big")
    if data[0] not in (2, 3) or x >= P256_P:
        return None
    rhs = (x**3 - 3 * x + P256_B) % P256_P
    y = pow(rhs, (P256_P + 1) // 4, P256_P)  # the square root, if any, since p = 3 mod 4
    if y * y % P256_P != rhs:
        return None
    return x, y if y & 1 == data[0] & 1 else P256_P - y


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2**256 - 1))  # about half of them points
def test_point_decoder_agrees_with_sec1_decompression(prefix, x):
    data = bytes([prefix]) + x.to_bytes(32, "big")
    expected = _decompress(data)
    if expected is None:
        with pytest.raises(InvalidPointError):
            ecies._load_point(data)
    else:
        n = ecies._load_point(data).public_numbers()
        assert (n.x, n.y) == expected

def test_new_key_rejection_path_matches_sha256_oracle():
    seed = b"\xff" * 32
    assert int.from_bytes(seed, "big") >= ecies.CURVE_ORDER  # so the seed itself is rejected
    candidate = seed
    while not 1 <= int.from_bytes(candidate, "big") < ecies.CURVE_ORDER:
        candidate = hashlib.sha256(candidate).digest()
    assert candidate != seed
    assert ecies._new_key(seed).private_numbers().private_value == int.from_bytes(candidate, "big")


def test_scalar_edges_of_a_seed_and_a_private_key_file(tmp_path):
    # a seed or a .priv holds a scalar in 1..CURVE_ORDER - 1; a seed outside it is rehashed, a .priv refused
    path = tmp_path / "k.priv"
    for scalar, legal in ((0, False), (1, True), (ecies.CURVE_ORDER - 1, True), (ecies.CURVE_ORDER, False)):
        seed = scalar.to_bytes(32, "big")
        rehashed = int.from_bytes(hashlib.sha256(seed).digest(), "big")
        assert ecies._new_key(seed).private_numbers().private_value == (scalar if legal else rehashed)
        path.write_text(seed.hex() + "\n")
        if legal:
            assert ecies.load_private_key(path).private_numbers().private_value == scalar
        else:
            with pytest.raises(IoError, match="out of range"):
                ecies.load_private_key(path)


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


def test_sealed_payload_opens_by_the_stated_composition(public_key, private_key, sym_key):
    # the README's composition, checked without ecies's KDF or AEAD code: ECDH with the
    # ephemeral point K, HKDF-SHA-256 over shared secret || K with info latentseal-v1, key
    # the first 32 and nonce the last 12 of 44 bytes, the 12-byte header as associated data
    img = images.smooth_gradient(64)
    model = codec.dct_model(100)
    payload, _ = pipeline.compress_encrypt(img, model, sym_key, public_key)
    header, ct = payload.header_bytes(), payload.ciphertext
    assert len(header) == 12 and payload.serialize() == header + ct
    eph = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256R1(), ct[:33])
    shared = private_key.exchange(ec.ECDH(), eph)
    okm = _hkdf_sha256(shared + ct[:33], b"latentseal-v1", 44)
    key, nonce = okm[:32], okm[32:]
    plain = AESGCM(key).decrypt(nonce, ct[33:], header)
    latent = henon.shuffle(model.encode(img), henon.permutation_for_key(sym_key, 100))
    assert plain == latent.astype("<f4").tobytes()
    for i in range(len(header)):  # each header byte is bound by the tag
        with pytest.raises(InvalidTag):
            AESGCM(key).decrypt(nonce, ct[33:], header[:i] + bytes([header[i] ^ 1]) + header[i + 1 :])
