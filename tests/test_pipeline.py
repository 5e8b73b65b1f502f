import dataclasses
import math
import warnings

import numpy as np
import pytest

from latentseal import codec, ecies, henon, pipeline, wire
from latentseal.errors import AuthFailureError, BadHeaderError, MTooLargeError, NonFiniteLatentError, ShapeMismatchError
from latentseal.images import smooth_gradient
from latentseal.metrics import ssim

from conftest import reference
from test_transfer import payload_frame


def test_crypto_layer_losslessness(public_key, private_key, sym_key):
    rng = np.random.default_rng(0)
    model = codec.dct_model(20)
    for _ in range(50):
        img = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        sym = henon.random_sym_key(rng)
        payload, _ = pipeline.compress_encrypt(img, model, sym, public_key)
        rec, _ = pipeline.decrypt_reconstruct(payload, model, sym, private_key)
        direct = model.decode(model.encode(img), 8, 8)
        assert np.array_equal(rec, direct)


def test_payload_size_law(public_key, sym_key):
    img = smooth_gradient(256)
    model = codec.dct_model(100)
    payload, _ = pipeline.compress_encrypt(img, model, sym_key, public_key)
    blob = payload.serialize()
    assert len(blob) == reference.payload_size(100)
    assert len(payload.ciphertext) == 449  # the 65536-pixel -> 100-element body


def test_timing_report(public_key, private_key, sym_key):
    # the paper's timing table: one CSV row of 5 fields per image, and a 256x256 encryption within 2 s
    model = codec.dct_model(100)
    img = smooth_gradient(256)
    pipeline.compress_encrypt(img, model, sym_key, public_key)  # warm the caches
    report = pipeline.evaluate(img, model, sym_key, public_key, private_key)
    assert len(report.csv_row().split(",")) == 5
    assert report.encrypt_seconds < 2.0


def test_latent_integrity(public_key, private_key, sym_key):
    img = smooth_gradient(64)
    model = codec.dct_model(50)
    latent = model.encode(img)
    payload, _ = pipeline.compress_encrypt(img, model, sym_key, public_key)
    plain = ecies.ecies_decrypt(
        payload.ciphertext, private_key, aad=payload.header_bytes()
    )
    perm = henon.permutation_for_key(sym_key, 50)
    recovered = henon.deshuffle(np.frombuffer(plain, dtype="<f4").astype(np.float64), perm)
    assert np.array_equal(recovered, latent)


def test_m1_edge_case(public_key, private_key):
    img = np.random.default_rng(5).integers(0, 256, (8, 8), dtype=np.uint8)
    model = codec.dct_model(1)
    sym = henon.SymKey(0.1, 0.1)
    payload, _ = pipeline.compress_encrypt(img, model, sym, public_key)
    assert payload.m == 1
    rec, _ = pipeline.decrypt_reconstruct(payload, model, sym, private_key)
    assert np.array_equal(rec, model.decode(model.encode(img), 8, 8))


def test_ephemeral_freshness(public_key, sym_key):
    img = smooth_gradient(32)
    model = codec.dct_model(10)
    a, _ = pipeline.compress_encrypt(img, model, sym_key, public_key)
    b, _ = pipeline.compress_encrypt(img, model, sym_key, public_key)
    assert a.serialize()[: wire.HEADER_LEN] == b.serialize()[: wire.HEADER_LEN]
    assert a.serialize()[wire.HEADER_LEN :] != b.serialize()[wire.HEADER_LEN :]


def test_wrong_private_key(public_key, sym_key):
    img = smooth_gradient(32)
    model = codec.dct_model(10)
    payload, _ = pipeline.compress_encrypt(img, model, sym_key, public_key)
    other = ecies.keygen(bytes([9]) * 32)
    with pytest.raises(AuthFailureError):
        pipeline.decrypt_reconstruct(payload, model, sym_key, other)


def test_wrong_sym_key_scrambles(public_key, private_key, sym_key):
    img = smooth_gradient(256)
    model = codec.dct_model(100)
    payload, _ = pipeline.compress_encrypt(img, model, sym_key, public_key)
    good, _ = pipeline.decrypt_reconstruct(payload, model, sym_key, private_key)
    near_key = henon.SymKey(sym_key.x0 + 1e-9, sym_key.y0)
    bad, _ = pipeline.decrypt_reconstruct(payload, model, near_key, private_key)
    assert not np.array_equal(good, bad)
    assert ssim(good, bad) < 0.9


def test_header_tampering(public_key, private_key, sym_key):
    img = smooth_gradient(32)
    model = codec.dct_model(10)
    payload, _ = pipeline.compress_encrypt(img, model, sym_key, public_key)
    blob = payload.serialize()
    for i in range(wire.HEADER_LEN):
        tampered = bytearray(blob)
        tampered[i] ^= 0xFF
        try:
            parsed = pipeline.EncryptedPayload.parse(bytes(tampered))
        except BadHeaderError:
            continue
        # the header is AEAD associated data: anything that still
        # parses fails authentication (or the codec-id check) instead
        # of silently emitting a wrong-size image
        with pytest.raises((AuthFailureError, ShapeMismatchError)):
            pipeline.decrypt_reconstruct(parsed, model, sym_key, private_key)


def test_truncated_payload(public_key, sym_key):
    img = smooth_gradient(32)
    model = codec.dct_model(10)
    payload, _ = pipeline.compress_encrypt(img, model, sym_key, public_key)
    blob = payload.serialize()
    with pytest.raises(BadHeaderError):
        pipeline.EncryptedPayload.parse(blob[:-5])
    with pytest.raises(BadHeaderError):
        pipeline.EncryptedPayload.parse(b"XXXX" + blob[4:])
    with pytest.raises(BadHeaderError):
        pipeline.EncryptedPayload.parse(blob[:8])


def test_codec_id_mismatch(public_key, private_key, sym_key):
    img = smooth_gradient(32)
    payload, _ = pipeline.compress_encrypt(img, codec.dct_model(10), sym_key, public_key)
    neural = codec.CodecModel(kind="neural", m=10)
    with pytest.raises(ShapeMismatchError):
        pipeline.decrypt_reconstruct(payload, neural, sym_key, private_key)


def test_evaluate_lossless_path(public_key, private_key, sym_key):
    img = np.random.default_rng(1).integers(0, 256, (8, 8), dtype=np.uint8)
    model = codec.dct_model(64)  # full rank: chain is exactly lossless
    report = pipeline.evaluate(img, model, sym_key, public_key, private_key)
    assert report.mse == 0.0
    assert report.psnr == math.inf
    assert report.ssim == pytest.approx(1.0, abs=1e-12)
    assert report.encrypt_seconds > 0 and report.decrypt_seconds > 0


def test_evaluate_lossy_psnr_matches_direct(public_key, private_key, sym_key):
    img = smooth_gradient(64)
    model = codec.dct_model(30)
    report = pipeline.evaluate(img, model, sym_key, public_key, private_key)
    direct = model.decode(model.encode(img), 64, 64)
    assert report.mse == pytest.approx(reference.mse(direct, img))


def test_parse_rejects_declared_size_over_cap():
    # parse only: decoding a 65535 x 65535 header would allocate about 32 GiB
    with pytest.raises(BadHeaderError):
        pipeline.EncryptedPayload.parse(payload_frame(4, width=65535, height=65535))
    with pytest.raises(BadHeaderError):
        pipeline.EncryptedPayload.parse(payload_frame(4, width=4097, height=4096))
    assert pipeline.EncryptedPayload.parse(payload_frame(4, width=4096, height=4096)).width == 4096


def test_compress_encrypt_refuses_oversized_image_before_encoding(public_key, sym_key, monkeypatch):
    img = np.broadcast_to(np.uint8(0), (4097, 4097))  # a view: no image memory
    monkeypatch.setattr(codec.CodecModel, "encode", lambda *a: pytest.fail("encoded"))
    with pytest.raises(ShapeMismatchError):
        pipeline.compress_encrypt(img, codec.dct_model(100), sym_key, public_key)


HEADER_CASES = [  # (codec_id, m, width, height)
    (0, 0, 8, 8), (0, 1, 0, 8), (0, 1, 8, 0), (0, 65535, 8, 8), (0, 65535, 256, 256), (0, 1, 65535, 256),
    (0, 1, 4097, 4096), (0, 1, 4096, 4096), (0, 64, 8, 8), (0, 65, 8, 8), (1, 65, 8, 8), (2, 1, 8, 8), (255, 1, 8, 8),
    (0, 1, 256, 65535), (0, 65535, 1, 65535),
]


@pytest.mark.parametrize(
    "codec_id,m,width,height",
    HEADER_CASES,
    ids=[f"{m}-{w}-{h}" + (f"-codec{c}" if c else "") for c, m, w, h in HEADER_CASES],  # a DCT case is named m-width-height
)
def test_sender_and_receiver_share_the_header_rules(codec_id, m, width, height):
    def accepts(step):
        try:
            step()
        except (BadHeaderError, MTooLargeError, ShapeMismatchError):
            return False
        return True

    packed = accepts(lambda: wire._pack_header(codec_id, m, width, height))
    parsed = accepts(lambda: pipeline.EncryptedPayload.parse(payload_frame(m, codec_id=codec_id, width=width, height=height)))
    dct_fits = codec_id == 1 or m <= width * height
    assert packed == parsed == (codec_id in (0, 1) and 1 <= m and 1 <= width and 1 <= height and width * height <= 1 << 24 and dct_fits)


def test_neural_payload_size_checked_before_open(public_key, private_key, sym_key):
    img = np.random.default_rng(2).integers(0, 256, (4, 4), dtype=np.uint8)
    enc = [codec.Layer(np.zeros((4, 16)), np.zeros(4))]
    dec = [codec.Layer(np.zeros((16, 4)), np.zeros(16))]
    model = codec.CodecModel(kind="neural", m=4, encoder=enc, decoder=dec)
    payload, _ = pipeline.compress_encrypt(img, model, sym_key, public_key)
    forged = dataclasses.replace(payload, width=8, height=8)
    # a size mismatch, not the authentication failure the open would raise
    with pytest.raises(ShapeMismatchError):
        pipeline.decrypt_reconstruct(forged, model, sym_key, private_key)
    out, _ = pipeline.decrypt_reconstruct(payload, model, sym_key, private_key)
    assert out.shape == (4, 4)


def test_sender_refuses_a_latent_past_float32_range_before_sealing(public_key, sym_key, monkeypatch):
    # finite float64 weights can still encode to a value float32 cannot hold, which the wire would carry as inf
    enc = [codec.Layer(np.zeros((2, 4)), np.array([1e39, 0.0]))]
    dec = [codec.Layer(np.zeros((4, 2)), np.zeros(4))]
    model = codec.CodecModel(kind="neural", m=2, encoder=enc, decoder=dec)
    monkeypatch.setattr(pipeline, "ecies_encrypt", lambda *args, **kwargs: pytest.fail("sealed"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteLatentError, match="1 of 2"):
            pipeline.compress_encrypt(np.zeros((2, 2), dtype=np.uint8), model, sym_key, public_key)


def test_huge_finite_encoder_weights_are_refused_without_a_warning(public_key, sym_key):
    # 4 x 1e308 overflows in the encoder's product, before the float32 rounding
    enc = [codec.Layer(np.full((2, 4), 1e308), np.zeros(2))]
    dec = [codec.Layer(np.zeros((4, 2)), np.zeros(4))]
    model = codec.CodecModel(kind="neural", m=2, encoder=enc, decoder=dec)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteLatentError):
            pipeline.compress_encrypt(np.full((2, 2), 255, dtype=np.uint8), model, sym_key, public_key)
