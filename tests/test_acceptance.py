"""Acceptance suite: one test per gating criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail
lines.  Thresholds are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from latentseal import codec, ecies, henon, metrics, pipeline, train
from latentseal.errors import AuthFailureError, DivergenceError, InvalidPointError
from latentseal.images import smooth_gradient

from conftest import reference
from test_dct import dct2
from test_transfer import payload_frame, run_transfer


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_henon_ground_truth():
    s1, s2 = (tuple(map(float, p)) for p in henon.henon_trajectory(henon.SymKey(0.0, 0.0, burn_in=0), 2))
    ok = (
        s1 == (1.0, 0.0)
        and s2[1] == 0.3
        and s2[0] == 1.0 - 1.4 * 1.0 * 1.0 + 0.0
        and abs(s2[0] - (-0.4)) < 1e-15
    )
    report("henon ground truth: (0,0) -> (1,0) -> (-0.4, 0.3)", ok, f"{s1}, {s2}")


def test_permutation_suite():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 129))
        seq = rng.standard_normal(n)
        p = henon.permutation_from_sequence(seq)
        if sorted(p) != list(range(n)):
            report("permutation suite: 10,000 keyed bijections + round trips", False)
        v = rng.standard_normal(n)
        if not np.array_equal(henon.deshuffle(henon.shuffle(v, p), p), v):
            report("permutation suite: 10,000 keyed bijections + round trips", False)
        checked += 1
    report("permutation suite: 10,000 keyed bijections + round trips", checked == 10_000)


def test_key_sensitivity():
    rng = np.random.default_rng(123)
    diffs = []
    while len(diffs) < 100:
        x0 = rng.uniform(-0.5, 0.5)
        y0 = rng.uniform(-0.2, 0.2)
        try:
            p1 = henon.permutation_for_key(henon.SymKey(x0, y0, burn_in=1000), 100)
            p2 = henon.permutation_for_key(henon.SymKey(x0 + 1e-9, y0, burn_in=1000), 100)
        except DivergenceError:
            continue
        diffs.append(int(np.sum(p1 != p2)))
    mean = float(np.mean(diffs))
    report("key sensitivity: 1e-9 in x0 scrambles >= 90/100 positions", mean >= 90.0, f"mean {mean:.2f}")


def test_ecies_suite():
    priv = ecies.keygen(bytes([1]) * 32)
    pub = priv.public_key()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 200))
        pt = bytes(rng.integers(0, 256, n, dtype=np.uint8))
        ct = ecies.ecies_encrypt(pt, pub)
        if ecies.ecies_decrypt(ct, priv) != pt:
            report("ecies: 1000 round trips / 100 tamper bits / length law", False, "round trip")
        if len(ct) != n + reference.ECIES_OVERHEAD:
            report("ecies: 1000 round trips / 100 tamper bits / length law", False, "length law")
    blob = ecies.ecies_encrypt(bytes(64), pub)
    caught = 0
    for _ in range(100):
        bit = int(rng.integers(len(blob) * 8))
        t = bytearray(blob)
        t[bit // 8] ^= 1 << (bit % 8)
        try:
            ecies.ecies_decrypt(bytes(t), priv)
        except (AuthFailureError, InvalidPointError):
            caught += 1
    report("ecies: 1000 round trips / 100 tamper bits / length law", caught == 100, f"{caught}/100 tampers caught")


def test_crypto_layer_losslessness():
    priv = ecies.keygen(bytes([2]) * 32)
    pub = priv.public_key()
    rng = np.random.default_rng(50)
    model = codec.dct_model(32)
    ok = True
    for _ in range(50):
        img = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        sym = henon.random_sym_key(rng)
        payload, _ = pipeline.compress_encrypt(img, model, sym, pub)
        rec, _ = pipeline.decrypt_reconstruct(payload, model, sym, priv)
        ok &= np.array_equal(rec, model.decode(model.encode(img), 16, 16))
    report("crypto-layer losslessness over 50 random images/keys", ok)


def test_compression_ratio_structure():
    pub = ecies.keygen(bytes([3]) * 32).public_key()
    img = smooth_gradient(256)  # 65,536 pixels
    payload, _ = pipeline.compress_encrypt(
        img, codec.dct_model(100), henon.SymKey(0.1, 0.1), pub
    )
    body = len(payload.ciphertext)
    report("compression structure: 65,536 pixels -> 100 elements, 449-byte body", body == 449, f"{body} bytes")


def test_metrics_oracles():
    img = np.random.default_rng(0).integers(0, 256, (8, 8), dtype=np.uint8)
    ok1 = abs(metrics.ssim(img, img) - 1.0) <= 1e-12
    a = np.zeros((4, 4), dtype=np.uint8)
    ok2 = abs(metrics.psnr(metrics.mse(a, a + 1)) - 48.1308) <= 1e-3
    board = ((np.indices((4, 4)).sum(axis=0) % 2) * 255).astype(np.uint8)
    inv = (255 - board).astype(np.uint8)
    ok3 = abs(metrics.ssim(board, inv) - reference.windowed_ssim(board, inv, 4)) <= 1e-12
    report("metrics oracles: ssim(x,x)=1, psnr(mse=1)=48.1308 dB, checkerboard ssim", ok1 and ok2 and ok3)


def test_dct_codec():
    rng = np.random.default_rng(3)
    ok_parseval = True
    ok_roundtrip = True
    full = codec.dct_model(64)
    for _ in range(20):
        img = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        c = dct2(img)
        energy = float(((img / 255.0) ** 2).sum())
        ok_parseval &= abs(float((c**2).sum()) - energy) <= 1e-9 * max(energy, 1.0)
        ok_roundtrip &= np.array_equal(full.decode(full.encode(img), 8, 8), img)
    img = smooth_gradient(256)
    rows, cols = codec.zigzag_indices(256, 256, 256 * 256)
    zz = dct2(img)[rows, cols]
    pred_mse = float((zz[100:] ** 2).sum()) * 255.0**2 / img.size
    pred_psnr = 10.0 * math.log10(255.0**2 / pred_mse)
    dct = codec.dct_model(100)
    actual = metrics.psnr(metrics.mse(img, dct.decode(dct.encode(img), 256, 256)))
    ok_pred = abs(actual - pred_psnr) <= 0.1
    report(
        "dct codec: parseval 1e-9, full-rank exact, m=100 psnr vs prediction",
        ok_parseval and ok_roundtrip and ok_pred,
        f"psnr {actual:.4f} vs predicted {pred_psnr:.4f}",
    )


def test_neural_trainer():
    cfg = train.TrainConfig(m=3, hidden=(5,), seed=1)
    model = train.init_model(36, cfg, np.random.default_rng(1))
    X = np.random.default_rng(2).random((2, 36))
    _, grads = train.loss_and_gradients(model, X)
    h = 1e-5
    worst = 0.0
    for li, layer in enumerate(model.encoder + model.decoder):
        for arr, g in ((layer.W, grads[li][0]), (layer.b, grads[li][1])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                lp, _ = train.loss_and_gradients(model, X)
                arr[idx] = orig - h
                lm, _ = train.loss_and_gradients(model, X)
                arr[idx] = orig
                fd = (lp - lm) / (2 * h)
                worst = max(worst, abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8))
    img = np.random.default_rng(3).integers(0, 256, (8, 8), dtype=np.uint8)
    cfg2 = train.TrainConfig(m=8, hidden=(32,), lr=0.05, epochs=200, seed=7, batch_size=1)
    r1 = train.train_autoencoder([img], cfg2)
    r2 = train.train_autoencoder([img], cfg2)
    (m1, t1), (m2, t2) = (r1.model, r1.ae_losses), (r2.model, r2.ae_losses)
    init = train.init_model(64, cfg2, np.random.default_rng(7))
    ratio = t1[-1] / train.reconstruction_loss(init, [img])
    deterministic = t1 == t2 and all(
        np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)
        for a, b in zip(m1.encoder + m1.decoder, m2.encoder + m2.decoder)
    )
    report(
        "neural trainer: gradcheck < 1e-4, overfit < 25%, deterministic",
        worst < 1e-4 and ratio < 0.25 and deterministic,
        f"gradcheck {worst:.2e}, loss ratio {ratio:.4f}",
    )


def test_gan_objective_value():
    val = train.gan_objective([0.5, 0.5], [0.5, 0.5])
    ok = abs(val - (-2.0 * math.log(2.0))) <= 1e-12
    report("gan objective at 0.5 batches = -2 ln 2", ok, f"{val:.12f}")


def test_figure1_trajectory():
    tr = henon.henon_trajectory(henon.SymKey(0.1, 0.1), 10_000)
    ok = bool(np.all(np.abs(tr[:, 0]) <= 1.5) and np.all(np.abs(tr[:, 1]) <= 0.45))
    report(
        "trajectory: 10,000 points inside |x|<=1.5, |y|<=0.45",
        ok,
        f"max|x| {np.abs(tr[:, 0]).max():.4f}, max|y| {np.abs(tr[:, 1]).max():.4f}",
    )


def test_timing_report():
    priv = ecies.keygen(bytes([4]) * 32)
    pub = priv.public_key()
    sym = henon.SymKey(0.1, 0.1)
    model = codec.dct_model(100)
    img = smooth_gradient(256)
    pipeline.compress_encrypt(img, model, sym, pub)  # warm jit/caches
    rep = pipeline.evaluate(img, model, sym, pub, priv)
    row = rep.csv_row()
    ok = len(row.split(",")) == 5 and rep.encrypt_seconds < 2.0
    report(
        "timing: table-shaped CSV row, 256x256 encryption < 2 s",
        ok,
        f"enc {rep.encrypt_seconds:.4f}s dec {rep.decrypt_seconds:.4f}s",
    )


def test_transfer_acceptance():
    payload = payload_frame(100, bytes(np.random.default_rng(5).integers(0, 256, 449, dtype=np.uint8)))  # 461 bytes
    ok_loopback = run_transfer(payload) == payload
    start = time.monotonic()
    run_transfer(payload_frame(1132, bytes(1)), throttle=1000)  # 4589 bytes
    elapsed = time.monotonic() - start
    expected = 4589 / 1000
    ok_throttle = abs(elapsed - expected) <= 0.2 * expected + 0.3  # pacing slack + setup
    report(
        "transfer: loopback byte-identical, throttle scales with size",
        ok_loopback and ok_throttle,
        f"throttled 4589 B at 1000 B/s took {elapsed:.2f}s (expected ~{expected:.2f}s)",
    )
