import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentseal import metrics
from latentseal.errors import DimMismatchError, WindowTooLargeError


def checkerboard(n=4):
    board = np.indices((n, n)).sum(axis=0) % 2
    return (board * 255).astype(np.uint8)


def test_mse_examples():
    a = np.zeros((3, 3), dtype=np.uint8)
    assert metrics.mse(a, a) == 0.0
    assert metrics.mse(a, a + 1) == 1.0
    x = np.array([[0, 255], [0, 255]], dtype=np.uint8)
    y = np.array([[255, 0], [255, 0]], dtype=np.uint8)
    assert metrics.mse(x, y) == 65025.0


def test_mse_dim_mismatch():
    with pytest.raises(DimMismatchError):
        metrics.mse(np.zeros((2, 2)), np.zeros((3, 3)))


def test_psnr_examples():
    a = np.zeros((4, 4), dtype=np.uint8)
    assert metrics.psnr(a, a) == math.inf
    assert metrics.psnr(a, a + 1) == pytest.approx(10 * math.log10(65025), abs=1e-9)
    assert metrics.psnr(a, a + 1) == pytest.approx(48.1308, abs=1e-3)
    x = np.array([[0, 255], [0, 255]], dtype=np.uint8)
    y = np.array([[255, 0], [255, 0]], dtype=np.uint8)
    assert metrics.psnr(x, y) == 0.0


def test_psnr_monotone_in_mse():
    a = np.zeros((8, 8), dtype=np.uint8)
    prev = math.inf
    for delta in (1, 2, 5, 20, 80):
        p = metrics.psnr(a, a + delta)
        assert p < prev
        prev = p


def test_ssim_self_is_one():
    img = np.random.default_rng(0).integers(0, 256, (8, 8), dtype=np.uint8)
    assert metrics.ssim(img, img) == pytest.approx(1.0, abs=1e-12)


def test_ssim_constant_images():
    a = np.full((5, 5), 77, dtype=np.uint8)
    assert metrics.ssim(a, a.copy()) == pytest.approx(1.0, abs=1e-12)


def test_ssim_checkerboard_brute_force():
    a = checkerboard()
    b = (255 - a).astype(np.uint8)
    # independent direct evaluation from raw moments
    af, bf = a.astype(float), b.astype(float)
    mu_a, mu_b = af.mean(), bf.mean()
    var_a = ((af - mu_a) ** 2).mean()
    var_b = ((bf - mu_b) ** 2).mean()
    cov = ((af - mu_a) * (bf - mu_b)).mean()
    c1, c2 = (0.01 * 255) ** 2, (0.03 * 255) ** 2
    expected = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    assert mu_a == mu_b == 127.5
    assert cov < 0
    assert metrics.ssim(a, b) == pytest.approx(expected, abs=1e-12)


def test_ssim_symmetry():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 256, (10, 10), dtype=np.uint8)
    b = rng.integers(0, 256, (10, 10), dtype=np.uint8)
    assert metrics.ssim(a, b) == metrics.ssim(b, a)
    assert metrics.mse(a, b) == metrics.mse(b, a)
    w = metrics.SsimParams(window=7)
    assert metrics.ssim(a, b, w) == metrics.ssim(b, a, w)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_ssim_bounds(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, (n, n), dtype=np.uint8)
    b = rng.integers(0, 256, (n, n), dtype=np.uint8)
    assert -1.0 <= metrics.ssim(a, b) <= 1.0


def test_windowed_equals_global_at_full_side():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 256, (12, 12), dtype=np.uint8)
    b = rng.integers(0, 256, (12, 12), dtype=np.uint8)
    assert metrics.ssim(a, b, metrics.SsimParams(window=12)) == pytest.approx(
        metrics.ssim(a, b), abs=1e-12
    )


def _ssim_per_window(a, b, w, c1, c2):
    """Test-only oracle: centred population moments of each w x w window, taken
    from numpy window views a block of window rows at a time."""
    va = np.lib.stride_tricks.sliding_window_view(np.asarray(a, dtype=np.float64), (w, w))
    vb = np.lib.stride_tricks.sliding_window_view(np.asarray(b, dtype=np.float64), (w, w))
    vals = []
    for i in range(0, va.shape[0], 64):
        pa, pb = va[i : i + 64], vb[i : i + 64]
        mu_a, mu_b = pa.mean(axis=(2, 3)), pb.mean(axis=(2, 3))
        da, db = pa - mu_a[..., None, None], pb - mu_b[..., None, None]
        var_a = np.einsum("ijkl,ijkl->ij", da, da) / (w * w)
        var_b = np.einsum("ijkl,ijkl->ij", db, db) / (w * w)
        cov = np.einsum("ijkl,ijkl->ij", da, db) / (w * w)
        num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
        vals.append((num / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))).ravel())
    return float(np.mean(np.concatenate(vals)))


def test_windowed_ssim_matches_per_window_oracle():
    rng = np.random.default_rng(1)
    a = rng.random((24, 24))
    b = rng.random((24, 24))
    params = metrics.SsimParams(window=7)
    got = metrics.ssim(a, b, params)
    assert type(got) is float
    assert abs(got - _ssim_per_window(a, b, 7, params.c1, params.c2)) < 1e-12


def test_windowed_ssim_large_image_matches_per_window_oracle():
    rng = np.random.default_rng(4)
    a = rng.integers(0, 256, (1024, 1024), dtype=np.uint8)
    b = (rng.integers(0, 2, (1024, 1024)) * 255).astype(np.uint8)
    params = metrics.SsimParams(window=7)
    got = metrics.ssim(a, b, params)
    assert abs(got - _ssim_per_window(a, b, 7, params.c1, params.c2)) < 1e-12


def test_window_too_large():
    a = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(WindowTooLargeError):
        metrics.ssim(a, a, metrics.SsimParams(window=5))


def test_timed_noop_and_sleep():
    _, s = metrics.timed(lambda: None)
    assert 0.0 <= s < 0.01
    _, s = metrics.timed(lambda: time.sleep(0.05))
    assert 0.05 <= s <= 0.5


def test_timed_nesting_composes():
    def inner():
        return metrics.timed(lambda: time.sleep(0.01))

    (_, inner_s), outer_s = metrics.timed(inner)
    assert outer_s >= inner_s


def test_quality_report_csv():
    r = metrics.QualityReport(
        ssim=0.425412, mse=109.4, psnr=math.inf, encrypt_seconds=0.19331, decrypt_seconds=0.37
    )
    assert metrics.QualityReport.CSV_HEADER == "ssim,psnr_db,mse,encrypt_s,decrypt_s"
    assert r.csv_row() == "0.425412,inf,109.4,0.19331,0.37"
