import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentseal import images, metrics
from latentseal.errors import DimMismatchError, ShapeMismatchError, WindowTooLargeError

from conftest import reference


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
    assert metrics.psnr(metrics.mse(a, a)) == math.inf
    assert metrics.psnr(metrics.mse(a, a + 1)) == pytest.approx(10 * math.log10(65025), abs=1e-9)
    assert metrics.psnr(metrics.mse(a, a + 1)) == pytest.approx(48.1308, abs=1e-3)
    x = np.array([[0, 255], [0, 255]], dtype=np.uint8)
    y = np.array([[255, 0], [255, 0]], dtype=np.uint8)
    assert metrics.psnr(metrics.mse(x, y)) == 0.0


def test_psnr_monotone_in_mse():
    a = np.zeros((8, 8), dtype=np.uint8)
    prev = math.inf
    for delta in (1, 2, 5, 20, 80):
        p = metrics.psnr(metrics.mse(a, a + delta))
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
    # on a square image the global SSIM is the mean over its one full-size window
    assert metrics.ssim(a, b) == pytest.approx(reference.windowed_ssim(a, b, 4), abs=1e-12)


def test_ssim_symmetry():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 256, (10, 10), dtype=np.uint8)
    b = rng.integers(0, 256, (10, 10), dtype=np.uint8)
    assert metrics.ssim(a, b) == metrics.ssim(b, a)
    assert metrics.mse(a, b) == metrics.mse(b, a)
    assert metrics.ssim(a, b, 7) == metrics.ssim(b, a, 7)


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
    assert metrics.ssim(a, b, 12) == pytest.approx(metrics.ssim(a, b), abs=1e-12)


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
    a = rng.integers(0, 256, (24, 24), dtype=np.uint8)
    b = rng.integers(0, 256, (24, 24), dtype=np.uint8)
    got = metrics.ssim(a, b, 7)
    assert type(got) is float
    assert abs(got - _ssim_per_window(a, b, 7, metrics.C1, metrics.C2)) < 1e-12


def test_windowed_ssim_large_image_matches_per_window_oracle():
    rng = np.random.default_rng(4)
    a = rng.integers(0, 256, (1024, 1024), dtype=np.uint8)
    b = (rng.integers(0, 2, (1024, 1024)) * 255).astype(np.uint8)
    got = metrics.ssim(a, b, 7)
    assert abs(got - _ssim_per_window(a, b, 7, metrics.C1, metrics.C2)) < 1e-12


# At the 4 KiB budget a tile is max(68 // (w - 1), 2w - 1) columns wide with int32 sums, and a band as many rows as
# fill 68 pixels of it, at least w - 1: 87 of the 139 cases of the every-window test run in several bands or tiles,
# 19 of them in tiles, and so do 5 of the 6 windows on 128x96, 4 of them in tiles.  The 200x200 images of the int32
# test stay one band and one tile at any budget, since a tile is at least 2w - 1 columns and a band w - 1 rows.


def _assert_windowed_bitwise(a, b, w, at_both_budgets):
    want = reference.windowed_ssim(a, b, w)
    for got in at_both_budgets(lambda: metrics.ssim(a, b, w)):
        assert got.hex() == want.hex(), (a.shape, w, got, want)


def test_windowed_ssim_bitwise_equals_summed_area_oracle_every_window(at_both_budgets):
    rng = np.random.default_rng(5)
    for _ in range(16):
        h, w = (int(v) for v in rng.integers(1, 24, 2))
        a = rng.integers(0, 256, (h, w), dtype=np.uint8)
        noise = rng.integers(-12, 13, (h, w))
        for b in (rng.integers(0, 256, (h, w), dtype=np.uint8), np.clip(a + noise, 0, 255).astype(np.uint8)):
            for window in range(1, min(h, w) + 1):
                _assert_windowed_bitwise(a, b, window, at_both_budgets)


def test_windowed_ssim_bitwise_at_the_int32_boundary(at_both_budgets):
    # 255**2 * w**2 fits in int32 up to w = 181; from w = 182 on, the
    # all-255 image's sum of squares does not, so the sums must widen.
    a = np.full((200, 200), 255, dtype=np.uint8)
    b = a.copy()
    b[::3, ::2] = 7
    assert 255**2 * 181**2 < 2**31 <= 255**2 * 182**2
    for window in (181, 182, 200):
        _assert_windowed_bitwise(a, b, window, at_both_budgets)
        _assert_windowed_bitwise(a, a, window, at_both_budgets)


def test_windowed_ssim_bitwise_on_larger_images(at_both_budgets):
    rng = np.random.default_rng(6)
    a = rng.integers(0, 256, (128, 96), dtype=np.uint8)
    b = np.clip(a + rng.integers(-30, 31, a.shape), 0, 255).astype(np.uint8)
    for window in (7, 11, 16, 31, 64, 96):
        _assert_windowed_bitwise(a, b, window, at_both_budgets)
    # 6 rows of 3000 columns at w = 7 take 1 080 000 bytes of int32 buffers, over the 1 MiB budget, so the
    # default budget splits each band into 2 tiles, and the 4 KiB one into 428
    a = rng.integers(0, 256, (12, 3000), dtype=np.uint8)
    b = np.clip(a + rng.integers(-30, 31, a.shape), 0, 255).astype(np.uint8)
    assert 15 * 4 * 6 * 3000 > images.BAND_BYTES
    _assert_windowed_bitwise(a, b, 7, at_both_budgets)


def test_windowed_ssim_peaks_at_its_map_plus_one_band():
    # 8 bytes per window hold the map of values; the band's buffers are at most BAND_BYTES plus the w - 1 rows
    # that its stack and spare buffer share with the next band, 245 760 bytes here, and 128 KiB covers the rest
    # of the call, numpy's casting buffers among it.  Measured at a 1 MiB band: 9 650 944 bytes, 66 016 over
    # map + band + shared rows (at 16 MiB, 25 378 008 and 64 440), where one arena for the whole image took
    # 129 184 152, 123 per pixel.
    rng = np.random.default_rng(8)
    a = rng.integers(0, 256, (1024, 1024), dtype=np.uint8)
    b = np.clip(a + rng.integers(-20, 21, a.shape), 0, 255).astype(np.uint8)
    tracemalloc.start()
    try:
        metrics.ssim(a, b, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 1018 * 1018 + images.BAND_BYTES + 2 * 5 * 6 * 1024 * 4 + (128 << 10), peak


def test_mse_and_psnr_exact_for_8bit():
    rng = np.random.default_rng(7)
    for shape in ((1, 1), (3, 17), (64, 64)):
        a = rng.integers(0, 256, shape, dtype=np.uint8)
        b = rng.integers(0, 256, shape, dtype=np.uint8)
        sse = sum((int(x) - int(y)) ** 2 for x, y in zip(a.ravel(), b.ravel()))
        assert metrics.mse(a, b) == sse / a.size
        assert metrics.psnr(metrics.mse(a, b)) == 10.0 * math.log10(255.0**2 / (sse / a.size))
        assert metrics.psnr(metrics.mse(a, a.copy())) == math.inf
    # a sum of squares above 2**31 is still exact
    black = np.zeros((256, 256), dtype=np.uint8)
    white = np.full((256, 256), 255, dtype=np.uint8)
    assert metrics.mse(black, white) == 65025.0
    assert metrics.psnr(metrics.mse(black, white)) == 0.0


def test_mse_is_the_same_in_chunks(at_both_budgets):
    # at 4 KiB the squared differences are summed in chunks of 256 pixels: 17x3000 is 199 chunks and
    # a short one; at 1024² all-255 against all-0 the total, 255**2 * 2**20, is above 2**31
    rng = np.random.default_rng(11)
    a = rng.integers(0, 256, (17, 3000), dtype=np.uint8)
    b = rng.integers(0, 256, a.shape, dtype=np.uint8)
    sse = int(((a.astype(np.int64) - b) ** 2).sum())
    assert at_both_budgets(lambda: metrics.mse(a, b)) == [sse / a.size] * 2
    black, white = np.zeros((1024, 1024), dtype=np.uint8), np.full((1024, 1024), 255, dtype=np.uint8)
    assert at_both_budgets(lambda: metrics.mse(black, white)) == [65025.0] * 2


def test_mse_peaks_at_one_band():
    # both images' float64 copies take 16 bytes per pixel of a chunk of BAND_BYTES // 16 pixels, and 64 KiB
    # covers the rest of the call.  Measured: 1 050 105 bytes, where an int32 difference image took 4 261 040
    rng = np.random.default_rng(12)
    a = rng.integers(0, 256, (1024, 1024), dtype=np.uint8)
    b = np.clip(a + rng.integers(-20, 21, a.shape), 0, 255).astype(np.uint8)
    tracemalloc.start()
    try:
        metrics.mse(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= images.BAND_BYTES + (64 << 10), peak


def test_global_ssim_matches_centred_float_oracle(at_both_budgets):
    # at 4 KiB the moments are summed in chunks of 256 pixels, so 5x9 is one short
    # chunk and 256x256 is 256 chunks; the chunked sums are exact, so the result is bitwise the same
    rng = np.random.default_rng(8)
    c1, c2 = metrics.C1, metrics.C2
    for shape in ((1, 1), (5, 9), (256, 256)):
        a = rng.integers(0, 256, shape, dtype=np.uint8)
        b = np.clip(a + rng.integers(-40, 41, shape), 0, 255).astype(np.uint8)
        af, bf = a.astype(np.float64), b.astype(np.float64)
        mu_a, mu_b = af.mean(), bf.mean()
        cov = ((af - mu_a) * (bf - mu_b)).mean()
        want = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
            (mu_a**2 + mu_b**2 + c1) * (af.var() + bf.var() + c2)
        )
        got, small = at_both_budgets(lambda: metrics.ssim(a, b))
        assert abs(got - want) < 1e-12
        assert small.hex() == got.hex()


def test_global_ssim_peaks_at_one_band():
    # both images' float64 copies take 16 bytes per pixel of a chunk of BAND_BYTES // 16 pixels, and
    # 64 KiB covers the rest of the call.  Measured: 1 050 564 bytes, where float64 copies of the
    # whole of both images took 16 778 608.
    rng = np.random.default_rng(8)
    a = rng.integers(0, 256, (1024, 1024), dtype=np.uint8)
    b = np.clip(a + rng.integers(-20, 21, a.shape), 0, 255).astype(np.uint8)
    tracemalloc.start()
    try:
        metrics.ssim(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= images.BAND_BYTES + (64 << 10), peak


def test_non_8bit_inputs_are_refused():
    rng = np.random.default_rng(9)
    a = rng.integers(0, 256, (20, 30), dtype=np.uint8)
    b = rng.integers(0, 256, (20, 30), dtype=np.uint8)
    for x, y in ((a.astype(np.float64), b), (a.astype(np.int64), b.astype(np.int64)), (a / 1.0, b / 1.0)):
        for window in (None, 1, 7, 20):
            with pytest.raises(ShapeMismatchError):
                metrics.ssim(x, y, window)
        with pytest.raises(ShapeMismatchError):
            metrics.mse(x, y)


def test_window_too_large():
    a = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(WindowTooLargeError):
        metrics.ssim(a, a, 5)


def test_quality_report_csv():
    r = metrics.QualityReport(
        ssim=0.425412, mse=109.4, psnr=math.inf, encrypt_seconds=0.19331, decrypt_seconds=0.37
    )
    assert metrics.QualityReport.CSV_HEADER == "ssim,psnr_db,mse,encrypt_s,decrypt_s"
    assert r.csv_row() == "0.425412,inf,109.4,0.19331,0.37"
