import time

import numpy as np
import pytest

from latentseal import codec
from latentseal.errors import MTooLargeError, ShapeMismatchError
from latentseal.images import quantize, smooth_gradient
from latentseal.metrics import mse, psnr

from conftest import reference


def test_dc_coefficient_all_white():
    img = np.full((4, 4), 255, dtype=np.uint8)
    v = codec.dct_model(1).encode(img)
    # orthonormal DC term: (1/sqrt(WH)) * sum(1.0) = sqrt(WH)
    assert v[0] == pytest.approx(4.0, abs=1e-12)


def test_all_zero_image():
    img = np.zeros((6, 5), dtype=np.uint8)
    model = codec.dct_model(10)
    assert np.all(model.encode(img) == 0.0)
    assert np.all(model.decode(np.zeros(10), 5, 6) == 0)


def test_parseval_random_images():
    rng = np.random.default_rng(7)
    for _ in range(20):
        img = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        coeffs = dct2(img)
        pix_energy = float(((img / 255.0) ** 2).sum())
        assert (coeffs**2).sum() == pytest.approx(pix_energy, rel=1e-9)


def test_full_rank_round_trip_exact():
    rng = np.random.default_rng(11)
    model = codec.dct_model(64)
    for _ in range(50):
        img = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        assert np.array_equal(model.decode(model.encode(img), 8, 8), img)


def test_dc_only_decode_is_mean():
    rng = np.random.default_rng(13)
    img = rng.integers(0, 256, (8, 8), dtype=np.uint8)
    model = codec.dct_model(1)
    rec = model.decode(model.encode(img), 8, 8)
    assert np.all(rec == rec[0, 0])
    # DC basis is constant, so the reconstruction is the rounded mean
    assert abs(float(rec[0, 0]) - img.mean()) <= 0.5 + 1e-6


def test_mse_monotone_in_m():
    rng = np.random.default_rng(17)
    img = rng.integers(0, 256, (8, 8), dtype=np.uint8)
    full = codec.dct_model(64).encode(img)
    errors = []
    for m in range(1, 65):
        rec = _dct_decode_float(full[:m], 8, 8)
        errors.append(reference.mse(rec, img))
    assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))


def test_m_too_large():
    img = np.zeros((4, 4), dtype=np.uint8)
    for m in (0, 17):
        with pytest.raises(MTooLargeError):
            codec.dct_model(m).encode(img)
        with pytest.raises(MTooLargeError):  # an empty latent as well as an oversized one
            codec.dct_model(m).decode(np.zeros(m), 4, 4)


def test_rejects_non_images():
    with pytest.raises(ShapeMismatchError):
        codec.dct_model(4).encode(np.zeros((4, 4)))  # float dtype
    with pytest.raises(ShapeMismatchError):
        codec.dct_model(4).encode(np.zeros(16, dtype=np.uint8))  # 1-D


def test_latent_survives_f32():
    img = smooth_gradient(64)
    v = codec.dct_model(100).encode(img)
    assert np.array_equal(v, v.astype(np.float32).astype(np.float64))


def test_zigzag_order_8x8_prefix():
    rows, cols = codec.zigzag_indices(8, 8, 10)
    got = list(zip(rows.tolist(), cols.tolist()))
    assert got == [
        (0, 0), (0, 1), (1, 0), (2, 0), (1, 1),
        (0, 2), (0, 3), (1, 2), (2, 1), (3, 0),
    ]


def test_truncation_psnr_matches_parseval_prediction():
    img = smooth_gradient(256)
    model = codec.dct_model(100)
    rec = model.decode(model.encode(img), 256, 256)
    rows, cols = codec.zigzag_indices(256, 256, 256 * 256)
    zz = dct2(img)[rows, cols]
    predicted_mse = float((zz[100:] ** 2).sum()) * 255.0**2 / img.size
    predicted_psnr = 10.0 * np.log10(255.0**2 / predicted_mse)
    assert psnr(mse(img, rec)) == pytest.approx(predicted_psnr, abs=0.1)


def test_model_wrapper_and_file(tmp_path):
    model = codec.dct_model(25)
    img = np.random.default_rng(3).integers(0, 256, (10, 10), dtype=np.uint8)
    v = model.encode(img)
    assert v.shape == (25,)
    rec = model.decode(v, 10, 10)
    assert rec.shape == (10, 10) and rec.dtype == np.uint8
    path = tmp_path / "m.lscm"
    codec.save_model(model, path)
    loaded = codec.load_model(path)
    assert loaded.kind == "dct" and loaded.m == 25


def _dct_decode_float(v, width, height):
    """Test-only oracle: the reconstruction x255 before quantization, from the reference
    zigzag order's first len(v) cells and the full DCT-II bases."""
    coeffs = np.zeros((height, width))
    coeffs[tuple(np.array(reference.zigzag_first(height, width, len(v))).T)] = v
    return codec._dct_basis(height, height).T @ coeffs @ codec._dct_basis(width, width) * 255.0


def test_zigzag_prefix_matches_walk_oracle():
    for h in range(1, 25):
        for w in range(1, 25):
            walk_rows, walk_cols = map(list, zip(*reference.zigzag_first(h, w, h * w)))
            for m in range(1, h * w + 1):
                rows, cols = codec.zigzag_indices(h, w, m)
                assert rows.tolist() == walk_rows[:m] and cols.tolist() == walk_cols[:m]


def dct2(img):
    """Test-only: full orthonormal 2-D DCT-II of img / 255, float64, from the codec's DCT-II bases."""
    h, w = img.shape
    return codec._dct_basis(h, h) @ (img / 255.0) @ codec._dct_basis(w, w).T


@pytest.mark.parametrize("shape", [(48, 80), (1, 37), (37, 1)])
def test_dct_encode_matches_direct_formula(shape):
    h, w = shape
    img = np.random.default_rng(h * w).integers(0, 256, shape, dtype=np.uint8)
    for m in (1, h * w // 2, h * w):
        v = codec.dct_model(m).encode(img)
        assert v.shape == (m,)
        assert reference.latent_matches(v, img, range(m))  # each to one float32 ulp + 1e-12


EDGE_PIXELS = [-300.0, -3.5, -1.5, -0.5, -0.0, 0.5, 1.5, 2.5, 127.5, 253.5, 254.5, 255.5, 256.5, 300.25, 1e9]


def _copying_quantize(pixels):
    """Quantisation as it was written before it worked in place."""
    return np.clip(np.rint(pixels), 0, 255).astype(np.uint8)


def test_quantize_matches_copying_oracle():
    p = np.concatenate([EDGE_PIXELS, np.random.default_rng(8).uniform(-50, 300, 500)])
    assert np.array_equal(quantize(p.copy()), _copying_quantize(p))


def test_dct_decode_matches_copying_quantize():
    # on a 1x1 image the decoder emits v * 255 exactly, so every edge case is hit as written
    for t in EDGE_PIXELS:
        v = np.array([t / 255.0])
        assert _dct_decode_float(v, 1, 1)[0, 0] == t
        assert np.array_equal(codec.dct_model(1).decode(v, 1, 1), _copying_quantize(np.array([[t]])))
    v = np.random.default_rng(9).normal(0.0, 3.0, 256)  # pixels well outside [0, 255]
    assert np.array_equal(codec.dct_model(256).decode(v, 16, 16), _copying_quantize(_dct_decode_float(v, 16, 16)))


def test_decode_leaves_latent_unmodified():
    model = codec.dct_model(100)
    v = model.encode(smooth_gradient(64))
    kept = v.copy()
    model.decode(v, 64, 64)
    assert np.array_equal(v, kept)


def test_basis_cache_bounded_by_bytes():
    codec._cached_basis.cache_clear()
    full = codec._dct_basis(256, 256)  # dct2's basis at 256x256: 512 KiB, cached
    assert codec._dct_basis(256, 256) is full
    assert 8 * 4096 * 32 == codec.BASIS_CACHE_BYTES
    assert codec._dct_basis(4096, 32) is codec._dct_basis(4096, 32)
    assert codec._cached_basis.cache_info().currsize == 2
    big = codec._dct_basis(4096, 33)  # one row over the limit: rebuilt, never cached
    assert codec._dct_basis(4096, 33) is not big
    assert np.array_equal(codec._dct_basis(4096, 33), big)
    assert not big.flags.writeable
    assert np.array_equal(big[:32], codec._dct_basis(4096, 32))
    # a 4096 x 1 decode at m = 33 needs that basis and caches only its 1 x 1 partner
    out = codec.dct_model(33).decode(np.ones(33), 1, 4096)
    assert out.shape == (4096, 1)
    assert codec._cached_basis.cache_info().currsize == 3


def test_mixed_shapes_hit_the_basis_and_zigzag_caches_on_a_second_pass():
    sides = range(48, 321, 16)
    img = np.random.default_rng(20).integers(0, 256, (320, 320), dtype=np.uint8)
    codec._cached_basis.cache_clear()
    codec._zigzag_box.cache_clear()
    for rnd in range(2):
        misses = codec._cached_basis.cache_info().misses
        for h in sides:
            for w in sides:
                for m in (16, 100, 400):
                    model = codec.dct_model(m)
                    model.decode(model.encode(img[:h, :w]), w, h)
        if rnd == 0:
            # one basis per side and box side k(m), and one zigzag order per m
            assert codec._cached_basis.cache_info().currsize == len(sides) * 3
            assert codec._zigzag_box.cache_info().currsize == 3
    assert codec._cached_basis.cache_info().misses == misses


def test_bases_cut_from_the_square_box_match_exact_size_bases():
    for h, w, m in [(48, 80, 100), (80, 48, 99), (7, 300, 40), (300, 7, 400), (5, 5, 25)]:
        rows, cols, row_basis, col_basis = codec._zigzag_plan(h, w, m)
        assert row_basis.tobytes() == codec._basis(h, rows.max() + 1).tobytes()
        assert col_basis.tobytes() == codec._basis(w, cols.max() + 1).tobytes()


@pytest.mark.parametrize("width,height", [(65535, 1), (1, 65535), (65535, 256), (256, 65535)])
def test_basis_over_max_pixels_refused_before_it_is_built(width, height):
    # 1 x 65535 at m = 65535 needs a 65535 x 65535 basis (32 GiB), 256 x 65535 a 384 x 65535 one (192 MiB)
    start = time.perf_counter()
    with pytest.raises(MTooLargeError, match="DCT basis"):
        codec.dct_model(65535).decode(np.zeros(65535), width, height)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("shape,longer", [((1, 4096), (1, 4097)), ((4096, 1), (4097, 1))], ids=["1x4096", "4096x1"])
def test_a_basis_of_exactly_max_pixels_entries_is_planned_and_one_more_is_refused(monkeypatch, shape, longer):
    # a 1 x 4096 plan at m = 4096 takes a 4096 x 4096 basis, 128 MiB: its bases are recorded here, not built
    built = []
    monkeypatch.setattr(codec, "_dct_basis", lambda n, k: built.append((n, k)) or np.empty((k, 0)))
    rows, _, _, _ = codec._zigzag_plan(*shape, 4096)
    assert len(rows) == 4096 and sorted(built) == [(1, 1), (4096, 4096)]
    built.clear()
    with pytest.raises(MTooLargeError, match="DCT basis"):
        codec._zigzag_plan(*longer, 4097)
    assert built == []


def test_square_grid_at_the_largest_m_still_decodes():
    img = np.random.default_rng(21).integers(0, 256, (256, 256), dtype=np.uint8)
    model = codec.dct_model(65535)
    out = model.decode(model.encode(img), 256, 256)
    assert out.shape == (256, 256)
    assert np.abs(out.astype(int) - img).max() <= 1
