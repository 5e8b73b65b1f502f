import numpy as np
import pytest

from latentseal import images
from latentseal.errors import IoError


def test_p5_round_trip(tmp_path):
    img = np.random.default_rng(0).integers(0, 256, (7, 5), dtype=np.uint8)
    path = tmp_path / "x.pgm"
    images.write_image(img, path)
    assert np.array_equal(images.read_image(path), img)


def test_p5_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x01\x02\x03\x04")
    img = images.read_image(path)
    assert img.tolist() == [[1, 2], [3, 4]]


def test_p6_luma_conversion(tmp_path):
    path = tmp_path / "c.ppm"
    # one pure-red, one pure-green pixel
    path.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0]))
    img = images.read_image(path)
    assert img.shape == (1, 2)
    assert img[0, 0] == round(0.299 * 255)
    assert img[0, 1] == round(0.587 * 255)


def test_p6_luma_across_row_blocks_equals_the_whole_raster_expression(tmp_path):
    rows = 2 * images.P6_BLOCK_ROWS + 88  # two full blocks and a partial one
    rgb = np.random.default_rng(3).integers(0, 256, (rows, 3, 3), dtype=np.uint8)
    path = tmp_path / "tall.ppm"
    path.write_bytes(b"P6\n3 %d\n255\n" % rows + rgb.tobytes())
    f = rgb.astype(np.float64)
    whole = np.clip(np.rint(0.299 * f[..., 0] + 0.587 * f[..., 1] + 0.114 * f[..., 2]), 0, 255).astype(np.uint8)
    assert np.array_equal(images.read_image(path), whole)


def test_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(IoError):
        images.read_image(path)


def test_rejects_truncated_and_garbage(tmp_path):
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(IoError):
        images.read_image(short)
    garbage = tmp_path / "g.bin"
    garbage.write_bytes(b"\x89PNG....")
    with pytest.raises(IoError):
        images.read_image(garbage)
    with pytest.raises(IoError):
        images.read_image(tmp_path / "missing.pgm")


@pytest.mark.parametrize("size", [b"-5 -5", b"0 4"])
def test_rejects_non_positive_size(tmp_path, size):
    path = tmp_path / "s.pgm"
    path.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(32))
    with pytest.raises(IoError):
        images.read_image(path)


def test_rejects_declared_size_over_max_pixels(tmp_path):
    # refused for its declared size, before the (missing) raster is looked at
    path = tmp_path / "huge.pgm"
    path.write_bytes(b"P5\n4097 4097\n255\n")
    with pytest.raises(IoError, match="4097x4097"):
        images.read_image(path)


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4097, 4097)])
def test_write_image_refuses_what_read_image_refuses(tmp_path, shape):
    path = tmp_path / "w.pgm"
    with pytest.raises(IoError, match="bad image size"):
        images.write_image(np.zeros(shape, dtype=np.uint8), path)
    assert not path.exists()


def test_make_dataset_reproducible(tmp_path):
    a = images.make_dataset(tmp_path / "a", 10, 16, seed=1)
    b = images.make_dataset(tmp_path / "b", 10, 16, seed=1)
    assert len(a) == len(b) == 10
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_make_dataset_index_zero_is_gradient(tmp_path):
    paths = images.make_dataset(tmp_path / "d", 3, 32, seed=7)
    assert np.array_equal(images.read_image(paths[0]), images.smooth_gradient(32))


def test_make_dataset_empty(tmp_path):
    out = tmp_path / "empty"
    assert images.make_dataset(out, 0, 16, seed=0) == []
    assert out.is_dir() and not list(out.iterdir())


def test_smooth_gradient_shape():
    img = images.smooth_gradient(64)
    assert img.shape == (64, 64) and img.dtype == np.uint8
