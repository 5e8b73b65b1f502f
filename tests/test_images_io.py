import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latentseal import images, wire
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


def test_p6_luma_across_row_blocks_equals_the_whole_raster_expression(tmp_path, at_both_budgets):
    # at 4 KiB a chunk is 170 pixels, which 3 columns do not divide, so chunks split rows: 3x600 is 10 full
    # chunks and a partial one; at the default budget it is one chunk
    rgb = np.random.default_rng(3).integers(0, 256, (600, 3, 3), dtype=np.uint8)
    path = tmp_path / "tall.ppm"
    path.write_bytes(b"P6\n3 600\n255\n" + rgb.tobytes())
    f = rgb.astype(np.float64)
    whole = np.clip(np.rint(0.299 * f[..., 0] + 0.587 * f[..., 1] + 0.114 * f[..., 2]), 0, 255).astype(np.uint8)
    for luma in at_both_budgets(lambda: images.read_image(path)):
        assert np.array_equal(luma, whole)


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


def test_pgm_paths_are_the_sorted_pgm_files_of_a_directory(tmp_path):
    for name in ("b.pgm", "a.pgm", "c.ppm"):
        (tmp_path / name).write_bytes(b"")
    assert images.pgm_paths(tmp_path) == [tmp_path / "a.pgm", tmp_path / "b.pgm"]
    for not_a_directory in (tmp_path / "missing", tmp_path / "a.pgm"):
        with pytest.raises(IoError, match=str(not_a_directory)):
            images.pgm_paths(not_a_directory)


# --- the header grammar ----------------------------------------------------


def _read_tokens(data: bytes, count: int):
    """The byte-at-a-time header tokenizer that _HEADER replaced, kept as the reference.

    First `count` whitespace tokens after the 2-byte magic, skipping
    comments, and the offset of the raster that follows them."""
    tokens = []
    i = 2
    while len(tokens) < count:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(data) and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            raise IoError("truncated graymap header")
        tokens.append(data[start:i])
    return tokens, i + 1  # single whitespace after maxval precedes raster


def _reference_header(data: bytes):
    """(width, height, maxval, raster offset) by the reference tokenizer, or None where it refuses."""
    try:
        (w, h, maxval), offset = _read_tokens(data, 3)
        return int(w), int(h), int(maxval), offset
    except (IoError, ValueError):
        return None


WHITESPACE = [bytes([b]) for b in b" \t\n\r\x0b\x0c"]
ODD_SIDES = [b"-1", b"0", b"+2", b"-0", b"0_1", b"1_0", b"_1", b"2_", b"2#", b"#2", b"+", b"-"]
SIDES = st.sampled_from([b"1", b"2", b"3"]) | st.sampled_from(ODD_SIDES)
MAXVALS = st.sampled_from([b"255", b"255", b"255", b"+255", b"2_55", b"0255", b"254", b"-255", b"255#", b"25#5"])
COMMENTS = st.tuples(
    st.lists(st.sampled_from([b"#", b" ", b"c", b"\t", b"\r", b"1"]), max_size=8).map(b"".join),
    st.sampled_from([b"\n", b"\n", b"\n", b""]),  # mostly ended by a newline, as a header that parses needs
).map(lambda c: b"#" + c[0] + c[1])
RUN_UNITS = WHITESPACE + [b"# c\n", b"#\n", b"#", b"#c"]
RUNS = st.tuples(st.sampled_from(RUN_UNITS), st.integers(1, 4200)).map(lambda r: (r[0] * r[1])[: r[1]])  # r[1] bytes
PIECE = st.one_of(st.sampled_from(WHITESPACE), st.sampled_from(WHITESPACE), COMMENTS, COMMENTS, RUNS)


def _skip(min_size: int):
    return st.lists(PIECE, min_size=min_size, max_size=4).map(b"".join)


@st.composite
def pnm_headers(draw):
    """A magic, a header and a raster: either the three fields, each after whitespace, comments or
    long runs of either, then one whitespace byte; or fields and separators in any order."""
    if draw(st.integers(0, 3)):
        fields = [draw(_skip(0)), draw(SIDES), draw(_skip(1)), draw(SIDES), draw(_skip(1)), draw(MAXVALS)]
        header = b"".join(fields) + draw(st.sampled_from(WHITESPACE))
    else:
        header = b"".join(draw(st.lists(SIDES | MAXVALS | PIECE, max_size=10)))
    return draw(st.sampled_from([b"P5", b"P6"])) + header + draw(st.binary(min_size=20, max_size=40))


@pytest.fixture(scope="module")
def pnm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("pnm") / "input.pnm"


def _outcome(path):
    """read_image(path) as (shape, pixel bytes), or the message of the IoError it raises."""
    try:
        img = images.read_image(path)
    except IoError as e:
        return str(e)
    return img.shape, img.tobytes()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pnm_headers())
def test_read_image_agrees_with_the_reference_tokenizer_within_the_header_window(pnm_path, data):
    """Where the reference header ends within the window and before the end of the file, read_image
    reads data as it reads the same raster under a canonical header of the reference's width, height
    and maxval; elsewhere it refuses the header."""
    reference = _reference_header(data)
    pnm_path.write_bytes(data)
    got = _outcome(pnm_path)
    if reference is None or reference[3] > min(len(data), images.PNM_HEADER_CAP):
        assert "bad PNM header" in got
        return
    width, height, maxval, offset = reference
    pnm_path.write_bytes(data[:2] + b"\n%d %d\n%d\n" % (width, height, maxval) + data[offset:])
    assert got == _outcome(pnm_path)


@pytest.mark.parametrize("fill", [b"#" + b"c" * 64, b" ", b"9", b"#"], ids=["comment", "whitespace", "digits", "hashes"])
def test_cap_sized_hostile_header_is_refused_within_a_second(tmp_path, fill):
    assert images.PNM_CAP == 3 * wire.MAX_PIXELS + images.PNM_HEADER_CAP
    path = tmp_path / "hostile.pgm"
    path.write_bytes((b"P5" + fill * (images.PNM_CAP // len(fill)))[: images.PNM_CAP])
    start = time.perf_counter()
    with pytest.raises(IoError, match="bad PNM header"):
        images.read_image(path)
    assert time.perf_counter() - start < 1.0


def test_header_ends_within_the_window(tmp_path):
    tail = b"\n1 1 255\n"  # its last byte delimits the raster
    path = tmp_path / "edge.pgm"
    for length, accepted in ((images.PNM_HEADER_CAP, True), (images.PNM_HEADER_CAP + 1, False)):
        header = b"P5\n#" + b"c" * (length - 4 - len(tail)) + tail
        assert len(header) == length and _reference_header(header + b"\x07")[3] == length
        path.write_bytes(header + b"\x07")
        if accepted:
            assert images.read_image(path).tolist() == [[7]]
        else:
            with pytest.raises(IoError, match="bad PNM header"):
                images.read_image(path)
