"""The 8-bit image: check_image, the one check that an image is a non-empty
2-D uint8 array, and quantize, the one float-to-pixel rule; portable graymap
I/O and synthetic dataset generation.

Images are binary P5 files (maxval 255).  Color P6 input is converted to
luma on ingest with the BT.601 weights, BAND_BYTES // 24 pixels of the flat
raster at a time, so a P6 of any shape costs about what a P5 of its size
costs.  The header, _HEADER, is the magic, then width, height and maxval,
each after ASCII whitespace or "#" comments, then one whitespace byte; it
ends within PNM_HEADER_CAP bytes.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import IoError, ShapeMismatchError, atomic_write, read_file
from .wire import MAX_PIXELS

PNM_HEADER_CAP = 4096  # bytes: the header and its comments, through the whitespace byte before the raster
PNM_CAP = 3 * MAX_PIXELS + PNM_HEADER_CAP  # bytes: a P6 raster of MAX_PIXELS pixels and its header
BAND_BYTES = 1 << 20  # working memory of one step of every blocked pass: metrics, P6 luma, henon-plot


def check_image(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.ndim != 2 or img.size == 0:
        raise ShapeMismatchError(f"expected non-empty 2-D image, got shape {img.shape}")
    if img.dtype != np.uint8:
        raise ShapeMismatchError(f"expected uint8 pixels, got {img.dtype}")
    return img


def quantize(pixels: np.ndarray) -> np.ndarray:
    """Round half-to-even and clamp to the 8-bit range.

    Rounds and clamps `pixels` in place, so it must be a float array the
    caller owns; every caller passes a fresh one.  Working in place spares
    the two image-sized float temporaries that rint and clip would
    otherwise allocate on every decode.
    """
    np.rint(pixels, out=pixels)
    np.clip(pixels, 0, 255, out=pixels)
    return pixels.astype(np.uint8)


# A comment runs to its newline or the window's end, and a token starts with no "#" and ends at whitespace:
# so a header has one parse, and a refusal costs time linear in the window.
_SKIP = rb"(?:\s|#[^\n]*(?:\n|\Z))*"
_HEADER = re.compile(rb"P[56]%s([^\s#]\S*)\s%s([^\s#]\S*)\s%s([^\s#]\S*)\s" % (_SKIP, _SKIP, _SKIP))


def _check_size(width: int, height: int, path) -> None:
    """The size rule for every image read or written: each side >= 1, 1 to MAX_PIXELS pixels."""
    if width < 1 or height < 1 or width * height > MAX_PIXELS:
        raise IoError(f"bad image size {width}x{height} in {path}: want 1 to {MAX_PIXELS} pixels")


def read_image(path) -> np.ndarray:
    """Read P5 (grayscale) or P6 (color, converted to luma) at maxval 255.

    The file is read through errors.read_file, at most PNM_CAP bytes; a header
    that _HEADER does not match or that declares over MAX_PIXELS pixels is refused.
    """
    data = read_file(path, PNM_CAP)
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise IoError(f"not a binary PNM file: {path}")
    header = _HEADER.match(data, 0, PNM_HEADER_CAP)
    try:
        width, height, maxval = map(int, header.groups())
    except (AttributeError, ValueError) as e:  # no match, or a token that int() refuses
        raise IoError(f"bad PNM header in {path}") from e
    _check_size(width, height, path)
    if maxval != 255:
        raise IoError(f"only maxval 255 supported, got {maxval} in {path}")
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    if len(data) - header.end() < need:
        raise IoError(f"truncated raster in {path}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=header.end())
    if channels == 1:
        return pixels.reshape(height, width).copy()
    raster, luma, step = pixels.reshape(-1, 3), np.empty(width * height, dtype=np.uint8), BAND_BYTES // 24
    for start in range(0, luma.size, step):
        rgb = raster[start : start + step].astype(np.float64)
        luma[start : start + step] = quantize(0.299 * rgb[:, 0] + 0.587 * rgb[:, 1] + 0.114 * rgb[:, 2])
    return luma.reshape(height, width)


def write_image(img: np.ndarray, path) -> None:
    if img.ndim != 2 or img.dtype != np.uint8:
        raise IoError(f"can only write 2-D uint8 images, got {img.shape} {img.dtype}")
    h, w = img.shape
    _check_size(w, h, path)
    atomic_write(path, b"P5\n%d %d\n255\n" % (w, h) + img.tobytes())


def smooth_gradient(size: int) -> np.ndarray:
    """Fixed low-frequency test image; index 0 of every generated dataset."""
    ii, jj = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    u = ii / max(size - 1, 1)
    v = jj / max(size - 1, 1)
    g = (
        0.30 * (u + v) / 2.0
        + 0.28
        + 0.18 * np.sin(2.0 * np.pi * 5.3 * u) * np.cos(2.0 * np.pi * 4.1 * v)
        + 0.12 * np.sin(2.0 * np.pi * (9.7 * u + 7.9 * v))
        + 0.08 * np.cos(2.0 * np.pi * 13.1 * v)
    )
    return quantize(g * 255.0)


def _synthetic_image(size: int, rng: np.random.Generator) -> np.ndarray:
    ii, jj = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    u = ii / max(size - 1, 1)
    v = jj / max(size - 1, 1)
    kind = rng.integers(3)
    if kind == 0:  # tilted gradient
        theta = rng.uniform(0, 2 * np.pi)
        g = 0.5 + 0.45 * (np.cos(theta) * (u - 0.5) + np.sin(theta) * (v - 0.5))
    elif kind == 1:  # gaussian blobs
        g = np.full((size, size), rng.uniform(0.1, 0.3))
        for _ in range(rng.integers(1, 4)):
            cx, cy = rng.uniform(0.2, 0.8, size=2)
            s = rng.uniform(0.05, 0.25)
            g = g + rng.uniform(0.3, 0.7) * np.exp(-(((u - cx) ** 2 + (v - cy) ** 2) / (2 * s * s)))
    else:  # stripes
        freq = rng.uniform(2, 8)
        phase = rng.uniform(0, 2 * np.pi)
        theta = rng.uniform(0, np.pi)
        g = 0.5 + 0.4 * np.sin(2 * np.pi * freq * (np.cos(theta) * u + np.sin(theta) * v) + phase)
    return quantize(g * 255.0)


def pgm_paths(directory) -> list[Path]:
    """The sorted *.pgm paths in directory, the images of train and evaluate; IoError if it is no directory."""
    if not Path(directory).is_dir():
        raise IoError(f"not a directory: {directory}")
    return sorted(Path(directory).glob("*.pgm"))


def make_dataset(out_dir, count: int, size: int, seed: int) -> list[Path]:
    """Write `count` seeded P5 images; index 0 is the smooth gradient."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(count):
        img = smooth_gradient(size) if i == 0 else _synthetic_image(size, rng)
        path = out / f"img_{i:04d}.pgm"
        write_image(img, path)
        paths.append(path)
    return paths
