"""Latent codecs: map 8-bit grayscale images to m-element vectors and back.

CodecModel runs both codecs and states their contract once: pixels scaled
to [0, 1], the latent rounded to the nearest 32-bit float so the pipeline's
4-byte wire serialization is an exact round trip, and on the way back x255
then images.quantize; each codec adds only its transform.  The DCT codec
keeps the first m zigzag coefficients of the orthonormal 2-D DCT of the
image.  The neural codec is a small fully-connected autoencoder (tanh
hidden layers, sigmoid output) trained in train.py.

The DCT is two numpy products with orthonormal DCT-II basis matrices, cut
to the rows and columns the first m zigzag cells reach; no FFT package is
used.  Two bounded caches hold per-shape state, keyed so that shapes which
differ only outside the cells m reaches share entries: the zigzag order is
keyed by the grid clipped to its last anti-diagonal (32 entries), and each
basis by its side n and the square box side k the cells reach (64 entries
of at most BASIS_CACHE_BYTES each), from which the row and column bases are
sliced.  So, for example, every grid with both sides of 28 or more shares
one zigzag order and one box side per m up to 400.

This module owns the .lscm model file's layout, and so model_size, its
byte count, and load_model parses a model as it reads it, each layer
straight into its own array; the image check and the quantizer belong to images.
"""

import io
import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import IoError, MTooLargeError, NonFiniteLatentError, ShapeMismatchError, atomic_write, open_file
from .images import check_image, quantize
from .wire import KIND_DCT, KIND_NEURAL, MAX_PIXELS  # the codec ids are the payload header's

MODEL_MAGIC = b"LSCM"
MODEL_VERSION = 1
_MODEL_HEADER = "<4sBBI"  # magic, version, codec kind and m


def zigzag_indices(height: int, width: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of the first m cells, 1 <= m <= height * width, of an
    H x W grid in zigzag order; even anti-diagonals run bottom-left to top-right.

    The cells are those of the grid clipped to the last anti-diagonal they
    reach, so the cached order is shared by every grid that clips alike.
    """
    last = _last_diagonal(height, width, m)
    return _zigzag_box(min(height, last + 1), min(width, last + 1), m)


def _last_diagonal(height: int, width: int, m: int) -> int:
    """Anti-diagonal holding the m-th zigzag cell, in integer arithmetic.

    With s <= l the grid's sides, diagonal d holds d + 1 cells while d < s,
    then s cells while d < l; past diagonal h + w - 2 - j lie T(j) = j(j + 1)/2 cells.
    """
    s, l = sorted((height, width))
    head = s * (s + 1) // 2
    if m <= head:
        j = (math.isqrt(8 * m + 1) - 1) // 2  # largest j with T(j) <= m
        return j - 1 if j * (j + 1) // 2 == m else j
    if m <= head + (l - s) * s:
        return s - 1 + -(-(m - head) // s)
    return height + width - 2 - (math.isqrt(8 * (height * width - m) + 1) - 1) // 2


@lru_cache(maxsize=32)
def _zigzag_box(height: int, width: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """zigzag_indices of a grid already clipped to the box its first m cells reach."""
    rows, cols = np.indices((height, width)).reshape(2, -1)
    diag = rows + cols
    order = np.argsort(diag * height + np.where(diag % 2 == 0, height - 1 - rows, rows))[:m]
    rows, cols = rows[order], cols[order]
    for a in (rows, cols):
        a.setflags(write=False)
    return rows, cols


BASIS_CACHE_BYTES = 1 << 20  # larger bases are rebuilt on every call


def _zigzag_plan(height: int, width: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The zigzag rows and cols of m coefficients of an H x W image, then row bases,
    (rows.max() + 1) x height, and column bases, (cols.max() + 1) x width, sliced
    from bases cached by the square box side max(rows.max(), cols.max()) + 1; the two
    counts differ by the last diagonal's parity, and the box side depends only on m
    while the cells fit the grid.  MTooLargeError refuses m outside 1..height * width,
    and a basis of side * min(k, side) entries over MAX_PIXELS before it is built: a
    long thin grid at large m, such as 1 x 65535 at m = 65535, would otherwise take a
    32 GiB basis, and a payload header can declare one."""
    if not 1 <= m <= height * width:
        raise MTooLargeError(f"m={m} out of range for a {width}x{height} image")
    rows, cols = zigzag_indices(height, width, m)
    kr, kc = rows.max() + 1, cols.max() + 1
    k = max(kr, kc)
    kh, kw = min(k, height), min(k, width)
    if max(kh * height, kw * width) > MAX_PIXELS:
        raise MTooLargeError(f"m={m} on a {width}x{height} grid needs a DCT basis over {MAX_PIXELS} entries")
    return rows, cols, _dct_basis(height, kh)[:kr], _dct_basis(width, kw)[:kc]


def _dct_basis(n: int, k: int) -> np.ndarray:
    """First k rows of the n x n orthonormal DCT-II matrix, read-only.

    Bases of up to BASIS_CACHE_BYTES are cached, so the 64-entry cache
    holds at most 64 MiB; a payload's dimensions cannot make it pin more.
    """
    return (_cached_basis if 8 * n * k <= BASIS_CACHE_BYTES else _basis)(n, k)


def _basis(n: int, k: int) -> np.ndarray:
    basis = np.cos(np.pi * np.outer(np.arange(k), 2 * np.arange(n) + 1) / (2 * n)) * np.sqrt(2.0 / n)
    basis[0] = np.sqrt(1.0 / n)
    basis.setflags(write=False)
    return basis


_cached_basis = lru_cache(maxsize=64)(_basis)


@dataclass
class Layer:
    W: np.ndarray  # (n_out, n_in)
    b: np.ndarray  # (n_out,)


@dataclass
class CodecModel:
    """Either the parameterless DCT codec or a trained neural autoencoder."""

    kind: str  # "dct" | "neural"
    m: int
    encoder: list[Layer] = field(default_factory=list)
    decoder: list[Layer] = field(default_factory=list)

    @property
    def codec_id(self) -> int:
        return KIND_DCT if self.kind == "dct" else KIND_NEURAL

    @property
    def input_size(self) -> int | None:
        return self.encoder[0].W.shape[1] if self.encoder else None

    def encode(self, img: np.ndarray) -> np.ndarray:
        x = check_image(img).astype(np.float64) / 255.0
        # huge finite weights, or a value past float32's range, give inf or NaN, which compress_encrypt refuses
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "dct":
                rows, cols, row_basis, col_basis = _zigzag_plan(*x.shape, self.m)
                z = (row_basis @ x @ col_basis.T)[rows, cols]
            elif x.size != self.input_size:
                raise ShapeMismatchError(f"image has {x.size} pixels, model expects {self.input_size}")
            else:
                z = forward(self.encoder, x.ravel(), None)[-1]
            return z.astype(np.float32).astype(np.float64)

    def decode(self, v: np.ndarray, width: int, height: int) -> np.ndarray:
        """The width x height image of latent v; for a neural codec, width * height
        is input_size, as decrypt_reconstruct checks before the open."""
        v = np.asarray(v, dtype=np.float64)
        if self.kind == "dct":
            rows, cols, row_basis, col_basis = _zigzag_plan(height, width, v.size)
            coeffs = np.zeros((len(row_basis), len(col_basis)), dtype=np.float64)
            coeffs[rows, cols] = v
            out = row_basis.T @ coeffs @ col_basis
        else:
            if v.size != self.m:
                raise ShapeMismatchError(f"latent size {v.size}, model expects {self.m}")
            with np.errstate(over="ignore", invalid="ignore"):  # huge finite weights give inf - inf, refused below
                out = forward(self.decoder, v, sigmoid)[-1]
            if not np.isfinite(out).all():
                raise NonFiniteLatentError(f"{np.count_nonzero(~np.isfinite(out))} of {out.size} decoded pixels are not finite")
        out *= 255.0
        return quantize(out.reshape(height, width))


def dct_model(m: int) -> CodecModel:
    return CodecModel(kind="dct", m=m)


def forward(layers: list[Layer], X: np.ndarray, out_activation) -> list[np.ndarray]:
    """MLP pass over the rows of X (or one vector): tanh hidden layers, then
    out_activation on the last layer, or no activation if it is None.

    Returns every post-activation value, input first, for backprop.
    """
    acts = [X]
    for i, layer in enumerate(layers):
        z = acts[-1] @ layer.W.T + layer.b
        if i < len(layers) - 1:
            acts.append(np.tanh(z))
        else:
            acts.append(z if out_activation is None else out_activation(z))
    return acts


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp is only taken of -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1 / (1 + e), e / (1 + e))


MODEL_CAP = 256 << 20  # bytes; a 256x256 autoencoder at hidden 128 is about 134 MB
MAX_LAYERS = 64  # per stack, checked before any layer of the stack is parsed


def _layers_bytes(layers: list[Layer]) -> bytes:
    parts = [struct.pack("<I", len(layers))]
    for layer in layers:
        parts.append(struct.pack("<II", *layer.W.shape))
        parts.append(layer.W.astype("<f8").tobytes())
        parts.append(layer.b.astype("<f8").tobytes())
    return b"".join(parts)


def model_size(*stacks: list[int]) -> int:
    """Bytes of the neural .lscm file whose layer stacks have these widths, input
    first: the header, then per stack a layer count and per layer its shape,
    weights and biases, as save_model writes them."""
    layers = sum(4 + sum(8 + 8 * n_out * (n_in + 1) for n_in, n_out in zip(d, d[1:])) for d in stacks)
    return struct.calcsize(_MODEL_HEADER) + layers


def _parse_layers(f, size: int) -> list[Layer]:
    """The layer stack at f's position, in a file of size bytes."""
    (count,) = struct.unpack("<I", f.read(4))
    if not 1 <= count <= MAX_LAYERS:
        raise IoError(f"a layer stack holds {count} layers, outside 1..{MAX_LAYERS}")
    layers = []
    for _ in range(count):
        n_out, n_in = struct.unpack("<II", f.read(8))
        if 8 * n_out * (n_in + 1) > size - f.tell():
            raise IoError(f"layer {n_out}x{n_in} exceeds the model file's remaining bytes")
        W, b = np.empty((n_out, n_in), "<f8"), np.empty(n_out, "<f8")  # aligned, as views of the bytes would not be
        if f.readinto(W) + f.readinto(b) != W.nbytes + b.nbytes:
            raise EOFError
        layers.append(Layer(W, b))
    return layers


def _parse_model(f, size: int, path) -> CodecModel:
    """The model in f, the .lscm file at path of size bytes, read front to back: the
    header, then for a neural codec an encoder and a decoder stack of 1..MAX_LAYERS layers
    each, a cycle of layer shapes through m (the decoder rebuilds the encoder's input),
    ending where the file ends. Anything else, or over MODEL_CAP bytes, is an IoError."""
    head = f.read(struct.calcsize(_MODEL_HEADER))
    if size > MODEL_CAP or head[:4] != MODEL_MAGIC:
        raise IoError(f"not a codec model file of at most {MODEL_CAP} bytes: {path}")
    try:
        _, version, kind_id, m = struct.unpack(_MODEL_HEADER, head)
        if version != MODEL_VERSION:
            raise IoError(f"unsupported model version {version}")
        if kind_id not in (KIND_DCT, KIND_NEURAL):
            raise IoError(f"unknown codec kind {kind_id}")
        encoder, decoder = (_parse_layers(f, size), _parse_layers(f, size)) if kind_id == KIND_NEURAL else ([], [])
    except (struct.error, EOFError) as e:
        raise IoError(f"truncated model file: {path}") from e
    if f.tell() != size:
        raise IoError(f"{size - f.tell()} bytes past the model's end in {path}")
    if kind_id == KIND_DCT:
        return dct_model(m)
    chain = encoder + decoder
    if not all(np.isfinite(layer.W).all() and np.isfinite(layer.b).all() for layer in chain):
        raise IoError(f"non-finite model weights in {path}")
    if encoder[-1].W.shape[0] != m or any(p.W.shape[0] != n.W.shape[1] for p, n in zip(chain, chain[1:] + chain[:1])):
        raise IoError(f"layer shapes {[layer.W.shape for layer in chain]} do not cycle through m={m} in {path}")
    return CodecModel(kind="neural", m=m, encoder=encoder, decoder=decoder)


def save_model(model: CodecModel, path) -> None:
    """Write model as .lscm, refusing (IoError) what load_model would refuse."""
    data = struct.pack(_MODEL_HEADER, MODEL_MAGIC, MODEL_VERSION, model.codec_id, model.m)
    if model.kind == "neural":
        data += _layers_bytes(model.encoder) + _layers_bytes(model.decoder)
    _parse_model(io.BytesIO(data), len(data), path)
    atomic_write(path, data)


def load_model(path) -> CodecModel:
    """The .lscm model at path, opened by open_file, which refuses a file over
    MODEL_CAP bytes before reading it, and parsed by _parse_model as it is read."""
    with open_file(path, MODEL_CAP) as (f, size):
        return _parse_model(f, size, path)
