"""Image quality metrics (SSIM, MSE, PSNR) of 8-bit images.

SSIM and MSE take two non-empty 2-D uint8 arrays of one shape, the images
the chain reads, encodes and decodes, and refuse all else; PSNR the MSE.
SSIM uses Wang et al.'s constants for 8-bit images, C1 = (0.01 * 255)^2 and
C2 = (0.03 * 255)^2, and PSNR a peak of 255.  ssim(a, b, window=None)
defaults to the single global evaluation of the similarity formula over
whole-image moments (population normalization); an int window selects the
mean over every uniform window x window sliding window.

Exactness: every metric starts from integer sums that are exact.  MSE is
the exact sum of squared differences over the pixel count, correctly
rounded, and PSNR follows from it.  Windowed SSIM takes each window's sums
of a, b, a², b² and ab in int32 (int64 for windows over 181) and applies
the per-window formula to them, so every window's value equals that of a
direct loop over the window.  Global SSIM takes its variances and
covariance from the exact integer moments, each rounded once.

Memory: every blocked pass here reads images.BAND_BYTES, 1 MiB, at call
time.  MSE and global SSIM sum over chunks whose float64 copies fill one
such buffer.  Windowed SSIM takes the output rows in bands, split into
column tiles where a band is too wide, whose integer buffers take about
BAND_BYTES, so a tile's passes stay in a 2 MiB L2 cache; each tile's float
stage lies over those buffers once spent, so it needs 8 bytes per window
for the map of values and one tile beside it.  Window sums cost O(log w)
array additions per axis (binary doubling, see _window_sums).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import images
from .errors import DimMismatchError, WindowTooLargeError

C1 = (0.01 * 255.0) ** 2
C2 = (0.03 * 255.0) ** 2


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both images, as non-empty 2-D uint8 arrays of one shape."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimMismatchError(f"image shapes differ: {a.shape} vs {b.shape}")
    return images.check_image(a), images.check_image(b)


def _float_chunks(a, b):
    """Float64 copies of flat a and b, BAND_BYTES // 16 pixels at a time in one buffer: a chunk's sums are exact."""
    a, b = a.ravel(), b.ravel()
    n, f = a.size, np.empty((2, min(a.size, images.BAND_BYTES // 16)))
    for start in range(0, n, f.shape[1]):
        fa, fb = f[:, : n - start]
        fa[...], fb[...] = a[start : start + fa.size], b[start : start + fa.size]
        yield fa, fb


def mse(a: np.ndarray, b: np.ndarray) -> float:
    a, b = _check_pair(a, b)
    sse = 0
    for fa, fb in _float_chunks(a, b):
        fa -= fb
        sse += int(fa @ fa)
    return sse / a.size  # the exact sum of squares, one rounding


def psnr(err: float) -> float:
    """PSNR in decibels of a mean squared error err, as mse returns it: +inf at 0."""
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 * 255.0 / err)


def ssim(a: np.ndarray, b: np.ndarray, window: int | None = None) -> float:
    a, b = _check_pair(a, b)
    if window is None:
        return _ssim_global(a, b)
    if window < 1 or window > min(a.shape):
        raise WindowTooLargeError(f"window {window} exceeds image {a.shape}")
    return _ssim_windows(a, b, window)


def _ssim_global(a, b) -> float:
    # The exact chunk moments are added as Python ints.  The centred moments are then exact integers
    # over n**2, each rounded once by Python's int division.
    n, sums = a.size, [0] * 5
    for fa, fb in _float_chunks(a, b):
        sums = [s + int(v) for s, v in zip(sums, (fa.sum(), fb.sum(), fa @ fa, fb @ fb, fa @ fb))]
    sa, sb, saa, sbb, sab = sums
    mu_a, mu_b = sa / n, sb / n
    var_a = (n * saa - sa * sa) / (n * n)
    var_b = (n * sbb - sb * sb) / (n * n)
    cov = (n * sab - sa * sb) / (n * n)
    num = (2.0 * mu_a * mu_b + C1) * (2.0 * cov + C2)
    den = (mu_a**2 + mu_b**2 + C1) * (var_a + var_b + C2)
    return float(num / den)


def _window_sums(x: np.ndarray, spare: np.ndarray, w: int, out: np.ndarray) -> np.ndarray:
    """Sum of every w consecutive entries along axis 1 of a 3-D x, into out.

    Binary doubling: runs of 1, 2, 4, ... entries are each the sum of two
    shifted copies of the one before, and the runs named by the bits of w
    are added end to end, so it costs O(log w) array additions.  The runs
    alternate between x and spare, which must not overlap; both are
    overwritten.
    """
    n = out.shape[1]
    run, span, off = x, 1, 0
    while True:
        if w & span:
            part = run[:, off : off + n]
            if off:
                out += part
            else:
                out[...] = part
            off += span
        if 2 * span > w:
            return out
        m = run.shape[1] - span
        run, spare = np.add(run[:, :m], run[:, span:], out=spare[:, :m]), run
        span *= 2


def _ssim_windows(a, b, w) -> float:
    """Mean of per-window structural similarity over all w*w windows.

    Output rows are taken in bands of at least w - 1 rows, as many as keep a
    band's three integer buffers of 5 planes near BAND_BYTES, so the rows a
    band shares with the next at most double its row pass.  Where w - 1 rows
    overrun BAND_BYTES, a band is split into column tiles of at least 2w - 1
    columns that overlap by w - 1.  Per tile, one stack holds the planes a,
    b, a*a, b*b and a*b.  It is summed over w rows into the row-sum buffer,
    with the spare buffer for the doubling runs, then over w columns into the
    spare buffer with the row sums read as one long row: a sum that runs past
    the end of a row lands in an entry that is dropped, and a zero tail keeps
    the last ones inside the array.
    The float stage then lies over integer buffers no longer needed: the
    five moments over the stack and row sums, and mu_a*mu_b over the spare
    buffer.  Each tile's values go into its slice of one (hh, ww) map, and
    the mean is taken once, over the whole map.  The formula follows a
    direct loop's order of floating-point operations.
    """
    h, wd = a.shape
    hh, ww = h - w + 1, wd - w + 1
    acc = np.dtype(np.int32 if (255 * w) ** 2 < 2**31 else np.int64)
    budget = images.BAND_BYTES // (15 * acc.itemsize)  # pixels of a band: 3 buffers of 5 planes
    tw = min(wd, max(budget // max(w - 1, 1), 2 * w - 1))  # input columns of a tile
    band = min(hh, max(budget // tw, w - 1, 1))
    big = 5 * (band + w - 1) * tw  # entries in the pixel stack and in the spare buffer
    front = ((big + 5 * band * tw + w - 1) * acc.itemsize + 7) // 8  # float64 slots over the stack and row sums
    arena = np.empty(front + (big * acc.itemsize + 7) // 8)
    ints, spare = arena[:front].view(acc), arena[front:].view(acc)
    ssim_map = np.empty((hh, ww))
    for top, left in ((top, left) for top in range(0, hh, band) for left in range(0, ww, tw - w + 1)):
        n, k = min(band, hh - top), min(tw - w + 1, ww - left)  # output rows and columns of this tile
        c = k + w - 1  # its input columns
        stack = ints[: 5 * (n + w - 1) * c].reshape(5, n + w - 1, c)
        stack[0], stack[1] = a[top : top + n + w - 1, left : left + c], b[top : top + n + w - 1, left : left + c]
        np.multiply(stack[0], stack[0], out=stack[2])
        np.multiply(stack[1], stack[1], out=stack[3])
        np.multiply(stack[0], stack[1], out=stack[4])
        rows = ints[big : big + 5 * n * c + w - 1]
        rows[5 * n * c :] = 0  # the float stage of the tile before wrote over the zero tail
        _window_sums(stack, spare[: stack.size].reshape(stack.shape), w, rows[: 5 * n * c].reshape(5, n, c))
        flat = (1, -1, 1)
        sums = _window_sums(rows.reshape(flat), ints[: rows.size].reshape(flat), w, spare[: 5 * n * c].reshape(flat))

        moments = arena[: 5 * n * k].reshape(5, n, k)
        np.multiply(sums.reshape(5, n, c)[:, :, :k], 1.0 / (w * w), out=moments)
        mu_a, mu_b, var_a, var_b, cov = moments  # var_a, var_b, cov hold E[a*a], E[b*b], E[a*b]
        num = np.multiply(mu_a, mu_b, out=arena[front : front + n * k].reshape(n, k))
        cov -= num
        num *= 2.0  # exact, so this is (2 mu_a) mu_b: num = (2 mu_a mu_b + C1) (2 cov + C2)
        num += C1
        cov *= 2.0
        cov += C2
        num *= cov
        den = mu_a  # (mu_a^2 + mu_b^2 + C1) (var_a + var_b + C2)
        den *= mu_a
        mu_b *= mu_b
        var_a -= den
        var_b -= mu_b
        den += mu_b
        den += C1
        var_a += var_b
        var_a += C2
        den *= var_a
        np.divide(num, den, out=ssim_map[top : top + n, left : left + k])
    return float(np.mean(ssim_map))


@dataclass
class QualityReport:
    ssim: float
    mse: float
    psnr: float  # decibels, may be +inf
    encrypt_seconds: float
    decrypt_seconds: float

    CSV_HEADER = "ssim,psnr_db,mse,encrypt_s,decrypt_s"

    def csv_row(self) -> str:
        vals = (self.ssim, self.psnr, self.mse, self.encrypt_seconds, self.decrypt_seconds)
        return ",".join(format(v, ".6g") for v in vals)
