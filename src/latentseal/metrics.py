"""Image quality metrics (SSIM, MSE, PSNR) of 8-bit images.

Every metric takes two non-empty 2-D uint8 arrays of one shape, the only
images the chain reads, encodes and decodes; anything else is refused.
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

Window sums cost O(log w) array additions per axis: runs of 1, 2, 4, ...
consecutive entries are built by adding shifted copies, and the runs
named by the bits of w are added end to end.  Windowed SSIM works through
the output rows in bands whose integer buffers take about BAND_BYTES, and
lays each band's float stage over those buffers once they are spent, so
it needs 8 bytes per window for the map of values and one band beside it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, WindowTooLargeError
from .images import check_image

C1 = (0.01 * 255.0) ** 2
C2 = (0.03 * 255.0) ** 2
BAND_BYTES = 16 << 20  # integer buffers of one band of windowed SSIM


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both images, as non-empty 2-D uint8 arrays of one shape."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimMismatchError(f"image shapes differ: {a.shape} vs {b.shape}")
    return check_image(a), check_image(b)


def mse(a: np.ndarray, b: np.ndarray) -> float:
    a, b = _check_pair(a, b)
    d = np.subtract(a, b, dtype=np.int32)
    d *= d
    return float(d.sum() / d.size)  # int64 sum of squares, one rounding


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    err = mse(a, b)
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
    # Every partial sum is an integer below 2**53, so the float64 sums and
    # dot products are exact; the centred moments are then exact integers
    # over n**2, each rounded once by Python's int division.
    f = np.empty((2,) + a.shape)
    f[0], f[1] = a, b
    fa, fb = f.reshape(2, -1)
    n = fa.size
    sa, sb, saa, sbb, sab = (int(v) for v in (fa.sum(), fb.sum(), fa @ fa, fb @ fb, fa @ fb))
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
    band shares with the next at most double its row pass.  Per band, one
    stack holds the planes a, b, a*a, b*b and a*b.  It is summed over w
    rows into the row-sum buffer, with the spare buffer for the doubling
    runs, then over w columns into the spare buffer with the row sums read
    as one long row: a sum that runs past the end of a row lands in an entry
    that is dropped, and a zero tail keeps the last ones inside the array.
    The float stage then lies over integer buffers no longer needed: the
    five moments over the stack and row sums, and mu_a*mu_b over the spare
    buffer.  Each band's values go into one (hh, ww) map, and the mean is
    taken once, over the whole map.  The formula follows a direct loop's
    order of floating-point operations.
    """
    h, wd = a.shape
    hh, ww = h - w + 1, wd - w + 1
    acc = np.dtype(np.int32 if (255 * w) ** 2 < 2**31 else np.int64)
    band = min(hh, max(BAND_BYTES // (15 * acc.itemsize * wd), w - 1, 1))
    big = 5 * (band + w - 1) * wd  # entries in the pixel stack and in the spare buffer
    front = ((big + 5 * band * wd + w - 1) * acc.itemsize + 7) // 8  # float64 slots over the stack and row sums
    arena = np.empty(front + (big * acc.itemsize + 7) // 8)
    ints, spare = arena[:front].view(acc), arena[front:].view(acc)
    ssim_map = np.empty((hh, ww))
    for top in range(0, hh, band):
        n = min(band, hh - top)  # output rows of this band
        stack = ints[: 5 * (n + w - 1) * wd].reshape(5, n + w - 1, wd)
        stack[0], stack[1] = a[top : top + n + w - 1], b[top : top + n + w - 1]
        np.multiply(stack[0], stack[0], out=stack[2])
        np.multiply(stack[1], stack[1], out=stack[3])
        np.multiply(stack[0], stack[1], out=stack[4])
        rows = ints[big : big + 5 * n * wd + w - 1]
        rows[5 * n * wd :] = 0  # the float stage of the band before wrote over the zero tail
        _window_sums(stack, spare[: stack.size].reshape(stack.shape), w, rows[: 5 * n * wd].reshape(5, n, wd))
        flat = (1, -1, 1)
        sums = _window_sums(rows.reshape(flat), ints[: rows.size].reshape(flat), w, spare[: 5 * n * wd].reshape(flat))

        moments = arena[: 5 * n * ww].reshape(5, n, ww)
        np.multiply(sums.reshape(5, n, wd)[:, :, :ww], 1.0 / (w * w), out=moments)
        mu_a, mu_b, var_a, var_b, cov = moments  # var_a, var_b, cov hold E[a*a], E[b*b], E[a*b]
        num = np.multiply(mu_a, mu_b, out=arena[front : front + n * ww].reshape(n, ww))
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
        np.divide(num, den, out=ssim_map[top : top + n])
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
