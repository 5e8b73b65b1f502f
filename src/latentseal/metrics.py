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
named by the bits of w are added end to end.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, WindowTooLargeError
from .images import check_image

C1 = (0.01 * 255.0) ** 2
C2 = (0.03 * 255.0) ** 2


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

    One stack holds the planes a, b, a*a, b*b and a*b.  It is summed over
    w rows, then over w columns with the row sums read as one long row: a
    sum that runs past the end of a row lands in an entry that is dropped,
    and a zero tail keeps the last ones inside the array.  The formula
    follows a direct loop's order of floating-point operations.  Every
    buffer is a view of one allocation, which the allocator reuses from
    call to call; a dozen separate temporaries of this size are handed
    back to the operating system after each call and faulted in again on
    the next, which costs more than the arithmetic.
    """
    h, wd = a.shape
    hh, ww = h - w + 1, wd - w + 1
    big, small = 5 * h * wd, 5 * hh * wd  # entries in the pixel stack, in the row sums
    acc = np.int32 if (255 * w) ** 2 < 2**31 else np.int64
    arena = np.empty(64 * hh * ww + (2 * big + small + w - 1) * np.dtype(acc).itemsize, np.uint8)
    floats = arena[: 64 * hh * ww].view(np.float64).reshape(8, hh, ww)
    ints = arena[64 * hh * ww :].view(acc)
    x, spare, rows = ints[:big], ints[big : 2 * big], ints[2 * big :]

    stack = x.reshape(5, h, wd)
    stack[0], stack[1] = a, b
    np.multiply(stack[0], stack[0], out=stack[2])
    np.multiply(stack[1], stack[1], out=stack[3])
    np.multiply(stack[0], stack[1], out=stack[4])
    rows[small:] = 0
    _window_sums(stack, spare.reshape(5, h, wd), w, rows[:small].reshape(5, hh, wd))
    flat = (1, -1, 1)
    sums = _window_sums(rows.reshape(flat), x[: rows.size].reshape(flat), w, spare[:small].reshape(flat))

    moments = floats[:5]
    np.multiply(sums.reshape(5, hh, wd)[:, :, :ww], 1.0 / (w * w), out=moments)
    mu_a, mu_b, var_a, var_b, cov = moments  # var_a, var_b, cov hold E[a*a], E[b*b], E[a*b]
    aa, bb, ab = floats[5:]
    np.multiply(mu_a, mu_a, out=aa)
    np.multiply(mu_b, mu_b, out=bb)
    np.multiply(mu_a, mu_b, out=ab)
    var_a -= aa
    var_b -= bb
    cov -= ab
    num = mu_a  # (2 mu_a mu_b + C1) (2 cov + C2), overwriting mu_a
    num *= 2.0
    num *= mu_b
    num += C1
    cov *= 2.0
    cov += C2
    num *= cov
    den = aa  # (mu_a^2 + mu_b^2 + C1) (var_a + var_b + C2)
    den += bb
    den += C1
    var_a += var_b
    var_a += C2
    den *= var_a
    num /= den
    return float(np.mean(num))


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
