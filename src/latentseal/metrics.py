"""Image quality metrics (SSIM, MSE, PSNR) and wall-clock timing.

SSIM defaults to the single global evaluation of the similarity
formula over whole-image moments (population normalization); a
uniform sliding-window mode is also available.
"""

import math
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .errors import DimMismatchError, WindowTooLargeError

T = TypeVar("T")


@dataclass(frozen=True)
class SsimParams:
    k1: float = 0.01
    k2: float = 0.03
    L: float = 255.0
    window: int | None = None  # None = global; otherwise uniform w x w

    @property
    def c1(self) -> float:
        return (self.k1 * self.L) ** 2

    @property
    def c2(self) -> float:
        return (self.k2 * self.L) ** 2


def _check_pair(a: np.ndarray, b: np.ndarray):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimMismatchError(f"image shapes differ: {a.shape} vs {b.shape}")
    return a.astype(np.float64), b.astype(np.float64)


def mse(a: np.ndarray, b: np.ndarray) -> float:
    a, b = _check_pair(a, b)
    return float(np.mean((a - b) ** 2))


def psnr(a: np.ndarray, b: np.ndarray, bits: int = 8) -> float:
    err = mse(a, b)
    peak = float(2**bits - 1)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / err)


def ssim(a: np.ndarray, b: np.ndarray, params: SsimParams = SsimParams()) -> float:
    a, b = _check_pair(a, b)
    if params.window is None:
        return _ssim_global(a, b, params.c1, params.c2)
    w = params.window
    if w < 1 or w > min(a.shape):
        raise WindowTooLargeError(f"window {w} exceeds image {a.shape}")
    return _ssim_windows(a, b, w, params.c1, params.c2)


def _ssim_global(a: np.ndarray, b: np.ndarray, c1: float, c2: float) -> float:
    mu_a = a.mean()
    mu_b = b.mean()
    var_a = a.var()  # population (1/N) normalization
    var_b = b.var()
    cov = ((a - mu_a) * (b - mu_b)).mean()
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(num / den)


def _window_sums(x: np.ndarray, w: int) -> np.ndarray:
    """Sum of every w x w window of x, from a zero-padded summed-area table."""
    sat = np.zeros((x.shape[0] + 1, x.shape[1] + 1))
    sat[1:, 1:] = x.cumsum(0).cumsum(1)
    return sat[w:, w:] - sat[:-w, w:] - sat[w:, :-w] + sat[:-w, :-w]


def _ssim_windows(a, b, w, c1, c2):
    """Mean of per-window structural similarity over all w*w windows.

    Inputs are not centred: for 8-bit images every table entry is an
    integer below 2**53, so each window's sums are exact and its value
    equals that of a direct loop over the window.
    """
    inv = 1.0 / (w * w)
    mu_a = _window_sums(a, w) * inv
    mu_b = _window_sums(b, w) * inv
    var_a = _window_sums(a * a, w) * inv - mu_a * mu_a
    var_b = _window_sums(b * b, w) * inv - mu_b * mu_b
    cov = _window_sums(a * b, w) * inv - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def timed(f: Callable[[], T]) -> tuple[T, float]:
    """Run f, returning (result, monotonic wall seconds)."""
    start = time.perf_counter()
    result = f()
    return result, time.perf_counter() - start


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
