"""The benchmark's own reference arithmetic, independent of latentseal's code.

Used only to check outputs: DCT coefficients by the direct DCT-II formula,
the zigzag order that picks them, and windowed SSIM by summed-area tables.
"""

import math

import numpy as np

PAYLOAD_HEADER = 12  # magic(4) version(1) codec(1) m(2) width(2) height(2)
ECIES_OVERHEAD = 49  # 33-byte ephemeral point + 16-byte tag
SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2


def payload_size(m: int) -> int:
    return PAYLOAD_HEADER + 4 * m + ECIES_OVERHEAD


def zigzag_first(height: int, width: int, m: int) -> list[tuple[int, int]]:
    """First m (row, col) cells of the zigzag walk; even anti-diagonals run upward."""
    cells = []
    s = 0
    while len(cells) < m:
        rows = range(max(0, s - width + 1), min(s, height - 1) + 1)
        cells.extend((r, s - r) for r in (reversed(rows) if s % 2 == 0 else rows))
        s += 1
    return cells[:m]


def _basis(n: int, k: int) -> np.ndarray:
    scale = math.sqrt((1.0 if k == 0 else 2.0) / n)
    return scale * np.cos(np.pi * (2 * np.arange(n) + 1) * k / (2 * n))


def dct_coefficient(img: np.ndarray, row: int, col: int) -> float:
    """Orthonormal 2-D DCT-II coefficient (row, col) of img / 255."""
    h, w = img.shape
    return float(_basis(h, row) @ (img.astype(np.float64) / 255.0) @ _basis(w, col))


def latent_matches(latent: np.ndarray, img: np.ndarray, indices) -> bool:
    """Each sampled latent equals the reference coefficient to one float32 ulp."""
    cells = zigzag_first(*img.shape, max(indices) + 1)
    for j in indices:
        ref = dct_coefficient(img, *cells[j])
        if abs(latent[j] - ref) > float(np.spacing(np.float32(abs(ref)))) + 1e-12:
            return False
    return True


def _window_sums(x: np.ndarray, w: int) -> np.ndarray:
    sat = np.zeros((x.shape[0] + 1, x.shape[1] + 1))
    sat[1:, 1:] = x.cumsum(0).cumsum(1)
    return sat[w:, w:] - sat[:-w, w:] - sat[w:, :-w] + sat[:-w, :-w]


def windowed_ssim(a: np.ndarray, b: np.ndarray, w: int) -> float:
    """Mean SSIM over every uniform w x w window, population moments.

    For 8-bit inputs every window sum is an exact integer in float64, so
    each window's value is computed exactly as a direct loop would.
    """
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    inv = 1.0 / (w * w)
    mu_a = _window_sums(a, w) * inv
    mu_b = _window_sums(b, w) * inv
    var_a = _window_sums(a * a, w) * inv - mu_a * mu_a
    var_b = _window_sums(b * b, w) * inv - mu_b * mu_b
    cov = _window_sums(a * b, w) * inv - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return float(np.mean(num / den))


def mse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))


def matches_printed(printed: str, ref: float) -> bool:
    """A CSV value printed to 6 significant digits agrees with ref to 1e-9
    beyond the half unit in the last printed digit."""
    value = float(printed)
    digit = 10.0 ** (math.floor(math.log10(abs(ref))) - 5) if ref else 0.0
    return abs(value - ref) <= 0.5 * digit + 1e-9
