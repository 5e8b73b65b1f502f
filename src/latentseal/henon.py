"""Henon-map orbits, keyed argsort permutations, and latent shuffling.

The map is x' = 1 - a*x^2 + y, y' = b*x with classical parameters
a = 1.4, b = 0.3.  A symmetric key, SymKey(x0, y0, a=1.4, b=0.3,
burn_in=1000), is an initial point (x0, y0) plus the map parameters and a
burn-in count; the emitted pseudo-random sequence is the x-component of
the post-burn-in orbit, and the keyed permutation is the stable argsort
of that sequence.

The orbit is iterated in plain Python in a fixed evaluation order of
64-bit IEEE operations, so sequences and permutations are bitwise
reproducible.

There is one cache and one weak-key rule, both in permutation_for_key: it
memoises the permutation of each (key, m) pair, least recently used first
out, and a miss refuses a weak key with WeakKeyError.  A miss, like every
henon_sequence and henon_trajectory call, iterates the orbit from the key
point.  load_sym_key and random_sym_key check a key by building its
length-WEAK_KEY_SPAN permutation, the entry a DCT m = 100 seal then uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import KEY_FILE_CAP, DivergenceError, IoError, LengthMismatchError, WeakKeyError, atomic_write, read_file

CLASSICAL_A = 1.4
CLASSICAL_B = 0.3
GUARD = 100.0
DEFAULT_BURN_IN = 1000
MAX_BURN_IN = 100_000  # bounds the orbit steps a key file makes every load run
WEAK_KEY_SPAN = 100  # leading orbit values every permutation checks, and the steps of each twin-orbit test


@dataclass(frozen=True)
class SymKey:
    """Symmetric key: orbit start point, map parameters, burn-in."""

    x0: float
    y0: float
    a: float = CLASSICAL_A
    b: float = CLASSICAL_B
    burn_in: int = DEFAULT_BURN_IN

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x0, self.y0, self.a, self.b))):
            raise ValueError("key point and map parameters must be finite")
        if abs(self.x0) > GUARD or abs(self.y0) > GUARD:
            raise ValueError("key point outside guarded region")
        if not 0 <= self.burn_in <= MAX_BURN_IN:
            raise ValueError(f"burn_in must be in [0, {MAX_BURN_IN}]")


def _check_chaotic(key: SymKey, xs: np.ndarray, ys: np.ndarray, start: int) -> None:
    """Raise WeakKeyError unless the key's orbit (xs, ys) is chaotic at point start: an
    orbit from that point, and one from it with x moved by 1e-9, must come 1e-3
    apart over the points after it (a finite-time Lyapunov test)."""
    n = len(xs) - start - 1
    twin = _orbit(SymKey(float(xs[start]) + 1e-9, float(ys[start]), key.a, key.b, burn_in=0), n)
    gap = np.abs(np.subtract(twin, (xs[start + 1 :], ys[start + 1 :]))).max()
    if gap < 1e-3:
        raise WeakKeyError(f"weak key: not chaotic from orbit value {start}, orbits 1e-9 apart stay within {gap:.2g} over {n} steps")


def _orbit(key: SymKey, n: int) -> tuple[np.ndarray, np.ndarray]:
    """x and y components of the first n post-burn-in orbit points, from the key point."""
    a, b, burn_in, guard = key.a, key.b, key.burn_in, GUARD
    x, y = key.x0, key.y0
    xs = np.empty(n, dtype=np.float64)
    ys = np.empty(n, dtype=np.float64)
    for i in range(burn_in + n):
        x, y = 1.0 - a * x * x + y, b * x
        if abs(x) > guard or abs(y) > guard:
            raise DivergenceError(f"orbit escaped guard at step {i}")
        if i >= burn_in:
            xs[i - burn_in] = x
            ys[i - burn_in] = y
    return xs, ys


def henon_sequence(key: SymKey, n: int) -> np.ndarray:
    """x-components of n orbit points after the key's burn-in.

    Bitwise deterministic for a fixed key; the key point itself is
    never emitted (step 0 already applies the map once).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _orbit(key, n)[0]


def henon_trajectory(key: SymKey, n: int) -> np.ndarray:
    """(n, 2) array of post-burn-in (x, y) points, for trajectory export."""
    return np.column_stack(_orbit(key, n))


def permutation_from_sequence(seq: np.ndarray) -> np.ndarray:
    """Stable argsort indices: position i holds where the i-th smallest sat."""
    seq = np.asarray(seq, dtype=np.float64)
    if seq.size < 1:
        raise ValueError("sequence must be non-empty")
    if not np.all(np.isfinite(seq)):
        raise ValueError("sequence values must be finite")
    return np.argsort(seq, kind="stable")


@lru_cache(maxsize=256)  # 64 tenants x 3 lengths in use; at most 256 x 512 KiB for m <= 65535
def permutation_for_key(key: SymKey, m: int) -> np.ndarray:
    """Keyed permutation of length m, memoised per (key, m); the array is read-only.

    The one place the weak-key rule runs: a miss iterates the key's orbit once,
    for max(m, n + 1) points with n = WEAK_KEY_SPAN, and raises WeakKeyError if
    the first n values repeat or sort into the identity (the shuffle would move
    nothing), or if the map is not chaotic at the first point or, for m > n,
    n + 1 points before the end (an orbit settled on a cycle is not).  Otherwise
    it stably argsorts the first m values.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = WEAK_KEY_SPAN
    xs, ys = _orbit(key, max(m, n + 1))
    # not np.unique: its first call imports numpy.ma, a cost every cold CLI run would pay
    ordered = np.sort(xs[:n])
    if np.any(ordered[1:] == ordered[:-1]):
        raise WeakKeyError(f"weak key: the first {n} orbit values repeat")
    if np.array_equal(ordered, xs[:n]):
        raise WeakKeyError(f"weak key: the length-{n} permutation is the identity")
    _check_chaotic(key, xs[: n + 1], ys[: n + 1], 0)
    if m > n + 1:  # at m = n + 1 the end point is point 0, checked above
        _check_chaotic(key, xs, ys, m - n - 1)
    perm = permutation_from_sequence(xs[:m])
    perm.setflags(write=False)
    return perm


def shuffle(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """out[k] = v[p[k]]."""
    v = np.asarray(v)
    if len(v) != len(p):
        raise LengthMismatchError(f"vector length {len(v)} != permutation {len(p)}")
    return v[p]


def deshuffle(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Exact inverse of shuffle: out[p[k]] = v[k]."""
    v = np.asarray(v)
    if len(v) != len(p):
        raise LengthMismatchError(f"vector length {len(v)} != permutation {len(p)}")
    out = np.empty_like(v)
    out[p] = v
    return out


def save_sym_key(key: SymKey, path) -> None:
    """Text format: 'x0 y0' / optional 'a b' / optional burn_in."""
    text = f"{key.x0!r} {key.y0!r}\n{key.a!r} {key.b!r}\n{key.burn_in}\n"
    atomic_write(path, text.encode(), 0o600)


def load_sym_key(path) -> SymKey:
    lines = [ln.strip() for ln in read_file(path, KEY_FILE_CAP).splitlines() if ln.strip()]
    if not 1 <= len(lines) <= 3:
        raise IoError(f"sym key file {path} has {len(lines)} non-empty lines, not 1 to 3")
    try:
        if any(b"_" in ln for ln in lines):  # float and int would read 0.1_2 as 0.12
            raise ValueError("a number holds an underscore")
        x0, y0 = (float(t) for t in lines[0].split())
        a, b = (
            (float(t) for t in lines[1].split()) if len(lines) > 1 else (CLASSICAL_A, CLASSICAL_B)
        )
        burn_in = int(lines[2]) if len(lines) > 2 else DEFAULT_BURN_IN
        key = SymKey(x0, y0, a, b, burn_in)
        permutation_for_key(key, WEAK_KEY_SPAN)
    except (ValueError, WeakKeyError) as e:
        raise IoError(f"malformed sym key file: {path}: {e}") from e
    except DivergenceError as e:
        raise DivergenceError(f"sym key file {path}: {e}") from e
    return key


def random_sym_key(rng: np.random.Generator) -> SymKey:
    """Sample a key from the attractor basin, rejecting divergent orbits and weak keys."""
    while True:
        key = SymKey(
            float(rng.uniform(-0.5, 0.5)),
            float(rng.uniform(-0.2, 0.2)),
        )
        try:
            permutation_for_key(key, WEAK_KEY_SPAN)
            return key
        except (DivergenceError, WeakKeyError):
            continue
