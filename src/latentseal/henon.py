"""Henon-map orbits, keyed argsort permutations, and latent shuffling.

The map is x' = 1 - a*x^2 + y, y' = b*x with classical parameters
a = 1.4, b = 0.3.  A symmetric key is an initial point (x0, y0) plus
the map parameters and a burn-in count; the emitted pseudo-random
sequence is the x-component of the post-burn-in orbit, and the keyed
permutation is the stable argsort of that sequence.

The orbit is iterated in plain Python in a fixed evaluation order of
64-bit IEEE operations, so sequences and permutations are bitwise
reproducible.

A key's orbit is iterated once, not on every call: a bounded per-key
prefix cache (ORBIT_CACHE_KEYS keys, least recently used first out) keeps
the x values emitted so far and the point after them, and grows by
resuming the orbit there when a longer sequence is asked for.
henon_sequence, SymKey.validate and permutation_for_key all read that
prefix, so a new m for a known key costs only the steps past the longest
m seen and an argsort.  A prefix over ORBIT_CACHE_BYTES is computed but
not stored, and an orbit that diverges stores nothing past the prefix it
already had, so the DivergenceError is raised again on every call.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import KEY_FILE_CAP, DivergenceError, IoError, LengthMismatchError, atomic_write, read_file

CLASSICAL_A = 1.4
CLASSICAL_B = 0.3
GUARD = 100.0
DEFAULT_BURN_IN = 1000
MAX_BURN_IN = 100_000  # bounds the orbit steps a key file makes every load run


class HenonState(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class HenonParams:
    a: float = CLASSICAL_A
    b: float = CLASSICAL_B

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("map parameters must be finite")


@dataclass(frozen=True)
class SymKey:
    """Symmetric key: orbit start point, map parameters, burn-in."""

    x0: float
    y0: float
    params: HenonParams = field(default_factory=HenonParams)
    burn_in: int = DEFAULT_BURN_IN

    def __post_init__(self):
        if not (math.isfinite(self.x0) and math.isfinite(self.y0)):
            raise ValueError("key point must be finite")
        if abs(self.x0) > GUARD or abs(self.y0) > GUARD:
            raise ValueError("key point outside guarded region")
        if not 0 <= self.burn_in <= MAX_BURN_IN:
            raise ValueError(f"burn_in must be in [0, {MAX_BURN_IN}]")

    def validate(self, m: int = 100) -> None:
        """Check the orbit survives burn_in + m steps without diverging and
        that the key is not weak: its first m orbit values must be distinct
        and, for m >= 2, must not sort into the identity permutation, which
        would leave every shuffled latent in place.  Raises ValueError for a
        weak key.
        """
        seq = henon_sequence(self, m)
        # not np.unique: its first call imports numpy.ma, a cost every cold CLI run would pay
        ordered = np.sort(seq)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError(f"weak key: the first {m} orbit values repeat")
        if m >= 2 and np.array_equal(ordered, seq):
            raise ValueError(f"weak key: the length-{m} permutation is the identity")


def henon_step(state: HenonState, params: HenonParams) -> HenonState:
    """One iteration of the map, fixed evaluation order, double precision."""
    xn = 1.0 - params.a * state.x * state.x + state.y
    yn = params.b * state.x
    if abs(xn) > GUARD or abs(yn) > GUARD:
        raise DivergenceError(f"orbit escaped guard at ({xn}, {yn})")
    return HenonState(xn, yn)


def _orbit(key: SymKey, stop: int, start: int, x: float, y: float) -> tuple[np.ndarray, np.ndarray]:
    """x and y components of post-burn-in orbit points start..stop-1, iterated
    from (x, y): the key point when start is 0, else orbit point start - 1."""
    a, b, burn_in, guard = key.params.a, key.params.b, key.burn_in, GUARD
    xs = np.empty(stop - start, dtype=np.float64)
    ys = np.empty(stop - start, dtype=np.float64)
    for i in range(burn_in + start if start else 0, burn_in + stop):
        x, y = 1.0 - a * x * x + y, b * x
        if abs(x) > guard or abs(y) > guard:
            raise DivergenceError(f"orbit escaped guard at step {i}")
        if i >= burn_in:
            xs[i - burn_in - start] = x
            ys[i - burn_in - start] = y
    return xs, ys


ORBIT_CACHE_KEYS = 128
ORBIT_CACHE_BYTES = 1 << 20  # longer x prefixes are recomputed on every call
_NO_POINTS = np.empty(0, dtype=np.float64)
# key -> (read-only x prefix, the orbit point after it), least recently used first
_prefixes: OrderedDict[SymKey, tuple[np.ndarray, float, float]] = OrderedDict()
_prefixes_lock = threading.Lock()


def henon_sequence(key: SymKey, n: int) -> np.ndarray:
    """x-components of n orbit points after the key's burn-in, read-only.

    Bitwise deterministic for a fixed key; the key point itself is
    never emitted (step 0 already applies the map once).  The result is
    a view of the key's cached orbit prefix.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    with _prefixes_lock:
        xs, x, y = _prefixes.get(key, (_NO_POINTS, key.x0, key.y0))
        if len(xs) >= n:
            _prefixes.move_to_end(key)
            return xs[:n]
        more, ys = _orbit(key, n, len(xs), x, y)
        xs = np.concatenate((xs, more))
        xs.setflags(write=False)
        if xs.nbytes <= ORBIT_CACHE_BYTES:
            _prefixes[key] = (xs, float(more[-1]), float(ys[-1]))
            _prefixes.move_to_end(key)
            if len(_prefixes) > ORBIT_CACHE_KEYS:
                _prefixes.popitem(last=False)
    return xs


def henon_trajectory(key: SymKey, n: int) -> np.ndarray:
    """(n, 2) array of post-burn-in (x, y) points, for trajectory export."""
    if n == 0:
        return np.empty((0, 2), dtype=np.float64)
    return np.column_stack(_orbit(key, n, 0, key.x0, key.y0))


def permutation_from_sequence(seq: np.ndarray) -> np.ndarray:
    """Stable argsort indices: position i holds where the i-th smallest sat."""
    seq = np.asarray(seq, dtype=np.float64)
    if seq.size < 1:
        raise ValueError("sequence must be non-empty")
    if not np.all(np.isfinite(seq)):
        raise ValueError("sequence values must be finite")
    return np.argsort(seq, kind="stable")


@lru_cache(maxsize=128)
def permutation_for_key(key: SymKey, m: int) -> np.ndarray:
    """Keyed permutation of length m, memoised; the array is read-only.

    A miss costs a stable argsort of the key's cached orbit prefix.
    """
    perm = permutation_from_sequence(henon_sequence(key, m))
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
    text = f"{key.x0!r} {key.y0!r}\n{key.params.a!r} {key.params.b!r}\n{key.burn_in}\n"
    atomic_write(path, text.encode())


def load_sym_key(path) -> SymKey:
    lines = [ln.strip() for ln in read_file(path, KEY_FILE_CAP).splitlines() if ln.strip()]
    if not lines:
        raise IoError(f"empty sym key file: {path}")
    try:
        x0, y0 = (float(t) for t in lines[0].split())
        a, b = (
            (float(t) for t in lines[1].split()) if len(lines) > 1 else (CLASSICAL_A, CLASSICAL_B)
        )
        burn_in = int(lines[2]) if len(lines) > 2 else DEFAULT_BURN_IN
        key = SymKey(x0, y0, HenonParams(a, b), burn_in)
        key.validate()
    except ValueError as e:
        raise IoError(f"malformed sym key file: {path}: {e}") from e
    return key


def random_sym_key(rng: np.random.Generator) -> SymKey:
    """Sample a key from the attractor basin, rejecting divergent orbits and weak keys."""
    while True:
        key = SymKey(
            float(rng.uniform(-0.5, 0.5)),
            float(rng.uniform(-0.2, 0.2)),
        )
        try:
            key.validate()
            return key
        except (DivergenceError, ValueError):
            continue
