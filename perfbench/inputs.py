"""Seeded input files for the benchmark workloads.

Every file is written here, in the documented on-disk formats, rather than
by latentseal's own `keygen` / `make-dataset` / `make-model`, so that a
change to those commands cannot change the load the benchmark applies:

- images: binary P5 graymap, maxval 255;
- `.priv`: 32-byte big-endian P-256 scalar as hex; `.pub`: 33-byte
  compressed point as hex;
- `.sym`: text lines `x0 y0`, `a b`, `burn_in`;
- `.lscm`: `LSCM`, `<BBI` (version, kind, m), then for a neural codec the
  encoder and decoder layer lists (`<I` count, per layer `<II` n_out n_in,
  float64 W and b).
"""

import struct
from pathlib import Path

import numpy as np

P256_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
HENON_A, HENON_B, BURN_IN = 1.4, 0.3, 1000
MAX_M = 400  # largest latent any workload asks a key to permute

# workload -> DCT latent sizes whose models it loads; mixed-tenants adds a neural codec
DCT_MS = {"stream-256": (100,), "mixed-tenants": (16, 100, 400), "evaluate-window7": (100,), "cli-cold": (100,)}
TENANTS = {"stream-256": 1, "mixed-tenants": 64, "evaluate-window7": 1, "cli-cold": 1}
MIXED_SIDES = tuple(range(48, 321, 16))  # widths and heights drawn by mixed-tenants
NEURAL_SIDE, NEURAL_HIDDEN, NEURAL_M, NEURAL_IMAGES = 64, 128, 100, 8
STREAM_IMAGES, CLI_IMAGES, EVAL_IMAGES = 16, 8, 4


def pgm_bytes(img: np.ndarray) -> bytes:
    h, w = img.shape
    return b"P5\n%d %d\n255\n" % (w, h) + img.astype(np.uint8).tobytes()


def synthetic_image(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """Smooth random field: a tilted ramp, a few cosines and mild noise."""
    u = np.linspace(0.0, 1.0, height)[:, None]
    v = np.linspace(0.0, 1.0, width)[None, :]
    g = 0.5 + 0.3 * (rng.uniform(-1, 1) * (u - 0.5) + rng.uniform(-1, 1) * (v - 0.5))
    for _ in range(3):
        fu, fv = rng.uniform(0.5, 8.0, size=2)
        g = g + rng.uniform(0.05, 0.15) * np.cos(2 * np.pi * (fu * u + fv * v) + rng.uniform(0, 2 * np.pi))
    g = g + rng.normal(0.0, 0.02, size=(height, width))
    return np.clip(np.rint(g * 255.0), 0, 255).astype(np.uint8)


def write_keys(prefix: Path, rng: np.random.Generator) -> None:
    # imported here so that measuring processes, which import this module,
    # leave every cryptography import to latentseal's own start-up
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

    while True:
        scalar = int.from_bytes(rng.bytes(32), "big")
        if 1 <= scalar < P256_ORDER:
            break
    pub = ec.derive_private_key(scalar, ec.SECP256R1()).public_key()
    prefix.with_suffix(".priv").write_text(scalar.to_bytes(32, "big").hex() + "\n")
    prefix.with_suffix(".pub").write_text(pub.public_bytes(Encoding.X962, PublicFormat.CompressedPoint).hex() + "\n")
    prefix.with_suffix(".sym").write_text(_sym_text(rng))


def _orbit_ok(x: float, y: float) -> bool:
    """The orbit stays bounded and its post-burn-in x values are distinct."""
    xs = []
    for i in range(BURN_IN + MAX_M):
        x, y = 1.0 - HENON_A * x * x + y, HENON_B * x
        if abs(x) > 100.0 or abs(y) > 100.0:
            return False
        if i >= BURN_IN:
            xs.append(x)
    return len(set(xs)) == len(xs)


def _sym_text(rng: np.random.Generator) -> str:
    while True:
        x0, y0 = float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.2, 0.2))
        if _orbit_ok(x0, y0):
            return f"{x0!r} {y0!r}\n{HENON_A!r} {HENON_B!r}\n{BURN_IN}\n"


def dct_model_bytes(m: int) -> bytes:
    return b"LSCM" + struct.pack("<BBI", 1, 0, m)


def _layers_bytes(shapes, rng: np.random.Generator) -> bytes:
    out = [struct.pack("<I", len(shapes))]
    for n_out, n_in in shapes:
        w = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_out, n_in))
        b = rng.normal(0.0, 0.1, size=n_out)
        out += [struct.pack("<II", n_out, n_in), w.astype("<f8").tobytes(), b.astype("<f8").tobytes()]
    return b"".join(out)


def neural_model_bytes(rng: np.random.Generator) -> bytes:
    pixels = NEURAL_SIDE * NEURAL_SIDE
    enc = _layers_bytes([(NEURAL_HIDDEN, pixels), (NEURAL_M, NEURAL_HIDDEN)], rng)
    dec = _layers_bytes([(NEURAL_HIDDEN, NEURAL_M), (pixels, NEURAL_HIDDEN)], rng)
    return b"LSCM" + struct.pack("<BBI", 1, 1, NEURAL_M) + enc + dec


def _write_images(directory: Path, rng: np.random.Generator, count: int, height: int, width: int) -> None:
    directory.mkdir(parents=True)
    for i in range(count):
        (directory / f"img_{i:03d}.pgm").write_bytes(pgm_bytes(synthetic_image(rng, height, width)))


def generate(workload: str, seed: int, work: Path) -> None:
    """Write every input file `workload` reads into the empty directory `work`."""
    rng = np.random.default_rng([seed, 0x5EA1])
    (work / "keys").mkdir(parents=True)
    for t in range(TENANTS[workload]):
        write_keys(work / "keys" / f"t{t:03d}", rng)
    (work / "models").mkdir()
    for m in DCT_MS[workload]:
        (work / "models" / f"dct{m}.lscm").write_bytes(dct_model_bytes(m))
    if workload == "stream-256":
        _write_images(work / "images", rng, STREAM_IMAGES, 256, 256)
    elif workload == "cli-cold":
        _write_images(work / "images", rng, CLI_IMAGES, 256, 256)
    elif workload == "evaluate-window7":
        _write_images(work / "eval", rng, EVAL_IMAGES, 128, 128)
        (work / "first").mkdir()
        (work / "first" / "img_000.pgm").write_bytes((work / "eval" / "img_000.pgm").read_bytes())
    elif workload == "mixed-tenants":
        (work / "models" / f"nn{NEURAL_M}.lscm").write_bytes(neural_model_bytes(rng))
        _write_images(work / "nn", rng, NEURAL_IMAGES, NEURAL_SIDE, NEURAL_SIDE)
        (work / "shapes").mkdir()
        for h in MIXED_SIDES:
            for w in MIXED_SIDES:
                (work / "shapes" / f"{h}x{w}.pgm").write_bytes(pgm_bytes(synthetic_image(rng, h, w)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
