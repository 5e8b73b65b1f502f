"""The four workloads: what one operation is, and how its output is checked.

Each workload loads the files `inputs.generate` wrote, yields a seeded,
endless sequence of requests, runs one request as a single synchronous
caller would (`run`, the timed part), and checks the result (`check`,
untimed).  latentseal is reached only through its public functions and
its CLI, looked up at call time so that `spans.Tracer` can wrap them.
"""

import csv
import os
import struct
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import reference

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 60


@dataclass
class Result:
    image: np.ndarray | None = None  # the receiver's reconstruction
    payload: bytes = b""
    returncodes: tuple = ()
    parts: dict = field(default_factory=dict)  # seconds per step, as the caller saw them


@dataclass(frozen=True)
class Request:
    tenant: int
    model: str
    image: str


def read_pgm(path) -> np.ndarray:
    """Read a P5 file as written by inputs.pgm_bytes."""
    data = Path(path).read_bytes()
    magic, dims, maxval, raster = data.split(b"\n", 3)
    w, h = map(int, dims.split())
    if magic != b"P5" or maxval != b"255" or len(raster) != w * h:
        raise ValueError(f"unexpected graymap layout in {path}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)


class Workload:
    """Defaults, and the codec-only round trip decode(encode(img)), which the
    full chain must reproduce bitwise because shuffle and crypto are lossless."""

    images_per_op = 1
    warmup_ops = 0
    processes_per_op = 0  # interpreters started per operation; they, not this process, do the work
    import_module = "latentseal.cli"  # what a cold start of this workload imports
    work: Path

    def setup_request(self):
        return next(iter(self.requests()))

    @staticmethod
    def expected(model, img: np.ndarray) -> np.ndarray | None:
        """decode(encode(img)), or None if sampled DCT latents miss the reference."""
        latent = model.encode(img)
        if model.kind == "dct":
            m = len(latent)
            if not reference.latent_matches(latent, img, sorted({0, m // 2, m - 1})):
                return None
        h, w = img.shape
        return model.decode(latent, w, h)

    def expected_dct100(self, img: np.ndarray) -> np.ndarray | None:
        from latentseal import codec

        return self.expected(codec.load_model(self.work / "models" / "dct100.lscm"), img)


class RoundTrip(Workload):
    """In-process seal -> serialize -> parse -> open, one image per operation."""

    warmup_ops = 16
    import_module = "latentseal"

    def __init__(self, work: Path, seed: int):
        from latentseal import codec, ecies, henon, images, pipeline

        self.pipeline = pipeline
        self.seed = seed
        self.tenants = [
            (henon.load_sym_key(p), ecies.load_public_key(p.with_suffix(".pub")), ecies.load_private_key(p.with_suffix(".priv")))
            for p in sorted((work / "keys").glob("*.sym"))
        ]
        self.models = {p.stem: codec.load_model(p) for p in sorted((work / "models").glob("*.lscm"))}
        self.images = {
            f"{p.parent.name}/{p.stem}": images.read_image(p) for p in sorted(work.glob("*/*.pgm"))
        }

    def run(self, req: Request) -> Result:
        pipeline = self.pipeline
        sym, pub, priv = self.tenants[req.tenant]
        model, img = self.models[req.model], self.images[req.image]
        t0 = perf_counter()
        payload, _ = pipeline.compress_encrypt(img, model, sym, pub)
        data = payload.serialize()
        t1 = perf_counter()
        opened = pipeline.EncryptedPayload.parse(data)
        out, _ = pipeline.decrypt_reconstruct(opened, model, sym, priv)
        t2 = perf_counter()
        return Result(image=out, payload=data, parts={"seal": t1 - t0, "open": t2 - t1})

    def check(self, req: Request, res: Result) -> bool:
        model, img = self.models[req.model], self.images[req.image]
        if len(res.payload) != reference.payload_size(model.m):
            return False
        expected = self.expected(model, img)
        return expected is not None and res.image.dtype == np.uint8 and np.array_equal(res.image, expected)


class Stream256(RoundTrip):
    """One tenant, DCT m = 100, 256x256 images in a fixed cycle."""

    def requests(self):
        names = sorted(self.images)
        for i in count():
            yield Request(0, "dct100", names[i % len(names)])


class MixedTenants(RoundTrip):
    """Per request: one of 64 tenants, one of four codecs, a random DCT shape."""

    warmup_ops = 8

    def setup_request(self) -> Request:
        return Request(0, "dct100", "shapes/256x256")  # the same cold request on every seed

    def requests(self):
        # Requests are dealt from seeded shuffles of a deck holding every DCT
        # shape once plus one neural request per three DCT ones, so that runs
        # on different seeds see the same mix of image sizes, and a shape
        # recurs only a deck later, long after the codec's per-shape state is gone.
        rng = np.random.default_rng([self.seed, 0x3D])
        dct = [f"dct{m}" for m in inputs.DCT_MS["mixed-tenants"]]
        deck = [f"shapes/{h}x{w}" for h in inputs.MIXED_SIDES for w in inputs.MIXED_SIDES]
        deck += [f"nn/img_{i % inputs.NEURAL_IMAGES:03d}" for i in range(len(deck) // len(dct))]
        while True:
            for k in rng.permutation(len(deck)):
                image = deck[k]
                model = f"nn{inputs.NEURAL_M}" if image.startswith("nn/") else dct[rng.integers(len(dct))]
                yield Request(int(rng.integers(len(self.tenants))), model, image)


def _key_args(work: Path, secret: str) -> list[str]:
    keys = work / "keys" / "t000"
    return ["--model", str(work / "models" / "dct100.lscm"), "--sym", str(keys.with_suffix(".sym")),
            f"--{secret}", str(keys.with_suffix(f".{secret}"))]


class EvaluateWindow7(Workload):
    """`latentseal evaluate --window 7` in-process over a directory of 128x128 images."""

    images_per_op = inputs.EVAL_IMAGES

    def __init__(self, work: Path, seed: int):
        from latentseal import cli

        self.cli = cli
        self.work = work
        self.out = work / "report.csv"
        self.options = [*_key_args(work, "pub"), "--priv", str(work / "keys" / "t000.priv"),
                        "--out", str(self.out), "--window", "7"]
        self.expected_rows = {}

    def setup_request(self) -> Path:
        return self.work / "first"  # set-up ends at the first CSV row

    def requests(self):
        while True:
            yield self.work / "eval"

    def run(self, directory: Path) -> Result:
        return Result(returncodes=(self.cli.main(["evaluate", str(directory), *self.options]),))

    def _reference_row(self, path: Path) -> tuple[float, float] | None:
        if path.name not in self.expected_rows:
            img = read_pgm(path)
            recon = self.expected_dct100(img)
            self.expected_rows[path.name] = None if recon is None else (reference.windowed_ssim(img, recon, 7), reference.mse(img, recon))
        return self.expected_rows[path.name]

    def check(self, directory: Path, res: Result) -> bool:
        if res.returncodes != (0,):
            return False
        with open(self.out, newline="") as f:
            rows = list(csv.DictReader(f))
        paths = sorted(directory.glob("*.pgm"))
        if len(rows) != len(paths):
            return False
        for row, path in zip(rows, paths):
            expected = self._reference_row(path)
            if expected is None or not all(map(reference.matches_printed, (row["ssim"], row["mse"]), expected)):
                return False
        return True


class CliCold(Workload):
    """`latentseal encrypt` then `latentseal decrypt`, each a fresh process."""

    processes_per_op = 2

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.images = sorted((work / "images").glob("*.pgm"))
        (work / "out").mkdir(exist_ok=True)
        self.spans_dir = None  # set to a directory to run the CLI under spans.Tracer
        self.expected_pgm = {}

    def setup_request(self) -> int:
        return -1  # set-up runs both commands in the probe's own fresh interpreter

    def requests(self):
        return count()

    def _cli(self, i: int, step: str, args: list[str]) -> int:
        if i < 0:
            from latentseal import cli

            return cli.main(args)
        if self.spans_dir is None:
            command = [sys.executable, "-m", "latentseal.cli"]
        else:
            command = [sys.executable, str(HERE / "traced_cli.py"), str(self.spans_dir / f"{i:05d}-{step}.jsonl"), f"{i}/{step}"]
        return subprocess.run(command + args, capture_output=True, timeout=CLI_TIMEOUT_S).returncode

    def _paths(self, i: int) -> tuple[Path, Path, Path]:
        img = self.images[i % len(self.images)]
        return img, self.work / "out" / f"{img.stem}.lsp", self.work / "out" / f"{img.stem}.pgm"

    def run(self, i: int) -> Result:
        img, sealed, opened = self._paths(i)
        t0 = perf_counter()
        enc = self._cli(i, "encrypt", ["encrypt", str(img), *_key_args(self.work, "pub"), "--out", str(sealed)])
        t1 = perf_counter()
        dec = self._cli(i, "decrypt", ["decrypt", str(sealed), *_key_args(self.work, "priv"), "--out", str(opened)])
        t2 = perf_counter()
        return Result(returncodes=(enc, dec), parts={"cli_encrypt": t1 - t0, "cli_decrypt": t2 - t1})

    def check(self, i: int, res: Result) -> bool:
        img_path, sealed, opened = self._paths(i)
        if res.returncodes != (0, 0):
            return False
        img = read_pgm(img_path)
        h, w = img.shape
        payload = sealed.read_bytes()
        header = b"LSP1" + struct.pack("<BBHHH", 1, 0, 100, w, h)  # version 1, DCT codec, m = 100
        if len(payload) != reference.payload_size(100) or payload[: len(header)] != header:
            return False
        if img_path.name not in self.expected_pgm:
            recon = self.expected_dct100(img)
            self.expected_pgm[img_path.name] = None if recon is None else inputs.pgm_bytes(recon)
        return opened.read_bytes() == self.expected_pgm[img_path.name]


WORKLOADS = {
    "stream-256": Stream256,
    "mixed-tenants": MixedTenants,
    "evaluate-window7": EvaluateWindow7,
    "cli-cold": CliCold,
}


@dataclass
class LoopStats:
    attempted: int = 0
    failed: int = 0
    walls: list = field(default_factory=list)  # seconds per attempted operation
    cpu: list = field(default_factory=list)  # process + children CPU seconds per operation
    parts: dict = field(default_factory=dict)  # step name -> seconds per successful operation


def passes(wl, req, res) -> bool:
    try:
        return res is not None and wl.check(req, res)
    except Exception as e:  # a malformed output fails its check
        print(f"perfbench: check raised {type(e).__name__}: {e}", file=sys.stderr)
        return False


def run_ops(wl, requests, *, seconds=None, limit=None, tracer=None) -> LoopStats:
    """Closed loop with one client: each request starts when the previous one is
    done and checked.  Stops after `limit` operations or once `seconds` have passed."""
    stats = LoopStats()
    deadline = None if seconds is None else perf_counter() + seconds
    for req in requests:
        if (limit is not None and stats.attempted >= limit) or (deadline is not None and perf_counter() >= deadline):
            break
        if tracer is not None:
            tracer.op = stats.attempted
            tracer.active = True
        c0 = os.times()
        t0 = perf_counter()
        try:
            res = wl.run(req)
        except Exception as e:  # an operation that raises is a failed operation
            print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
            res = None
        t1 = perf_counter()
        c1 = os.times()
        if tracer is not None:
            tracer.active = False
        stats.attempted += 1
        stats.walls.append(t1 - t0)
        stats.cpu.append(sum(c1[:4]) - sum(c0[:4]))
        if not passes(wl, req, res):
            stats.failed += 1
            continue
        for name, s in res.parts.items():
            stats.parts.setdefault(name, []).append(s)
    return stats
