"""Command-line interface.

Exit codes: 0 ok, 2 usage, 130 interrupt, otherwise the raised error's exit_code (see errors).
Every output file is written by errors.atomic_write, directly or through
the library's save/write functions: a temp name in the target directory
renamed on success, so no error path leaves a partial file behind.
"""

import argparse
import functools
import gc
import itertools
import math
import os
import sys

from .errors import EXIT_IO, IoError, LatentSealError, atomic_write, read_file
from .wire import MAX_PIXELS, PAYLOAD_CAP

EXIT_OK = 0
EXIT_INTERRUPT = 130  # 128 + SIGINT, as a shell reports a Ctrl-C


def cmd_keygen(args) -> int:
    import numpy as np  # random_sym_key draws from numpy's Generator
    from . import ecies, henon
    rng = np.random.default_rng(args.seed)
    priv = ecies.keygen(None if args.seed is None else rng.bytes(32))
    sym = henon.random_sym_key(rng)
    prefix = args.out_prefix  # suffixes are appended: alice.v2 gives alice.v2.priv
    ecies.save_private_key(priv, prefix + ".priv")
    ecies.save_public_key(priv.public_key(), prefix + ".pub")
    henon.save_sym_key(sym, prefix + ".sym")
    print(f"wrote {prefix}.priv {prefix}.pub {prefix}.sym")
    return EXIT_OK


def cmd_make_model(args) -> int:
    from . import codec
    codec.save_model(codec.dct_model(args.m), args.out)
    print(f"wrote dct model (m={args.m}) to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    import dataclasses

    from . import codec, images, train
    paths = images.pgm_paths(args.dataset_dir)
    if not paths:
        raise IoError(f"no .pgm images in {args.dataset_dir}")
    dataset = [images.read_image(p) for p in paths]
    # an option left out keeps TrainConfig's default: the parser states none
    config = train.TrainConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(train.TrainConfig) if f.name in args})
    result = train.train_autoencoder(dataset, config)
    codec.save_model(result.model, args.out)
    final = result.ae_losses[-1] if result.ae_losses else float("nan")
    print(f"trained {config.epochs} epochs, final loss {final:.6g}, wrote {args.out}")
    return EXIT_OK


def cmd_encrypt(args) -> int:
    from . import codec, ecies, henon, images, pipeline
    img = images.read_image(args.image)
    model = codec.load_model(args.model)
    sym = henon.load_sym_key(args.sym)
    pub = ecies.load_public_key(args.pub)
    payload, seconds = pipeline.compress_encrypt(img, model, sym, pub)
    atomic_write(args.out, payload.serialize())
    print(f"encrypt_s={seconds:.6g}")
    return EXIT_OK


def cmd_decrypt(args) -> int:
    from . import codec, ecies, henon, images, pipeline
    payload = pipeline.EncryptedPayload.parse(read_file(args.payload, PAYLOAD_CAP))
    model = codec.load_model(args.model)
    sym = henon.load_sym_key(args.sym)
    priv = ecies.load_private_key(args.priv)
    img, seconds = pipeline.decrypt_reconstruct(payload, model, sym, priv)
    images.write_image(img, args.out)
    print(f"decrypt_s={seconds:.6g}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from . import codec, ecies, henon, images, metrics, pipeline
    model = codec.load_model(args.model)
    sym = henon.load_sym_key(args.sym)
    pub = ecies.load_public_key(args.pub)
    priv = ecies.load_private_key(args.priv)
    paths = images.pgm_paths(args.image_dir)
    rows = [metrics.QualityReport.CSV_HEADER]
    failures = 0
    for path in paths:
        try:
            img = images.read_image(path)
            report = pipeline.evaluate(img, model, sym, pub, priv, args.window)
            rows.append(report.csv_row())
        except LatentSealError as e:
            failures += 1
            print(f"error: {path}: {e}", file=sys.stderr)
    atomic_write(args.out, ("\n".join(rows) + "\n").encode())
    print(f"wrote {len(rows) - 1} rows to {args.out}")
    return EXIT_IO if failures else EXIT_OK


def cmd_henon_plot(args) -> int:
    from . import henon, images
    sym = henon.load_sym_key(args.sym)
    points = henon.henon_trajectory(sym, args.n)
    # formatted as many rows at a time as one band holds float64 points, so the CSV is never held whole
    block = images.BAND_BYTES // 16
    blocks = (
        "".join(f"{x!r},{y!r}\n" for x, y in points[top : top + block].tolist()).encode()
        for top in range(0, len(points), block)
    )
    atomic_write(args.out, itertools.chain([b"x,y\n"], blocks))
    print(f"wrote {len(points)} points to {args.out}")
    return EXIT_OK


def cmd_send(args) -> int:
    from . import transfer
    transfer.send_file(args.payload, *args.dest, args.throttle)
    print("sent")
    return EXIT_OK


def cmd_recv(args) -> int:
    from . import transfer
    srv = transfer.listen(args.port)
    print(f"listening on port {srv.getsockname()[1]}", flush=True)  # port 0 binds one the sender must learn
    n = transfer.recv_file(srv, args.out, timeout=getattr(args, "timeout", transfer.TIMEOUT))
    print(f"received {n} bytes to {args.out}")
    return EXIT_OK


def cmd_make_dataset(args) -> int:
    from . import images
    paths = images.make_dataset(args.out_dir, args.count, args.size, args.seed)
    print(f"wrote {len(paths)} images to {args.out_dir}")
    return EXIT_OK


def _checked(kind, want: str, ok):
    """An argparse type: kind(text), refused as a usage error (exit 2) unless ok(value)."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"want {want}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value: 'x'"
    return parse


_POSITIVE = _checked(int, "an integer >= 1", lambda v: v >= 1)
_NON_NEGATIVE = _checked(int, "an integer >= 0", lambda v: v >= 0)
_PORT = _checked(int, "a port in 0..65535", lambda v: 0 <= v <= 0xFFFF)
_POSITIVE_FINITE = _checked(float, "a finite number > 0", lambda v: 0 < v < math.inf)
_NON_NEGATIVE_FINITE = _checked(float, "a finite number >= 0", lambda v: 0 <= v < math.inf)
_SECONDS = _checked(float, "seconds in (0, 86400]", lambda v: 0 < v <= 86400)  # settimeout overflows near 9.2e9 s
_RATE = _checked(float, "a finite number >= 1", lambda v: 1 <= v < math.inf)  # bytes/s; tiny rates overflow sleep
_SIDE = _checked(int, f"an integer in 1..{math.isqrt(MAX_PIXELS)}", lambda v: 1 <= v * v <= MAX_PIXELS)
_M = _checked(int, "an integer in 1..65535", lambda v: 1 <= v <= 0xFFFF)  # the payload header's range
_PREFIX = _checked(str, "a prefix that ends in a file name, not a separator", lambda p: os.path.basename(p) != "")
_POINTS = _checked(int, "an integer in 0..1000000", lambda v: 0 <= v <= 1_000_000)  # henon-plot's CSV, ~40 MB


def _host_port(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    host = host[1:-1] if host[:1] == "[" and host[-1:] == "]" else host  # RFC 3986's [IPv6]:port
    return host, int(port) if port.isascii() and port.isdigit() else -1


_DEST = _checked(_host_port, "host:port with a port in 0..65535", lambda d: d[0] and 0 <= d[1] <= 0xFFFF)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing leaves it unchanged, and each subcommand imports the library
    modules it runs when it runs, so one parser serves every call and a
    command loads nothing it does not use.
    """
    parser = argparse.ArgumentParser(prog="latentseal")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate .priv/.pub/.sym key files")
    p.add_argument("out_prefix", type=_PREFIX)
    p.add_argument("--seed", type=_NON_NEGATIVE, default=None)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("make-model", help="write a deterministic DCT codec model")
    p.add_argument("out")
    p.add_argument("--m", type=_M, default=100)
    p.set_defaults(func=cmd_make_model)

    p = sub.add_parser("train", help="train a neural codec on a .pgm directory", argument_default=argparse.SUPPRESS)
    p.add_argument("dataset_dir")
    p.add_argument("out")
    p.add_argument("--m", type=_M)
    p.add_argument("--hidden", type=_POSITIVE, nargs="+")
    p.add_argument("--lr", type=_POSITIVE_FINITE)
    p.add_argument("--epochs", type=_NON_NEGATIVE)
    p.add_argument("--seed", type=_NON_NEGATIVE)
    p.add_argument("--batch-size", type=_POSITIVE)
    p.add_argument("--lam", type=_NON_NEGATIVE_FINITE, help="adversarial loss weight")
    p.set_defaults(func=cmd_train)

    def chain_command(name: str, summary: str, func, source: str, *keys: str) -> argparse.ArgumentParser:
        """A command that runs the chain: its input, then a model, a symmetric key, keys and an output, all required."""
        p = sub.add_parser(name, help=summary)
        p.add_argument(source)
        for option in ("--model", "--sym", *keys, "--out"):
            p.add_argument(option, required=True)
        p.set_defaults(func=func)
        return p

    chain_command("encrypt", "compress and encrypt an image", cmd_encrypt, "image", "--pub")
    chain_command("decrypt", "decrypt and reconstruct an image", cmd_decrypt, "payload", "--priv")
    p = chain_command("evaluate", "quality/timing CSV over an image directory", cmd_evaluate, "image_dir", "--pub", "--priv")
    p.add_argument("--window", type=_POSITIVE, default=None, help="SSIM window side (default global)")

    p = sub.add_parser("henon-plot", help="export orbit points as CSV")
    p.add_argument("--sym", required=True)
    p.add_argument("--n", type=_POINTS, default=10000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_henon_plot)

    p = sub.add_parser("send", help="send a payload file over TCP")
    p.add_argument("payload")
    p.add_argument("dest", type=_DEST, help="host:port")
    p.add_argument("--throttle", type=_RATE, default=None, help="bytes per second")
    p.set_defaults(func=cmd_send)

    p = sub.add_parser("recv", help="receive one payload over TCP")
    p.add_argument("port", type=_PORT)
    p.add_argument("--out", required=True)
    p.add_argument("--timeout", type=_SECONDS, default=argparse.SUPPRESS)  # transfer.TIMEOUT when not given
    p.set_defaults(func=cmd_recv)

    p = sub.add_parser("make-dataset", help="generate synthetic training images")
    p.add_argument("out_dir")
    p.add_argument("--count", type=_NON_NEGATIVE, default=32)
    p.add_argument("--size", type=_SIDE, default=32)
    p.add_argument("--seed", type=_NON_NEGATIVE, default=0)
    p.set_defaults(func=cmd_make_dataset)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LatentSealError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return getattr(e, "exit_code", EXIT_IO)  # an OSError has none


def run() -> None:
    """The program's entry: `latentseal` and `python -m latentseal.cli`.

    A process that runs one command keeps what it builds until exit, so the
    collector is paused for main, which spares the collections its imports
    would set off, and what is left is frozen, so interpreter shutdown does
    not walk it again.  main never touches the collector: callers that run
    it in-process, many times, keep their heap collectable.  An interrupt
    ends the command with a message, not a traceback.
    """
    gc.disable()
    try:
        code = main()
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        code = EXIT_INTERRUPT
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
