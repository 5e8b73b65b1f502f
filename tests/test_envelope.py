"""Resource envelope at the input caps: peak memory of a command run on the
largest input its reader accepts.

Each case runs in a fresh interpreter that calls cli.main in-process and
reports its own VmHWM, the peak resident set of that process alone.  Not
getrusage: a child's ru_maxrss starts at the high-water mark of the process
that spawned it, so under pytest it would measure the test runner.
"""

import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from latentseal import cli, codec, images, pipeline, transfer

ROOT = Path(__file__).resolve().parent.parent
SIDE = 4096  # SIDE**2 == images.MAX_PIXELS, so the P6 raster fills images.PNM_CAP

CHILD = """
import sys
from latentseal import cli
rc = cli.main(sys.argv[1:])
with open("/proc/self/status") as f:
    hwm = [line.split()[1] for line in f if line.startswith("VmHWM:")]
print(rc, *hwm)
"""


def _run_child(args: list[str]) -> tuple[list[str], int]:
    """The output lines of a fresh interpreter that runs cli.main(args), and its VmHWM in KiB; skips where there is none."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", CHILD, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    *output, last = result.stdout.splitlines()  # the command's own output comes first
    fields = last.split()
    assert fields[0] == "0", result.stderr
    if len(fields) < 2:
        pytest.skip("no VmHWM in /proc/self/status")
    return output, int(fields[1])


def _peak_kib(args: list[str]) -> int:
    """VmHWM in KiB of a fresh interpreter that runs cli.main(args); skips where there is none."""
    return _run_child(args)[1]


def test_p6_at_the_cap_peaks_within_one_and_a_half_times_the_p5_of_its_size(tmp_path):
    assert SIDE * SIDE == images.MAX_PIXELS
    prefix, model = tmp_path / "key", tmp_path / "dct.lscm"
    assert cli.main(["keygen", str(prefix), "--seed", "1"]) == 0
    assert cli.main(["make-model", str(model), "--m", "100"]) == 0
    raster = (np.arange(3 * SIDE * SIDE, dtype=np.uint32) % 251).astype(np.uint8)
    peaks = {}
    for magic, channels in ((b"P5", 1), (b"P6", 3)):
        img = tmp_path / f"in.{magic.decode()}"
        img.write_bytes(b"%s\n%d %d\n255\n" % (magic, SIDE, SIDE) + raster[: channels * SIDE * SIDE].tobytes())
        assert img.stat().st_size <= images.PNM_CAP
        peaks[magic] = _peak_kib([
            "encrypt", str(img),
            "--model", str(model),
            "--sym", f"{prefix}.sym",
            "--pub", f"{prefix}.pub",
            "--out", str(tmp_path / "out.lsp"),
        ])
        img.unlink()
    assert peaks[b"P6"] <= 1.5 * peaks[b"P5"], peaks


def test_decrypt_of_the_largest_legal_payload_stays_within_its_envelope(tmp_path):
    # m = 65535 fills pipeline.PAYLOAD_CAP; decrypt builds a 4096² float image from it.  Measured on a
    # 2-vCPU Xeon under Linux: VmHWM 223 196 KiB and decrypt_s 0.38-0.48 s, so the bounds below leave
    # about 1.34x on memory and 4x on time.
    prefix, model = tmp_path / "key", tmp_path / "dct.lscm"
    assert cli.main(["keygen", str(prefix), "--seed", "1"]) == 0
    assert cli.main(["make-model", str(model), "--m", "65535"]) == 0
    img, payload = tmp_path / "in.pgm", tmp_path / "p.lsp"
    raster = (np.arange(SIDE * SIDE, dtype=np.uint32) % 251).astype(np.uint8)
    img.write_bytes(b"P5\n%d %d\n255\n" % (SIDE, SIDE) + raster.tobytes())
    _run_child(["encrypt", str(img), "--model", str(model), "--sym", f"{prefix}.sym", "--pub", f"{prefix}.pub",
                "--out", str(payload)])
    img.unlink()
    assert payload.stat().st_size == pipeline.PAYLOAD_CAP
    output, peak = _run_child(["decrypt", str(payload), "--model", str(model), "--sym", f"{prefix}.sym",
                               "--priv", f"{prefix}.priv", "--out", str(tmp_path / "out.pgm")])
    seconds = float(output[-1].removeprefix("decrypt_s="))
    assert peak <= 300_000, peak  # KiB
    assert seconds <= 2.0, seconds


def test_evaluate_with_a_window_of_a_p5_at_the_cap_stays_within_its_envelope(tmp_path):
    # windowed SSIM over 4096² takes its map of 8 bytes per window and one band of metrics.BAND_BYTES.
    # Measured on a 2-vCPU Xeon under Linux: VmHWM 222 460-223 400 KiB and 0.95-1.2 s for the whole child,
    # interpreter start included, so the bounds below leave about 1.34x on memory and 3.3x on time.  One
    # arena for the whole image peaked at 2 102 588-2 103 404 KiB.
    prefix, model, img_dir = tmp_path / "key", tmp_path / "dct.lscm", tmp_path / "images"
    assert cli.main(["keygen", str(prefix), "--seed", "1"]) == 0
    assert cli.main(["make-model", str(model), "--m", "100"]) == 0
    img_dir.mkdir()
    raster = (np.arange(SIDE * SIDE, dtype=np.uint32) % 251).astype(np.uint8)
    (img_dir / "in.pgm").write_bytes(b"P5\n%d %d\n255\n" % (SIDE, SIDE) + raster.tobytes())
    out = tmp_path / "report.csv"
    start = time.perf_counter()
    _, peak = _run_child(["evaluate", str(img_dir), "--model", str(model), "--sym", f"{prefix}.sym", "--pub",
                          f"{prefix}.pub", "--priv", f"{prefix}.priv", "--out", str(out), "--window", "7"])
    seconds = time.perf_counter() - start
    assert len(out.read_text().splitlines()) == 2  # the header and the image's row
    assert peak <= 300_000, peak  # KiB
    assert seconds <= 4.0, seconds


def test_a_neural_model_just_under_the_cap_loads_within_its_envelope(tmp_path):
    # encoder 4096 -> m and decoder m -> 4096 at the largest m whose file fits codec.MODEL_CAP.  The weights
    # are zero, written as a sparse file, so the file costs no time to make; load_model reads, copies and
    # checks every byte all the same.  Measured on a 2-vCPU Xeon under Linux: VmHWM 576 700-576 800 KiB
    # and 0.83-1.17 s for the whole child, interpreter start included, so the bounds below leave about
    # 1.21x on memory and 3.4x on time.
    side = 64
    n = side * side
    m = max(k for k in range(1, 4200) if codec.model_size([n, k], [k, n]) <= codec.MODEL_CAP)
    path = tmp_path / "big.lscm"
    with open(path, "wb") as f:
        f.write(codec.MODEL_MAGIC + struct.pack("<BBI", codec.MODEL_VERSION, codec.KIND_NEURAL, m))
        for n_out, n_in in ((m, n), (n, m)):
            f.write(struct.pack("<III", 1, n_out, n_in))
            f.seek(8 * n_out * (n_in + 1), os.SEEK_CUR)
        f.truncate()
    assert path.stat().st_size == codec.model_size([n, m], [m, n]) > codec.MODEL_CAP - 8 * (2 * n + 1)
    prefix, img = tmp_path / "key", tmp_path / "in.pgm"
    assert cli.main(["keygen", str(prefix), "--seed", "1"]) == 0
    images.write_image(images.smooth_gradient(side), img)
    start = time.perf_counter()
    _, peak = _run_child(["encrypt", str(img), "--model", str(path), "--sym", f"{prefix}.sym", "--pub",
                          f"{prefix}.pub", "--out", str(tmp_path / "out.lsp")])
    seconds = time.perf_counter() - start
    assert peak <= 700_000, peak  # KiB
    assert seconds <= 4.0, seconds


def test_recv_of_a_frame_at_the_cap_stays_within_its_envelope(tmp_path):
    # a legal frame of transfer.FRAME_CAP bytes: the header of a 4096² DCT payload at m = 65535, then its
    # body.  recv checks the header rules, not the tag, so the body is arbitrary bytes.  Measured on a
    # 2-vCPU Xeon under Linux: VmHWM 36 550-36 650 KiB, most of it the interpreter and numpy, and
    # 0.22-0.31 s for the whole child, interpreter start included, so the bounds below leave about 1.37x
    # on memory and 10x on time, since interpreter start, most of that time, varies most under load.
    frame = pipeline.PAYLOAD_MAGIC + struct.pack("<BBHHH", pipeline.PAYLOAD_VERSION, codec.KIND_DCT, 0xFFFF, SIDE, SIDE)
    frame += np.random.default_rng(0).bytes(transfer.FRAME_CAP - len(frame))
    assert len(frame) == transfer.FRAME_CAP
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]

    def send_once_listening():
        deadline = time.monotonic() + 30
        while True:
            try:
                return transfer.send_bytes(frame, "127.0.0.1", port)
            except ConnectionRefusedError:  # the child has not bound the port yet
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)

    sender = threading.Thread(target=send_once_listening)
    out = tmp_path / "in.lsp"
    start = time.perf_counter()
    sender.start()
    _, peak = _run_child(["recv", str(port), "--out", str(out), "--timeout", "30"])
    seconds = time.perf_counter() - start
    sender.join()
    assert out.read_bytes() == frame
    assert peak <= 50_000, peak  # KiB
    assert seconds <= 3.0, seconds


def test_henon_plot_of_a_million_points_stays_within_its_envelope(tmp_path):
    # the largest --n; the CSV is formatted in blocks of cli._PLOT_BLOCK rows, not held whole.  Measured on
    # a 2-vCPU Xeon under Linux: VmHWM 73 600-73 700 KiB and 2.4-3.1 s for the whole child, interpreter
    # start included, for a 39 467 486-byte CSV, so the bounds below leave about 1.36x on memory and 3.9x
    # on time.  Joined into one string, the CSV peaked at 231 272 KiB.
    prefix, out = tmp_path / "key", tmp_path / "orbit.csv"
    assert cli.main(["keygen", str(prefix), "--seed", "1"]) == 0
    start = time.perf_counter()
    output, peak = _run_child(["henon-plot", "--sym", f"{prefix}.sym", "--n", "1000000", "--out", str(out)])
    seconds = time.perf_counter() - start
    assert output == [f"wrote 1000000 points to {out}"]
    assert peak <= 100_000, peak  # KiB
    assert seconds <= 12.0, seconds
