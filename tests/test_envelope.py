"""Resource envelope at the input caps: peak memory of a command run on the
largest input its reader accepts.

Each case runs in a fresh interpreter that calls cli.main in-process and
reports its own VmHWM, the peak resident set of that process alone.  Not
getrusage: a child's ru_maxrss starts at the high-water mark of the process
that spawned it, so under pytest it would measure the test runner.
"""

import os
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from latentseal import cli, codec, images, transfer, wire
from latentseal.errors import IoError

from conftest import free_port
from test_transfer import payload_frame

ROOT = Path(__file__).resolve().parent.parent
SIDE = 4096  # SIDE**2 == wire.MAX_PIXELS, so the P6 raster fills images.PNM_CAP

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


@pytest.mark.parametrize("width,height", [(SIDE, SIDE), (0xFFFF, 256)], ids=["4096x4096", "65535x256"])
def test_p6_at_the_cap_peaks_within_one_and_a_half_times_the_p5_of_its_size(tmp_path, width, height):
    # the P6 luma conversion takes images.BAND_BYTES of float64 RGB at a time, at any shape.  Measured on a
    # 2-vCPU Xeon under Linux, VmHWM of P6 / P5: 188 548 / 188 304 KiB at 4096², and 200 860-201 000 /
    # 201 924-202 008 KiB at 65535x256, where blocks of 256 full rows took the wide P6 to 741 136-741 200 KiB.
    assert SIDE * SIDE == wire.MAX_PIXELS >= width * height
    prefix, model = tmp_path / "key", tmp_path / "dct.lscm"
    assert cli.main(["keygen", str(prefix), "--seed", "1"]) == 0
    assert cli.main(["make-model", str(model), "--m", "100"]) == 0
    raster = (np.arange(3 * width * height, dtype=np.uint32) % 251).astype(np.uint8)
    peaks = {}
    for magic, channels in ((b"P5", 1), (b"P6", 3)):
        img = tmp_path / f"in.{magic.decode()}"
        img.write_bytes(b"%s\n%d %d\n255\n" % (magic, width, height) + raster[: channels * width * height].tobytes())
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
    # m = 65535 fills wire.PAYLOAD_CAP; decrypt builds a 4096² float image from it.  Measured on a
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
    assert payload.stat().st_size == wire.PAYLOAD_CAP
    output, peak = _run_child(["decrypt", str(payload), "--model", str(model), "--sym", f"{prefix}.sym",
                               "--priv", f"{prefix}.priv", "--out", str(tmp_path / "out.pgm")])
    seconds = float(output[-1].removeprefix("decrypt_s="))
    assert peak <= 300_000, peak  # KiB
    assert seconds <= 2.0, seconds


@pytest.mark.parametrize(
    "window,height,bound",
    [([], SIDE, 300_000), (["--window", "7"], SIDE, 300_000), (["--window", "200"], 400, 100_000)],
    ids=["global", "window7", "window200-4096x400"],
)
def test_evaluate_of_a_p5_at_the_cap_stays_within_its_envelope(tmp_path, window, height, bound):
    # windowed SSIM over 4096² takes its map of 8 bytes per window and one band of images.BAND_BYTES.
    # Measured on a 2-vCPU Xeon under Linux with 1 MiB bands: VmHWM 208 312-208 440 KiB and 1.28-1.45 s for
    # the whole child, interpreter start included, so the bounds below leave about 1.44x on memory and 2.8x
    # on time.  16 MiB bands peaked at 222 460-223 444 KiB, and one arena for the whole image at
    # 2 102 588-2 103 404 KiB.  Global SSIM sums its moments over chunks of one band: VmHWM 205 872-206 200 KiB
    # and 0.44-1.6 s, where float64 copies of both whole images peaked at 337 160-337 336 KiB.  At w = 200 a
    # band is at least 199 rows; 199 rows of 4096 columns overrun the budget, so a band is split into column
    # tiles of 399 columns, about 16 MB of int64 buffers.  The 4096x400 image shows that at a tenth of the
    # 4096² cost: VmHWM 72 928-73 228 KiB and 0.38-0.86 s, so its bound leaves about 1.37x on memory, where
    # whole-width bands peaked at 216 600-216 772 KiB (at 4096², 353 032-353 044 against 209 048-209 200 KiB).
    prefix, model, img_dir = tmp_path / "key", tmp_path / "dct.lscm", tmp_path / "images"
    assert cli.main(["keygen", str(prefix), "--seed", "1"]) == 0
    assert cli.main(["make-model", str(model), "--m", "100"]) == 0
    img_dir.mkdir()
    raster = (np.arange(SIDE * height, dtype=np.uint32) % 251).astype(np.uint8)
    (img_dir / "in.pgm").write_bytes(b"P5\n%d %d\n255\n" % (SIDE, height) + raster.tobytes())
    out = tmp_path / "report.csv"
    start = time.perf_counter()
    _, peak = _run_child(["evaluate", str(img_dir), "--model", str(model), "--sym", f"{prefix}.sym", "--pub",
                          f"{prefix}.pub", "--priv", f"{prefix}.priv", "--out", str(out), *window])
    seconds = time.perf_counter() - start
    assert len(out.read_text().splitlines()) == 2  # the header and the image's row
    assert peak <= bound, peak  # KiB
    assert seconds <= 4.0, seconds


def test_a_neural_model_just_under_the_cap_loads_within_its_envelope(tmp_path):
    # encoder 4096 -> m and decoder m -> 4096 at the largest m whose file fits codec.MODEL_CAP.  The weights
    # are zero, written as a sparse file, so the file costs no time to make; load_model reads each layer
    # into its own array and checks every byte all the same.  Measured on a 2-vCPU Xeon under Linux: VmHWM
    # 317 088-317 288 KiB and 0.44-0.68 s for the whole child, interpreter start included, so the bounds
    # below leave about 1.13x on memory and 5.9x on time.  Reading the whole file before copying out its
    # layers peaked at 576 524-576 800 KiB, twice the model.
    side = 64
    n = side * side
    m = max(k for k in range(1, 4200) if codec.model_size([n, k], [k, n]) <= codec.MODEL_CAP)
    path = tmp_path / "big.lscm"
    with open(path, "wb") as f:
        f.write(codec.MODEL_MAGIC + struct.pack("<BBI", codec.MODEL_VERSION, wire.KIND_NEURAL, m))
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
    assert peak <= 360_000, peak  # KiB
    assert seconds <= 4.0, seconds


def test_recv_of_a_frame_at_the_cap_stays_within_its_envelope(tmp_path):
    # a legal frame of wire.PAYLOAD_CAP bytes: the header of a 4096² DCT payload at m = 65535, then its
    # body.  recv checks the header rules, not the tag, so the body is arbitrary bytes.  Measured on a
    # 2-vCPU Xeon under Linux: VmHWM 36 550-36 650 KiB, most of it the interpreter and numpy, and
    # 0.22-0.31 s for the whole child, interpreter start included, so the bounds below leave about 1.37x
    # on memory and 10x on time, since interpreter start, most of that time, varies most under load.
    frame = payload_frame(0xFFFF, np.random.default_rng(0).bytes(4 * 0xFFFF + wire.OVERHEAD), width=SIDE, height=SIDE)
    assert len(frame) == wire.PAYLOAD_CAP
    port = free_port()

    def send_once_listening():
        deadline = time.monotonic() + 30
        while True:
            try:
                return transfer.send_bytes(frame, "127.0.0.1", port)
            except IoError as e:  # refused while the child has not bound the port yet
                if not isinstance(e.__cause__, ConnectionRefusedError) or time.monotonic() > deadline:
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
    # the largest --n; the CSV is formatted in blocks of images.BAND_BYTES // 16 rows, not held whole.  Measured on
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
