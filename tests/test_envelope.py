"""Resource envelope at the input caps: peak memory of a command run on the
largest input its reader accepts.

Each case runs in a fresh interpreter that calls cli.main in-process and
reports its own VmHWM, the peak resident set of that process alone.  Not
getrusage: a child's ru_maxrss starts at the high-water mark of the process
that spawned it, so under pytest it would measure the test runner.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latentseal import cli, images, pipeline

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
