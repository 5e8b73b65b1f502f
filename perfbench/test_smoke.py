"""Smoke test of the benchmark itself, from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at a tiny load in both modes and checks that each metric
of BENCHMARK.json is emitted with its unit, and that corrupted outputs are
counted as failed operations rather than passed.
"""

import json
import math
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])
        assert m["value"] > 0 or trace


def test_fails_without_the_program(tmp_path):
    proc = bench(tmp_path, "stream-256", 0)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    work = tmp_path_factory.mktemp("stream")
    inputs.generate("stream-256", 3, work)
    return workloads.Stream256(work, 3)


def run_three(wl) -> workloads.LoopStats:
    return workloads.run_ops(wl, islice(wl.requests(), 3))


def test_clean_operations_pass(stream):
    stats = run_three(stream)
    assert (stats.attempted, stats.failed) == (3, 0)


def test_flipped_ciphertext_byte_is_a_failed_operation(stream, monkeypatch):
    from latentseal import pipeline

    parse = pipeline.EncryptedPayload.parse.__func__

    def parse_flipped(cls, data):
        data = bytearray(data)
        data[12 + 33] ^= 1  # first ciphertext byte, after the header and ephemeral key
        return parse(cls, bytes(data))

    monkeypatch.setattr(pipeline.EncryptedPayload, "parse", classmethod(parse_flipped))
    stats = run_three(stream)
    assert (stats.attempted, stats.failed) == (3, 3)


def test_wrong_output_pixel_is_a_failed_operation(stream, monkeypatch):
    run = stream.run

    def run_corrupted(req):
        res = run(req)
        res.image = res.image.copy()
        res.image[0, 0] ^= 1
        return res

    monkeypatch.setattr(stream, "run", run_corrupted)
    stats = run_three(stream)
    assert (stats.attempted, stats.failed) == (3, 3)


def test_wrong_evaluate_ssim_fails_the_check(tmp_path):
    inputs.generate("evaluate-window7", 3, tmp_path)
    wl = workloads.EvaluateWindow7(tmp_path, 3)
    req = wl.setup_request()
    res = wl.run(req)
    assert wl.check(req, res)
    header, row = wl.out.read_text().splitlines()
    ssim, rest = row.split(",", 1)
    wl.out.write_text(f"{header}\n{float(ssim) + 1e-4:.6g},{rest}\n")
    assert not wl.check(req, res)
