"""One measuring process, started fresh by run.py for each phase.

    python3 perfbench/worker.py MODE WORKLOAD SEED WORK_DIR SECONDS RESULT_JSON

MODE is one of
  setup    load the workload's files and complete its first operation; the
           result holds the CLOCK_MONOTONIC instant that operation ended;
  measure  warm up, then run the closed loop untraced for SECONDS;
  trace    warm up, run untraced for SECONDS / 2, then run the same requests
           again with spans recorded; spans go to WORK_DIR/spans.jsonl.
"""

import json
import resource
import sys
import time
from dataclasses import asdict
from itertools import islice
from pathlib import Path

import spans
import workloads


def setup(wl) -> dict:
    req = wl.setup_request()
    try:
        res = wl.run(req)
    except Exception as e:  # the probe reports failure instead of a time
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        res = None
    done = time.monotonic()
    return {"done": done, "ok": workloads.passes(wl, req, res)}


def measure(wl, seconds: float) -> dict:
    requests = wl.requests()
    warm = workloads.run_ops(wl, islice(requests, wl.warmup_ops))
    loop = workloads.run_ops(wl, requests, seconds=seconds)
    who = resource.RUSAGE_CHILDREN if wl.processes_per_op else resource.RUSAGE_SELF
    return {"warmup": asdict(warm), "loop": asdict(loop), "maxrss_kb": resource.getrusage(who).ru_maxrss}


def trace(wl, seconds: float, work: Path) -> dict:
    warm = workloads.run_ops(wl, islice(wl.requests(), wl.warmup_ops))
    plain = workloads.run_ops(wl, islice(wl.requests(), wl.warmup_ops, None), seconds=seconds / 2)
    tracer = spans.Tracer()
    if wl.processes_per_op:  # each CLI process records its own spans
        wl.spans_dir = work / "spans"
        wl.spans_dir.mkdir()
    else:
        tracer.install()
    same_requests = islice(wl.requests(), wl.warmup_ops, None)
    traced = workloads.run_ops(wl, same_requests, limit=plain.attempted, tracer=tracer)
    tracer.uninstall()
    if wl.processes_per_op:
        with open(work / "spans.jsonl", "w") as f:
            f.writelines(path.read_text() for path in sorted(wl.spans_dir.glob("*.jsonl")))
    else:
        tracer.dump(work / "spans.jsonl")
    return {"warmup": asdict(warm), "plain": asdict(plain), "traced": asdict(traced)}


def main(argv) -> int:
    mode, name, seed, work, seconds, out = argv
    work = Path(work)
    wl = workloads.WORKLOADS[name](work, int(seed))
    if mode == "setup":
        result = setup(wl)
    elif mode == "measure":
        result = measure(wl, float(seconds))
    elif mode == "trace":
        result = trace(wl, float(seconds), work)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    Path(out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
