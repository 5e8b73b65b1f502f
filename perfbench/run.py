"""latentseal benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a latentseal checkout; the program is imported from its
`src/`.  Inputs are generated from the seed under `.perfbench-work/NAME/`.
With `--trace 0` the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with `--trace 1` its per-layer metrics.  The line before it
records the environment.  See perfbench/README.md for the workloads.
"""

import os

# Pinned before numpy loads, here and in every process started from here.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 150
IMPORT_PACKAGES = ("latentseal", "scipy", "numpy", "cryptography")


class BenchError(Exception):
    pass


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list, env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd[:4]))} ... exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc


def worker(mode: str, args, work: Path, env: dict) -> dict:
    out = work / f"{mode}.json"
    run_child([sys.executable, str(HERE / "worker.py"), mode, args.workload, str(args.seed), str(work), str(args.seconds), str(out)], env)
    return json.loads(out.read_text())


def setup_probe(args, work: Path, env: dict) -> tuple[float, bool]:
    """Seconds from starting a fresh interpreter to its first completed operation."""
    start = time.monotonic()
    result = worker("setup", args, work, env)
    return result["done"] - start, result["ok"]


def import_ms(module: str, env: dict) -> dict:
    """Milliseconds spent importing each package, from `python -X importtime`.

    A package's time is the cumulative time of its outermost import entries,
    so it includes whatever the package itself imported first."""
    proc = run_child([sys.executable, "-X", "importtime", "-c", f"import {module}"], env)
    entries = []
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "imported package" not in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            entries.append((len(name) - len(name.lstrip()), name.strip().split(".")[0], int(cumulative)))
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    ancestors = []
    for depth, package, cumulative in reversed(entries):  # reversed post-order: parents first
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if package in totals and all(p != package for _, p in ancestors):
            totals[package] += cumulative / 1e3
        ancestors.append((depth, package))
    return totals


def environment(root: Path) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "latentseal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cryptography": version("cryptography"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "LATENTSEAL_NO_NUMBA": os.environ.get("LATENTSEAL_NO_NUMBA"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "load_shape": "closed loop, one client",
    }


def quantile(values: list, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(wl, probes: list, result: dict) -> dict:
    loop = result["loop"]
    done = (loop["attempted"] - loop["failed"]) * wl.images_per_op
    return {
        "setup_s": (statistics.median(probes), "s"),
        "images_per_s": (done / sum(loop["walls"]), "1/s"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024, "MB"),
    }


def per_layer(wl, imports: dict, result: dict, attempted: int, failed: int, span_list: list) -> dict:
    plain, traced = result["plain"], result["traced"]
    plain_wall, traced_wall = sum(plain["walls"]), sum(traced["walls"])
    metrics = {}
    for name in spans.TARGETS:
        own = [s for s in span_list if s["name"] == name]
        self_s = [s["self_s"] for s in own]
        metrics[f"{name}.calls"] = (len(own), "count")
        metrics[f"{name}.self_ms_p50"] = (statistics.median(self_s) * 1e3 if self_s else 0.0, "ms")
        metrics[f"{name}.self_share"] = (sum(self_s) / traced_wall, "fraction")
        metrics[f"{name}.failed"] = (sum(s["failed"] for s in own), "count")
    for package in IMPORT_PACKAGES:
        metrics[f"import.{package}_ms"] = (imports[package], "ms")
    interpreter_starts = wl.processes_per_op * plain["attempted"]
    metrics["import.share"] = (imports["latentseal"] / 1e3 * interpreter_starts / plain_wall, "fraction")
    metrics["process.cpu_over_wall"] = (sum(plain["cpu"]) / plain_wall, "ratio")
    metrics["trace.overhead_share"] = (traced_wall / plain_wall - 1.0, "fraction")
    metrics["failed_share"] = (failed / attempted, "fraction")
    parts = dict(plain["parts"], latency=[w / wl.images_per_op for w in plain["walls"]])
    for step, q in (("latency", 0.5), ("latency", 0.9), ("seal", 0.5), ("seal", 0.9), ("open", 0.5), ("open", 0.9),
                    ("cli_encrypt", 0.5), ("cli_decrypt", 0.5)):
        metrics[f"{step}_ms_p{round(q * 100)}"] = (quantile(parts.get(step, []), q) * 1e3, "ms")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "latentseal" / "__init__.py").is_file():
        print(f"perfbench: {src / 'latentseal'} not found; run from the root of a latentseal checkout", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    env = child_env(src)
    work = root / ".perfbench-work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs.generate(args.workload, args.seed, work)

    # Import once untimed, so every timed start finds the bytecode cache written,
    # and make sure the program comes from this checkout.
    where = run_child([sys.executable, "-c", f"import {wl.import_module}, latentseal; print(latentseal.__file__)"], env)
    if not Path(where.stdout.strip()).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"latentseal imported from {where.stdout.strip()}, not from {src}")

    if args.trace == 0:
        probes = [setup_probe(args, work, env) for _ in range(SETUP_PROBES)]
        result = worker("measure", args, work, env)
        phases = [result["warmup"], result["loop"]]
        attempted = len(probes) + sum(p["attempted"] for p in phases)
        failed = sum(not ok for _, ok in probes) + sum(p["failed"] for p in phases)
        metrics = end_to_end(wl, [s for s, _ in probes], result)
    else:
        runs = [import_ms(wl.import_module, env) for _ in range(IMPORT_PROBES)]
        imports = {p: statistics.median(r[p] for r in runs) for p in IMPORT_PACKAGES}
        result = worker("trace", args, work, env)
        phases = [result["warmup"], result["plain"], result["traced"]]
        attempted = sum(p["attempted"] for p in phases)
        failed = sum(p["failed"] for p in phases)
        metrics = per_layer(wl, imports, result, attempted, failed, spans.load(work / "spans.jsonl"))

    print(json.dumps({"environment": environment(root)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
