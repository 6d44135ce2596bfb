"""msvkit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload gb --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run it from the repository root or anywhere else; it measures the msvkit
sources in ``src/`` next to this directory.  Every measurement runs in a fresh
interpreter (``worker.py``).  With ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json`` are reported; with ``--trace 1`` the per-layer metrics,
from a fixed number of items run once untraced and once traced.  The last
line of output is one JSON object; the lines before it repeat every metric
with its unit, the failed ratio, the sample counts and a stamp (Python
version, processors, line count of ``src/``).  Spans and full results are
written under ``.perfbench_out/``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 85.0  # a worker stops itself after 75 s

sys.path.insert(0, str(HERE))
from worker import REF_SLICE_S  # noqa: E402
from workloads import WORKLOADS, order  # noqa: E402


class WorkerError(RuntimeError):
    pass


def write_order(workload: str, seed: int) -> Path:
    """Write the seeded input order, one pass of ranks, for the workers."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"order-{workload}-seed{seed}.txt"
    path.write_text(" ".join(map(str, order(WORKLOADS[workload], seed))) + "\n")
    return path


def spawn(workload: str, order_file: Path, *extra: str) -> tuple[float, dict]:
    """Start a worker in a fresh interpreter; return its set-up time (start
    to ``ready``) in reference seconds and its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--order", str(order_file), *extra]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker {cmd} failed with exit code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return setup_s * REF_SLICE_S / result["setup_ref_s"], result


def stamp() -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "src_lines": src_lines}


def end_to_end(workload: str, order_file: Path, seconds: int) -> tuple[dict, dict]:
    setups = [spawn(workload, order_file, "--setup-only")[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_s, res = spawn(workload, order_file, "--seconds", str(seconds))
    setups.append(setup_s)
    metrics = {
        "perms_per_s": res["items"] / res["busy_s"],
        "perm_p50_ms": res["p50_ms"],
        "perm_p90_ms": res["p90_ms"],
        "peak_rss_mib": res["peak_rss_mib"],
        "setup_s": statistics.median(setups),
    }
    return metrics, {"run": res, "setup_samples_s": setups}


def per_layer(workload: str, order_file: Path, seed: int) -> tuple[dict, dict]:
    items = str(WORKLOADS[workload].trace_items)
    spans = OUT / f"spans-{workload}-seed{seed}.tsv"
    _, plain = spawn(workload, order_file, "--items", items)
    _, traced = spawn(workload, order_file, "--items", items, "--trace", "--spans", str(spans))
    # Layer times become shares of the traced run's time inside the API:
    # machine speed cancels out of them, and a layer a workload never
    # reaches reads 0 % rather than a time.
    api_s = traced["wall_busy_s"]
    metrics = {(k[:-2] + "_pct" if k.endswith("_s") else k): (100.0 * v / api_s if k.endswith("_s") else v)
               for k, v in traced["layers"].items()}
    metrics["bench.items"] = traced["items"]
    metrics["bench.untraced_perms_per_s"] = plain["items"] / plain["busy_s"]
    metrics["bench.traced_perms_per_s"] = traced["items"] / traced["busy_s"]
    metrics["bench.trace_overhead"] = (metrics["bench.untraced_perms_per_s"]
                                       / metrics["bench.traced_perms_per_s"])
    return metrics, {"untraced": plain, "traced": traced, "spans_file": str(spans.relative_to(ROOT))}


def measure(spec: dict, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    order_file = write_order(workload, seed)
    if trace:
        values, detail = per_layer(workload, order_file, seed)
        runs = [detail["untraced"], detail["traced"]]
    else:
        values, detail = end_to_end(workload, order_file, seconds)
        runs = [detail["run"]]
    attempted = sum(r["items"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print(f"  why: {WORKLOADS[workload].why}")
    info = stamp()
    print(f"  stamp: python {info['python']}, nproc {info['nproc']}, src lines {info['src_lines']}")
    for r in runs:
        print(f"  sample: {r['items']} permutations, {r['busy_s']:.3f} reference s in the API"
              f" ({r['passes']:.3g} passes over the input order), closed loop, 1 process;"
              f" unscaled {r['items'] / r['wall_busy_s']:.6g} perms/s, reference slice median"
              f" {r['ref_slice_median_s'] * 1000:.4g} ms")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if trace:
        print(f"  tracing overhead: untraced {values['bench.untraced_perms_per_s']:.4g} 1/s, "
              f"traced {values['bench.traced_perms_per_s']:.4g} 1/s, "
              f"ratio {values['bench.trace_overhead']:.4g}; spans in {detail['spans_file']}")
    print(f"  failed_ratio = {failed / attempted:.6g} ({failed} of {attempted})")
    for r in runs:
        for word, out in r["failures"]:
            print(f"  FAILED {word}: {out}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                  stamp=info, failed_ratio=failed / attempted, detail=detail)
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "msvkit" / "__init__.py").is_file():
        print(f"perfbench: no msvkit sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = measure(spec, name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
