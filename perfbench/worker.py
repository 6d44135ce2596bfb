"""Run one workload in this interpreter and report its measurements.

``run.py`` starts this file in a fresh interpreter for every measurement, so
module-level state in msvkit (the classify cache) starts cold, as it does for
a command-line user.  The worker prints ``ready`` once msvkit is imported and
the input order (``--order``, ranks written by ``run.py``) is read, then runs
its closed loop: one item at a time, the next starting when the previous one
returns, repeating the order if it runs out.  Each item is unranked and built
before its timer starts.  It prints one JSON line at the end.

Times are reported in reference seconds (see ``reference_slice``): every
``REF_EVERY_S`` the loop times a fixed slice of interpreter work, and the
latency of each item is scaled by ``REF_SLICE_S`` over the median time of the
slices taken within ``REF_WINDOW_S`` of it.  The 2-core machine this was built
on changes speed by up to 1.8x for seconds at a time (its cores are shared);
the slices slow down with it, so the scaled times do not.

The loop stops after ``--items`` items, or once ``--seconds`` reference
seconds were spent in the API (for a workload with whole passes, at the end of
the pass running then), or after ``HARD_STOP_S`` wall seconds in any case.
Results are checked after the loop, outside the timed region.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
HARD_STOP_S = 75.0  # a traced run starts two workers; both end within three minutes
REF_ITERS = 2_500
REF_SLICE_S = 0.0005
REF_EVERY_S = 0.01
REF_WINDOW_S = 0.05


def reference_slice() -> float:
    """Wall time of a fixed slice of interpreter work made of what msvkit's
    inner loops do: dict lookups and updates, integer arithmetic.  It creates
    no object the garbage collector tracks and runs with the collector off,
    so a large heap left by the workload does not slow it down.  It takes
    about 0.5 ms on an unloaded 2 GHz core with Python 3.11."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        d: dict = {}
        for i in range(REF_ITERS):
            key = i & 511
            d[key] = d.get(key, 0) + i * 3
        return time.perf_counter() - t0
    finally:
        gc.enable()


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) density at their
    plotting positions.  Unlike a single interpolated order statistic it does
    not jump when the sample has a gap at the quantile, as the 267 fixed
    inputs of ``localize`` have at p = 0.9."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log1p(-(i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def scaled_latencies(spans: list[tuple[float, float]], refs: list[tuple[float, float]]) -> list[float]:
    """Scale each item's wall latency, given as (start, end) on the
    ``perf_counter`` clock, to reference seconds.  ``refs`` holds (time, slice
    duration) pairs in time order, with one slice before the first item and
    one after the last."""
    scaled = []
    lo = hi = 0
    for start, end in spans:
        while refs[lo][0] < start - REF_WINDOW_S and refs[lo + 1][0] <= start:
            lo += 1
        hi = max(hi, lo)
        while hi + 1 < len(refs) and (refs[hi][0] < end or refs[hi + 1][0] <= end + REF_WINDOW_S):
            hi += 1
        ref = statistics.median(r for _, r in refs[lo:hi + 1])
        scaled.append((end - start) * REF_SLICE_S / ref)
    return scaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--order", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--items", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE.parent / "src"))
    import msvkit
    from workloads import WORKLOADS, unrank

    workload = WORKLOADS[args.workload]
    ranks = [int(r) for r in args.order.read_text().split()]
    print("ready", flush=True)
    setup_ref_s = statistics.median(reference_slice() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_ref_s": setup_ref_s}), flush=True)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(msvkit)
    call, n = workload.call, workload.n
    clock = time.perf_counter
    words: list[tuple] = []
    outputs: list = []
    spans: list[tuple[float, float]] = []
    refs = [(clock(), setup_ref_s)]
    busy = 0.0  # reference seconds, from the slices on either side
    pending = 0.0  # wall seconds in the API since the last slice
    start = clock()
    while True:
        word = unrank(n, ranks[len(words) % len(ranks)])
        w = msvkit.PartialPermutation(n, n, word)
        if tracer is not None:
            tracer.item = len(words)
        t0 = clock()
        try:
            out = call(msvkit, w)
        except Exception as exc:  # counted as a failed item, the run goes on
            out = ("error", repr(exc))
        t1 = clock()
        spans.append((t0, t1))
        pending += t1 - t0
        words.append(word)
        outputs.append(out)
        done = len(words)
        pass_end = done % len(ranks) == 0
        if not (t1 - refs[-1][0] >= REF_EVERY_S or pass_end or done == args.items):
            continue
        ref = reference_slice()
        busy += pending * REF_SLICE_S * 2 / (refs[-1][1] + ref)
        pending = 0.0
        refs.append((clock(), ref))
        if clock() - start >= HARD_STOP_S or done == args.items or (
                not args.items and busy >= args.seconds
                and (pass_end or not workload.whole_passes)):
            break

    if tracer is not None:
        tracer.uninstall()
    failures = [(w, out) for w, out in zip(words, outputs)
                if out[0] == "error" or not workload.check(w, out)]
    latencies = scaled_latencies(spans, refs)
    ms = [x * 1000.0 for x in latencies]
    result = {
        "items": len(latencies),
        "passes": len(latencies) / len(ranks),
        "busy_s": sum(latencies),
        "wall_busy_s": sum(t1 - t0 for t0, t1 in spans),
        "p50_ms": harrell_davis(ms, 0.5),
        "p90_ms": harrell_davis(ms, 0.9),
        "setup_ref_s": setup_ref_s,
        "ref_slice_median_s": statistics.median(r for _, r in refs),
        "ref_slices": len(refs),
        "failed": len(failures),
        "failures": [["".join(map(str, w)), repr(out)] for w, out in failures[:5]],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies_ms": [round(x, 6) for x in ms],
    }
    if tracer is not None:
        result["layers"] = tracer.layer_stats()
        result["spans"] = len(tracer.start)
        if args.spans is not None:
            tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
