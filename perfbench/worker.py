"""One pass of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py WORKLOAD SEED SIZE TRACE

Builds the inputs, times each operation of one pass in reference
seconds (speed.py), then, with the tracer removed again, checks every
outcome.  Prints one JSON object.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time

import speed
import tracer as tracing
import workloads


def run_pass(ops, meter: speed.SpeedMeter):
    """Run every op once; return (outcomes, per-op seconds, per-op reference seconds).

    An op's seconds leave out the calibration slices that ran inside it.
    """
    outcomes, spans = [], []
    clock = time.perf_counter
    meter.start()
    try:
        for op in ops:
            spent = meter.spent
            t0 = clock()
            try:
                out = op()
            except Exception as exc:  # an unexpected error is a failed op, not a crash
                out = f"error: {type(exc).__name__}: {exc}"
            t1 = clock()
            spans.append((t0, t1, t1 - t0 - (meter.spent - spent)))
            outcomes.append(out)
    finally:
        meter.stop()
    seconds = [d for _, _, d in spans]
    return outcomes, seconds, [d * meter.scale(t0, t1) for t0, t1, d in spans]


def main(argv) -> int:
    name, seed, size, trace = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    workload = workloads.build(name, seed, size)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    elif not tracing.untraced():
        raise RuntimeError("an untraced pass found wrapped functions")
    meter = speed.SpeedMeter(tracer.pause if tracer is not None else None)
    gc.collect()
    outcomes, seconds, latencies = run_pass(workload.ops, meter)
    result = {"traced": tracer is not None}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
    failed, details = workload.check(outcomes)
    result.update({
        "wall_s": sum(latencies),
        "raw_wall_s": sum(seconds),
        "raw_latencies": seconds,
        "slice_ms": statistics.median(meter.durations) * 1000,
        "latencies": latencies,
        "attempted": len(outcomes),
        "failed": failed,
        "details": details,
        "fingerprint": workload.fingerprint(outcomes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
