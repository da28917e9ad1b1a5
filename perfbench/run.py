"""Benchmark entry point: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source tree; it measures the tree's own
``src/`` package, never an installed copy.  Every pass of the workload
runs in a fresh single-threaded interpreter (worker.py) with a pinned
environment: ``PYTHONPATH=src``, no other ``PYTHON*`` variable, no
``TRANSFINITE_BUDGET_BITS``, and ``PYTHONHASHSEED`` alternating 1 and 2
so that every run also checks that outcomes do not depend on it.

With ``--trace 0`` set-up is measured, passes repeat until the time is
used, and the end-to-end metrics are printed, in reference seconds
(speed.py), with the same metrics in raw seconds in the info line.  At
least three passes run whatever ``--seconds`` says, so a ``mains-deep``
run, at about 10 s a pass, takes 30 s or more.  With ``--trace 1`` one untraced pass and
two traced passes (hash seeds 1 and 2) run, the per-layer counts must
agree exactly, and the per-layer metrics are printed with the tracing
overhead.  The last line of stdout is the result object; the line before
it records the environment and the outcome details.  The exit code is 0
when the result is correct, 1 when it is not, and 2 when nothing could
be measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("mains-deep", "ladder-corpus", "oracle-check", "cli-session")
SETUP_SPAWNS = 14
SETUP_SLICES = 5
MIN_PASSES = 3
PASS_TIMEOUT_S = 150


def pinned_env(hash_seed: int) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "TRANSFINITE_BUDGET_BITS"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def measure_setup() -> tuple:
    """Median reference seconds, and median raw seconds, from spawning an
    interpreter to ``import transfinite.cli`` done.

    The first spawn only warms the bytecode cache and is not counted.
    Both clocks are CLOCK_MONOTONIC, which is shared across processes.
    After the import each interpreter runs calibration slices, which
    scale its time to reference seconds (speed.py).
    """
    code = ("import time, transfinite.cli; done = time.monotonic(); import sys; "
            f"sys.path.insert(0, {str(HERE)!r}); import speed; "
            f"print(done, speed.median_slice({SETUP_SLICES}))")
    times, raw = [], []
    for _ in range(SETUP_SPAWNS + 1):
        started = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=pinned_env(1),
                              capture_output=True, text=True, check=True, timeout=60)
        finished, slice_s = map(float, done.stdout.split())
        raw.append(finished - started)
        times.append(raw[-1] * speed.factor(slice_s))
    return statistics.median(times[1:]), statistics.median(raw[1:])


def run_pass(workload: str, seed: int, size: str, traced: bool, hash_seed: int) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), size,
            "1" if traced else "0"]
    started = time.monotonic()
    done = subprocess.run(argv, env=pinned_env(hash_seed), capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    elapsed = time.monotonic() - started
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: {workload} pass exited with {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    if result["traced"] != traced:
        raise SystemExit("error: a pass ran with the wrong tracing mode")
    result["elapsed_s"] = elapsed
    return result


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes, setup_s: float, key: str = "latencies") -> dict:
    """Each op's latency is its median over the passes, which drops
    interference that hits one pass but not the others.  ``key`` picks
    reference seconds (``latencies``) or raw ones (``raw_latencies``)."""
    per_op = [statistics.median(lat) for lat in zip(*(p[key] for p in passes))]
    wall = sum(per_op)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(per_op) / wall, "1/s"),
        "p50_ms": (nearest_rank(per_op, 0.50) * 1000, "ms"),
        "p99_ms": (nearest_rank(per_op, 0.99) * 1000, "ms"),
        "peak_rss_mib": (statistics.median(p["peak_rss_mib"] for p in passes), "MiB"),
    }


def traced_metrics(untraced: dict, traced) -> tuple:
    """Per-layer metrics from two traced passes; counts must agree exactly."""
    first, second = (p["layers"] for p in traced)
    same = all(first[k] == second[k] for k in first if first[k][1] != "s")
    out = {}
    for name, (value, unit) in first.items():
        out[name] = ((value + second[name][0]) / 2, unit) if unit == "s" else (value, unit)
    traced_wall = statistics.mean(p["wall_s"] for p in traced)
    out["trace.overhead_s"] = (traced_wall - untraced["wall_s"], "s")
    return out, same


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke is a tiny input for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (SRC / "transfinite" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'transfinite'}", file=sys.stderr)
        return 2

    if args.trace:
        passes = [run_pass(args.workload, args.seed, args.size, False, 1)]
        passes += [run_pass(args.workload, args.seed, args.size, True, h) for h in (1, 2)]
        metrics, counts_agree = traced_metrics(passes[0], passes[1:])
        raw = None
    else:
        setup_s, raw_setup_s = measure_setup()
        started = time.monotonic()
        passes = []
        while (len(passes) < MIN_PASSES or time.monotonic() - started
               + statistics.median(p["elapsed_s"] for p in passes) <= args.seconds):
            passes.append(run_pass(args.workload, args.seed, args.size, False,
                                   1 + len(passes) % 2))
        metrics, counts_agree = end_to_end(passes, setup_s), True
        raw = {k: v for k, (v, _) in end_to_end(passes, raw_setup_s, "raw_latencies").items()}

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    same_outcomes = len({p["fingerprint"] for p in passes}) == 1
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "commit": git_commit(),
        "passes": len(passes),
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "pass_raw_wall_s": [round(p["raw_wall_s"], 4) for p in passes],
        "raw_metrics": raw,
        "pass_slice_ms": [round(p["slice_ms"], 4) for p in passes],
        "ops_per_pass": passes[0]["attempted"],
        "failed_frac": failed / attempted,
        "same_outcomes_across_passes": same_outcomes,
        "counts_agree": counts_agree,
        "details": passes[0]["details"],
    }
    print(json.dumps({"info": info}))
    correct = failed == 0 and same_outcomes and counts_agree
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
