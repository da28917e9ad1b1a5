"""Run the benchmark over many seeds and report how steady it is.

    python3 perfbench/spread.py run WORKLOAD OUT.jsonl SEED...
    python3 perfbench/spread.py report OUT.jsonl...

``run`` appends one line per seed to OUT.jsonl: the result object and
the info line of ``run.py --trace 0 --seconds 15``.  ``report`` prints,
per workload and end-to-end metric, the median over the runs and the
quartile spread (third minus first quartile over the median), both in
reference seconds and in raw seconds.  It also fits the sensitivity
speed.py stands for: the slope of log raw pass time against log median
calibration-slice time, over the passes within each run, whose input is
the same; and the same slope between runs, over their mean logs.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 15


def run(workload: str, out: str, seeds) -> None:
    with open(out, "a") as f:
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", seed,
                 "--seconds", str(SECONDS), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or len(lines) < 2:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"error: seed {seed} exited with {done.returncode}")
            result, info = json.loads(lines[-1]), json.loads(lines[-2])["info"]
            f.write(json.dumps({"result": result, "info": info}) + "\n")
            print(seed, result["correct"], info["passes"], info["pass_raw_wall_s"], flush=True)


def quartile_spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def slopes(infos) -> tuple:
    """Within-run and between-run log-log slopes of pass time on slice time."""
    xs, ys, run_x, run_y = [], [], [], []
    for info in infos:
        x = [math.log(v) for v in info["pass_slice_ms"]]
        y = [math.log(v) for v in info["pass_raw_wall_s"]]
        mx, my = statistics.fmean(x), statistics.fmean(y)
        xs += [v - mx for v in x]
        ys += [v - my for v in y]
        run_x.append(mx)
        run_y.append(my)
    within = sum(a * b for a, b in zip(xs, ys)) / sum(a * a for a in xs)
    return within, statistics.linear_regression(run_x, run_y).slope


def report(paths) -> None:
    runs = defaultdict(list)
    for path in paths:
        for line in open(path):
            row = json.loads(line)
            runs[row["info"]["workload"]].append(row)
    for workload, rows in runs.items():
        within, between = slopes([r["info"] for r in rows])
        print(f"{workload}: {len(rows)} runs, sensitivity within runs {within:.2f}, "
              f"between runs {between:.2f}")
        for name in rows[0]["result"]["metrics"]:
            ref = [r["result"]["metrics"][name]["value"] for r in rows]
            raw = [r["info"]["raw_metrics"][name] for r in rows]
            print(f"  {name:13s} median {statistics.median(ref):11.4f} "
                  f"spread {quartile_spread(ref):6.1%}   raw median "
                  f"{statistics.median(raw):11.4f} spread {quartile_spread(raw):6.1%}")


def main(argv) -> int:
    if len(argv) >= 4 and argv[0] == "run":
        run(argv[1], argv[2], argv[3:])
    elif len(argv) >= 2 and argv[0] == "report":
        report(argv[1:])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
