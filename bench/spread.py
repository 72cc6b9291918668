"""Spread of the end-to-end metrics over a set of saved runs.

    python3 bench/spread.py .bench_run/results/search-certify-seed*-trace0.json

For each metric: the median of the runs and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of that median, the figure BENCHMARK.json's bounds are held to.
"""

from __future__ import annotations

import json
import sys
from statistics import median, quantiles


def main(paths: list[str]) -> int:
    runs = [json.loads(open(p).read()) for p in paths]
    if len(runs) < 2:
        print("need at least two result files", file=sys.stderr)
        return 2
    print(f"{len(runs)} runs; all correct: {all(r['correct'] for r in runs)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = quantiles(values, n=4)
        mid = median(values)
        spread = (q3 - q1) / mid if mid else float("nan")
        print(f"{name:20s} median {mid:12.6g}  spread {spread:.4f}  "
              f"min {min(values):.6g}  max {max(values):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
