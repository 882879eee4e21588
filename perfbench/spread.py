"""Median and quartile spread of benchmark results across runs.

    python3 perfbench/spread.py LOG [LOG ...]

Each LOG holds the standard output of one ``run.py`` invocation; its last
line is the result JSON.  For every metric, prints the number of runs, the
median, and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, which is
the spread ``BENCHMARK.json``'s bounds are set against.
"""

from __future__ import annotations

import json
import statistics
import sys


def main(paths: list[str]) -> int:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = attempted = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            result = json.loads(fh.read().strip().splitlines()[-1])
        failed += result["failed"]
        attempted += result["attempted"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / med:.3f}" if med else "n/a"
        else:
            spread = "n/a"
        print(f"{name:38s} n={len(vals):2d} median {med:14.4f} {units[name]:6s} "
              f"spread {spread}")
    print(f"failed {failed} of {attempted} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
