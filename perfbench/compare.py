"""Compare two sets of benchmark result rows, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result rows as ``perfbench/run.py`` appends them to
``.perfbench_out/results.jsonl``.  For every workload, and every metric
the ``BENCHMARK.json`` next to this directory bounds, the medians of the
two sets are compared: ``pass`` when the new median is no worse than
the base median by more than the bound, ``fail`` otherwise.  Rows made
on another host (a different fingerprint) are ``not comparable``:
never a pass, never a fail.  Exit status 1 when any metric fails.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_rows(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def compare(base: list[dict], new: list[dict], bounds: dict) -> list[tuple]:
    """``(workload, metric, verdict, base median, new median)`` rows."""
    out = []
    for workload in sorted({r["workload"] for r in base + new}):
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        hosts = {r["host"]["id"] for r in b + n}
        for metric, spec in bounds.items():
            bv = [r["metrics"][metric]["value"] for r in b
                  if metric in r["metrics"]]
            nv = [r["metrics"][metric]["value"] for r in n
                  if metric in r["metrics"]]
            if not bv or not nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            if len(hosts) > 1:
                verdict = "not comparable"
            else:
                worse = (nm - bm if spec["better"] == "lower" else bm - nm)
                verdict = "fail" if worse > spec["bound"] * abs(bm) else "pass"
            out.append((workload, metric, verdict, bm, nm))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bounds = {m["name"]: m for m in
              json.loads(BENCHMARK.read_text())["end_to_end"]}
    rows = compare(load_rows(argv[0]), load_rows(argv[1]), bounds)
    for workload, metric, verdict, bm, nm in rows:
        print(f"{workload:14s} {metric:20s} {bm:>12.6g} {nm:>12.6g} "
              f"{verdict}")
    return int(any(v == "fail" for _, _, v, _, _ in rows))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
