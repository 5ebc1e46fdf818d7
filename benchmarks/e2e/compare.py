"""Apply the bounds of BENCHMARK.json to two sets of benchmark runs.

    python3 benchmarks/e2e/compare.py A B

``A`` (the parent, or the first run set) and ``B`` (the change, or the
second run set) are result files written by ``run.py``, or directories of
them; several runs of one workload are summarised by their median.  One row
per (workload, end-to-end metric):

* ``regression`` -- B's median is worse than A's by more than the metric's
  bound (and by more than the run-to-run spread); also when B fails
  requests that A answered;
* ``unresolved`` -- the run-to-run spread (interquartile range over median,
  of either side) or, for a timing, the in-run noise (``noise_ratio - 1``)
  exceeds the bound, so the pair cannot be called unchanged;
* ``ok`` otherwise.

Run length is fixed by the benchmark and must be the same on both sides:
runs that took different sample sizes (``--seconds``, episodes, bring-ups,
requests per episode) are refused.  Run the two sides alternately, so that
slow phases of the machine fall on both.  Exits non-zero when any row is a
regression.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional

from run import load_contract

#: units of the metrics that in-run timing noise can move
TIMING_UNITS = ("ms", "s", "1/s")

#: ``hygiene`` entries that fix how many samples a run took
SIZE_KEYS = ("seconds", "scale", "episodes", "bring_ups", "requests_per_episode")


def load_runs(path: str) -> List[dict]:
    """Untraced run records of a result file or a directory of them."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs: List[dict] = []
    for name in files:
        with open(name, encoding="utf-8") as handle:
            document = json.load(handle)
        if isinstance(document, dict):  # span dumps are lists
            runs.extend(r for r in document.get("runs", ()) if not r["trace"])
    return runs


def spread(values: List[float]) -> Optional[float]:
    """Interquartile range as a share of the median (None below two runs)."""
    if len(values) < 2:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def compare(contract: dict, runs_a: List[dict], runs_b: List[dict]) -> List[dict]:
    by_workload: Dict[str, List[List[dict]]] = defaultdict(lambda: [[], []])
    for side, runs in enumerate((runs_a, runs_b)):
        for run in runs:
            by_workload[run["workload"]][side].append(run)
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        side_a, side_b = by_workload[workload]
        if not side_a or not side_b:
            continue
        sizes = {tuple(r["hygiene"][key] for key in SIZE_KEYS) for r in side_a + side_b}
        if len(sizes) > 1:
            raise ValueError(
                f"{workload}: runs differ in {SIZE_KEYS}: {sorted(sizes)}; "
                "compare runs of the same length only"
            )
        noise = max(statistics.median(r["noise_ratio"] for r in side) for side in (side_a, side_b)) - 1.0
        failed = [statistics.median(r["result"]["failed"] for r in side) for side in (side_a, side_b)]
        rows.append(
            {
                "workload": workload,
                "metric": "failed",
                "a": failed[0],
                "b": failed[1],
                "verdict": "regression" if failed[1] > failed[0] else "ok",
            }
        )
        for entry in contract["end_to_end"]:
            values = [
                [r["result"]["metrics"][entry["name"]]["value"] for r in side]
                for side in (side_a, side_b)
            ]
            a, b = (statistics.median(v) for v in values)
            worse = (b - a) / a if entry["better"] == "lower" else (a - b) / a
            spreads = [s for s in map(spread, values) if s is not None]
            widest = max(spreads) if spreads else None
            bound = entry["bound"]
            noisy = noise > bound and entry["unit"] in TIMING_UNITS
            if worse > bound and (widest is None or worse > widest):
                verdict = "regression"
            elif worse > bound or noisy or (widest is not None and widest > bound):
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": entry["name"],
                    "unit": entry["unit"],
                    "a": a,
                    "b": b,
                    "worse": worse,
                    "spread": widest,
                    "noise": noise,
                    "bound": bound,
                    "verdict": verdict,
                }
            )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    try:
        rows = compare(load_contract(), load_runs(argv[0]), load_runs(argv[1]))
    except ValueError as exc:
        print(exc)
        return 2
    if not rows:
        print("no workload has runs on both sides")
        return 2
    print(
        f"{'workload':16s} {'metric':24s} {'A':>12s} {'B':>12s} {'worse':>8s} "
        f"{'spread':>8s} {'bound':>6s}  verdict"
    )
    for row in rows:
        if "bound" not in row:
            print(
                f"{row['workload']:16s} {row['metric']:24s} {row['a']:12g} {row['b']:12g} "
                f"{'':>8s} {'':>8s} {'':>6s}  {row['verdict']}"
            )
            continue
        shown = "n/a" if row["spread"] is None else f"{row['spread']:.1%}"
        print(
            f"{row['workload']:16s} {row['metric']:24s} {row['a']:12.4f} {row['b']:12.4f} "
            f"{row['worse']:+8.1%} {shown:>8s} {row['bound']:6.0%}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
