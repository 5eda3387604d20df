"""Compare two sets of benchmark runs, workload by workload.

    python3 benchmarks/perf/compare.py A.jsonl B.jsonl

Each file holds the runs that ``run.py --json`` appended; traced runs
are ignored.  For every workload and end-to-end metric of
``BENCHMARK.json`` it prints each set's median and quartiles, the ratio
of the medians (B over A) and a verdict:

* ``worse``: B's median is worse than A's by more than the metric's bound;
* ``unresolved``: in one of the sets the distance between the quartiles
  is wider than the bound (as a share of the median), and not every run
  of B is better than every run of A;
* ``within-bound``: otherwise;
* ``missing``: a run of either set does not report the metric.

A ``failed_frac`` row per workload compares failed over attempted
operations; any increase is ``worse``.  Exit status 1 when a row is
worse or a run of B failed its output checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path: str) -> Dict[str, List[dict]]:
    """Untraced runs of one set, by workload."""
    runs: Dict[str, List[dict]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            if not record.get("trace"):
                runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    qa, qb = quartiles(a), quartiles(b)
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
                 for q in (qa, qb))
    sign = 1.0 if better == "lower" else -1.0
    if spread > bound:
        b_always_better = all(sign * (y - x) < 0 for y in b for x in a)
        return "within-bound" if b_always_better else "unresolved"
    worse_by = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    return "worse" if worse_by > bound else "within-bound"


def _fmt(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def compare(a_runs: Dict[str, List[dict]], b_runs: Dict[str, List[dict]],
            metrics: List[dict]) -> List[List[str]]:
    rows = []
    for workload in sorted(set(a_runs) & set(b_runs)):
        a, b = a_runs[workload], b_runs[workload]
        for metric in metrics:
            name = metric["name"]
            if not all(name in run["metrics"] for run in a + b):
                # Runs recorded under another BENCHMARK.json.
                rows.append([workload, name, "", "", "", "missing"])
                continue
            av = [run["metrics"][name]["value"] for run in a]
            bv = [run["metrics"][name]["value"] for run in b]
            qa, qb = quartiles(av), quartiles(bv)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            rows.append([workload, name, _fmt(qa), _fmt(qb), f"{ratio:.3f}",
                         verdict(av, bv, metric["better"], metric["bound"])])
        fa = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        fb = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        rows.append([workload, "failed_frac", f"{fa:.4g}", f"{fb:.4g}", "",
                     "worse" if fb > fa else "within-bound"])
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/perf/compare.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="runs of the base (JSON lines)")
    parser.add_argument("b", help="runs of the change (JSON lines)")
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    metrics = benchmark["end_to_end"]
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    for workload in sorted(set(a_runs) ^ set(b_runs)):
        print(f"note: {workload} is in only one set; not compared")
    header = ["workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
              "B/A", "verdict"]
    rows = compare(a_runs, b_runs, metrics)
    widths = [max(len(row[i]) for row in [header] + rows)
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    for workload, runs in sorted(a_runs.items()):
        print(f"A {workload}: {len(runs)} runs, seeds "
              f"{sorted(run['seed'] for run in runs)}")
    for workload, runs in sorted(b_runs.items()):
        print(f"B {workload}: {len(runs)} runs, seeds "
              f"{sorted(run['seed'] for run in runs)}")
    incorrect = [f"{w} seed {r['seed']}" for w, runs in sorted(b_runs.items())
                 for r in runs if not r["correct"]]
    for label in incorrect:
        print(f"error: B run {label} failed its output checks")
    worse = any(row[-1] == "worse" for row in rows)
    return 1 if worse or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
