"""Run the end-to-end benchmark; see README.md beside this file.

    python3 benchmarks/perf/run.py --workload fleet-cold --seed 1
    python3 benchmarks/perf/run.py --seed 1 --json runs.jsonl
    python3 benchmarks/perf/run.py --seed 1 --trace
    python3 benchmarks/perf/run.py --update-golden

A runner of ``BENCHMARK.json`` calls ``run.py --workload W --seed S
--seconds T --trace 0|1`` with ``T`` its ``run_seconds``; without
``--seconds`` the same value is read from ``BENCHMARK.json``.

With ``--workload`` one workload runs in this interpreter and the last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or
with ``--trace`` the per-layer ones.  Without ``--workload`` every
workload runs in a fresh interpreter, one after another.  ``--json``
appends each run to a JSON-lines file that ``compare.py`` reads.

Exit status: 0 when every output check passed, 1 when one failed (the
message names the workload and seed), 2 when the repro source tree is
missing.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from typing import List, Optional

import perfharness as h


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/perf/run.py",
        description="End-to-end benchmark of the QoE simulator.")
    parser.add_argument("--workload", choices=h.WORKLOADS, default=None,
                        help="run one workload here (default: each in turn, "
                             "in a fresh interpreter)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1; 2 is held out)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report the per-layer split of a fixed-size "
                             "run (plain and under cProfile)")
    parser.add_argument("--json", metavar="OUT", default=None,
                        help="append each run's result to OUT (JSON lines)")
    parser.add_argument("--update-golden", action="store_true",
                        help="recompute golden.json from this source tree")
    return parser


def run_one(args: argparse.Namespace) -> int:
    if args.trace:
        run, metrics = h.trace(args.workload, args.seed)
    else:
        run, metrics = h.measure(args.workload, args.seed, args.seconds)
    print(f"{run.workload} seed {run.seed}: {run.pass_count()} timed passes, "
          f"{run.attempted} attempted")
    for note in run.notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:.6g} {unit}")
    for problem in run.problems:
        print(f"error: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.json:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, **result}
        with open(args.json, "a", encoding="utf-8") as out:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if not run.problems else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter, one after another."""
    status = 0
    for workload in h.WORKLOADS:
        command: List[str] = [
            sys.executable, __file__, "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
        if args.json:
            command += ["--json", args.json]
        done = subprocess.run(command, cwd=h.ROOT, env=h.child_env(),
                              timeout=600)
        status = max(status, done.returncode)
    return status


def _terminate(signum, frame) -> None:
    # Unwind, so the temporary cache directory is removed and a running
    # child interpreter is killed and waited for.
    sys.exit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)  # simlint: disable=PAR602 -- no pool
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed cannot be negative (got {args.seed})")
    if not (h.REPRO_DIR / "__init__.py").is_file():
        print(f"error: no repro source tree at {h.REPRO_DIR}",
              file=sys.stderr)
        return 2
    h.use_source_tree()
    if args.update_golden:
        golden = h.compute_golden()
        h.GOLDEN_JSON.write_text(json.dumps(golden, indent=1, sort_keys=True)
                                 + "\n", encoding="utf-8")
        print(f"wrote {sum(len(v) for v in golden.values())} digests to "
              f"{h.GOLDEN_JSON}")
        return 0
    if args.seconds is None:
        benchmark = json.loads(h.BENCHMARK_JSON.read_text(encoding="utf-8"))
        args.seconds = float(benchmark["run_seconds"])
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
