#!/usr/bin/env python3
"""Observability walkthrough: trace one Fig 2a trial, inspect it, export it.

Three short demos of ``repro.obs`` on the very sessions Fig 2a measures:

1. a traced trial of ``fig2a:Google Nexus4`` — one session per corpus
   page, spans per subsystem, one merged metrics snapshot;
2. the replay contract — the same trial exports byte-identical JSON;
3. a page's critical path rebuilt from its session's trace alone.

Run:  python examples/trace_web_study.py
Then open trace_web_study.json in https://ui.perfetto.dev
"""

from repro.analysis.critpath import extract_critical_path
from repro.core.tracing import run_traced_trial
from repro.obs import chrome_trace_json, text_summary, write_chrome_trace

OUT = "trace_web_study.json"
EXPERIMENT = "fig2a:Google Nexus4"


def main() -> None:
    # -- 1. one traced trial, summarized ----------------------------------
    traced = run_traced_trial(EXPERIMENT, 7)
    print(text_summary(traced.tracers, traced.metrics))
    print(f"\n{len(traced.tracers)} sessions; PLT per page (s): "
          + ", ".join(f"{load.plt:.2f}" for load in traced.result))
    write_chrome_trace(traced.tracers, OUT)
    print(f"[wrote {OUT} — open it in https://ui.perfetto.dev]")

    # -- 2. traces are part of the replay contract ------------------------
    again = run_traced_trial(EXPERIMENT, 7)
    first_json, again_json = (chrome_trace_json(run.tracers)
                              for run in (traced, again))
    print("\nSame trial exports byte-identical trace JSON:",
          first_json == again_json)

    # -- 3. the critical path, rebuilt from the trace alone ---------------
    first = traced.result[0]
    from_trace = extract_critical_path([], plt=first.plt,
                                       trace=traced.tracers[0].spans)
    print(f"\nCritical path of page 0 from trace spans only: "
          f"{len(from_trace.activities)} activities, "
          f"compute {from_trace.compute_time:.2f} s / "
          f"network {from_trace.network_time:.2f} s "
          f"(records: {first.compute_time:.2f} s / "
          f"{first.network_time:.2f} s)")
    print("Kind breakdown:")
    for kind, seconds in sorted(from_trace.kind_breakdown.items()):
        print(f"  {kind:>14}: {seconds:.3f} s")


if __name__ == "__main__":
    main()
