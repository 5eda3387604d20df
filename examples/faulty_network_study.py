#!/usr/bin/env python3
"""Fault injection walkthrough: degrade the testbed, survive the damage.

Three escalating demos of ``repro.faults`` + ``RobustTrialRunner``:

1. one faulted page load, with the replayable fault trace it produced;
2. a web-PLT sweep over Gilbert–Elliott burst loss on a congested link;
3. the same sweep with injected crashes — the summary degrades
   gracefully (``[N failed]``) instead of losing the study.

Run:  python examples/faulty_network_study.py
"""

from repro.analysis import render_table
from repro.core.session import simulate
from repro.core.studies import FaultStudy, FaultStudyConfig
from repro.device import NEXUS4
from repro.faults import BurstLossSpec, FaultPlan, ThermalThrottleSpec
from repro.video import VideoSpec
from repro.web import BrowserEngine


def main() -> None:
    config = FaultStudyConfig(n_pages=2, trials=3,
                              clip=VideoSpec(duration_s=20.0))
    study = FaultStudy(config)

    # -- 1. one faulted load and its trace --------------------------------
    plan = FaultPlan((
        BurstLossSpec(p_bad=0.4, mean_good_s=2.0, mean_bad_s=1.0),
        ThermalThrottleSpec(schedule=((1.0, 0.5),)),
    ))
    print(f"Plan: {plan.describe()}")

    def faulted_load(seed: int) -> float:
        return simulate(NEXUS4, config.link, seed,
                        lambda env, device, link: BrowserEngine(
                            env, device, link).load(study.corpus[0]),
                        faults=plan, governor="OD").plt

    plt = faulted_load(seed=1234)
    print(f"One faulted page load on Nexus4: PLT = {plt:.2f} s")
    print("Same seed replays bit-identically:", faulted_load(seed=1234) == plt)

    # -- 2. PLT vs burst loss ---------------------------------------------
    print("\nWeb PLT vs GE burst loss (3 Mbps congested link):\n")
    points = study.plt_vs_burst_loss(p_bads=(0.0, 0.3, 0.6))
    print(render_table(
        ["condition", "PLT (s)", "std", "n", "failed"],
        [[p.label, f"{p.metric.mean:.2f}", f"{p.metric.stdev:.2f}",
          p.metric.n, p.metric.failures] for p in points],
    ))

    # -- 3. graceful degradation under injected crashes -------------------
    crashy = FaultStudy(FaultStudyConfig(
        n_pages=2, trials=6, clip=VideoSpec(duration_s=20.0),
        crash_probability=0.5, max_attempts=1,
    ))
    print("\nSame sweep point with a 50% injected crash rate per trial:\n")
    (point,) = crashy.plt_vs_burst_loss(p_bads=(0.3,))
    print(f"  {point.label}: {point.metric}")
    print(f"  failure taxonomy: {point.report.failure_counts()}")
    print("\nThe figure renders from the trials that succeeded; the "
          "losses stay visible.")


if __name__ == "__main__":
    main()
