"""Fig 3a: Web PLT across the Nexus4 DVFS ladder, with §3.1 breakdown."""

from repro.analysis import render_table
from repro.core.studies import WebStudy, WebStudyConfig


def run_fig3a():
    study = WebStudy(WebStudyConfig(n_pages=5, trials=1))
    return study.sweep("clock")


def test_fig3a(benchmark, fig_printer):
    points = benchmark.pedantic(run_fig3a, rounds=1, iterations=1)
    table = render_table(
        ["Clock (MHz)", "PLT (s)", "CP compute (s)", "CP network (s)",
         "Scripting share", "Layout+paint"],
        [[p.label, f"{p.plt.mean:.2f} ± {p.plt.stdev:.2f}",
          f"{p.compute_time.mean:.2f}", f"{p.network_time.mean:.2f}",
          f"{p.scripting_share:.1%}", f"{p.layout_paint_share:.1%}"]
         for p in points],
    )
    fig_printer("Fig 3a: PLT vs clock frequency (Nexus4)", table)

    by_clock = {p.label: p for p in points}
    low, high = by_clock[384], by_clock[1512]
    # Paper: 4× PLT over the ladder (we accept ≥2.8×).
    assert low.plt.mean / high.plt.mean > 2.8
    # Compute and network both inflate at the low end (§3.1).
    assert low.compute_time.mean > 3 * high.compute_time.mean
    assert low.network_time.mean > 1.3 * high.network_time.mean
    # PLT falls monotonically (within jitter) as the clock rises.
    plts = [p.plt.mean for p in points]
    assert all(a >= b * 0.97 for a, b in zip(plts, plts[1:]))
    # Scripting dominates compute; layout+paint stay ~4 %.
    assert all(p.scripting_share > 0.35 for p in points)
    assert all(p.layout_paint_share < 0.10 for p in points)
