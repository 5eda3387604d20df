"""Fig 4a: streaming start-up/stall ratio across the Nexus4 ladder."""

from repro.analysis import render_table
from repro.core.studies import VideoStudy, VideoStudyConfig
from repro.video import VideoSpec


def run_fig4a():
    study = VideoStudy(VideoStudyConfig(clip=VideoSpec(duration_s=60),
                                        trials=1))
    return study.sweep("clock")


def test_fig4a(benchmark, fig_printer):
    points = benchmark.pedantic(run_fig4a, rounds=1, iterations=1)
    table = render_table(
        ["Clock (MHz)", "Startup (s)", "Stall ratio"],
        [[p.label, f"{p.startup.mean:.2f}", f"{p.stall_ratio.mean:.3f}"]
         for p in points],
    )
    fig_printer("Fig 4a: YouTube vs clock frequency (Nexus4)", table)
    by_clock = {p.label: p for p in points}
    # Paper: startup ~3× over the ladder; stall ratio pinned at ~0.
    assert by_clock[384].startup.mean > 2 * by_clock[1512].startup.mean
    assert all(p.stall_ratio.mean < 0.03 for p in points)
