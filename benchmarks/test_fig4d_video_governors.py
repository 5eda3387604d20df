"""Fig 4d: streaming QoE per governor."""

from repro.analysis import render_table
from repro.core.studies import VideoStudy, VideoStudyConfig
from repro.video import VideoSpec


def run_fig4d():
    study = VideoStudy(VideoStudyConfig(clip=VideoSpec(duration_s=60),
                                        trials=1))
    return study.sweep("governor")


def test_fig4d(benchmark, fig_printer):
    points = benchmark.pedantic(run_fig4d, rounds=1, iterations=1)
    table = render_table(
        ["Governor", "Startup (s)", "Stall ratio"],
        [[p.label, f"{p.startup.mean:.2f}", f"{p.stall_ratio.mean:.3f}"]
         for p in points],
    )
    fig_printer("Fig 4d: YouTube vs governor (Nexus4)", table)
    by_code = {p.label: p for p in points}
    assert by_code["PW"].startup.mean > 1.25 * by_code["PF"].startup.mean
    assert all(p.stall_ratio.mean < 0.03 for p in points)
