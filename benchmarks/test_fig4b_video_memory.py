"""Fig 4b: streaming QoE vs memory capacity."""

from repro.analysis import render_table
from repro.core.studies import VideoStudy, VideoStudyConfig
from repro.video import VideoSpec


def run_fig4b():
    study = VideoStudy(VideoStudyConfig(clip=VideoSpec(duration_s=60),
                                        trials=1))
    return study.sweep("memory", values=(0.5, 1.0, 1.5, 2.0))


def test_fig4b(benchmark, fig_printer):
    points = benchmark.pedantic(run_fig4b, rounds=1, iterations=1)
    table = render_table(
        ["Memory (GB)", "Startup (s)", "Stall ratio"],
        [[p.label, f"{p.startup.mean:.2f}", f"{p.stall_ratio.mean:.3f}"]
         for p in points],
    )
    fig_printer("Fig 4b: YouTube vs memory (Nexus4)", table)
    by_gb = {p.label: p for p in points}
    # Startup rises under pressure; zero stalls throughout.
    assert by_gb[0.5].startup.mean > 1.3 * by_gb[2.0].startup.mean
    assert all(p.stall_ratio.mean < 0.03 for p in points)
