"""Fig 2b: video-streaming QoE across the seven Table 1 devices."""

from repro.analysis import render_table
from repro.core.studies import VideoStudy, VideoStudyConfig
from repro.video import VideoSpec


def run_fig2b():
    study = VideoStudy(VideoStudyConfig(clip=VideoSpec(duration_s=60),
                                        trials=1))
    return study.sweep("devices")


def test_fig2b(benchmark, fig_printer):
    points = benchmark.pedantic(run_fig2b, rounds=1, iterations=1)
    table = render_table(
        ["Device", "Startup (s)", "Stall ratio"],
        [[p.label, f"{p.startup.mean:.2f} ± {p.startup.stdev:.2f}",
          f"{p.stall_ratio.mean:.3f}"] for p in points],
    )
    fig_printer("Fig 2b: YouTube start-up latency and stall ratio", table)

    by_device = {p.label: p for p in points}
    intex = by_device["Intex Amaze+"]
    pixel2 = by_device["Google Pixel2"]
    # Start-up grows several-fold from high to low end ...
    assert intex.startup.mean > 2.5 * pixel2.startup.mean
    # ... but the stall ratio stays ≈0 on every device (the paper's point).
    assert all(p.stall_ratio.mean < 0.03 for p in points)
