"""Fig 4c: streaming QoE vs core count — the one case video stalls."""

from repro.analysis import render_table
from repro.core.studies import VideoStudy, VideoStudyConfig
from repro.video import VideoSpec


def run_fig4c():
    study = VideoStudy(VideoStudyConfig(clip=VideoSpec(duration_s=60),
                                        trials=1))
    return study.sweep("cores", values=(1, 2, 3, 4))


def test_fig4c(benchmark, fig_printer):
    points = benchmark.pedantic(run_fig4c, rounds=1, iterations=1)
    table = render_table(
        ["Cores", "Startup (s)", "Stall ratio"],
        [[p.label, f"{p.startup.mean:.2f}", f"{p.stall_ratio.mean:.3f}"]
         for p in points],
    )
    fig_printer("Fig 4c: YouTube vs number of cores (Nexus4)", table)
    by_cores = {p.label: p for p in points}
    # Paper: single core → ~+4 s startup and ~15 % stall ratio.
    assert by_cores[1].startup.mean > by_cores[4].startup.mean + 2.0
    assert 0.08 < by_cores[1].stall_ratio.mean < 0.30
    assert all(by_cores[n].stall_ratio.mean < 0.03 for n in (2, 3, 4))
