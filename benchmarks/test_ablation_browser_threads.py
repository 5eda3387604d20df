"""Ablation: thread-level parallelism, browser vs video pipeline.

The same 4→2→1 core sweep barely moves the browser (its main thread is
the bottleneck) but cripples the video pipeline — the paper's central
architectural contrast (Takeaways 1 and 2).
"""

from repro.analysis import render_table
from repro.core.studies import (
    VideoStudy,
    VideoStudyConfig,
    WebStudy,
    WebStudyConfig,
)
from repro.video import VideoSpec


def run_ablation():
    web = WebStudy(WebStudyConfig(n_pages=4, trials=1))
    video = VideoStudy(VideoStudyConfig(clip=VideoSpec(duration_s=45),
                                        trials=1))
    web_rows = {p.label: p.plt for p in web.sweep("cores", values=(1, 2, 4))}
    video_rows = {p.label: p for p in video.sweep("cores", values=(1, 2, 4))}
    return web_rows, video_rows


def test_ablation_browser_threads(benchmark, fig_printer):
    web_rows, video_rows = benchmark.pedantic(run_ablation, rounds=1,
                                              iterations=1)
    table = render_table(
        ["Cores", "Web PLT (s)", "Video startup (s)", "Video stall"],
        [[n, f"{web_rows[n].mean:.2f}",
          f"{video_rows[n].startup.mean:.2f}",
          f"{video_rows[n].stall_ratio.mean:.3f}"] for n in (1, 2, 4)],
    )
    fig_printer("Ablation: core scaling, browser vs video pipeline", table)
    web_gain_2_to_4 = web_rows[2].mean / web_rows[4].mean
    video_gain_1_to_4 = (video_rows[1].startup.mean
                         / video_rows[4].startup.mean)
    # The browser gains almost nothing beyond two cores ...
    assert web_gain_2_to_4 < 1.3
    # ... while the parallel video pipeline gains a lot from more cores.
    assert video_gain_1_to_4 > 1.8
