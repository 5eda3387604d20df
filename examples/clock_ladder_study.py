#!/usr/bin/env python3
"""Figs 3a/4a/5a condensed: one DVFS ladder, three applications.

Pins the Nexus4 at each operating point and measures all three apps,
showing the paper's core asymmetry in a single table: Web PLT scales
almost inversely with the clock, streaming only pays at start-up, and
telephony degrades linearly (packet processing + no prefetch).

Run:  python examples/clock_ladder_study.py
"""

from repro.analysis import render_table
from repro.core.studies import (
    RtcStudy,
    RtcStudyConfig,
    VideoStudy,
    VideoStudyConfig,
    WebStudy,
    WebStudyConfig,
)
from repro.device import NEXUS4_LADDER
from repro.rtc import CallConfig
from repro.video import VideoSpec


def main() -> None:
    ladder = NEXUS4_LADDER[::3] + (NEXUS4_LADDER[-1],)
    web = WebStudy(WebStudyConfig(n_pages=4, trials=1))
    video = VideoStudy(VideoStudyConfig(clip=VideoSpec(duration_s=45),
                                        trials=1))
    rtc = RtcStudy(RtcStudyConfig(call=CallConfig(call_duration_s=8),
                                  trials=1))

    web_points, video_points, rtc_points = (
        {p.label: p for p in study.sweep("clock", values=ladder)}
        for study in (web, video, rtc))

    rows = []
    for mhz in ladder:
        rows.append([
            mhz,
            f"{web_points[mhz].plt.mean:5.2f}",
            f"{web_points[mhz].network_time.mean:4.2f}",
            f"{video_points[mhz].startup.mean:4.2f}",
            f"{video_points[mhz].stall_ratio.mean:5.3f}",
            f"{rtc_points[mhz].setup_delay.mean:5.1f}",
            f"{rtc_points[mhz].frame_rate.mean:4.1f}",
        ])
    print(render_table(
        ["MHz", "PLT (s)", "CP net (s)", "Startup (s)", "Stall",
         "Setup (s)", "fps"],
        rows,
    ))
    low, high = ladder[0], ladder[-1]
    print(f"\nPLT ratio {low}->{high} MHz: "
          f"{web_points[low].plt.mean / web_points[high].plt.mean:.1f}x "
          f"(paper: ~4x)")
    print(f"Stall ratio stays ~0 across the ladder "
          f"(max {max(p.stall_ratio.mean for p in video_points.values()):.3f})")
    print(f"Call setup swing: "
          f"{rtc_points[low].setup_delay.mean - rtc_points[high].setup_delay.mean:.1f} s "
          f"(paper: ~18 s)")


if __name__ == "__main__":
    main()
