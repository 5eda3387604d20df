#!/usr/bin/env python3
"""Fig 2 end-to-end: all seven Table 1 phones across the three apps.

Reproduces the paper's opening measurement: Web browsing collapses on
low-end hardware while video streaming barely notices, and telephony
sits in between.

Run:  python examples/device_shootout.py
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
from repro.device import TABLE1_DEVICES
from repro.rtc import CallConfig
from repro.video import VideoSpec


def main() -> None:
    web = WebStudy(WebStudyConfig(n_pages=5, trials=1))
    video = VideoStudy(VideoStudyConfig(clip=VideoSpec(duration_s=45),
                                        trials=1))
    rtc = RtcStudy(RtcStudyConfig(call=CallConfig(call_duration_s=10),
                                  trials=1))

    web_rows, video_rows, rtc_rows = (
        {p.label: p for p in study.sweep("devices")}
        for study in (web, video, rtc))

    rows = []
    for spec in TABLE1_DEVICES:
        rows.append([
            spec.name,
            f"${spec.cost_usd}",
            f"{web_rows[spec.name].plt.mean:5.2f}",
            f"{video_rows[spec.name].startup.mean:5.2f}",
            f"{video_rows[spec.name].stall_ratio.mean:5.3f}",
            f"{rtc_rows[spec.name].frame_rate.mean:4.1f}",
        ])
    print(render_table(
        ["Device", "Cost", "PLT (s)", "Video startup (s)",
         "Stall ratio", "Call fps"],
        rows,
    ))
    print(
        "\nTakeaway (paper §2.2): PLT varies ~4-5x across the price range,"
        "\nvideo stalls stay at zero everywhere (hardware decoders +"
        "\nparallel post-processing), and call frame rate degrades"
        "\nmoderately on the cheapest phones."
    )


if __name__ == "__main__":
    main()
