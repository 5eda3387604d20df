"""Fig 5c: telephony QoE vs core count."""

from repro.analysis import render_table
from repro.core.studies import RtcStudy, RtcStudyConfig
from repro.rtc import CallConfig


def run_fig5c():
    study = RtcStudy(RtcStudyConfig(call=CallConfig(call_duration_s=10),
                                    trials=1))
    return study.sweep("cores", values=(1, 2, 3, 4))


def test_fig5c(benchmark, fig_printer):
    points = benchmark.pedantic(run_fig5c, rounds=1, iterations=1)
    table = render_table(
        ["Cores", "Setup delay (s)", "Frame rate (fps)"],
        [[p.label, f"{p.setup_delay.mean:.1f}", f"{p.frame_rate.mean:.1f}"]
         for p in points],
    )
    fig_printer("Fig 5c: Skype vs number of cores (Nexus4)", table)
    by_cores = {p.label: p for p in points}
    # The media pipeline parallelizes: one core costs frames, two suffice.
    assert by_cores[1].frame_rate.mean < 0.7 * by_cores[4].frame_rate.mean
    assert by_cores[2].frame_rate.mean > 0.85 * by_cores[4].frame_rate.mean
