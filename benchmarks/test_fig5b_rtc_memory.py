"""Fig 5b: telephony QoE vs memory capacity (mild effect)."""

from repro.analysis import render_table
from repro.core.studies import RtcStudy, RtcStudyConfig
from repro.rtc import CallConfig


def run_fig5b():
    study = RtcStudy(RtcStudyConfig(call=CallConfig(call_duration_s=10),
                                    trials=1))
    return study.sweep("memory", values=(0.5, 1.0, 1.5, 2.0))


def test_fig5b(benchmark, fig_printer):
    points = benchmark.pedantic(run_fig5b, rounds=1, iterations=1)
    table = render_table(
        ["Memory (GB)", "Setup delay (s)", "Frame rate (fps)"],
        [[p.label, f"{p.setup_delay.mean:.1f}", f"{p.frame_rate.mean:.1f}"]
         for p in points],
    )
    fig_printer("Fig 5b: Skype vs memory (Nexus4)", table)
    by_gb = {p.label: p for p in points}
    # Memory matters less than the clock: frame rate holds up.
    assert by_gb[0.5].frame_rate.mean > 0.6 * by_gb[2.0].frame_rate.mean
    assert by_gb[0.5].setup_delay.mean >= by_gb[2.0].setup_delay.mean * 0.95
