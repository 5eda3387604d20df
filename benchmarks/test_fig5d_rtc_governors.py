"""Fig 5d: telephony QoE per governor."""

from repro.analysis import render_table
from repro.core.studies import RtcStudy, RtcStudyConfig
from repro.rtc import CallConfig


def run_fig5d():
    study = RtcStudy(RtcStudyConfig(call=CallConfig(call_duration_s=10),
                                    trials=1))
    return study.sweep("governor")


def test_fig5d(benchmark, fig_printer):
    points = benchmark.pedantic(run_fig5d, rounds=1, iterations=1)
    table = render_table(
        ["Governor", "Setup delay (s)", "Frame rate (fps)"],
        [[p.label, f"{p.setup_delay.mean:.1f}", f"{p.frame_rate.mean:.1f}"]
         for p in points],
    )
    fig_printer("Fig 5d: Skype vs governor (Nexus4)", table)
    by_code = {p.label: p for p in points}
    assert by_code["PW"].setup_delay.mean > 1.25 * by_code["PF"].setup_delay.mean
    assert by_code["PW"].frame_rate.mean <= by_code["PF"].frame_rate.mean + 0.5
    for code in ("IN", "OD", "US"):
        assert by_code[code].setup_delay.mean < 1.35 * by_code["PF"].setup_delay.mean
