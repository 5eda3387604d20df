"""Fig 5a: telephony setup delay and frame rate across the Nexus4 ladder."""

from repro.analysis import render_table
from repro.core.studies import RtcStudy, RtcStudyConfig
from repro.rtc import CallConfig


def run_fig5a():
    study = RtcStudy(RtcStudyConfig(call=CallConfig(call_duration_s=10),
                                    trials=1))
    return study.sweep("clock")


def test_fig5a(benchmark, fig_printer):
    points = benchmark.pedantic(run_fig5a, rounds=1, iterations=1)
    table = render_table(
        ["Clock (MHz)", "Setup delay (s)", "Frame rate (fps)"],
        [[p.label, f"{p.setup_delay.mean:.1f}", f"{p.frame_rate.mean:.1f}"]
         for p in points],
    )
    fig_printer("Fig 5a: Skype vs clock frequency (Nexus4)", table)
    by_clock = {p.label: p for p in points}
    low, high = by_clock[384], by_clock[1512]
    # Paper: ~18 s more setup at 384 MHz; 30 → 17 fps.
    assert 12 < low.setup_delay.mean - high.setup_delay.mean < 24
    assert high.frame_rate.mean > 28
    assert 14 < low.frame_rate.mean < 21
    # Setup delay declines monotonically with the clock.
    setups = [p.setup_delay.mean for p in points]
    assert all(a >= b * 0.98 for a, b in zip(setups, setups[1:]))
