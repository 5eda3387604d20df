"""Fig 2c: Skype frame rate across the seven Table 1 devices."""

from repro.analysis import ascii_bars
from repro.core.studies import RtcStudy, RtcStudyConfig
from repro.rtc import CallConfig


def run_fig2c():
    study = RtcStudy(RtcStudyConfig(call=CallConfig(call_duration_s=10),
                                    trials=1))
    return study.sweep("devices")


def test_fig2c(benchmark, fig_printer):
    points = benchmark.pedantic(run_fig2c, rounds=1, iterations=1)
    body = ascii_bars([str(p.label) for p in points],
                      [p.frame_rate.mean for p in points], unit=" fps")
    fig_printer("Fig 2c: Skype frame rate across devices", body)

    by_device = {p.label: p for p in points}
    # Paper: 30 fps on the high end dropping to ~18 fps on the Intex.
    assert by_device["Google Pixel2"].frame_rate.mean > 27
    assert 14 < by_device["Intex Amaze+"].frame_rate.mean < 23
    rates = [p.frame_rate.mean for p in points]
    assert max(rates) - min(rates) > 7
