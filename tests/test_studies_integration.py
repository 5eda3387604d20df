"""Integration tests: the paper's headline results at reduced scale.

Each test runs a study end-to-end (simulation kernel → device → network →
application → analysis) and asserts the *shape* of the corresponding
paper figure.
"""

import pytest

from repro.core.studies import (
    OffloadStudy,
    OffloadStudyConfig,
    RtcStudy,
    RtcStudyConfig,
    VideoStudy,
    VideoStudyConfig,
    WebStudy,
    WebStudyConfig,
    evolution_timeline,
    throughput_vs_clock,
)
from repro.analysis.stats import median
from repro.device import NEXUS4, by_name
from repro.rtc import CallConfig
from repro.video import VideoSpec


@pytest.fixture(scope="module")
def web_study():
    return WebStudy(WebStudyConfig(n_pages=5, trials=2))


@pytest.fixture(scope="module")
def video_study():
    return VideoStudy(VideoStudyConfig(clip=VideoSpec(duration_s=60), trials=1))


@pytest.fixture(scope="module")
def rtc_study():
    return RtcStudy(RtcStudyConfig(call=CallConfig(call_duration_s=10), trials=1))


# -- Fig 2 ---------------------------------------------------------------


def test_fig2a_device_spread(web_study):
    rows = web_study.sweep(
        "devices", values=[by_name("Intex Amaze+"), by_name("Google Pixel2")]
    )
    intex, pixel = rows[0].plt, rows[1].plt
    assert 3.0 < intex.mean / pixel.mean < 6.0
    assert intex.stdev > pixel.stdev  # bigger error bars on the low end


def test_fig2b_video_devices(video_study):
    points = video_study.sweep(
        "devices", values=[by_name("Intex Amaze+"), by_name("Google Pixel2")]
    )
    intex, pixel = points
    assert intex.startup.mean > 2 * pixel.startup.mean
    assert intex.stall_ratio.mean < 0.03
    assert pixel.stall_ratio.mean < 0.03


def test_fig2c_rtc_devices(rtc_study):
    points = rtc_study.sweep(
        "devices", values=[by_name("Intex Amaze+"), by_name("Google Pixel2")]
    )
    intex, pixel = points
    assert pixel.frame_rate.mean == pytest.approx(30, abs=2)
    assert 15 < intex.frame_rate.mean < 23


# -- Fig 3 ----------------------------------------------------------------


def test_fig3a_web_clock_sweep(web_study):
    points = web_study.sweep("clock", values=(384, 810, 1512))
    plts = {p.label: p.plt.mean for p in points}
    assert 2.5 < plts[384] / plts[1512] < 5.0
    nets = {p.label: p.network_time.mean for p in points}
    assert nets[384] > 1.3 * nets[1512]
    shares = [p.scripting_share for p in points]
    assert all(0.35 < s < 0.75 for s in shares)
    lp = [p.layout_paint_share for p in points]
    assert all(0.01 < s < 0.10 for s in lp)


def test_fig3b_memory(web_study):
    rows = {p.label: p.plt for p in web_study.sweep("memory",
                                                     values=(0.5, 2.0))}
    assert 1.4 < rows[0.5].mean / rows[2.0].mean < 3.0


def test_fig3c_cores(web_study):
    rows = {p.label: p.plt for p in web_study.sweep("cores",
                                                     values=(1, 2, 4))}
    assert rows[2].mean < 1.3 * rows[4].mean  # beyond 2 cores: no gain
    assert rows[1].mean > 1.1 * rows[4].mean


def test_fig3d_governors(web_study):
    rows = {p.label: p.plt for p in web_study.sweep("governor")}
    assert rows["PW"].mean > 1.3 * rows["PF"].mean
    assert rows["OD"].mean < 1.3 * rows["PF"].mean
    assert rows["IN"].mean < 1.3 * rows["PF"].mean


def test_sec31_categories_sensitivity(web_study):
    sensitivity = web_study.category_clock_sensitivity()
    assert sensitivity["news"] > sensitivity["business"]
    assert sensitivity["sports"] > sensitivity["health"]


# -- Fig 4 / Fig 5 -----------------------------------------------------------


def test_fig4a_video_clock(video_study):
    points = video_study.sweep("clock", values=(384, 1512))
    low, high = points[0], points[1]
    assert low.startup.mean > 1.8 * high.startup.mean
    assert low.stall_ratio.mean < 0.03  # zero stalls at low clock


def test_fig4c_video_cores(video_study):
    points = video_study.sweep("cores", values=(1, 4))
    one, four = points
    assert one.stall_ratio.mean > 0.08
    assert four.stall_ratio.mean < 0.02
    assert one.startup.mean > four.startup.mean + 2.0


def test_fig5a_rtc_clock(rtc_study):
    points = rtc_study.sweep("clock", values=(384, 1512))
    low, high = points
    assert high.frame_rate.mean == pytest.approx(30, abs=2)
    assert 14 < low.frame_rate.mean < 22
    assert low.setup_delay.mean - high.setup_delay.mean > 10


def test_fig5c_rtc_cores(rtc_study):
    points = rtc_study.sweep("cores", values=(1, 4))
    one, four = points
    assert one.frame_rate.mean < 0.7 * four.frame_rate.mean


# -- Fig 6 / Fig 7 / Fig 1 ---------------------------------------------------


def test_fig6_throughput():
    points = throughput_vs_clock(ladder=(384, 594, 1512), duration_s=5.0)
    by_clock = {p.clock_mhz: p.throughput_mbps for p in points}
    assert by_clock[384] == pytest.approx(32, abs=3)
    assert by_clock[1512] == pytest.approx(48, abs=3)
    assert by_clock[594] >= by_clock[384]


def test_fig7a_offload_wins():
    study = OffloadStudy(OffloadStudyConfig(n_pages=3, trials=1))
    comparison = study.compare_default_governor()
    assert 0.05 < comparison.eplt_improvement < 0.30
    assert comparison.dsp_scripting.mean < comparison.cpu_scripting.mean


def test_fig7b_power_ratio():
    study = OffloadStudy(OffloadStudyConfig(n_pages=3, trials=1))
    cpu_samples, dsp_samples = study.power_distributions()
    assert cpu_samples and dsp_samples
    ratio = median(cpu_samples) / median(dsp_samples)
    assert 2.5 < ratio < 6.0


def test_fig7c_win_grows_at_low_clock():
    study = OffloadStudy(OffloadStudyConfig(n_pages=3, trials=1))
    points = study.eplt_vs_clock(clocks_mhz=(300, 883))
    low, high = points
    assert low.improvement > high.improvement
    assert 0.15 < low.improvement < 0.40


def test_fig1_plt_grows_despite_hardware():
    points = evolution_timeline(n_pages=2)
    early = sum(p.plt.mean for p in points[:2]) / 2
    late = sum(p.plt.mean for p in points[-2:]) / 2
    assert late > 2.0 * early
    assert points[-1].clock_ghz > 2 * points[0].clock_ghz
    assert points[-1].cores > points[0].cores
