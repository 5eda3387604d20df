"""Golden-shape regression suite for the paper's headline figures.

EXPERIMENTS.md records the quantitative claims each figure reproduction
makes (device orderings, slowdown factors, governor penalties).  These
tests pin the *shape* of those claims at reduced scale — few pages, one
trial — so a kernel or study regression that flattens a curve or flips
an ordering fails tier-1 fast, without rerunning the full sweeps.

Absolute values at this scale differ from the EXPERIMENTS.md tables
(those run the paper's full corpus); the orderings and coarse factors
asserted here are scale-invariant, which is what makes them stable
golden shapes rather than brittle snapshots.
"""

from __future__ import annotations

from statistics import median

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
    throughput_vs_clock,
)
from repro.device.catalog import GIONEE_F103, GALAXY_S6_EDGE, INTEX_AMAZE, PIXEL2
from repro.rtc import CallConfig
from repro.video import VideoSpec

#: Four rungs of the Nexus 4 DVFS ladder (Fig 3a's x-axis, thinned).
CLOCK_LADDER = (384, 702, 1026, 1512)


@pytest.fixture(scope="module")
def web_study() -> WebStudy:
    """One shared corpus (one page per category) for the web shape checks."""
    return WebStudy(WebStudyConfig(n_pages=5, trials=1))


@pytest.fixture(scope="module")
def sweep(web_study):
    """``sweep(app, axis, values)`` → points by label, each sweep run once."""
    studies = {
        "web": web_study,
        "video": VideoStudy(VideoStudyConfig(
            clip=VideoSpec(duration_s=20.0), trials=1)),
        "rtc": RtcStudy(RtcStudyConfig(
            call=CallConfig(call_duration_s=10), trials=1)),
    }
    memo: dict = {}

    def run(app, axis, values):
        key = (app, axis, tuple(values))
        if key not in memo:
            memo[key] = {point.label: point for point in
                         studies[app].sweep(axis, values=values)}
        return memo[key]

    return run


# -- Fig 2a: PLT across Table 1 devices -------------------------------------


def test_fig2a_device_ordering(web_study):
    """Low-end loads slower than mid-range, mid-range slower than flagship."""
    by_name = {
        point.label: point.plt.mean
        for point in web_study.sweep(
            "devices", values=(INTEX_AMAZE, GIONEE_F103, PIXEL2))
    }
    assert by_name[INTEX_AMAZE.name] > by_name[GIONEE_F103.name]
    assert by_name[GIONEE_F103.name] > by_name[PIXEL2.name]


def test_fig2a_low_end_factor(web_study):
    """The Intex-to-Pixel2 gap stays severalfold (≈4× at full scale)."""
    results = {point.label: point.plt.mean for point in web_study.sweep(
        "devices", values=(INTEX_AMAZE, PIXEL2))}
    assert results[INTEX_AMAZE.name] >= 3.0 * results[PIXEL2.name]


def test_fig2a_price_inversion(web_study):
    """Pixel2 beats the pricier S6-edge (the paper's cost!=QoE point)."""
    results = {point.label: point.plt.mean for point in web_study.sweep(
        "devices", values=(GALAXY_S6_EDGE, PIXEL2))}
    assert results[PIXEL2.name] < results[GALAXY_S6_EDGE.name]
    assert PIXEL2.cost_usd < GALAXY_S6_EDGE.cost_usd


# -- Fig 3a: PLT vs CPU clock ------------------------------------------------


def test_fig3a_clock_monotonicity(web_study):
    """PLT falls monotonically as the pinned clock rises."""
    points = web_study.sweep("clock", values=CLOCK_LADDER)
    assert [p.label for p in points] == list(CLOCK_LADDER)
    means = [p.plt.mean for p in points]
    assert all(earlier > later for earlier, later in zip(means, means[1:]))


def test_fig3a_clock_factor(web_study):
    """Bottom-to-top of the ladder costs at least 3× PLT (3.2× at scale)."""
    points = web_study.sweep("clock", values=(CLOCK_LADDER[0],
                                              CLOCK_LADDER[-1]))
    slowest, fastest = points[0].plt.mean, points[-1].plt.mean
    assert slowest >= 3.0 * fastest


def test_fig3a_decomposition_shifts_to_compute(web_study):
    """At the lowest clock the load is compute-bound, not network-bound."""
    points = web_study.sweep("clock", values=(CLOCK_LADDER[0],
                                              CLOCK_LADDER[-1]))
    low = points[0]
    assert low.compute_time.mean > low.network_time.mean


# -- §3.1: page categories ---------------------------------------------------


def test_sec31_script_heavy_categories_slow_down_most(web_study):
    """News and sports slow down more than business and health at 384 MHz.

    Measured at this scale: news 3.48×, sports 3.28×, business 2.90×,
    health 2.86×.  Only the ordering is reproduced: the paper reports an
    ≈6× spread between categories, this corpus about 1.2× (EXPERIMENTS.md
    §3.1), because even the light categories stay compute-dominated.
    """
    slowdown = web_study.category_clock_sensitivity()
    for heavy in ("news", "sports"):
        for light in ("business", "health"):
            assert slowdown[heavy] > slowdown[light], (heavy, light)


# -- Fig 3d: PLT vs governor -------------------------------------------------


def test_fig3d_powersave_penalty(web_study):
    """Powersave pays a clear PLT penalty over ondemand (+42% at scale)."""
    by_governor = {point.label: point.plt for point in web_study.sweep(
        "governor", values=("OD", "PW"))}
    assert by_governor["PW"].mean >= 1.15 * by_governor["OD"].mean


# -- Figs 3b, 3c, 4a, 5a: one resource, two ends of its axis -----------------

#: (app, axis, metric, a, b, ratio bounds): the paper's coarse factor
#: metric(a) / metric(b).  Measured at this scale: 1.93, 1.28, 3.49,
#: 3.88 and 1.75.
FACTORS = [
    # Fig 3b: PLT roughly doubles at 512 MB.
    pytest.param("web", "memory", "plt", 0.5, 2.0, (1.5, 3.0),
                 id="fig3b-memory"),
    # Fig 3c: one core costs a modest slowdown; the browser uses two.
    pytest.param("web", "cores", "plt", 1, 4, (1.1, 1.6), id="fig3c-cores"),
    # Fig 4a: start-up is compute-bound (1.2→3.5 s in the paper).
    pytest.param("video", "clock", "startup", 384, 1512, (2.0, 5.0),
                 id="fig4a-startup"),
    # Fig 5a: call setup scales with the clock ratio 1512/384 ≈ 3.9 ...
    pytest.param("rtc", "clock", "setup_delay", 384, 1512, (3.0, 5.0),
                 id="fig5a-setup"),
    # ... and frame rate falls 30 → ~17 fps.
    pytest.param("rtc", "clock", "frame_rate", 1512, 384, (1.4, 2.2),
                 id="fig5a-fps"),
]


@pytest.mark.parametrize("app, axis, metric, a, b, bounds", FACTORS)
def test_resource_axis_factor(sweep, app, axis, metric, a, b, bounds):
    points = sweep(app, axis, sorted((a, b)))
    ratio = (getattr(points[a], metric).mean
             / getattr(points[b], metric).mean)
    low, high = bounds
    assert low <= ratio <= high


def test_fig4a_clock_never_stalls(sweep):
    """§3.2: the read-ahead buffer hides a slow clock from playback."""
    points = sweep("video", "clock", [384, 1512])
    assert all(p.stall_ratio.mean < 0.03 for p in points.values())


def test_fig4c_single_core_stalls(sweep):
    """One core is the one case video stalls (~15% at full scale)."""
    points = sweep("video", "cores", [1, 4])
    assert points[1].stall_ratio.mean > 0.08
    assert points[4].stall_ratio.mean < 0.02


def test_fig5a_high_clock_holds_30fps(sweep):
    points = sweep("rtc", "clock", [384, 1512])
    assert points[1512].frame_rate.mean == pytest.approx(30, abs=2)


# -- Fig 2b: video startup across devices ------------------------------------


def test_fig2b_startup_ordering(sweep):
    """Start-up latency orders low-end > flagship, severalfold apart."""
    points = sweep("video", "devices", (INTEX_AMAZE, PIXEL2))
    assert (points[INTEX_AMAZE.name].startup.mean
            > 2.0 * points[PIXEL2.name].startup.mean)


# -- Fig 6: iperf throughput vs CPU clock ------------------------------------


def test_fig6_throughput_is_cpu_bound_below_600mhz():
    """Throughput climbs with the clock, then the link caps it (≈48 Mbps).

    Measured over the whole Nexus 4 ladder: 32.2 Mbps at 384 MHz, then a
    flat 48.4 Mbps from the 594 MHz rung up.
    """
    points = throughput_vs_clock()
    mbps = [p.throughput_mbps for p in points]
    assert all(earlier <= later for earlier, later in zip(mbps, mbps[1:]))
    assert points[0].clock_mhz == 384
    assert 28.0 <= mbps[0] <= 36.0
    plateau = [p.throughput_mbps for p in points if p.clock_mhz >= 594]
    assert len(plateau) >= 9
    assert min(plateau) >= 45.0


# -- Fig 7: DSP regex offload (Pixel 2, sports pages) ------------------------


@pytest.fixture(scope="module")
def offload_study() -> OffloadStudy:
    """One sports page, one trial: the smallest scale the bands hold at."""
    return OffloadStudy(OffloadStudyConfig(n_pages=1, trials=1))


def test_fig7a_offload_wins_at_the_default_governor(offload_study):
    """Paper: 18%; reproduced ≈11% (the gap is documented in EXPERIMENTS.md)."""
    win = offload_study.compare_default_governor().eplt_improvement
    assert 0.05 < win < 0.30


def test_fig7c_offload_wins_more_at_low_clocks(offload_study):
    points = {p.clock_mhz: p.improvement
              for p in offload_study.eplt_vs_clock((300, 883))}
    assert points[300] > points[883] > 0.0


def test_fig7b_dsp_draws_a_fraction_of_cpu_power(offload_study):
    cpu_w, dsp_w = offload_study.power_distributions()
    assert 3.0 <= median(cpu_w) / median(dsp_w) <= 5.0


def test_sec42_regex_share_of_scripting_is_the_calibrated_40_percent(
        offload_study):
    """Regex is ≈40% of sports-page scripting work (measured 0.39–0.40).

    The paper's text says "20%", but offloading a fifth of scripting
    cannot remove the 18% of the page load that its own Fig 7a reports;
    the corpus is calibrated to that result instead (DESIGN.md §6,
    judgment call 3; EXPERIMENTS.md, Fig 7).
    """
    assert 0.35 <= offload_study.regex_share_of_scripting() <= 0.45
