"""Table 1: the device catalog matches the paper's spec sheet."""

import pytest

from repro.device import DeviceSpec, NEXUS4, NEXUS4_LADDER, PIXEL2, TABLE1_DEVICES, by_name
from repro.device.catalog import PIXEL2_BIG_LADDER


def test_seven_devices():
    assert len(TABLE1_DEVICES) == 7


def test_table1_rows():
    """Name, cores, RAM, and cost straight from Table 1."""
    expected = {
        "Intex Amaze+": (4, 1.0, 60),
        "Gionee F103": (4, 2.0, 150),
        "Google Nexus4": (4, 2.0, 200),
        "SG S2-Tab": (8, 3.0, 450),
        "Google Pixel C": (4, 3.0, 600),
        "SG S6-edge": (8, 3.0, 880),
        "Google Pixel2": (8, 4.0, 700),
    }
    for spec in TABLE1_DEVICES:
        cores, ram, cost = expected[spec.name]
        assert spec.n_cores == cores, spec.name
        assert spec.memory_gb == ram, spec.name
        assert spec.cost_usd == cost, spec.name


def test_nexus4_ladder_matches_figure_axis():
    assert NEXUS4_LADDER == (384, 486, 594, 702, 810, 918, 1026, 1134,
                             1242, 1350, 1458, 1512)
    assert NEXUS4.clusters[0].freqs_mhz == NEXUS4_LADDER


def test_pixel2_ladder_covers_fig7c_points():
    for mhz in (300, 441, 595, 748, 883):
        assert mhz in PIXEL2_BIG_LADDER


def test_clock_ranges_match_table1():
    assert NEXUS4.min_clock_mhz == 384 and NEXUS4.max_clock_mhz == 1512
    assert PIXEL2.min_clock_mhz == 300 and PIXEL2.max_clock_mhz == 2457
    intex = by_name("Intex Amaze+")
    assert intex.min_clock_mhz == 300 and intex.max_clock_mhz == 1300


def test_every_device_has_hardware_codec():
    """§3.2: even low-end phones ship hardware video decoders."""
    for spec in TABLE1_DEVICES:
        assert spec.accelerators.codec is not None, spec.name


def test_only_some_devices_have_dsp():
    assert PIXEL2.accelerators.dsp is not None
    assert NEXUS4.accelerators.dsp is not None
    assert by_name("SG S6-edge").accelerators.dsp is None


def test_peak_rate_orders_low_to_high_end():
    intex = by_name("Intex Amaze+")
    gionee = by_name("Gionee F103")
    assert intex.best_rate_hz < gionee.best_rate_hz < NEXUS4.best_rate_hz
    assert NEXUS4.best_rate_hz < PIXEL2.best_rate_hz


def test_pixel2_outranks_s6_edge():
    """The paper's big.LITTLE inversion: Pixel2 beats the pricier S6."""
    s6 = by_name("SG S6-edge")
    assert PIXEL2.cost_usd < s6.cost_usd
    assert PIXEL2.best_rate_hz > s6.best_rate_hz


def test_by_name_unknown():
    with pytest.raises(ValueError, match="unknown device"):
        by_name("iPhone X")


def test_display_heights_cap_video_formats():
    expected = {
        "Intex Amaze+": 720,
        "Gionee F103": 720,
        "Google Nexus4": 768,
        "SG S2-Tab": 1080,
        "Google Pixel C": 1080,
        "SG S6-edge": 1440,
        "Google Pixel2": 1080,
    }
    assert {spec.name: spec.display_height
            for spec in TABLE1_DEVICES} == expected
