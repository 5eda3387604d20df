"""Fig 1: page performance vs device evolution, 2011–2018."""

from repro.analysis import render_table
from repro.core.studies import evolution_timeline


def run_timeline():
    return evolution_timeline(n_pages=2)


def test_fig1(benchmark, fig_printer):
    points = benchmark.pedantic(run_timeline, rounds=1, iterations=1)
    table = render_table(
        ["Year", "PLT (s)", "Clock (GHz)", "Cores", "Memory (GB)",
         "OS", "Page size (MB)"],
        [[p.year, p.plt.fmt_mean(".1f"), p.clock_ghz, p.cores, p.memory_gb,
          p.os_version, f"{p.page_size_mb:.1f}"] for p in points],
    )
    fig_printer("Fig 1: PLT and device parameters over 2011-2018", table)
    early = (points[0].plt.mean + points[1].plt.mean) / 2
    late = (points[-2].plt.mean + points[-1].plt.mean) / 2
    # The paper: PLT grows ~4× despite hardware improving on every axis.
    assert late > 2 * early
    assert points[-1].clock_ghz > points[0].clock_ghz
