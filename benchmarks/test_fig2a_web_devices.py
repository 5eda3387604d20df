"""Fig 2a: Web PLT across the seven Table 1 devices."""

from repro.analysis import ascii_bars
from repro.core.studies import WebStudy, WebStudyConfig
from repro.device import by_name


def run_fig2a():
    study = WebStudy(WebStudyConfig(n_pages=5, trials=2))
    return study.sweep("devices")


def test_fig2a(benchmark, fig_printer):
    rows = benchmark.pedantic(run_fig2a, rounds=1, iterations=1)
    labels = [p.label for p in rows]
    values = [p.plt.mean for p in rows]
    body = ascii_bars(labels, values, unit="s")
    body += "\n" + "\n".join(f"{p.label:16s} {p.plt}" for p in rows)
    fig_printer("Fig 2a: PLT across devices (Chrome, default governor)", body)

    by_device = {p.label: p.plt for p in rows}
    intex = by_device["Intex Amaze+"]
    gionee = by_device["Gionee F103"]
    pixel2 = by_device["Google Pixel2"]
    s6 = by_device["SG S6-edge"]
    # Paper: Intex 5×, Gionee 3× worse than the Pixel2 (we check bands).
    assert 3.0 < intex.mean / pixel2.mean < 6.5
    assert 1.8 < gionee.mean / pixel2.mean < 4.0
    # Paper: the Pixel2 outperforms the pricier S6-edge.
    assert pixel2.mean < s6.mean
    # Paper: the low-end deviation dwarfs the high-end one.
    assert intex.stdev > pixel2.stdev
