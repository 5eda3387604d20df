"""Fig 3b: Web PLT vs memory capacity (RAM-disk restricted)."""

from repro.analysis import ascii_bars
from repro.core.studies import WebStudy, WebStudyConfig


def run_fig3b():
    study = WebStudy(WebStudyConfig(n_pages=5, trials=1))
    return study.sweep("memory", values=(0.5, 1.0, 1.5, 2.0))


def test_fig3b(benchmark, fig_printer):
    rows = benchmark.pedantic(run_fig3b, rounds=1, iterations=1)
    body = ascii_bars([f"{p.label} GB" for p in rows],
                      [p.plt.mean for p in rows], unit="s")
    fig_printer("Fig 3b: PLT vs memory (Nexus4)", body)
    by_gb = {p.label: p.plt for p in rows}
    # Paper: ~2× PLT at 512 MB vs 2 GB.
    assert 1.4 < by_gb[0.5].mean / by_gb[2.0].mean < 3.0
    plts = [p.plt.mean for p in rows]
    assert all(a >= b * 0.95 for a, b in zip(plts, plts[1:]))
