"""Fig 3c: Web PLT vs core count — browsers use no more than two cores."""

from repro.analysis import ascii_bars
from repro.core.studies import WebStudy, WebStudyConfig


def run_fig3c():
    study = WebStudy(WebStudyConfig(n_pages=5, trials=1))
    return study.sweep("cores", values=(1, 2, 3, 4))


def test_fig3c(benchmark, fig_printer):
    rows = benchmark.pedantic(run_fig3c, rounds=1, iterations=1)
    body = ascii_bars([f"{p.label} core(s)" for p in rows],
                      [p.plt.mean for p in rows], unit="s")
    fig_printer("Fig 3c: PLT vs number of cores (Nexus4)", body)
    by_cores = {p.label: p.plt for p in rows}
    # Only the 2-core step matters; 2→4 is a modest change.
    assert by_cores[1].mean > 1.1 * by_cores[4].mean
    assert by_cores[2].mean < 1.3 * by_cores[4].mean
    assert by_cores[3].mean < 1.2 * by_cores[4].mean
