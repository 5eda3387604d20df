"""Fig 3d: Web PLT per frequency governor (PF IN US OD PW)."""

from repro.analysis import ascii_bars
from repro.core.studies import WebStudy, WebStudyConfig


def run_fig3d():
    study = WebStudy(WebStudyConfig(n_pages=5, trials=1))
    return study.sweep("governor")


def test_fig3d(benchmark, fig_printer):
    rows = benchmark.pedantic(run_fig3d, rounds=1, iterations=1)
    body = ascii_bars([p.label for p in rows],
                      [p.plt.mean for p in rows], unit="s")
    fig_printer("Fig 3d: PLT vs governor (Nexus4)", body)
    by_code = {p.label: p.plt for p in rows}
    # Paper: powersave ≈ +50 % over the rest; others close to performance.
    assert 1.25 < by_code["PW"].mean / by_code["PF"].mean < 2.2
    for code in ("IN", "US", "OD"):
        assert by_code[code].mean < 1.35 * by_code["PF"].mean
