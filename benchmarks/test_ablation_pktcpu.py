"""Ablation: CPU-coupled packet processing on/off.

Removing the per-packet CPU cost flattens Fig 6 — throughput becomes
link-limited at every clock — demonstrating that the paper's §4.1 effect
comes entirely from host-side processing, not the radio.
"""

from functools import partial

from repro.analysis import render_table
from repro.core.session import simulate
from repro.device import NEXUS4
from repro.netstack import LinkSpec, PacketCostModel, iperf_downstream


def _iperf(mhz, cost=PacketCostModel()):
    return simulate(NEXUS4, LinkSpec(), None,
                    partial(iperf_downstream, duration_s=6.0, cost=cost),
                    governor="PF", pinned_mhz=mhz)


def run_ablation():
    rows = []
    free = PacketCostModel(rx_ops_per_pkt=0.0, tx_ops_per_pkt=0.0)
    for mhz in (384, 594, 1512):
        with_cpu = _iperf(mhz)
        without = _iperf(mhz, cost=free)
        rows.append((mhz, with_cpu.throughput_mbps, without.throughput_mbps))
    return rows


def test_ablation_pktcpu(benchmark, fig_printer):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    table = render_table(
        ["Clock (MHz)", "With pkt CPU (Mbps)", "Without (Mbps)"],
        [[mhz, f"{a:.1f}", f"{b:.1f}"] for mhz, a, b in rows],
    )
    fig_printer("Ablation: per-packet CPU cost drives Fig 6", table)
    by_clock = {mhz: (a, b) for mhz, a, b in rows}
    # Without packet CPU, every clock is link-limited (flat ≈48 Mbps).
    assert abs(by_clock[384][1] - by_clock[1512][1]) < 1.5
    # With it, 384 MHz loses ≥25 % throughput.
    assert by_clock[384][0] < 0.75 * by_clock[384][1]
