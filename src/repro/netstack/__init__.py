"""Network substrate: link, host packet processing, TCP, HTTP, iperf.

The paper's testbed is a quiet LAN (Aruba AP, 72 Mbps link, 10 ms RTT, 0 %
loss) deliberately chosen so that *device* effects dominate.  The model
mirrors that: a fixed-capacity link shared FIFO-style between connections,
a Reno-style TCP with IW10 slow start, and — the paper's §4.1 insight — a
per-packet receive-processing cost charged to the device CPU, so network
throughput degrades when the clock slows (Fig 6) and network transfers
contend with application compute (the second-order effect on Web and
telephony).
"""

from repro.netstack.link import Link, LinkSpec
from repro.netstack.hoststack import HostStack, PacketCostModel
from repro.netstack.tcp import TcpConnection
from repro.netstack.http import HttpClient, HttpResponse, Origin
from repro.netstack.iperf import IperfResult, iperf_downstream

__all__ = [
    "HostStack",
    "HttpClient",
    "HttpResponse",
    "IperfResult",
    "Link",
    "LinkSpec",
    "Origin",
    "PacketCostModel",
    "TcpConnection",
    "iperf_downstream",
]
