"""Property-based tests on network-stack invariants."""

from hypothesis import given, settings, strategies as st

from repro.device import Device, NEXUS4
from repro.netstack import HostStack, Link, LinkSpec, TcpConnection
from repro.obs import install
from repro.sim import Environment


def _session(mhz: int, link_spec: LinkSpec):
    env = Environment()
    install(env)
    device = Device(env, NEXUS4, pinned_mhz=mhz)
    link = Link(env, link_spec)
    stack = HostStack(env, device)
    return env, link, stack


@settings(max_examples=30, deadline=None)
@given(
    nbytes=st.integers(1, 2_000_000),
    mhz=st.sampled_from([384, 810, 1512]),
)
def test_receive_conserves_bytes(nbytes, mhz):
    env, link, stack = _session(mhz, LinkSpec())
    conn = TcpConnection(env, link, stack)

    def fetch():
        yield from conn.receive(nbytes)

    env.run(env.process(fetch()))
    assert conn.bytes_downloaded == nbytes
    assert stack.rx_bytes >= nbytes
    assert env.metrics.snapshot()["net.link.tx_bytes"] >= nbytes


@settings(max_examples=30, deadline=None)
@given(
    nbytes=st.integers(1_000, 1_000_000),
    goodput=st.floats(1e6, 100e6),
)
def test_download_never_beats_the_link(nbytes, goodput):
    spec = LinkSpec(goodput_bps=goodput)
    env, link, stack = _session(1512, spec)
    conn = TcpConnection(env, link, stack)

    def fetch():
        yield from conn.receive(nbytes)

    env.run(env.process(fetch()))
    assert env.now >= nbytes / spec.bytes_per_s  # can't outrun serialization
    assert env.now >= spec.rtt_s / 2  # first-byte propagation


@settings(max_examples=20, deadline=None)
@given(nbytes=st.integers(10_000, 500_000))
def test_slower_clock_never_faster(nbytes):
    durations = []
    for mhz in (1512, 384):
        env, link, stack = _session(mhz, LinkSpec())
        conn = TcpConnection(env, link, stack)

        def fetch():
            yield from conn.receive(nbytes)

        env.run(env.process(fetch()))
        durations.append(env.now)
    fast, slow = durations
    assert slow >= fast - 1e-9


@settings(max_examples=20, deadline=None)
@given(
    chunks=st.lists(st.integers(1_000, 100_000), min_size=1, max_size=8),
)
def test_chunked_equals_sum_of_bytes(chunks):
    env, link, stack = _session(1512, LinkSpec())
    conn = TcpConnection(env, link, stack)

    def fetch():
        first = True
        for chunk in chunks:
            yield from conn.receive(chunk, first_byte_latency=first)
            first = False

    env.run(env.process(fetch()))
    assert conn.bytes_downloaded == sum(chunks)
