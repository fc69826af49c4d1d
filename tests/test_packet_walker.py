"""Property tests: the header-only packet walker against full decoding.

:func:`~repro.core.packets.scan_packet_prefix` is the one packet walker
behind v2 salvage and v3 epoch expansion. It reads only Starts/Ends and
adds content widths from the channel table; the reference it must equal is
a loop of :meth:`~repro.core.packets.CyclePacket.deserialize`, which builds
and validates every packet. Both are run over recorded bodies — a plain
(v2) recording and the decompressed RUN stream of a flight (v3) recording
— cut at random offsets and with random bit flips.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packets import CyclePacket, scan_packet_prefix
from repro.core.trace_file import TraceFile
from repro.errors import TraceFormatError

from tests.test_flight_recorder import first_epoch_stream, hand_built_v3


def reference_prefix(blob, table, with_validation):
    """``(n_packets, n_bytes)`` of the longest prefix ``deserialize`` takes."""
    view = memoryview(blob)
    offset = count = 0
    while offset < len(view):
        try:
            _, offset = CyclePacket.deserialize(view, offset, table,
                                                with_validation)
        except TraceFormatError:
            break
        count += 1
    return count, offset


@functools.lru_cache(maxsize=None)
def corpus():
    """``{name: (stream, trace)}`` recorded once per test session."""
    from repro.apps.registry import get_app
    from repro.core import VidiConfig
    from repro.harness.runner import bench_config, record_run

    plain = record_run(get_app("sha256"), bench_config(VidiConfig.r2),
                       seed=3).result["trace"]
    flight = record_run(
        get_app("dram_dma"),
        bench_config(VidiConfig.r2, flight_recorder=True,
                     flight_anchor_stride=512),
        seed=3, scale=1.0)
    stream = first_epoch_stream(flight.result["flight_blob"])
    return {"v2": (bytes(plain.body), plain),
            "v3": (stream, flight.result["trace"])}


@pytest.mark.parametrize("name", ["v2", "v3"])
def test_recorded_streams_walk_completely(name):
    stream, trace = corpus()[name]
    assert stream
    packets, nbytes = scan_packet_prefix(stream, trace.table,
                                         trace.with_validation)
    assert nbytes == len(stream)
    assert (packets, nbytes) == reference_prefix(stream, trace.table,
                                                 trace.with_validation)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_walker_equals_deserialize_loop(data):
    name = data.draw(st.sampled_from(["v2", "v3"]))
    stream, trace = corpus()[name]
    cut = data.draw(st.integers(min_value=0, max_value=len(stream)))
    damaged = bytearray(stream[:cut])
    if damaged:
        for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
            # Bias flips toward the front so the walk reaches them.
            limit = min(len(damaged), data.draw(st.sampled_from(
                [64, 1024, len(damaged)])))
            position = data.draw(st.integers(0, limit - 1))
            damaged[position] ^= 1 << data.draw(st.integers(0, 7))
    # Walking a validation body as validation-free exercises the other
    # flag on the same bytes (both sides see the identical input).
    with_validation = data.draw(st.booleans())
    got = scan_packet_prefix(bytes(damaged), trace.table, with_validation)
    assert got == reference_prefix(bytes(damaged), trace.table,
                                   with_validation)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_strict_v3_load_rejects_a_mid_packet_cut(data):
    """A RUN stream cut inside a packet, with every frame CRC valid: the
    strict load raises and salvage keeps exactly the walker's prefix."""
    stream, trace = corpus()["v3"]
    index = TraceFile(table=trace.table, body=stream,
                      with_validation=trace.with_validation).index()
    ordinal = data.draw(st.integers(0, len(index) - 1))
    lo = index.offset_of(ordinal)
    cut = data.draw(st.integers(lo + 1, index.offset_of(ordinal + 1) - 1))
    blob = hand_built_v3(trace, stream[:cut])
    with pytest.raises(TraceFormatError):
        TraceFile.from_bytes(blob)
    salvaged = TraceFile.from_bytes(blob, salvage=True)
    assert bytes(salvaged.body) == stream[:lo]
    assert salvaged.metadata["salvaged"]["packets"] == ordinal
