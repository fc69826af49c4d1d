"""Tests for the flight recorder: v3 frame container, ring-buffer
retention, and wrap-boundary suffix replay."""

import json
import os
import random
import zlib

import pytest

from repro.core.events import ChannelInfo, ChannelTable
from repro.core.mutation import V3_FRAME_REGIONS, corrupt_v3_frame
from repro.core.packets import CyclePacket
from repro.core.trace_file import (
    FRAME_ANCHOR,
    FRAME_END,
    FRAME_RUN,
    TraceFile,
    TraceWriter,
    build_v3_container,
    encode_anchor_frame,
    encode_end_frame,
    encode_run_frame,
)
from repro.core.trace_ring import RingTraceStore
from repro.errors import TraceFormatError, TraceIntegrityError


def small_table() -> ChannelTable:
    return ChannelTable([
        ChannelInfo(index=0, name="a.req", direction="in",
                    content_bytes=8, payload_bits=64),
        ChannelInfo(index=1, name="a.rsp", direction="out",
                    content_bytes=8, payload_bits=64),
    ])


def repetitive_trace(n_packets: int = 24, distinct: int = 3) -> TraceFile:
    """A trace whose contents repeat (the flight recorder's common case)."""
    table = small_table()
    packets = []
    for i in range(n_packets):
        packet = CyclePacket(starts=1, ends=2)
        packet.contents[0] = (i % distinct).to_bytes(8, "little")
        packet.validation[1] = (i % distinct * 7).to_bytes(8, "little")
        packets.append(packet)
    return TraceFile.from_packets(table, packets, metadata={"app": "unit"})


def first_epoch_stream(blob: bytes) -> bytes:
    """Decompressed RUN payloads of a v3 container's first epoch."""
    offset = 20 + int.from_bytes(blob[8:16], "little")
    dobj = None
    stream = bytearray()
    while offset < len(blob):
        kind = blob[offset]
        plen = int.from_bytes(blob[offset + 1:offset + 5], "little")
        payload = blob[offset + 9:offset + 9 + plen]
        offset += 9 + plen
        if kind == FRAME_RUN:
            dobj = dobj or zlib.decompressobj()
            stream += dobj.decompress(payload)
        elif dobj is not None:      # the next ANCHOR (or END) closes it
            break
    return bytes(stream)


def hand_built_v3(trace: TraceFile, stream: bytes,
                  header_extra=None) -> bytes:
    """A v3 container whose single epoch carries ``stream`` verbatim."""
    frames = b"".join([encode_anchor_frame(0, 0, None),
                       encode_run_frame(stream), encode_end_frame()])
    blob = build_v3_container(trace.table, trace.with_validation,
                              dict(trace.metadata), frames)
    if header_extra is None:
        return blob
    header = json.loads(blob[20:20 + int.from_bytes(blob[8:16], "little")])
    header.update(header_extra)
    raw = json.dumps(header).encode("utf-8")
    return b"".join([blob[:8], len(raw).to_bytes(8, "little"),
                     zlib.crc32(raw).to_bytes(4, "little"), raw,
                     frames])


class TestV3RoundTrip:
    def test_round_trip(self):
        trace = repetitive_trace(24)
        blob = trace.to_bytes(version=3)
        assert blob[:8] == b"VIDITRC3"
        loaded = TraceFile.from_bytes(blob)
        assert loaded.format_version == 3
        assert bytes(loaded.body) == bytes(trace.body)
        assert loaded.table.to_dict() == trace.table.to_dict()
        assert loaded.metadata["app"] == "unit"
        assert not loaded.salvaged

    def test_run_payload_is_the_plain_body(self):
        trace = repetitive_trace(24)
        assert first_epoch_stream(trace.to_bytes(version=3)) == \
            bytes(trace.body)

    def test_container_stats_report_compression(self):
        trace = repetitive_trace(24)
        loaded = TraceFile.from_bytes(trace.to_bytes(version=3))
        stats = loaded.container_stats
        assert stats["format"] == 3
        assert stats["packets"] == trace.packet_count
        assert stats["anchors"] >= 1
        assert stats["body_bytes"] == len(trace.body)
        assert 0 < stats["frame_bytes"] < stats["container_bytes"]

    def test_truncation_salvages_anchor_led_prefix(self):
        trace = repetitive_trace(24)
        blob = trace.to_bytes(version=3)
        cut = len(blob) - 9     # inside the last RUN frame / END marker
        with pytest.raises(TraceFormatError):
            TraceFile.from_bytes(blob[:cut])
        salvaged = TraceFile.from_bytes(blob[:cut], salvage=True)
        assert salvaged.salvaged
        assert 0 < salvaged.packet_count <= trace.packet_count
        assert bytes(trace.body).startswith(bytes(salvaged.body))

    def test_mid_packet_cut_inside_a_valid_frame(self):
        """Every frame CRC is valid but the epoch's stream ends inside a
        packet: a strict load raises, salvage keeps the whole packets."""
        trace = repetitive_trace(6)
        packet_bytes = len(trace.body) // 6
        blob = hand_built_v3(trace, bytes(trace.body)[:3 * packet_bytes + 5])
        with pytest.raises(TraceFormatError, match="undecodable"):
            TraceFile.from_bytes(blob)
        salvaged = TraceFile.from_bytes(blob, salvage=True)
        assert salvaged.packet_count == 3
        assert bytes(salvaged.body) == bytes(trace.body)[:3 * packet_bytes]
        assert salvaged.metadata["salvaged"]["dropped_bytes"] == 5


class TestLegacyDedupContainer:
    """Containers written while RUN payloads were dedup-coded carry
    ``"v3": {"dedup_slots": N}`` in the header; their payloads are not
    plain body bytes, so both loaders refuse them by name."""

    def test_rejected_strict_and_under_salvage(self):
        trace = repetitive_trace(6)
        blob = hand_built_v3(trace, bytes(trace.body),
                             header_extra={"v3": {"dedup_slots": 1024}})
        for salvage in (False, True):
            with pytest.raises(TraceFormatError, match="dedup-coded") as exc:
                TraceFile.from_bytes(blob, salvage=salvage)
            assert not isinstance(exc.value, TraceIntegrityError)

    def test_plain_container_has_no_v3_header_key(self):
        trace = repetitive_trace(6)
        blob = trace.to_bytes(version=3)
        header = json.loads(blob[20:20 + int.from_bytes(blob[8:16],
                                                         "little")])
        assert "v3" not in header


class TestV3Corruption:
    def test_corruption_never_silently_accepted(self):
        """Mirror of the v2 ``corrupt_frame`` property: damage any region
        of a v3 container and the loader either raises a typed error or
        loads content identical to the original — never silently wrong."""
        trace = repetitive_trace(24)
        blob = trace.to_bytes(version=3)
        rng = random.Random(7)
        for round_index in range(6):
            for region in V3_FRAME_REGIONS:
                description, damaged = corrupt_v3_frame(blob, rng,
                                                        region=region)
                try:
                    loaded = TraceFile.from_bytes(damaged)
                except TraceFormatError:
                    continue
                assert bytes(loaded.body) == bytes(trace.body), description
                assert loaded.table.to_dict() == trace.table.to_dict(), \
                    description


def feed_ring(ring: RingTraceStore, table: ChannelTable, n_packets: int,
              anchor_every: int):
    """Feed a packet stream with periodic re-anchors.

    Mirrors the deployment's contract: the anchor watermark is taken at
    an exact packet boundary. Returns the per-packet bodies for reference.
    """
    flats = []
    for i in range(n_packets):
        packet = CyclePacket(starts=1, ends=2)
        packet.contents[0] = (i % 3).to_bytes(8, "little")
        packet.validation[1] = (i % 3 * 7).to_bytes(8, "little")
        flat = packet.serialize(table, True)
        ring.accept(flat)
        flats.append(flat)
        if (i + 1) % anchor_every == 0 and i + 1 < n_packets:
            ring.request_anchor(ordinal=i + 1, cycle=i + 1, checkpoint=None)
    ring.flush()
    return flats


class TestRingTraceStore:
    def test_starts_with_genesis_anchor_and_ends_with_end_frame(self):
        ring = RingTraceStore("ring", retain_words=64)
        frames = ring.frame_list()
        assert frames and frames[0][0] == FRAME_ANCHOR
        stream = ring.frame_stream(end=True)
        assert stream[-9] == FRAME_END

    def test_no_eviction_window_expands_to_full_stream(self):
        table = small_table()
        ring = RingTraceStore("ring", retain_words=1 << 16)
        flats = feed_ring(ring, table, 30, anchor_every=10)
        assert ring.evicted_epochs == 0
        body, start, info = ring.expand(table, True)
        assert start["ordinal"] == 0 and start["checkpoint"] is None
        assert bytes(body) == b"".join(flats)
        assert info["packets"] == 30

    def test_eviction_is_epoch_granular_and_anchor_led(self):
        table = small_table()
        ring = RingTraceStore("ring", retain_words=8)   # tiny budget
        flats = feed_ring(ring, table, 60, anchor_every=10)
        assert ring.evicted_epochs > 0
        frames = ring.frame_list()
        assert frames[0][0] == FRAME_ANCHOR
        body, start, info = ring.expand(table, True)
        k = start["ordinal"]
        assert k > 0 and k % 10 == 0     # an anchor boundary, not mid-epoch
        # The retained window is the exact suffix of the flat stream.
        assert bytes(body) == b"".join(flats[k:])

    def test_last_epoch_is_never_evicted(self):
        table = small_table()
        ring = RingTraceStore("ring", retain_words=1)   # can't hold anything
        feed_ring(ring, table, 40, anchor_every=8)
        body, start, info = ring.expand(table, True)
        assert start["ordinal"] == 32                   # last anchor only
        assert info["packets"] == 8

    def test_reset_state_returns_to_genesis(self):
        table = small_table()
        ring = RingTraceStore("ring", retain_words=8)
        feed_ring(ring, table, 40, anchor_every=8)
        ring.reset_state()
        assert ring.evicted_epochs == 0
        frames = ring.frame_list()
        assert len(frames) == 1 and frames[0][0] == FRAME_ANCHOR
        body, start, _ = ring.expand(table, True)
        assert len(body) == 0 and start["ordinal"] == 0

    def test_torn_frame_at_wrap_salvages_to_anchor_led_suffix(self):
        """Satellite 3: a container torn mid-frame after the ring wrapped
        still salvages to a window led by a later re-anchor."""
        table = small_table()
        ring = RingTraceStore("ring", retain_words=8, run_bytes=64)
        flats = feed_ring(ring, table, 60, anchor_every=10)
        assert ring.evicted_epochs > 0
        blob = build_v3_container(table, True, {"app": "unit"},
                                  ring.frame_stream(end=True))
        intact = TraceFile.from_bytes(blob)
        first_kept = intact.metadata["ring"]["ordinal"]
        # Tear the first retained epoch: flip a byte in its first RUN
        # payload, so salvage must resync to the *next* ANCHOR frame.
        damaged = bytearray(blob)
        run_at = damaged.index(bytes([FRAME_RUN]),
                               8 + 8 + 4 + int.from_bytes(blob[8:16],
                                                          "little"))
        damaged[run_at + 9] ^= 0xFF
        with pytest.raises(TraceFormatError):
            TraceFile.from_bytes(bytes(damaged))
        salvaged = TraceFile.from_bytes(bytes(damaged), salvage=True)
        assert salvaged.salvaged
        k = salvaged.metadata["ring"]["ordinal"]
        assert k > first_kept and k % 10 == 0
        assert bytes(salvaged.body) == b"".join(flats[k:])


class TestTraceWriterDurability:
    def test_close_fsyncs_file_then_parent_directory(self, tmp_path,
                                                     monkeypatch):
        """The atomic-rename publish is only durable if both the part file
        and the parent directory are fsynced before/after the rename."""
        synced = []
        real_fsync = os.fsync

        def spy_fsync(fd):
            synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        trace = repetitive_trace(5)
        path = tmp_path / "durable.trace"
        with TraceWriter(path, trace.table) as writer:
            writer.append(bytes(trace.body))
        assert path.exists()
        assert len(synced) >= 2     # data file + parent directory
        assert bytes(TraceFile.load(path).body) == bytes(trace.body)


class TestFlightRecorderEndToEnd:
    """Record/replay the DMA app under flight-recorder mode and pin the
    wrap-boundary replay guarantees (acceptance criteria)."""

    SEED = 5

    @pytest.fixture(scope="class")
    def recordings(self):
        from repro.apps.registry import get_app
        from repro.core import VidiConfig
        from repro.harness.runner import bench_config, record_run

        spec = get_app("dram_dma")
        full = record_run(
            spec, bench_config(VidiConfig.r2, flight_recorder=True),
            seed=self.SEED)
        small = record_run(
            spec, bench_config(VidiConfig.r2, flight_recorder=True,
                               flight_retain_words=512,
                               flight_anchor_stride=512),
            seed=self.SEED)
        return spec, full, small

    def test_wrapped_window_carries_reanchor_checkpoint(self, recordings):
        _, full, small = recordings
        assert full.result["trace"].metadata.get("ring") is None
        assert small.result["flight"]["evicted_epochs"] > 0
        ring = small.result["trace"].metadata["ring"]
        assert ring["ordinal"] > 0
        assert ring["checkpoint"]       # architectural state to restore
        assert small.result["flight"]["retained_words"] <= \
            2 * small.result["flight"]["retain_words"]

    def test_retention_budget_does_not_perturb_recording(self, recordings):
        """Framing/eviction are host-side: a small-retention flight trace
        is byte-identical to the same window carved out of an unbounded
        flight recording of the same run."""
        _, full, small = recordings
        full_trace = full.result["trace"]
        small_trace = small.result["trace"]
        k = small_trace.metadata["ring"]["ordinal"]
        carved = full_trace.index().slice(k, full_trace.packet_count)
        assert bytes(small_trace.body) == bytes(carved)

    def test_flight_blob_round_trips_to_the_recorded_body(self, recordings):
        _, full, _ = recordings
        loaded = TraceFile.from_bytes(full.result["flight_blob"])
        assert bytes(loaded.body) == bytes(full.result["trace"].body)
        flight = full.result["flight"]
        assert flight["flat_bytes"] == flight["stream_bytes"] == \
            len(loaded.body)
        assert "dedup" not in flight

    def test_flight_blob_round_trips_with_ring_metadata(self, recordings):
        _, _, small = recordings
        loaded = TraceFile.from_bytes(small.result["flight_blob"])
        assert loaded.format_version == 3
        assert bytes(loaded.body) == bytes(small.result["trace"].body)
        ring = loaded.metadata["ring"]
        assert ring["ordinal"] == \
            small.result["trace"].metadata["ring"]["ordinal"]
        assert ring["checkpoint"]

    @pytest.mark.parametrize("scheduler", ["fixpoint", "compiled"])
    def test_suffix_replay_matches_carved_window_replay(self, recordings,
                                                        scheduler):
        """The acceptance property: replaying the ring suffix is
        bit-identical to replaying the same window of the full trace,
        under the kernel and its oracle."""
        from repro.harness.runner import replay_run

        spec, full, small = recordings
        full_trace = full.result["trace"]
        small_trace = small.result["trace"]
        ring = small_trace.metadata["ring"]
        carved = TraceFile(
            table=full_trace.table,
            body=full_trace.index().slice(ring["ordinal"],
                                          full_trace.packet_count),
            with_validation=full_trace.with_validation,
            metadata={**full_trace.metadata, "ring": ring})
        suffix_replay = replay_run(spec, small_trace, scheduler=scheduler)
        carved_replay = replay_run(spec, carved, scheduler=scheduler)
        assert bytes(suffix_replay.result["validation"].body) == \
            bytes(carved_replay.result["validation"].body)
        assert suffix_replay.cycles == carved_replay.cycles

    def test_torn_flight_blob_salvages_and_replays(self, recordings):
        """Crash mid-write after wrap: the salvaged suffix still replays."""
        from repro.harness.runner import replay_run

        spec, _, small = recordings
        blob = small.result["flight_blob"]
        cut = len(blob) - 24        # tear inside the trailing frames
        salvaged = TraceFile.from_bytes(blob[:cut], salvage=True)
        assert salvaged.salvaged
        assert salvaged.metadata["ring"]["checkpoint"]
        assert 0 < salvaged.packet_count <= small.result["trace"].packet_count
        replay = replay_run(spec, salvaged)
        assert replay.result["validation"].packet_count > 0
