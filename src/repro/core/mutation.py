"""Trace mutation: reorder transaction events in a recorded trace (§4.2, §5.3).

The testing case study captures a production-like trace, then *mutates* it
to explore orderings the protocol allows but the original environment never
produced — e.g. completing a DMA write-data beat before its write-address
transaction. Replaying the mutated trace drives the design into the corner
case deterministically.

The mutator works on decoded cycle packets. Moving an end event earlier
splits it out of its packet and inserts it as a new packet immediately
before the target event's packet; the vector clocks the replayers derive
from the new packet sequence then enforce the mutated order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.events import ChannelTable
from repro.core.packets import CyclePacket
from repro.core.trace_file import TraceFile
from repro.errors import ConfigError, TraceFormatError


@dataclass(frozen=True)
class EventRef:
    """Names one transaction event in a trace: kind, channel, occurrence."""

    kind: str        # 'start' or 'end'
    channel: str     # full channel name
    occurrence: int  # 0-based count of that (kind, channel) pair

    def __post_init__(self) -> None:
        if self.kind not in ("start", "end"):
            raise ConfigError(f"bad event kind {self.kind!r}")


class TraceMutator:
    """Edits the event structure of a recorded trace."""

    def __init__(self, trace: TraceFile):
        self.trace = trace
        self.table: ChannelTable = trace.table
        self.packets: List[CyclePacket] = trace.packets()

    # ------------------------------------------------------------------
    def _locate(self, ref: EventRef) -> Tuple[int, int]:
        """Return (packet index, channel index) of the referenced event."""
        channel_index = self.table.by_name(ref.channel).index
        seen = 0
        for packet_index, packet in enumerate(self.packets):
            mask = packet.starts if ref.kind == "start" else packet.ends
            if (mask >> channel_index) & 1:
                if seen == ref.occurrence:
                    return packet_index, channel_index
                seen += 1
        raise TraceFormatError(
            f"event {ref.kind} #{ref.occurrence} on {ref.channel} not found "
            f"(only {seen} occurrences)"
        )

    # ------------------------------------------------------------------
    def move_end_before(self, moved: EventRef, anchor: EventRef) -> None:
        """Reorder ``moved`` (an end event) to precede ``anchor``.

        ``moved`` is removed from its original cycle packet and re-inserted
        as a standalone packet immediately before ``anchor``'s packet. The
        anchor must currently precede or share a packet with the moved
        event; otherwise the move would be a no-op.
        """
        if moved.kind != "end":
            raise ConfigError("only end events can be reordered (starts are "
                              "recreated relative to ends during replay)")
        moved_pos, moved_ch = self._locate(moved)
        anchor_pos, _anchor_ch = self._locate(anchor)
        if moved_pos < anchor_pos:
            return  # already strictly before the anchor
        source = self.packets[moved_pos]
        source.ends &= ~(1 << moved_ch)
        content = source.validation.pop(moved_ch, None)
        fresh = CyclePacket(ends=1 << moved_ch)
        if content is not None:
            fresh.validation[moved_ch] = content
        if source.is_empty:
            self.packets.pop(moved_pos)
            if moved_pos < anchor_pos:
                anchor_pos -= 1
        self.packets.insert(anchor_pos, fresh)

    def drop_event(self, ref: EventRef) -> None:
        """Delete one event from the trace (failure-injection testing)."""
        packet_index, channel_index = self._locate(ref)
        packet = self.packets[packet_index]
        if ref.kind == "start":
            packet.starts &= ~(1 << channel_index)
            packet.contents.pop(channel_index, None)
        else:
            packet.ends &= ~(1 << channel_index)
            packet.validation.pop(channel_index, None)
        if packet.is_empty:
            self.packets.pop(packet_index)

    def rewrite_start_content(self, ref: EventRef, content: bytes) -> None:
        """Replace the recorded content of an input transaction (fuzzing)."""
        if ref.kind != "start":
            raise ConfigError("content rides on start events")
        packet_index, channel_index = self._locate(ref)
        info = self.table[channel_index]
        if len(content) != info.content_bytes:
            raise ConfigError(
                f"content must be {info.content_bytes} bytes for {info.name}")
        self.packets[packet_index].contents[channel_index] = content

    # ------------------------------------------------------------------
    def validate(self) -> Optional[str]:
        """Sanity-check event structure; returns a message or None if OK.

        For input channels the trace carries both starts and ends, so each
        prefix must satisfy ``ends <= starts`` and each start must follow
        the previous end (one transaction in flight per channel).
        """
        for index in self.table.input_indices:
            starts = ends = 0
            for packet in self.packets:
                if (packet.starts >> index) & 1:
                    if starts > ends:
                        return (f"{self.table[index].name}: overlapping "
                                f"transactions after start #{starts}")
                    starts += 1
                if (packet.ends >> index) & 1:
                    ends += 1
                    if ends > starts:
                        return (f"{self.table[index].name}: end #{ends - 1} "
                                f"precedes its start")
        return None

    def build(self, metadata: Optional[dict] = None) -> TraceFile:
        """Serialize the mutated packets into a new trace.

        The result is an ordinary :class:`TraceFile`: serializing it (v2)
        computes fresh CRC32 frames over the *mutated* content, so a
        semantic mutation always yields a self-consistent container —
        mutants are distinguishable from corruption, which breaks the
        frames (see :func:`corrupt_frame`).
        """
        meta = dict(self.trace.metadata)
        meta.update(metadata or {})
        meta["mutated"] = True
        return TraceFile.from_packets(
            self.table, self.packets,
            with_validation=self.trace.with_validation, metadata=meta)


# ----------------------------------------------------------------------
# frame-level (anti-)mutation: break the container instead of the events
# ----------------------------------------------------------------------

FRAME_REGIONS = ("magic", "length", "header", "body", "footer")
"""The v2 container regions :func:`corrupt_frame` can target."""

V3_FRAME_REGIONS = ("magic", "length", "header", "run", "anchor",
                    "truncate")
"""The v3 container regions :func:`corrupt_v3_frame` can target.

``magic``/``length``/``header`` mirror the v2 regions. ``run`` and
``anchor`` flip one bit inside a frame payload *without* refixing its
CRC32 (the loader must reject, and salvage must resync). ``truncate``
cuts the blob mid-RUN-frame — the ring's torn-at-the-wrap crash shape."""


def corrupt_frame(blob: bytes, rng, region: Optional[str] = None
                  ) -> Tuple[str, bytes]:
    """Flip one random bit of a v2 container *without* fixing its CRCs.

    The dual of :class:`TraceMutator`: where semantic mutations re-frame
    cleanly, this damages the frame itself — magic, declared lengths,
    CRC-protected header/body bytes, or the footer (body length + CRC).
    Returns ``(description, damaged blob)``. Every such mutant must be
    *rejected* by :meth:`TraceFile.from_bytes`; one that loads silently
    is a framing hole (the property ``tools/fuzz.fuzz_frames`` checks).
    """
    from repro.core.trace_file import _MAGIC_V2, _FOOTER_V2, _PREAMBLE_V2

    if len(blob) < _PREAMBLE_V2 + _FOOTER_V2 or \
            bytes(blob[:8]) != _MAGIC_V2:
        raise ConfigError("corrupt_frame() needs a serialized v2 container")
    header_len = int.from_bytes(blob[8:16], "little")
    header_end = _PREAMBLE_V2 + header_len
    spans = {
        "magic": (0, 8),
        "length": (8, _PREAMBLE_V2),                 # header_len + header CRC
        "header": (_PREAMBLE_V2, header_end),
        "body": (header_end, max(header_end + 1, len(blob) - _FOOTER_V2)),
        "footer": (len(blob) - _FOOTER_V2, len(blob)),
    }
    if region is None:
        region = rng.choice(FRAME_REGIONS)
    if region not in spans:
        raise ConfigError(f"unknown frame region {region!r} "
                          f"(one of {', '.join(FRAME_REGIONS)})")
    lo, hi = spans[region]
    hi = min(hi, len(blob))
    if hi <= lo:
        lo, hi = 0, len(blob)       # degenerate trace: anywhere will do
    position = rng.randrange(lo, hi)
    bit = rng.randrange(8)
    damaged = bytearray(blob)
    damaged[position] ^= 1 << bit
    return (f"corrupt-frame {region}: bit {bit} of byte {position}",
            bytes(damaged))


# ----------------------------------------------------------------------
# v3 (flight-recorder) container corruption
# ----------------------------------------------------------------------


def _v3_layout(blob: bytes):
    """``(header_end, frames)`` of a v3 blob; frames are (offset, kind, plen).

    Walks only structurally consistent frames — the walk stops at the
    first malformed header, which is fine for corruption targeting (we
    only damage what a pristine container actually contains).
    """
    from repro.core.trace_file import (_FRAME_HEADER, _FRAME_KINDS, _MAGIC_V3,
                                       _PREAMBLE_V2, FRAME_END)

    if len(blob) < _PREAMBLE_V2 or bytes(blob[:8]) != _MAGIC_V3:
        raise ConfigError("corrupt_v3_frame() needs a serialized v3 container")
    header_len = int.from_bytes(blob[8:16], "little")
    header_end = _PREAMBLE_V2 + header_len
    frames = []
    offset = header_end
    while offset + _FRAME_HEADER <= len(blob):
        kind = blob[offset]
        plen = int.from_bytes(blob[offset + 1:offset + 5], "little")
        if kind not in _FRAME_KINDS or \
                offset + _FRAME_HEADER + plen > len(blob):
            break
        frames.append((offset, kind, plen))
        offset += _FRAME_HEADER + plen
        if kind == FRAME_END:
            break
    return header_end, frames


_PREAMBLE_V2_OFFSET = 20   # magic(8) + header_len(8) + header_crc32(4)


def corrupt_v3_frame(blob: bytes, rng, region: Optional[str] = None
                     ) -> Tuple[str, bytes]:
    """Damage one region of a v3 container (see :data:`V3_FRAME_REGIONS`).

    Bit-flip regions leave the CRCs stale, so the loader must detect the
    damage outright (and salvage must recover an anchored window).
    ``truncate`` cuts the blob inside the last RUN frame's payload — the
    crash shape a torn ring write leaves behind.
    """
    from repro.core.trace_file import _FRAME_HEADER, FRAME_ANCHOR, FRAME_RUN

    header_end, frames = _v3_layout(blob)
    if region is None:
        region = rng.choice(V3_FRAME_REGIONS)
    if region not in V3_FRAME_REGIONS:
        raise ConfigError(f"unknown v3 frame region {region!r} "
                          f"(one of {', '.join(V3_FRAME_REGIONS)})")
    runs = [f for f in frames if f[1] == FRAME_RUN and f[2] > 0]
    anchors = [f for f in frames if f[1] == FRAME_ANCHOR and f[2] > 0]
    if region == "truncate":
        offset, _kind, plen = runs[-1] if runs else frames[-1]
        lo = offset + _FRAME_HEADER
        cut = rng.randrange(lo, lo + plen) if plen else offset + 1
        return (f"truncate inside frame at byte {offset} (cut at {cut})",
                blob[:cut])
    if region == "run" and runs:
        offset, _kind, plen = runs[rng.randrange(len(runs))]
        lo, hi = offset + _FRAME_HEADER, offset + _FRAME_HEADER + plen
    elif region == "anchor" and anchors:
        offset, _kind, plen = anchors[rng.randrange(len(anchors))]
        lo, hi = offset + _FRAME_HEADER, offset + _FRAME_HEADER + plen
    elif region == "magic":
        lo, hi = 0, 8
    elif region == "length":
        lo, hi = 8, _PREAMBLE_V2_OFFSET
    elif region == "header":
        lo, hi = _PREAMBLE_V2_OFFSET, header_end
    else:   # empty run/anchor pool: damage any frame byte
        lo, hi = header_end, len(blob)
    position = rng.randrange(lo, hi)
    bit = rng.randrange(8)
    damaged = bytearray(blob)
    damaged[position] ^= 1 << bit
    return (f"corrupt-v3-frame {region}: bit {bit} of byte {position}",
            bytes(damaged))
