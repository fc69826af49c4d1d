"""Channel packets and cycle packets — the on-the-wire trace format (§3.1–3.2).

A *channel packet* is what one channel monitor reports for one cycle:
whether a handshake started, the content (for starts on input channels, or
for ends on output channels when output validation is enabled), and whether
a handshake ended.

A *cycle packet* aggregates all channel packets of one clock cycle:

* ``Starts`` — bitvector over all monitored channels (bits set only for
  input channels) marking handshake starts this cycle;
* ``Ends``   — bitvector over all monitored channels marking handshake ends
  this cycle (inputs *and* outputs — this is what carries the happens-before
  information transaction determinism needs);
* ``Contents`` — the binary-tree-compacted contents of starting input
  channels, followed (when output validation is on) by the contents of
  ending output channels.

The serialized trace is the concatenation of serialized cycle packets for
*eventful* cycles only; no timestamps are stored (see §6 for why).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.contents_tree import pack_contents, unpack_contents
from repro.core.events import ChannelTable
from repro.errors import TraceFormatError

@dataclass
class ChannelPacket:
    """One channel monitor's report for one cycle."""

    start: bool = False
    end: bool = False
    content: bytes | None = None

    @property
    def is_empty(self) -> bool:
        return not (self.start or self.end)


def iter_bits(mask: int, n: int) -> List[int]:
    """Indices of set bits in ``mask`` among the low ``n`` positions, ascending."""
    if mask >> n:
        raise TraceFormatError(f"bitvector has bits above channel count {n}")
    out = []
    while mask:
        low = mask & -mask          # isolate the lowest set bit
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass
class CyclePacket:
    """All transaction events of one clock cycle, plus contents."""

    starts: int = 0                                   # bitmask over channels
    ends: int = 0                                     # bitmask over channels
    contents: Dict[int, bytes] = field(default_factory=dict)      # input starts
    validation: Dict[int, bytes] = field(default_factory=dict)    # output ends

    @property
    def is_empty(self) -> bool:
        return self.starts == 0 and self.ends == 0

    def clear(self) -> None:
        """Reset to the empty packet in place (the encoder reuses one)."""
        self.starts = 0
        self.ends = 0
        self.contents.clear()
        self.validation.clear()

    # ------------------------------------------------------------------
    def channel_packet(self, index: int) -> ChannelPacket:
        """Decompose this cycle packet into one channel's packet (§3.4)."""
        return ChannelPacket(
            start=bool((self.starts >> index) & 1),
            end=bool((self.ends >> index) & 1),
            content=self.contents.get(index),
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def serialize(self, table: ChannelTable, with_validation: bool) -> bytes:
        """Encode as ``[Starts][Ends][Contents]`` with fixed-width bitvectors."""
        out = bytearray()
        self.serialize_into(out, table, with_validation)
        return bytes(out)

    def serialize_into(self, out: bytearray, table: ChannelTable,
                       with_validation: bool) -> None:
        """Append the encoding to ``out`` without intermediate allocations.

        The Contents/Validation fields are dense concatenations in ascending
        channel order — exactly what the hardware's binary reduction tree
        (:func:`~repro.core.contents_tree.pack_contents`) produces, appended
        piecewise instead of joined; the round-trip property tests pin the
        two encodings byte-identical.
        """
        nbytes = table.bitvec_bytes
        out += self.starts.to_bytes(nbytes, "little")
        out += self.ends.to_bytes(nbytes, "little")
        contents = self.contents
        if contents:
            for index in sorted(contents):
                out += contents[index]
        validation = self.validation if with_validation else None
        if validation:
            for index in sorted(validation):
                out += validation[index]

    @classmethod
    def deserialize(cls, blob: memoryview, offset: int, table: ChannelTable,
                    with_validation: bool) -> Tuple["CyclePacket", int]:
        """Decode one packet at ``offset``; returns (packet, next offset)."""
        nbytes = table.bitvec_bytes
        if offset + 2 * nbytes > len(blob):
            raise TraceFormatError("trace truncated inside a cycle-packet header")
        starts = int.from_bytes(blob[offset:offset + nbytes], "little")
        ends = int.from_bytes(blob[offset + nbytes:offset + 2 * nbytes], "little")
        cursor = offset + 2 * nbytes
        started = iter_bits(starts, table.n)
        for index in started:
            if not table.is_input(index):
                raise TraceFormatError(
                    f"start bit set for output channel {table[index].name}"
                )
        content_len = sum(table[i].content_bytes for i in started)
        # memoryview slices go straight into unpack_contents — the only copy
        # is the final per-channel bytes() the packet keeps.
        contents = unpack_contents(blob[cursor:cursor + content_len],
                                   started, table)
        cursor += content_len
        validation: Dict[int, bytes] = {}
        if with_validation:
            ended_outputs = [i for i in iter_bits(ends, table.n)
                             if not table.is_input(i)]
            val_len = sum(table[i].content_bytes for i in ended_outputs)
            validation = unpack_contents(blob[cursor:cursor + val_len],
                                         ended_outputs, table)
            cursor += val_len
        packet = cls(starts=starts, ends=ends, contents=contents,
                     validation=validation)
        if packet.is_empty:
            raise TraceFormatError(f"empty cycle packet at offset {offset}")
        return packet, cursor


def serialize_packets(packets: List[CyclePacket], table: ChannelTable,
                      with_validation: bool) -> bytes:
    """Concatenate serialized cycle packets (the trace body)."""
    return b"".join(p.serialize(table, with_validation) for p in packets)


def deserialize_packets(blob: bytes, table: ChannelTable,
                        with_validation: bool) -> List[CyclePacket]:
    """Parse a trace body back into its cycle packets."""
    view = memoryview(blob)
    packets: List[CyclePacket] = []
    offset = 0
    while offset < len(view):
        packet, offset = CyclePacket.deserialize(view, offset, table,
                                                 with_validation)
        packets.append(packet)
    return packets


def scan_packet_prefix(blob: "bytes | memoryview", table: ChannelTable,
                       with_validation: bool) -> Tuple[int, int]:
    """Length of the longest decodable packet prefix of ``blob``.

    Returns ``(n_packets, n_bytes)``: the count of cycle packets that parse
    cleanly from offset 0 and the byte offset where the first undecodable
    packet (truncation, output-start bit, bit above the channel count,
    empty packet) begins. A fully valid body returns
    ``(packet_count, len(blob))``.

    A header-only walk: each packet's length follows from its
    Starts/Ends bitvectors and the channel table's content widths, so no
    contents are decoded and no :class:`CyclePacket` is built. It accepts
    exactly what a :meth:`CyclePacket.deserialize` loop accepts (the
    walker property tests pin the two together).

    This is the one packet walker behind salvage and v3 loading: a v2
    body cut short by a crash mid-recording (or corrupted from some point
    onward) still yields a loadable, replayable prefix trace, and each
    decompressed v3 epoch is checked packet by packet before its bytes
    join the body.
    """
    view = memoryview(blob)
    size = len(view)
    n = table.n
    nbytes = table.bitvec_bytes
    widths = [table[i].content_bytes for i in range(n)]
    inputs = sum(1 << i for i in table.input_indices)
    offset = 0
    count = 0
    while offset + 2 * nbytes <= size:
        starts = int.from_bytes(view[offset:offset + nbytes], "little")
        ends = int.from_bytes(view[offset + nbytes:offset + 2 * nbytes],
                              "little")
        if not (starts or ends) or starts >> n or starts & ~inputs:
            break
        cursor = offset + 2 * nbytes
        for i in iter_bits(starts, n):
            cursor += widths[i]
        if with_validation:
            if ends >> n:
                break
            for i in iter_bits(ends & ~inputs, n):
                cursor += widths[i]
        if cursor > size:
            break
        offset = cursor
        count += 1
    return count, offset
