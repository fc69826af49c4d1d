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

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.contents_tree import pack_contents, unpack_contents
from repro.core.events import ChannelTable
from repro.errors import TraceFormatError

DEDUP_MIN_BYTES = 4
"""Payloads shorter than this are never dictionary-coded: a backref costs
two bytes, so tiny fields (AXI-Lite B responses, 1-byte doorbells) stay
literal and skip the dictionary entirely on both sides."""

DEDUP_SLOT_BYTES = 2
"""Wire width of one backref: a little-endian dictionary slot id."""

DEFAULT_DEDUP_SLOTS = 1024
"""Default bounded-dictionary capacity (must fit in DEDUP_SLOT_BYTES)."""


class DedupDict:
    """Bounded LRU content dictionary, reconstructible from the stream alone.

    The flight recorder's dedup transform replaces repeated ``Contents`` /
    ``Validation`` payloads with 2-byte *backrefs* into this dictionary.
    Encoder and decoder each hold one instance and drive it with the exact
    same event sequence — a literal payload is inserted, a backref touches
    its slot — so slot assignment and LRU eviction stay bit-symmetric
    without any dictionary state ever being serialized.

    Slot lifecycle: fresh literals take ascending free slots until the
    capacity is reached, then evict the least-recently-used slot (recency
    is advanced by both hits/backrefs and inserts). The encoder keys a
    reverse map on the payload bytes themselves (exact match, no collision
    risk); the decoder only ever indexes by slot.
    """

    def __init__(self, slots: int = DEFAULT_DEDUP_SLOTS):
        if not 1 <= slots <= 1 << (8 * DEDUP_SLOT_BYTES):
            raise TraceFormatError(
                f"dedup dictionary needs 1..{1 << (8 * DEDUP_SLOT_BYTES)} "
                f"slots, got {slots}")
        self.slots = slots
        self._content: List[Optional[bytes]] = [None] * slots
        self._by_content: Dict[bytes, int] = {}
        self._order: "OrderedDict[int, None]" = OrderedDict()
        self._next_free = 0
        self.hits = 0
        self.inserts = 0
        self.evictions = 0

    def find(self, content: bytes) -> Optional[int]:
        """Encoder side: slot of ``content`` if cached (touches recency)."""
        slot = self._by_content.get(content)
        if slot is not None:
            self.hits += 1
            self._order.move_to_end(slot)
        return slot

    def insert(self, content: bytes) -> int:
        """Both sides: cache a literal payload; returns its slot."""
        if self._next_free < self.slots:
            slot = self._next_free
            self._next_free += 1
        else:
            slot, _ = self._order.popitem(last=False)   # LRU victim
            old = self._content[slot]
            if old is not None:
                self._by_content.pop(old, None)
            self.evictions += 1
        self._content[slot] = content
        self._by_content[content] = slot
        self._order[slot] = None
        self.inserts += 1
        return slot

    def get(self, slot: int) -> bytes:
        """Decoder side: resolve a backref (touches recency, counts a hit)."""
        if not 0 <= slot < self.slots or self._content[slot] is None:
            raise TraceFormatError(
                f"backref to unwritten dedup slot {slot}")
        self.hits += 1
        self._order.move_to_end(slot)
        return self._content[slot]     # type: ignore[return-value]

    def clear(self) -> None:
        """Reset to the empty dictionary (epoch re-anchor on both sides)."""
        self._content = [None] * self.slots
        self._by_content.clear()
        self._order.clear()
        self._next_free = 0


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
                       with_validation: bool,
                       dedup: Optional[DedupDict] = None) -> Optional[int]:
        """Append the encoding to ``out`` without intermediate allocations.

        The Contents/Validation fields are dense concatenations in ascending
        channel order — exactly what the hardware's binary reduction tree
        (:func:`~repro.core.contents_tree.pack_contents`) produces, appended
        piecewise instead of joined; the round-trip property tests pin the
        two encodings byte-identical.

        With ``dedup`` set, the flight recorder's dictionary transform is
        applied: when any payload entry of this packet is wide enough to
        dictionary-code (``content_bytes >= DEDUP_MIN_BYTES``) a *dedup
        mask* bitvector is emitted after ``Ends``, and each masked entry is
        replaced by a 2-byte backref slot. Whether the mask is present is
        fully determined by ``Starts``/``Ends`` and the channel table, so
        the decoder needs no flag bytes. Channels are input xor output, so
        one mask covers Contents and Validation entries without ambiguity.
        Returns the byte count the *un-deduped* encoding would have cost
        (``None`` on the plain path) so callers can track the savings
        without a second pass.
        """
        nbytes = table.bitvec_bytes
        out += self.starts.to_bytes(nbytes, "little")
        out += self.ends.to_bytes(nbytes, "little")
        contents = self.contents
        validation = self.validation if with_validation else None
        if dedup is None:
            if contents:
                for index in sorted(contents):
                    out += contents[index]
            if validation:
                for index in sorted(validation):
                    out += validation[index]
            return None
        # Dedup path: one pass per payload dict, mask patched in place.
        flat = 2 * nbytes
        has_mask = False
        if contents:
            for content in contents.values():
                if len(content) >= DEDUP_MIN_BYTES:
                    has_mask = True
                    break
        if validation and not has_mask:
            for content in validation.values():
                if len(content) >= DEDUP_MIN_BYTES:
                    has_mask = True
                    break
        mask_pos = len(out)
        if has_mask:
            out += bytes(nbytes)   # placeholder, patched below
        mask = 0
        for source in (contents, validation):
            if not source:
                continue
            for index in sorted(source):
                content = source[index]
                width = len(content)
                flat += width
                if width >= DEDUP_MIN_BYTES:
                    slot = dedup.find(content)
                    if slot is not None:
                        mask |= 1 << index
                        out += slot.to_bytes(DEDUP_SLOT_BYTES, "little")
                        continue
                    dedup.insert(content)
                out += content
        if mask:
            out[mask_pos:mask_pos + nbytes] = mask.to_bytes(nbytes, "little")
        return flat

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
    packet (truncation, output-start bit, empty packet, content overrun)
    begins. A fully valid body returns ``(packet_count, len(blob))``.

    This is the salvage primitive: a trace whose body was cut short by a
    crash mid-recording — or corrupted from some point onward — still
    yields a loadable, replayable prefix trace.
    """
    view = memoryview(blob)
    size = len(view)
    offset = 0
    count = 0
    while offset < size:
        try:
            _, next_offset = CyclePacket.deserialize(view, offset, table,
                                                     with_validation)
        except TraceFormatError:
            break
        offset = next_offset
        count += 1
    return count, offset
