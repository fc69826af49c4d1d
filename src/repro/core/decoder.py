"""Trace decoder: from stored cycle packets to per-channel replay feeds (§3.4).

The decoder reverses the encoder: it parses the serialized trace body into
cycle packets, then decomposes each packet into per-channel
:class:`~repro.core.packets.ChannelPacket` views paired with the packet's
``Ends`` bitvector. Every channel replayer receives the *full* sequence of
``(channel packet, Ends)`` pairs — the Ends fields are what let each
replayer reconstruct the vector clocks that encode the recorded
happens-before relations (§3.5).

Two feed representations exist:

* the **element feed** (:class:`ReplayElement`, :meth:`TraceDecoder.all_feeds`)
  mirrors the hardware decomposition one-to-one: every channel sees every
  packet, and replayers accumulate ``T_expected`` incrementally. Simple, but
  a replayer walks O(packets) elements even if its channel has two events.
* the **compact feed** (:class:`ReplayAction`, :meth:`TraceDecoder.compact_feeds`)
  precomputes, in one pass over the body, only the *actions* a replayer
  must gate — input starts (with their payload word) and output end
  credits — each carrying a snapshot of the ``T_expected`` prerequisites at
  that point in the stream. Replayers then walk O(own events) and compare
  against ready-made clocks; consumed actions never need revisiting. The
  two representations drive byte-identical replays (``tests/test_decoder_shim.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.events import ChannelTable
from repro.core.packets import CyclePacket, deserialize_packets, iter_bits
from repro.core.vector_clock import VectorClock


@dataclass(frozen=True)
class ReplayElement:
    """One ``(channel packet, Ends)`` pair for one channel.

    ``start``/``end`` describe this channel's events in the source cycle
    packet (either may be false); ``content`` is present for input-channel
    starts; ``ends_mask`` is the cycle packet's full Ends bitvector.
    """

    start: bool
    end: bool
    content: Optional[bytes]
    ends_mask: int


@dataclass(frozen=True)
class ReplayAction:
    """One gated replay event for one channel.

    ``word`` is the payload to inject for an input-channel start, ``None``
    for an output-channel end credit. ``expected`` is the full ``T_expected``
    prerequisite vector at this point of the recorded stream — the sum of
    the ``Ends`` bitvectors of every packet *before* the one this action
    came from, exactly what the element feed accumulates incrementally.
    """

    word: Optional[int]
    expected: VectorClock


@dataclass
class CompactFeed:
    """A channel's compact replay feed: its gated actions, in trace order."""

    index: int
    direction: str
    actions: List[ReplayAction]


class TraceDecoder:
    """Offline decoder from trace bytes to per-channel replay feeds."""

    def __init__(self, table: ChannelTable, with_validation: bool = True):
        self.table = table
        self.with_validation = with_validation

    def decode_packets(self, blob: bytes) -> List[CyclePacket]:
        """Parse the serialized trace body into cycle packets."""
        return deserialize_packets(blob, self.table, self.with_validation)

    def channel_feed(self, packets: List[CyclePacket],
                     index: int) -> List[ReplayElement]:
        """The ``(channel packet, Ends)`` sequence for channel ``index``."""
        feed: List[ReplayElement] = []
        for packet in packets:
            feed.append(ReplayElement(
                start=bool((packet.starts >> index) & 1),
                end=bool((packet.ends >> index) & 1),
                content=packet.contents.get(index),
                ends_mask=packet.ends,
            ))
        return feed

    def all_feeds(self, blob: bytes) -> List[List[ReplayElement]]:
        """Per-channel feeds for the whole table, decoded from ``blob``."""
        packets = self.decode_packets(blob)
        return [self.channel_feed(packets, i) for i in range(self.table.n)]

    # ------------------------------------------------------------------
    def compact_feeds(self, blob: bytes) -> List[CompactFeed]:
        """Compact per-channel feeds for the whole table, in ONE body pass.

        Walks the packets once, maintaining the running completed-end
        counts; each input start / output end encountered becomes a
        :class:`ReplayAction` whose ``expected`` clock is snapshotted
        *before* the packet's own ends are added — matching the element
        feed, where an action is gated before its element's ``ends_mask``
        advances ``T_expected``.
        """
        table = self.table
        n = table.n
        is_input = [table.is_input(i) for i in range(n)]
        counts = [0] * n
        feeds = [CompactFeed(i, "in" if is_input[i] else "out", [])
                 for i in range(n)]
        view = memoryview(blob)
        offset = 0
        size = len(view)
        while offset < size:
            packet, offset = CyclePacket.deserialize(
                view, offset, table, self.with_validation)
            snapshot: Optional[VectorClock] = None
            starts = packet.starts
            ends = packet.ends
            if starts:
                for i in iter_bits(starts, n):
                    if snapshot is None:
                        snapshot = VectorClock(counts)
                    feeds[i].actions.append(ReplayAction(
                        int.from_bytes(packet.contents[i], "little"),
                        snapshot))
            if ends:
                # Emit every output-end action against the pre-packet
                # snapshot first; only then apply the packet's increments
                # (same-packet ends are concurrent, so none of them may
                # appear in another's prerequisite clock).
                ended = iter_bits(ends, n)
                for i in ended:
                    if not is_input[i]:
                        if snapshot is None:
                            snapshot = VectorClock(counts)
                        feeds[i].actions.append(ReplayAction(None, snapshot))
                for i in ended:
                    counts[i] += 1
        return feeds
