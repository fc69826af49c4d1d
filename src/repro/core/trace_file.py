"""Trace container: header + serialized cycle packets, save/load support.

A :class:`TraceFile` is what Vidi's software runtime persists to disk after
a recording and hands back for replay or offline analysis (validation,
mutation). The header carries everything needed to interpret the body:
the channel table (names, directions, content lengths), whether output
contents were recorded, and free-form metadata (application name, workload
seed, run configuration).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.core.events import ChannelTable
from repro.core.packets import (CyclePacket, deserialize_packets, iter_bits,
                                scan_packet_prefix, serialize_packets)
from repro.errors import TraceFormatError, TraceIntegrityError

_MAGIC = b"VIDITRC1"
_MAGIC_V2 = b"VIDITRC2"
_MAGIC_V3 = b"VIDITRC3"
# v2 container framing (docs/TRACE_FORMAT.md): magic(8) + header_len(8) +
# header_crc32(4) + header + body + footer[body_len(8) + body_crc32(4)].
# Header and body are independently CRC32-framed so any at-rest corruption
# is caught before bytes reach the decoder; the footer trails the body so a
# streaming writer can append packets without knowing the final length —
# a crash before the footer lands leaves a salvageable prefix.
_PREAMBLE_V2 = 8 + 8 + 4
_FOOTER_V2 = 8 + 4
DEFAULT_FORMAT_VERSION = 2

# --- v3 flight-recorder framing (docs/TRACE_FORMAT.md) -----------------
# Same preamble/header as v2, but the body is a sequence of CRC-framed
# *frames* instead of a raw packet stream:
#
#   frame := kind(1) + payload_len(4 LE) + payload_crc32(4 LE) + payload
#
#   RUN    — a compressed run of cycle packets in the plain body
#            encoding (decompressed, an epoch's RUN payloads concatenate
#            to a slice of the flat trace body). Within one anchor-led
#            epoch, RUN payloads are consecutive segments of a single
#            DEFLATE stream cut at Z_SYNC_FLUSH boundaries: the
#            32 KiB compression window carries across frames (near
#            whole-stream ratio) while any frame *prefix* of the epoch
#            still decodes — which is all salvage ever replays, since a
#            torn frame forces a resync to the next ANCHOR anyway.
#            Standalone zlib streams (one per frame) are also accepted on
#            decode for hand-built containers;
#   ANCHOR — a re-anchoring point: JSON {ordinal, cycle, checkpoint},
#            zlib-compressed (checkpoint word values hex-packed); restarts
#            the RUN compression stream on both sides and (for ring
#            traces) carries the architectural checkpoint replay restores
#            from;
#   END    — empty clean-close marker; its absence means the recording
#            was cut short (crash) and the stream needs salvage.
#
# Every frame carries its own CRC32, so salvage can recover the longest
# valid frame prefix and — unlike v2 — *re-synchronise* past a torn or
# corrupt frame by scanning for the next CRC-valid ANCHOR frame. That is
# what makes the ring buffer's wrapped suffix loadable: eviction always
# leaves an ANCHOR-led frame sequence.
FRAME_RUN = 0x52      # 'R'
FRAME_ANCHOR = 0x41   # 'A'
FRAME_END = 0x45      # 'E'
_FRAME_KINDS = (FRAME_RUN, FRAME_ANCHOR, FRAME_END)
_FRAME_HEADER = 1 + 4 + 4
DEFAULT_V3_COMPRESS_LEVEL = 3
_V3_RUN_BYTES = 1 << 16   # raw stream bytes per RUN frame in to_bytes()


def encode_frame(kind: int, payload: bytes) -> bytes:
    """Frame ``payload`` as ``kind + len + crc32 + payload``."""
    return b"".join([
        kind.to_bytes(1, "little"),
        len(payload).to_bytes(4, "little"),
        zlib.crc32(payload).to_bytes(4, "little"),
        payload,
    ])


def encode_run_frame(raw: "bytes | bytearray",
                     level: int = DEFAULT_V3_COMPRESS_LEVEL) -> bytes:
    """A RUN frame holding ``raw`` stream bytes as a standalone zlib body.

    Writers that emit several RUN frames per epoch should instead share
    one ``zlib.compressobj`` cut at ``Z_SYNC_FLUSH`` boundaries (see
    :class:`~repro.core.trace_ring.RingTraceStore`) so the compression
    window spans frames; the decoder accepts both forms.
    """
    return encode_frame(FRAME_RUN, zlib.compress(bytes(raw), level))


_WORD_MAP_KEYS = ("dram_words", "registers", "host_words")


def _pack_checkpoint_words(checkpoint: Optional[Dict[str, Any]]):
    """Hex-pack checkpoint word values for the ANCHOR payload.

    A 64-byte storage word is ~155 decimal digits but a fixed 128 hex
    digits, and hex compresses better — together this shaves ~15-20% off
    an ANCHOR frame, the ring's dominant incompressible payload.
    """
    if not isinstance(checkpoint, dict):
        return checkpoint
    packed = dict(checkpoint)
    for key in _WORD_MAP_KEYS:
        words = packed.get(key)
        if isinstance(words, dict):
            packed[key] = {a: format(v, "x") for a, v in words.items()}
    return packed


def _unpack_checkpoint_words(checkpoint):
    if not isinstance(checkpoint, dict):
        return checkpoint
    unpacked = dict(checkpoint)
    for key in _WORD_MAP_KEYS:
        words = unpacked.get(key)
        if isinstance(words, dict):
            unpacked[key] = {a: int(v, 16) if isinstance(v, str) else v
                             for a, v in words.items()}
    return unpacked


def encode_anchor_frame(ordinal: int, cycle: int,
                        checkpoint: Optional[Dict[str, Any]]) -> bytes:
    """An ANCHOR frame: packet ordinal + cycle + optional checkpoint dict."""
    payload = json.dumps({
        "ordinal": ordinal,
        "cycle": cycle,
        "checkpoint": _pack_checkpoint_words(checkpoint),
    }).encode("utf-8")
    return encode_frame(FRAME_ANCHOR, zlib.compress(payload, 6))


def encode_end_frame() -> bytes:
    """The clean-close END frame."""
    return encode_frame(FRAME_END, b"")


def _parse_anchor_payload(payload: bytes) -> Dict[str, Any]:
    try:
        anchor = json.loads(zlib.decompress(payload))
        return {"ordinal": int(anchor["ordinal"]),
                "cycle": int(anchor["cycle"]),
                "checkpoint": _unpack_checkpoint_words(
                    anchor.get("checkpoint"))}
    except (zlib.error, ValueError, KeyError, TypeError) as exc:
        raise TraceFormatError(f"corrupt anchor frame: {exc}") from exc


def build_v3_container(table: ChannelTable, with_validation: bool,
                       metadata: Dict[str, Any], frame_stream: bytes) -> bytes:
    """Assemble a v3 container around an already-framed byte stream.

    The ring store hands over its retained frames verbatim (END included),
    so every surviving ANCHOR stays a salvage resync point — re-encoding
    through :meth:`TraceFile.to_bytes` would collapse them into one
    genesis anchor.
    """
    header = json.dumps({
        "channels": table.to_dict(),
        "with_validation": with_validation,
        "metadata": metadata,
        "compressed": False,
    }).encode("utf-8")
    return b"".join([
        _MAGIC_V3,
        len(header).to_bytes(8, "little"),
        zlib.crc32(header).to_bytes(4, "little"),
        header,
        frame_stream,
    ])


def _find_anchor_resync(blob: bytes, start: int) -> Optional[int]:
    """Next offset >= ``start`` where a CRC-valid ANCHOR frame begins.

    A one-byte scan: candidate positions are where the ANCHOR kind byte
    appears; a real anchor must then pass length bounds, its payload CRC32
    and JSON decode — a coincidental match has ~2^-32 odds.
    """
    needle = bytes([FRAME_ANCHOR])
    size = len(blob)
    pos = start
    while True:
        pos = blob.find(needle, pos)
        if pos < 0:
            return None
        if pos + _FRAME_HEADER <= size:
            plen = int.from_bytes(blob[pos + 1:pos + 5], "little")
            crc = int.from_bytes(blob[pos + 5:pos + 9], "little")
            end = pos + _FRAME_HEADER + plen
            if end <= size:
                payload = blob[pos + _FRAME_HEADER:end]
                if zlib.crc32(payload) == crc:
                    try:
                        _parse_anchor_payload(payload)
                        return pos
                    except TraceFormatError:
                        pass
        pos += 1


def _scan_v3_frames(blob: bytes, offset: int):
    """Walk the frame stream; returns ``(segments, reasons, end_seen)``.

    ``segments`` is a list of lists of ``(kind, payload)`` frames: a new
    segment starts wherever damage forced a resync to a later CRC-valid
    ANCHOR frame. ``reasons`` holds one human-readable string per damage
    site (empty for a pristine stream); ``end_seen`` reports whether the
    clean-close END frame terminated the stream.
    """
    segments: List[List[tuple]] = [[]]
    reasons: List[str] = []
    end_seen = False
    size = len(blob)
    while offset < size:
        damage = None
        kind = blob[offset]
        plen = crc = 0
        payload = b""
        if offset + _FRAME_HEADER > size:
            damage = "truncated frame header"
        elif kind not in _FRAME_KINDS:
            damage = f"unknown frame kind 0x{kind:02x}"
        else:
            plen = int.from_bytes(blob[offset + 1:offset + 5], "little")
            crc = int.from_bytes(blob[offset + 5:offset + 9], "little")
            if offset + _FRAME_HEADER + plen > size:
                damage = "truncated frame payload"
            else:
                payload = blob[offset + _FRAME_HEADER:
                               offset + _FRAME_HEADER + plen]
                if zlib.crc32(payload) != crc:
                    damage = "frame CRC32 mismatch"
        if damage is not None:
            reasons.append(f"{damage} at byte {offset}")
            if kind == FRAME_RUN and damage == "truncated frame payload":
                # A torn tail write: the partial payload bytes are genuine
                # (truncation, not corruption), and sync-flush DEFLATE
                # decodes any prefix — keep what survives for the tolerant
                # expansion instead of dropping the whole frame.
                segments[-1].append((FRAME_RUN,
                                     blob[offset + _FRAME_HEADER:]))
            resync = _find_anchor_resync(blob, offset + 1)
            if resync is None:
                break
            segments.append([])
            offset = resync
            continue
        offset += _FRAME_HEADER + plen
        if kind == FRAME_END:
            end_seen = True
            if offset != size:
                reasons.append(
                    f"{size - offset} trailing byte(s) after the END frame")
            break
        segments[-1].append((kind, payload))
    return segments, reasons, end_seen


def _expand_v3_frames(frames: List[tuple], table: ChannelTable,
                      with_validation: bool, tolerate: bool):
    """Expand an ANCHOR-led frame window into a flat packet body.

    Returns ``(body, start, info)`` where ``start`` is the first anchor's
    ``{ordinal, cycle, checkpoint}`` and ``info`` gathers expansion stats.
    Each decompressed epoch is already plain body bytes; the packet walker
    (:func:`~repro.core.packets.scan_packet_prefix`) checks it packet by
    packet and only its decodable prefix joins the body — with
    ``tolerate=False`` anything left over raises. Anchor ordinals are
    checked for consistency with the packet count so a mismatched window
    fails loudly instead of replaying garbage.
    """
    body = bytearray()
    epoch = bytearray()
    # RUN frames within an epoch are segments of one DEFLATE stream
    # (Z_SYNC_FLUSH boundaries); the decompressor persists across frames
    # and restarts at each ANCHOR. A frame that *finishes* its stream
    # (standalone zlib body, e.g. a hand-built container) sets .eof and
    # the next frame simply starts a fresh stream.
    dobj = None
    start: Optional[Dict[str, Any]] = None
    info = {"packets": 0, "dropped_stream_bytes": 0, "anchors": 0,
            "stopped": None}

    def flush_epoch() -> bool:
        """Expand the buffered epoch; False if expansion had to stop."""
        if not epoch:
            return True
        n, consumed = scan_packet_prefix(epoch, table, with_validation)
        leftover = len(epoch) - consumed
        if leftover and not tolerate:
            raise TraceFormatError(
                f"undecodable cycle packet {n} of a run-frame epoch "
                f"({leftover} byte(s) left)")
        del epoch[consumed:]
        body.extend(epoch)
        epoch.clear()
        info["packets"] += n
        if leftover:
            info["dropped_stream_bytes"] += leftover
            info["stopped"] = "undecodable packet inside a run frame"
            return False
        return True

    for kind, payload in frames:
        if kind == FRAME_ANCHOR:
            anchor = _parse_anchor_payload(payload)
            info["anchors"] += 1
            if start is None:
                start = anchor
                continue
            if not flush_epoch():
                break
            expected = start["ordinal"] + info["packets"]
            if anchor["ordinal"] != expected:
                if not tolerate:
                    raise TraceFormatError(
                        f"anchor ordinal {anchor['ordinal']} does not match "
                        f"the {expected} packets expanded so far")
                info["stopped"] = "anchor ordinal mismatch"
                break
            dobj = None
        elif kind == FRAME_RUN:
            if start is None:
                # Caller trims to an ANCHOR-led window; tolerate strays.
                continue
            try:
                if dobj is None or dobj.eof:
                    dobj = zlib.decompressobj()
                epoch += dobj.decompress(payload)
            except zlib.error as exc:
                if not tolerate:
                    raise TraceFormatError(
                        f"corrupt compressed run frame: {exc}") from exc
                info["stopped"] = "undecompressible run frame"
                break
    else:
        flush_epoch()
    if start is None:
        start = {"ordinal": 0, "cycle": 0, "checkpoint": None}
    return bytes(body), start, info


class TraceIndex:
    """Packet ordinal → byte offset map over a trace body.

    Built in one pass that reads only packet *headers* (the fixed-width
    Starts/Ends bitvectors) and computes each packet's content length from
    the channel table — no contents are decoded and no bytes are copied.
    With the index, replay and the divergence detector seek to any packet
    (or slice out any packet range, e.g. a checkpoint shard) in O(1)
    instead of re-scanning the stream.
    """

    def __init__(self, body: bytes, table: ChannelTable,
                 with_validation: bool):
        self.table = table
        self.with_validation = with_validation
        nbytes = table.bitvec_bytes
        content_bytes = [table[i].content_bytes for i in range(table.n)]
        is_input = [table.is_input(i) for i in range(table.n)]
        view = memoryview(body)
        size = len(view)
        offsets: List[int] = []
        offset = 0
        while offset < size:
            if offset + 2 * nbytes > size:
                raise TraceFormatError(
                    "trace truncated inside a cycle-packet header")
            offsets.append(offset)
            starts = int.from_bytes(view[offset:offset + nbytes], "little")
            ends = int.from_bytes(
                view[offset + nbytes:offset + 2 * nbytes], "little")
            offset += 2 * nbytes
            for i in iter_bits(starts, table.n):
                offset += content_bytes[i]
            if with_validation:
                for i in iter_bits(ends, table.n):
                    if not is_input[i]:
                        offset += content_bytes[i]
        self.offsets = offsets
        self.end = size
        self._body = body

    def __len__(self) -> int:
        return len(self.offsets)

    def offset_of(self, ordinal: int) -> int:
        """Byte offset of packet ``ordinal`` (``len(self)`` maps to the end)."""
        if ordinal == len(self.offsets):
            return self.end
        return self.offsets[ordinal]

    def slice(self, start: int, stop: int) -> bytes:
        """The body bytes spanning packets ``[start, stop)`` — a valid
        trace body of its own (used to carve checkpoint shards)."""
        return self._body[self.offset_of(start):self.offset_of(stop)]

    def packet_at(self, ordinal: int) -> CyclePacket:
        """Decode exactly one packet — the O(1) seek replay and the
        divergence detector use."""
        packet, _ = CyclePacket.deserialize(
            memoryview(self._body), self.offsets[ordinal], self.table,
            self.with_validation)
        return packet


@dataclass
class TraceFile:
    """A recorded execution trace."""

    table: ChannelTable
    body: bytes
    with_validation: bool = True
    metadata: Dict[str, Any] = field(default_factory=dict)
    format_version: int = field(default=DEFAULT_FORMAT_VERSION, compare=False)
    container_stats: Optional[Dict[str, Any]] = field(
        default=None, init=False, repr=False, compare=False)
    _index: Optional[TraceIndex] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def salvaged(self) -> bool:
        """True when this trace is a salvage-recovered prefix."""
        return "salvaged" in self.metadata

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Length of the encoded packet stream (the paper's TS metric)."""
        return len(self.body)

    def packets(self) -> List[CyclePacket]:
        """Decode the body into cycle packets."""
        return deserialize_packets(self.body, self.table, self.with_validation)

    def index(self) -> TraceIndex:
        """The packet-offset index for this body (built once, cached)."""
        if self._index is None:
            self._index = TraceIndex(self.body, self.table,
                                     self.with_validation)
        return self._index

    @property
    def packet_count(self) -> int:
        """Number of eventful-cycle packets in the body."""
        return len(self.index())

    def iter_packets(self) -> Iterator[CyclePacket]:
        """Decode packets lazily — no up-front list materialization."""
        view = memoryview(self.body)
        offset = 0
        size = len(view)
        while offset < size:
            packet, offset = CyclePacket.deserialize(
                view, offset, self.table, self.with_validation)
            yield packet

    @classmethod
    def from_packets(cls, table: ChannelTable, packets: List[CyclePacket],
                     with_validation: bool = True,
                     metadata: Dict[str, Any] | None = None) -> "TraceFile":
        """Build a trace from in-memory packets (used by the mutation tool)."""
        body = serialize_packets(packets, table, with_validation)
        return cls(table=table, body=body, with_validation=with_validation,
                   metadata=dict(metadata or {}))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _header_bytes(self, compress: bool) -> bytes:
        return json.dumps({
            "channels": self.table.to_dict(),
            "with_validation": self.with_validation,
            "metadata": self.metadata,
            "compressed": compress,
        }).encode("utf-8")

    def to_bytes(self, compress: bool = False,
                 version: int = DEFAULT_FORMAT_VERSION,
                 compress_level: int = DEFAULT_V3_COMPRESS_LEVEL) -> bytes:
        """Serialize the whole trace (header + body) for storage.

        ``version=2`` (the default) produces the CRC32-framed container —
        any flipped or missing byte fails loudly at load time instead of
        reaching the decoder. ``version=1`` writes the legacy unframed
        layout for older readers. ``version=3`` writes the flight-recorder
        frame container: the body is split into zlib-compressed,
        individually CRC-framed RUN frames behind a genesis ANCHOR
        (carrying this trace's ``metadata['ring']`` re-anchor point, if
        any) and before a clean-close END frame. All three load back with
        :meth:`from_bytes`.

        ``compress=True`` additionally DEFLATEs the v1/v2 packet body —
        useful for archiving traces offline; the on-FPGA format (what the
        TS column of Table 1 measures) stays uncompressed. v3 frames are
        always per-frame compressed (``compress_level``), so the flag is
        meaningless there and rejected.
        """
        if version == 3:
            if compress:
                raise TraceFormatError(
                    "v3 frames are always compressed; compress= applies "
                    "to v1/v2 only")
            return self._to_bytes_v3(compress_level)
        body = zlib.compress(self.body, level=6) if compress else self.body
        header = self._header_bytes(compress)
        if version == 1:
            return b"".join([
                _MAGIC,
                len(header).to_bytes(8, "little"),
                header,
                len(body).to_bytes(8, "little"),
                body,
            ])
        if version != 2:
            raise TraceFormatError(f"unknown trace format version {version}")
        return b"".join([
            _MAGIC_V2,
            len(header).to_bytes(8, "little"),
            zlib.crc32(header).to_bytes(4, "little"),
            header,
            body,
            len(body).to_bytes(8, "little"),
            zlib.crc32(bytes(body)).to_bytes(4, "little"),
        ])

    def _to_bytes_v3(self, compress_level: int) -> bytes:
        """Re-encode the flat body as a single-window v3 frame stream."""
        header = self._header_bytes(False)
        ring = self.metadata.get("ring") or {}
        parts = [
            _MAGIC_V3,
            len(header).to_bytes(8, "little"),
            zlib.crc32(header).to_bytes(4, "little"),
            header,
            encode_anchor_frame(int(ring.get("ordinal", 0)),
                                int(ring.get("cycle", 0)),
                                ring.get("checkpoint")),
        ]
        # One DEFLATE stream cut at sync-flush boundaries: the compression
        # window spans RUN frames, matching what the ring store emits.
        cobj = zlib.compressobj(compress_level)
        view = memoryview(self.body)
        for offset in range(0, len(view), _V3_RUN_BYTES):
            payload = cobj.compress(view[offset:offset + _V3_RUN_BYTES]) \
                + cobj.flush(zlib.Z_SYNC_FLUSH)
            parts.append(encode_frame(FRAME_RUN, payload))
        parts.append(encode_end_frame())
        return b"".join(parts)

    # ------------------------------------------------------------------
    @staticmethod
    def _parse_header(header_bytes: bytes) -> tuple:
        try:
            header = json.loads(header_bytes)
        except ValueError as exc:
            raise TraceFormatError(f"corrupt trace header: {exc}") from exc
        try:
            table = ChannelTable.from_dict(header["channels"])
            with_validation = bool(header["with_validation"])
            metadata = header.get("metadata", {})
            compressed = bool(header.get("compressed"))
        except Exception as exc:   # mutated-but-valid JSON headers
            raise TraceFormatError(f"corrupt trace header: {exc}") from exc
        return table, with_validation, metadata, compressed, header

    @staticmethod
    def _decompress(body: "bytes | memoryview") -> bytes:
        try:
            return zlib.decompress(bytes(body))
        except zlib.error as exc:
            raise TraceFormatError(f"corrupt compressed body: {exc}") from exc

    @classmethod
    def from_bytes(cls, blob: bytes, salvage: bool = False) -> "TraceFile":
        """Parse a serialized trace; validates magic, framing and (v2) CRCs.

        With ``salvage=True`` a v2 blob whose *body* segment is damaged —
        truncated mid-recording, missing its footer, or failing its CRC —
        is recovered as the longest decodable packet prefix instead of
        raising; the result carries a ``metadata['salvaged']`` record with
        the recovered/dropped byte counts. The header segment must still be
        intact (without the channel table nothing can be interpreted), and
        v1 blobs have no redundancy to salvage with.
        """
        if len(blob) < 8:
            raise TraceFormatError(
                f"blob of {len(blob)} bytes is too short for a trace magic")
        magic = bytes(blob[:8])
        if magic == _MAGIC_V3:
            return cls._from_bytes_v3(blob, salvage)
        if magic == _MAGIC_V2:
            return cls._from_bytes_v2(blob, salvage)
        if magic == _MAGIC:
            return cls._from_bytes_v1(blob)
        raise TraceFormatError("not a Vidi trace (bad magic)")

    @classmethod
    def _from_bytes_v1(cls, blob: bytes) -> "TraceFile":
        if len(blob) < 16:
            raise TraceFormatError("trace truncated inside the v1 preamble")
        header_len = int.from_bytes(blob[8:16], "little")
        cursor = 16
        if cursor + header_len > len(blob):
            raise TraceFormatError(
                f"trace header truncated: {header_len} bytes declared, "
                f"{len(blob) - cursor} available")
        table, with_validation, metadata, compressed, _ = cls._parse_header(
            blob[cursor:cursor + header_len])
        cursor += header_len
        if cursor + 8 > len(blob):
            raise TraceFormatError("trace truncated before the body length")
        body_len = int.from_bytes(blob[cursor:cursor + 8], "little")
        cursor += 8
        body = blob[cursor:cursor + body_len]
        if len(body) != body_len:
            raise TraceFormatError("trace body truncated")
        if cursor + body_len != len(blob):
            raise TraceFormatError(
                f"{len(blob) - cursor - body_len} trailing byte(s) after "
                "the trace body")
        if compressed:
            body = cls._decompress(body)
        return cls(table=table, body=bytes(body),
                   with_validation=with_validation, metadata=metadata,
                   format_version=1)

    @classmethod
    def _from_bytes_v2(cls, blob: bytes, salvage: bool) -> "TraceFile":
        if len(blob) < _PREAMBLE_V2:
            raise TraceFormatError("trace truncated inside the v2 preamble")
        header_len = int.from_bytes(blob[8:16], "little")
        header_crc = int.from_bytes(blob[16:20], "little")
        header_end = _PREAMBLE_V2 + header_len
        if header_end > len(blob):
            raise TraceFormatError(
                f"trace header truncated: {header_len} bytes declared, "
                f"{len(blob) - _PREAMBLE_V2} available")
        header_bytes = bytes(blob[_PREAMBLE_V2:header_end])
        if zlib.crc32(header_bytes) != header_crc:
            raise TraceIntegrityError("trace header CRC32 mismatch")
        table, with_validation, metadata, compressed, _ = cls._parse_header(
            header_bytes)
        rest = memoryview(blob)[header_end:]
        damage: Optional[str] = None
        body: "bytes | memoryview" = b""
        if len(rest) < _FOOTER_V2:
            damage = "footer missing (crash before finalize?)"
        else:
            body_len = int.from_bytes(rest[-12:-4], "little")
            body_crc = int.from_bytes(rest[-4:], "little")
            body = rest[:-_FOOTER_V2]
            if body_len != len(body):
                damage = (f"body length mismatch: footer says {body_len}, "
                          f"{len(body)} present (truncation or trailing "
                          "garbage)")
            elif zlib.crc32(bytes(body)) != body_crc:
                damage = "body CRC32 mismatch"
        if damage is None:
            if compressed:
                body = cls._decompress(body)
            return cls(table=table, body=bytes(body),
                       with_validation=with_validation, metadata=metadata,
                       format_version=2)
        if not salvage:
            raise TraceIntegrityError(f"corrupt trace body: {damage}")
        # Salvage: recover the longest decodable packet prefix. When the
        # footer framing is consistent the damage is interior corruption and
        # the scan region is the body proper; otherwise (truncation, missing
        # footer) the trailing bytes may themselves be packet data, so scan
        # everything after the header.
        region = body if (len(rest) >= _FOOTER_V2
                          and len(body) == int.from_bytes(rest[-12:-4],
                                                          "little")) else rest
        if compressed:
            # DEFLATE has no packet alignment to resynchronise on; a partial
            # stream either inflates or it does not.
            try:
                region = zlib.decompress(bytes(region))
            except zlib.error as exc:
                raise TraceIntegrityError(
                    f"cannot salvage a corrupt compressed body: {exc}"
                ) from exc
        packets, good_bytes = scan_packet_prefix(region, table,
                                                 with_validation)
        metadata = dict(metadata)
        metadata["salvaged"] = {
            "reason": damage,
            "packets": packets,
            "bytes": good_bytes,
            "dropped_bytes": len(region) - good_bytes,
        }
        return cls(table=table, body=bytes(region[:good_bytes]),
                   with_validation=with_validation, metadata=metadata,
                   format_version=2)

    @classmethod
    def _from_bytes_v3(cls, blob: bytes, salvage: bool) -> "TraceFile":
        """Load a flight-recorder frame container.

        The frame stream is scanned frame-by-frame (each frame carries its
        own CRC32). A pristine stream is a single ANCHOR-led segment closed
        by END. Under ``salvage=True`` a damaged stream is recovered as the
        *most recent* ANCHOR-led window: damage splits the stream into
        segments by resyncing to the next CRC-valid ANCHOR frame, and the
        last segment that still leads with an anchor wins — for a ring
        buffer torn at the wrap point, that is exactly the suffix from the
        last re-anchor checkpoint. The expanded flat body then behaves like
        any other trace (index, replay, mutation), with
        ``metadata['ring']`` carrying the window's re-anchor point when it
        does not start at packet 0.
        """
        blob = bytes(blob)
        if len(blob) < _PREAMBLE_V2:
            raise TraceFormatError("trace truncated inside the v3 preamble")
        header_len = int.from_bytes(blob[8:16], "little")
        header_crc = int.from_bytes(blob[16:20], "little")
        header_end = _PREAMBLE_V2 + header_len
        if header_end > len(blob):
            raise TraceFormatError(
                f"trace header truncated: {header_len} bytes declared, "
                f"{len(blob) - _PREAMBLE_V2} available")
        header_bytes = blob[_PREAMBLE_V2:header_end]
        if zlib.crc32(header_bytes) != header_crc:
            raise TraceIntegrityError("trace header CRC32 mismatch")
        table, with_validation, metadata, _, header = cls._parse_header(
            header_bytes)
        legacy = header.get("v3")
        if isinstance(legacy, dict) and "dedup_slots" in legacy:
            # Dedup-coded RUN payloads (2-byte backrefs into an LRU content
            # dictionary) are not plain body bytes; salvage cannot help.
            raise TraceFormatError(
                "dedup-coded v3 container (header carries v3.dedup_slots): "
                "it predates the plain-body RUN format and cannot be loaded")
        segments, reasons, end_seen = _scan_v3_frames(blob, header_end)
        if not end_seen and not reasons:
            reasons.append("END frame missing (crash before finalize?)")
        if reasons and not salvage:
            raise TraceIntegrityError(
                f"corrupt trace frames: {reasons[0]}")
        chosen: Optional[List[tuple]] = None
        chosen_lead = 0
        for segment in reversed(segments):
            lead = 0
            while lead < len(segment) and segment[lead][0] != FRAME_ANCHOR:
                lead += 1
            if lead < len(segment):
                chosen = segment[lead:]
                chosen_lead = lead
                break
        if chosen is None:
            raise TraceIntegrityError(
                "no ANCHOR-led frame window survives in this v3 trace")
        if not reasons and chosen_lead:
            raise TraceFormatError("v3 stream does not begin with an anchor")
        body, start, info = _expand_v3_frames(
            chosen, table, with_validation, tolerate=salvage)
        metadata = dict(metadata)
        damaged = bool(reasons) or info["dropped_stream_bytes"] or \
            info["stopped"]
        if damaged:
            metadata["salvaged"] = {
                "reason": "; ".join(reasons) or info["stopped"],
                "packets": info["packets"],
                "bytes": len(body),
                "dropped_bytes": info["dropped_stream_bytes"],
                "resynced_segments": len(segments) - 1,
            }
        if start["ordinal"] or start["checkpoint"] is not None:
            metadata["ring"] = {"ordinal": start["ordinal"],
                                "cycle": start["cycle"],
                                "checkpoint": start["checkpoint"]}
        trace = cls(table=table, body=body, with_validation=with_validation,
                    metadata=metadata, format_version=3)
        trace.container_stats = {
            "format": 3,
            "container_bytes": len(blob),
            "frame_bytes": len(blob) - header_end,
            "body_bytes": len(body),
            "packets": info["packets"],
            "anchors": info["anchors"],
            "segments": len(segments),
        }
        return trace

    def save(self, path: str | Path, compress: bool = False,
             version: int = DEFAULT_FORMAT_VERSION) -> None:
        """Write the trace to disk (optionally DEFLATE-compressed)."""
        Path(path).write_bytes(self.to_bytes(compress=compress,
                                             version=version))

    @classmethod
    def load(cls, path: str | Path, salvage: bool = False) -> "TraceFile":
        """Read a trace from disk (``salvage=True``: recover a damaged v2
        body as its longest valid packet prefix)."""
        return cls.from_bytes(Path(path).read_bytes(), salvage=salvage)


class TraceWriter:
    """Streaming, crash-safe trace writer (v2 container only).

    Recording pipelines that persist as they go cannot hold the whole body
    in memory to compute lengths up front — and a crash mid-recording must
    not destroy the usable prefix. The writer therefore:

    1. writes the CRC-framed header immediately (channel table and metadata
       are known at recording start),
    2. appends raw body chunks (or whole packets) as the store drains them,
    3. on :meth:`close`, appends the ``body_len + body CRC32`` footer,
       fsyncs, and atomically renames ``<path>.part`` onto ``<path>``.

    A crash at any earlier point leaves only the ``.part`` file: its header
    is intact and its body is a packet prefix (possibly with a torn tail
    packet), which ``TraceFile.load(part_path, salvage=True)`` recovers —
    the availability guarantee for replay starting points.
    """

    def __init__(self, path: str | Path, table: ChannelTable,
                 with_validation: bool = True,
                 metadata: Optional[Dict[str, Any]] = None):
        self.path = Path(path)
        self.part_path = self.path.with_name(self.path.name + ".part")
        self.table = table
        self.with_validation = with_validation
        self.metadata = dict(metadata or {})
        self._crc = 0
        self._body_len = 0
        self._closed = False
        header = json.dumps({
            "channels": table.to_dict(),
            "with_validation": with_validation,
            "metadata": self.metadata,
            "compressed": False,
        }).encode("utf-8")
        self._fh = open(self.part_path, "wb")
        try:
            self._fh.write(_MAGIC_V2)
            self._fh.write(len(header).to_bytes(8, "little"))
            self._fh.write(zlib.crc32(header).to_bytes(4, "little"))
            self._fh.write(header)
            self._fh.flush()
        except BaseException:
            self._fh.close()
            raise

    def append(self, chunk: "bytes | memoryview") -> None:
        """Append raw body bytes (already-serialized cycle packets)."""
        if self._closed:
            raise TraceFormatError(f"writer for {self.path} is closed")
        data = bytes(chunk)
        self._fh.write(data)
        self._crc = zlib.crc32(data, self._crc)
        self._body_len += len(data)

    def append_packet(self, packet: CyclePacket) -> None:
        """Serialize and append one cycle packet."""
        self.append(packet.serialize(self.table, self.with_validation))

    def close(self) -> Path:
        """Finalize: footer, fsync, atomic rename. Returns the final path."""
        if self._closed:
            return self.path
        self._fh.write(self._body_len.to_bytes(8, "little"))
        self._fh.write(self._crc.to_bytes(4, "little"))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        os.replace(self.part_path, self.path)
        # The rename itself lives in the directory inode: without fsyncing
        # the parent directory a crash can publish an empty or torn file
        # despite the atomic-rename dance (the data fsync above only made
        # the *content* durable, not the name change).
        try:
            dir_fd = os.open(self.path.parent, os.O_RDONLY)
        except OSError:
            dir_fd = -1   # platform without directory fds
        if dir_fd >= 0:
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        self._closed = True
        return self.path

    def abort(self) -> None:
        """Drop the partial file without finalizing (explicit cancellation)."""
        if self._closed:
            return
        self._fh.close()
        self.part_path.unlink(missing_ok=True)
        self._closed = True

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Normal exit finalizes; an exception leaves the .part file for
        # salvage, exactly like a crash would.
        if exc_type is None:
            self.close()
        elif not self._closed:
            self._fh.flush()
            self._fh.close()
            self._closed = True
