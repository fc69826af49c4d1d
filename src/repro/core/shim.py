"""The Vidi shim: per-configuration wiring of monitors, encoder, replayers.

The shim sits between the *environment-side* interfaces (driven by the CPU
model, DMA engines, memory controllers) and the *application-side*
interfaces (driven by the accelerator), exactly like the paper's shim
between the F1 shell and the user design (§4.1). Depending on the
configuration it instantiates:

* R1: a :class:`~repro.channels.handshake.PassThrough` per channel;
* R2: a :class:`~repro.core.monitor.ChannelMonitor` per monitored channel,
  one :class:`~repro.core.encoder.TraceEncoder` and one
  :class:`~repro.core.store.TraceStore` (pass-throughs elsewhere);
* R3: a :class:`~repro.core.replayer.ChannelReplayer` per monitored channel;
  output channels additionally get a monitor feeding a second
  encoder/store pair that records the *validation trace* used by
  divergence detection (§3.6).

Module ordering matters: monitors must run their sequential processes
before the encoder (which packages the cycle's events) and the encoder
before the store (which drains bandwidth); the shim adds submodules in that
order and the simulator executes them in add order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.channels.axi import CHANNEL_ORDER, AxiInterface
from repro.channels.handshake import Channel, PassThrough
from repro.core.config import (
    EXTENDED_INTERFACE_ORDER,
    VidiConfig,
    VidiMode,
)
from repro.core.decoder import TraceDecoder
from repro.core.encoder import TraceEncoder
from repro.core.events import ChannelInfo, ChannelTable
from repro.core.monitor import ChannelMonitor
from repro.core.replayer import ChannelReplayer, ReplayCoordinator
from repro.core.store import TraceStore
from repro.core.trace_file import TraceFile
from repro.errors import ConfigError
from repro.sim.module import Module


def build_channel_table(interfaces: Dict[str, AxiInterface],
                        monitored: tuple) -> ChannelTable:
    """Assign trace indices to every channel of the monitored interfaces."""
    infos: List[ChannelInfo] = []
    for iface_name in monitored:
        interface = interfaces[iface_name]
        # Interfaces expose their channels in canonical insertion order
        # (AW,W,B,AR,R for AXI; a single T for AXI-Stream), so any
        # AXI-like bundle is monitorable without special cases (§4.1).
        for channel_name, channel in interface.channels.items():
            infos.append(ChannelInfo(
                index=len(infos),
                # Platform-relative name so traces replay across deployments.
                name=f"{iface_name}.{channel_name}",
                direction=channel.direction,
                content_bytes=channel.spec.byte_length,
                payload_bits=channel.spec.width,
            ))
    return ChannelTable(infos)


class VidiShim(Module):
    """One deployment of Vidi between environment and application interfaces."""

    def __init__(self, name: str,
                 env_interfaces: Dict[str, AxiInterface],
                 app_interfaces: Dict[str, AxiInterface],
                 config: VidiConfig,
                 replay_trace: Optional[TraceFile] = None,
                 store_arbiter=None):
        super().__init__(name)
        if set(env_interfaces) != set(app_interfaces):
            raise ConfigError("environment and application interface sets differ")
        self.config = config
        self.store_arbiter = store_arbiter
        self.env_interfaces = env_interfaces
        self.app_interfaces = app_interfaces
        self.table = build_channel_table(env_interfaces, config.monitored)
        self.monitors: List[ChannelMonitor] = []
        self.replayers: List[ChannelReplayer] = []
        self.coordinator: Optional[ReplayCoordinator] = None
        self._replay_done_cache: Optional[Tuple[int, bool]] = None
        self.store: Optional[TraceStore] = None
        self.encoder: Optional[TraceEncoder] = None

        if config.mode is VidiMode.TRANSPARENT:
            self._wire_transparent()
        elif config.mode is VidiMode.RECORD:
            self._wire_record()
        else:
            if replay_trace is None:
                raise ConfigError("replay mode requires a trace")
            self._wire_replay(replay_trace)

    # ------------------------------------------------------------------
    # channel pairing helpers
    # ------------------------------------------------------------------
    def _pairs(self, iface_name: str):
        """Yield (channel_name, env_channel, app_channel) for one interface."""
        env = self.env_interfaces[iface_name]
        app = self.app_interfaces[iface_name]
        for channel_name in env.channels:
            yield channel_name, env.channels[channel_name], app.channels[channel_name]

    @staticmethod
    def _orient(env_ch: Channel, app_ch: Channel):
        """Return (up, down): up faces the sender, down faces the receiver."""
        if env_ch.direction == "in":      # environment sends, app receives
            return env_ch, app_ch
        return app_ch, env_ch             # app sends, environment receives

    # ------------------------------------------------------------------
    # R1
    # ------------------------------------------------------------------
    def _wire_transparent(self) -> None:
        for iface_name in EXTENDED_INTERFACE_ORDER:
            if iface_name not in self.env_interfaces:
                continue
            for channel_name, env_ch, app_ch in self._pairs(iface_name):
                up, down = self._orient(env_ch, app_ch)
                self.submodule(PassThrough(
                    f"{self.name}.thru.{iface_name}.{channel_name}", up, down))

    # ------------------------------------------------------------------
    # R2
    # ------------------------------------------------------------------
    def _wire_record(self) -> None:
        config = self.config
        if config.flight_recorder:
            # Flight recorder: ring-buffer retention behind the same
            # staging/drain pipeline.
            from repro.core.trace_ring import RingTraceStore
            self.store = RingTraceStore(
                f"{self.name}.store",
                staging_bytes=config.staging_bytes,
                bandwidth=config.store_bandwidth,
                arbiter=self.store_arbiter,
                retain_words=config.flight_retain_words,
                compress_level=config.flight_compress_level,
            )
        else:
            self.store = TraceStore(
                f"{self.name}.store",
                staging_bytes=config.staging_bytes,
                bandwidth_bytes_per_cycle=config.store_bandwidth,
                arbiter=self.store_arbiter,
            )
        self.encoder = TraceEncoder(
            f"{self.name}.encoder", self.table, self.store,
            record_output_contents=config.record_output_contents,
        )
        index = 0
        for iface_name in config.monitored:
            for channel_name, env_ch, app_ch in self._pairs(iface_name):
                up, down = self._orient(env_ch, app_ch)
                monitor = ChannelMonitor(
                    f"{self.name}.mon.{iface_name}.{channel_name}",
                    index, up, down, self.encoder, env_ch.direction)
                self.monitors.append(monitor)
                self.submodule(monitor)
                index += 1
        for iface_name in EXTENDED_INTERFACE_ORDER:
            if iface_name in self.env_interfaces and iface_name not in config.monitored:
                for channel_name, env_ch, app_ch in self._pairs(iface_name):
                    up, down = self._orient(env_ch, app_ch)
                    self.submodule(PassThrough(
                        f"{self.name}.thru.{iface_name}.{channel_name}", up, down))
        # Monitors were added first; encoder then store preserves the
        # monitor -> encoder -> store sequential ordering the design needs.
        self.submodule(self.encoder)
        self.submodule(self.store)

    # ------------------------------------------------------------------
    # R3
    # ------------------------------------------------------------------
    def _wire_replay(self, trace: TraceFile) -> None:
        config = self.config
        if trace.table.to_dict() != self.table.to_dict():
            raise ConfigError(
                "trace was recorded with a different channel table than this "
                "deployment monitors"
            )
        decoder = TraceDecoder(self.table, with_validation=trace.with_validation)
        # One pass over the body builds every channel's compact action feed
        # (payloads + precomputed T_expected snapshots) — replayers never
        # walk packets their channel has no event in.
        feeds = decoder.compact_feeds(trace.body)
        self.coordinator = ReplayCoordinator(self.table.n)
        validate = config.record_output_contents
        if validate:
            self.store = TraceStore(
                f"{self.name}.vstore",
                staging_bytes=config.staging_bytes,
                bandwidth_bytes_per_cycle=config.store_bandwidth,
            )
            self.encoder = TraceEncoder(
                f"{self.name}.vencoder", self.table, self.store,
                record_output_contents=True,
            )
        index = 0
        pending_monitors: List[ChannelMonitor] = []
        for iface_name in config.monitored:
            for channel_name, env_ch, app_ch in self._pairs(iface_name):
                feed = feeds[index]
                if env_ch.direction == "in":
                    # Input: the replayer is the sender on the app-side channel.
                    replayer = ChannelReplayer(
                        f"{self.name}.rep.{iface_name}.{channel_name}",
                        index, app_ch, self.coordinator, "in", feed)
                else:
                    # Output: the app sends; optionally interpose a monitor
                    # recording the validation trace, then the replayer
                    # receives and meters READY.
                    tap = app_ch
                    if validate:
                        tap = Channel(
                            f"{self.name}.vtap.{iface_name}.{channel_name}",
                            app_ch.spec, direction="out")
                        self.submodule(tap)
                        monitor = ChannelMonitor(
                            f"{self.name}.vmon.{iface_name}.{channel_name}",
                            index, app_ch, tap, self.encoder, "out")
                        self.monitors.append(monitor)
                        pending_monitors.append(monitor)
                    replayer = ChannelReplayer(
                        f"{self.name}.rep.{iface_name}.{channel_name}",
                        index, tap, self.coordinator, "out", feed)
                self.replayers.append(replayer)
                index += 1
        # Ordering: replayers first (they complete transactions), then the
        # validation monitors, then encoder, then store.
        for replayer in self.replayers:
            self.submodule(replayer)
        for monitor in pending_monitors:
            self.submodule(monitor)
        if validate:
            self.submodule(self.encoder)
            self.submodule(self.store)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def replay_done(self) -> bool:
        """All replayers consumed their feeds and have nothing in flight.

        Cached on the coordinator version: a replayer's done-status only
        moves in a cycle where some handshake fired, and every fire
        broadcasts a completion (bumping the version) — so between bumps
        the answer cannot change and the per-cycle ``run_until`` predicate
        costs one comparison instead of a sweep over every replayer.
        """
        coordinator = self.coordinator
        if coordinator is None:
            return all(r.done for r in self.replayers)
        version = coordinator.version
        cached = self._replay_done_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        result = all(r.done for r in self.replayers)
        self._replay_done_cache = (version, result)
        return result

    def progress_token(self) -> int:
        """Monotone token that changes whenever replay makes progress.

        The coordinator's version counts completion broadcasts — the only
        events that can unblock a vector-clock-gated action — so an
        unchanged token across a watchdog window means the replay is
        livelocked, not slow.
        """
        if self.coordinator is None:
            raise ConfigError("progress_token() requires a replay configuration")
        return self.coordinator.version

    def stall_report(self) -> dict:
        """Structured livelock diagnostics across all replayers.

        Returns ``current_clock`` (the shared ``T_current``),
        ``last_progress_cycle`` and one :meth:`ChannelReplayer.pending_report`
        per *unfinished* replayer — everything a
        :class:`~repro.errors.ReplayStallError` carries.
        """
        if self.coordinator is None:
            raise ConfigError("stall_report() requires a replay configuration")
        names = [self.table[i].name for i in range(self.table.n)]
        return {
            "current_clock": self.coordinator.current.as_tuple(),
            "last_progress_cycle": self.coordinator.last_progress_cycle,
            "channels": [r.pending_report(names) for r in self.replayers
                         if not r.done],
        }

    def recorded_trace(self, metadata: Optional[dict] = None) -> TraceFile:
        """Finalize and return the trace recorded under R2 (or the R3
        validation trace).

        Flight-recorder deployments expand the retained ring window back
        to a flat body; when the ring wrapped, the trace starts at the
        oldest surviving re-anchor point and ``metadata['ring']`` carries
        its ``{ordinal, cycle, checkpoint}`` so replay can restore from
        the checkpoint before driving the suffix.
        """
        if self.store is None or self.encoder is None:
            raise ConfigError("no recording in this configuration")
        self.store.flush()
        metadata = dict(metadata or {})
        if getattr(self.store, "is_ring", False):
            body, start, _ = self.store.expand(
                self.table, self.encoder.record_output_contents)
            if start["ordinal"] or start["checkpoint"] is not None:
                metadata["ring"] = start
            trace = TraceFile(
                table=self.table,
                body=body,
                with_validation=self.encoder.record_output_contents,
                metadata=metadata,
            )
            return trace
        return TraceFile(
            table=self.table,
            body=self.store.trace_bytes,
            with_validation=self.encoder.record_output_contents,
            metadata=metadata,
        )

    # ------------------------------------------------------------------
    # flight recorder (always-on recording)
    # ------------------------------------------------------------------
    def flight_stats(self) -> dict:
        """Ring storage counters for a flight-recorder deployment."""
        if not getattr(self.store, "is_ring", False):
            raise ConfigError("flight stats require flight_recorder mode")
        stats = dict(self.store.stats())
        # Bytes before DEFLATE: the ring frames the plain packet stream.
        flat = stats["flat_bytes"] = stats["stream_bytes"]
        frames = stats["frame_bytes"]
        stats["compression_ratio"] = flat / frames if frames else 1.0
        # Constant since content dedup was removed; perfbench/passes.py
        # still reads the key (ROADMAP item 6).
        stats["dedup_ratio"] = 1.0
        return stats

    def flight_blob(self, metadata: Optional[dict] = None) -> bytes:
        """The retained ring as a self-contained v3 container blob.

        Unlike re-serializing :meth:`recorded_trace`, this preserves the
        actual ring frames — every surviving re-anchor checkpoint stays a
        salvage resync point. Call after :meth:`recorded_trace` (or flush
        the store first).
        """
        if not getattr(self.store, "is_ring", False):
            raise ConfigError("flight blobs require flight_recorder mode")
        self.store.flush()
        from repro.core.trace_file import build_v3_container
        return build_v3_container(
            self.table, self.encoder.record_output_contents,
            dict(metadata or {}), self.store.frame_stream(end=True))
