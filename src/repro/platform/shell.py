"""The F1 deployment: shell, CPU, host memory, Vidi shim, accelerator.

:class:`F1Deployment` assembles one complete simulated system the way the
paper's prototype assembles a bitstream: environment-side interfaces driven
by the CPU model and host memory controller, the Vidi shim in the middle
(pass-through, recording, or replaying), and the accelerator on the
application side. Accelerators are provided as factories over the
application-side interfaces, so the same accelerator code runs under every
Vidi configuration unchanged — the paper's "no developer annotations"
property (§5.1).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.channels.axi import AxiInterface
from repro.core.config import VidiConfig, VidiMode
from repro.core.shim import VidiShim
from repro.core.trace_file import TraceFile
from repro.errors import ConfigError, ReplayStallError, WatchdogTimeout
from repro.platform.cpu import CpuModel
from repro.platform.env import EnvironmentMode
from repro.platform.host_mem import HostMemoryController
from repro.platform.pcie import PcieArbiter
from repro.platform.interfaces import make_f1_interfaces
from repro.sim.memory import WordMemory
from repro.sim.module import Module
from repro.sim.simulator import Simulator

AcceleratorFactory = Callable[[Dict[str, AxiInterface]], Module]

HOST_MEMORY_BYTES = 1 << 22   # 4 MiB of modelled host DRAM
DEFAULT_MAX_CYCLES = 2_000_000
# Replay progress-watchdog window: cycles without a single transaction
# completion before a livelocked replay is converted into a structured
# ReplayStallError. Generous against genuinely slow stretches (the longest
# legitimate inter-completion gaps observed across the app suite are a few
# thousand cycles) yet small enough that a wedged replay fails in well
# under a second instead of consuming its full cycle budget.
DEFAULT_REPLAY_STALL_BUDGET = 16_384


class F1Deployment:
    """One simulated F1 instance with a Vidi shim and an accelerator."""

    def __init__(self, name: str,
                 accelerator_factory: AcceleratorFactory,
                 config: VidiConfig,
                 env_mode: EnvironmentMode = EnvironmentMode.HARDWARE,
                 seed: Optional[int] = 0,
                 replay_trace: Optional[TraceFile] = None,
                 host_latency: int = 6, host_jitter: int = 4,
                 think_jitter: int = 3, with_ddr4: bool = False,
                 with_axis: bool = False,
                 scheduler: str = "compiled",
                 time_warp: Optional[bool] = None):
        self.name = name
        self.config = config
        self.env_mode = env_mode
        self.sim = Simulator(name, scheduler=scheduler, time_warp=time_warp)
        with_ddr4 = with_ddr4 or "ddr4" in config.interfaces
        with_axis = with_axis or "axis_in" in config.interfaces \
            or "axis_out" in config.interfaces
        self.with_ddr4 = with_ddr4
        self.with_axis = with_axis
        self.env_interfaces = make_f1_interfaces(
            f"{name}.env", with_ddr4=with_ddr4, with_axis=with_axis)
        self.app_interfaces = make_f1_interfaces(
            f"{name}.app", with_ddr4=with_ddr4, with_axis=with_axis)
        for interface in self.env_interfaces.values():
            self.sim.add(interface)
        for interface in self.app_interfaces.values():
            self.sim.add(interface)
        self.host_memory = WordMemory(f"{name}.host_dram", HOST_MEMORY_BYTES)

        live_environment = config.mode is not VidiMode.REPLAY
        self.pcie: Optional[PcieArbiter] = None
        if live_environment:
            # The shared CPU<->FPGA link: paces all host-side DMA and gives
            # the trace store its leftover bandwidth (§4.1, §6).
            self.pcie = PcieArbiter(f"{name}.pcie")
            self.sim.add(self.pcie)

        self.shim = VidiShim(f"{name}.vidi", self.env_interfaces,
                             self.app_interfaces, config,
                             replay_trace=replay_trace,
                             store_arbiter=self.pcie)
        self.sim.add(self.shim)

        self.cpu: Optional[CpuModel] = None
        self.host_mc: Optional[HostMemoryController] = None
        if live_environment:
            # The live environment only exists when we are not replaying:
            # during replay every input comes from the trace.
            self.cpu = CpuModel(
                f"{name}.cpu", self.env_interfaces, self.host_memory,
                mode=env_mode, think_jitter=think_jitter, seed=seed,
                pcie=self.pcie)
            self.sim.add(self.cpu)
            self.host_mc = HostMemoryController(
                f"{name}.host_mc", self.env_interfaces["pcim"],
                self.host_memory, base_latency=host_latency,
                jitter=host_jitter if env_mode is EnvironmentMode.HARDWARE else 0,
                seed=None if seed is None else seed + 2, pcie=self.pcie)
            self.sim.add(self.host_mc)

        self.stream_driver = None
        self.stream_collector = None
        if with_axis and live_environment:
            from repro.platform.stream import StreamCollector, StreamDriver

            self.stream_driver = StreamDriver(
                f"{name}.ingress", self.env_interfaces["axis_in"],
                seed=None if seed is None else seed + 4)
            self.sim.add(self.stream_driver)
            self.stream_collector = StreamCollector(
                f"{name}.egress", self.env_interfaces["axis_out"],
                seed=None if seed is None else seed + 5)
            self.sim.add(self.stream_collector)

        self.accelerator = accelerator_factory(self.app_interfaces)
        self.sim.add(self.accelerator)

        self.ddr_controller: Optional[HostMemoryController] = None
        if with_ddr4 and live_environment:
            # §4.1: the DDR4 controller sits outside the record/replay
            # boundary, serving the accelerator's DRAM over the monitored
            # ddr4 interface. During replay its responses come from the
            # trace, so — like the CPU — it simply is not instantiated.
            self.ddr_controller = HostMemoryController(
                f"{name}.ddr_ctrl", self.env_interfaces["ddr4"],
                self.accelerator.dram, base_latency=2,
                jitter=1 if env_mode is EnvironmentMode.HARDWARE else 0,
                seed=None if seed is None else seed + 3)
            self.sim.add(self.ddr_controller)
        # Elaboration is lazy (first step), so callers may still attach
        # taps/recorders to the deployment before running it.

        self.flight_probe: Optional[Callable[[int], None]] = None
        if config.mode is VidiMode.RECORD and config.flight_recorder:
            self._install_flight_anchors()

    # ------------------------------------------------------------------
    def _install_flight_anchors(self) -> None:
        """Build the flight recorder's re-anchoring probe.

        ``flight_probe(cycle)`` fires on ``flight_anchor_stride`` cycle
        boundaries: if the design is quiescent and packets were emitted
        since the last anchor, snapshot the architectural state and queue
        an ANCHOR frame at the exact packet-stream watermark; the store
        restarts its RUN compression there, so the new epoch is
        self-contained. All of this is host-side bookkeeping — it never
        stalls or reorders the simulated design, so flight recordings are
        timing-identical regardless of how often anchoring succeeds.

        The probe is *not* installed as a per-cycle hook: cycle hooks cost
        a Python call on every simulated cycle and disable the kernel's
        quiet-gap warping. :meth:`run_to_completion` instead runs the sim
        in stride-aligned chunks and probes between them — the probed
        cycles (and hence the anchor placement) are identical to what a
        per-cycle hook would see. Drivers that step the simulator
        themselves (the batched kernel) register ``flight_probe`` as a
        cycle hook instead; its internal guards make extra or repeated
        calls at the same cycle harmless no-ops.
        """
        from repro.core.checkpoint import checkpoint_to_dict, take_checkpoint

        shim = self.shim
        encoder = shim.encoder
        store = shim.store
        monitors = shim.monitors
        stride = max(1, self.config.flight_anchor_stride)
        last_ordinal = [0]

        def probe(cycle: int) -> None:
            if cycle % stride:
                return
            ordinal = encoder.packets_emitted
            if ordinal == 0 or ordinal == last_ordinal[0]:
                return
            # A committed monitor holds an in-flight transaction; the
            # architectural snapshot would not be a clean resume point.
            if any(m._committed for m in monitors):
                return
            try:
                checkpoint = take_checkpoint(self)
            except ConfigError:
                return
            # Flight suffix replay restores with restore_host=False (replay
            # has no live host side), so the host-memory words — by far the
            # largest incompressible checkpoint payload — are dead weight
            # in an ANCHOR frame. Drop them before stringifying.
            checkpoint.host_words = {}
            store.request_anchor(ordinal, cycle,
                                 checkpoint_to_dict(checkpoint))
            last_ordinal[0] = ordinal

        self.flight_probe = probe

    # ------------------------------------------------------------------
    def run_to_completion(self, max_cycles: int = DEFAULT_MAX_CYCLES) -> int:
        """Run until the host program finishes; returns elapsed cycles."""
        if self.cpu is None:
            raise ConfigError("replay deployments use run_replay()")
        what = f"{self.name}: host program completion"
        probe = self.flight_probe
        if probe is None:
            return self.sim.run_until(lambda: self.cpu.done, max_cycles, what)
        # Flight recording: run in stride-aligned chunks and probe for a
        # re-anchor opportunity at each boundary — zero per-cycle cost.
        sim, cpu = self.sim, self.cpu
        stride = max(1, self.config.flight_anchor_stride)
        start = sim.cycle
        end = start + max_cycles
        while not cpu.done:
            chunk = min(stride - sim.cycle % stride, end - sim.cycle)
            if chunk <= 0:
                raise WatchdogTimeout(
                    f"{sim.name}: {what} not reached within "
                    f"{max_cycles} cycles (cycle {sim.cycle})")
            try:
                sim.run_until(lambda: cpu.done, chunk, what)
            except WatchdogTimeout:
                if sim.cycle >= end:
                    raise WatchdogTimeout(
                        f"{sim.name}: {what} not reached within "
                        f"{max_cycles} cycles (cycle {sim.cycle})") from None
            if sim.cycle % stride == 0:
                probe(sim.cycle)
        return sim.cycle - start

    def run_replay(self, max_cycles: int = DEFAULT_MAX_CYCLES,
                   drain_cycles: int = 64,
                   stall_budget: Optional[int] = None) -> int:
        """Run until every replayer drained its feed; returns elapsed cycles.

        A progress watchdog guards against *livelock* (replayers alive but
        permanently vector-clock-gated, e.g. by a causally impossible
        mutated trace or a corrupted Ends bitvector): if no transaction
        completes for ``stall_budget`` consecutive cycles while feeds
        remain unconsumed, a structured
        :class:`~repro.errors.ReplayStallError` is raised — per-channel
        clocks, pending handshakes and the last-progress cycle attached —
        instead of silently burning the whole ``max_cycles`` budget.
        The stepping itself is unchanged (the budget only chunks the
        ``run_until`` loop), so cycle counts and validation traces stay
        bit-identical to an unguarded run.
        """
        if self.config.mode is not VidiMode.REPLAY:
            raise ConfigError("run_replay() requires a replay configuration")
        budget = stall_budget or DEFAULT_REPLAY_STALL_BUDGET
        sim, shim = self.sim, self.shim
        start = sim.cycle
        end = start + max_cycles
        done = shim.replay_done
        last_token = shim.progress_token()
        while not done:
            chunk = min(budget, end - sim.cycle)
            if chunk <= 0:
                raise WatchdogTimeout(
                    f"{sim.name}: {self.name}: replay completion not reached "
                    f"within {max_cycles} cycles (cycle {sim.cycle})")
            try:
                sim.run_until(lambda: self.shim.replay_done, chunk,
                              what=f"{self.name}: replay completion")
                done = True
            except WatchdogTimeout:
                token = shim.progress_token()
                if token == last_token:
                    report = shim.stall_report()
                    stuck = len(report["channels"])
                    raise ReplayStallError(
                        f"{self.name}: replay livelocked — no transaction "
                        f"completed in {chunk} cycles (cycle {sim.cycle}, "
                        f"last progress at cycle "
                        f"{report['last_progress_cycle']}, {stuck} "
                        f"channel(s) blocked)",
                        cycle=sim.cycle,
                        last_progress_cycle=report["last_progress_cycle"],
                        current_clock=report["current_clock"],
                        channels=report["channels"],
                    ) from None
                last_token = token
        elapsed = sim.cycle - start
        self.sim.run(drain_cycles)   # let trailing validation packets flush
        return elapsed

    # ------------------------------------------------------------------
    def recorded_trace(self, metadata: Optional[dict] = None) -> TraceFile:
        """The trace captured by this deployment's recording pipeline."""
        return self.shim.recorded_trace(metadata)
