"""Accelerator base class: registers, on-FPGA DRAM, DMA, kernel scheduling.

Every evaluation application follows the same shape as the paper's
benchmarks: control/status registers on the ``ocl`` AXI-Lite bus, bulk data
moved over ``pcis`` into on-FPGA DRAM, results written back to on-FPGA DRAM
(read back by the host over ``pcis``) and/or to host memory over ``pcim``.

The compute itself is a Python generator — the *kernel* — that models an
HLS-style state machine: it performs real computation and yields cycle
costs, so the accelerator occupies a realistic number of clock cycles and
its I/O interleaves with its compute. Kernels may block on pcim DMA:

    yield 10                                 # burn 10 cycles
    yield ("write_host", addr, payload)      # pcim DMA write, resumes on B
    words = yield ("read_host", addr, n)     # pcim DMA read, resumes with data

Completion is signalled either by a pcim *doorbell* write into host memory
(the default; an ordered, transaction-deterministic mechanism) or by setting
the STATUS register for the host to poll — the cycle-dependent construct
that makes DRAM DMA diverge in §5.4.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.channels.axi import AxiInterface
from repro.errors import SimulationError
from repro.platform.axi_manager import AxiManager
from repro.platform.axi_subordinate import AxiLiteSubordinate, AxiSubordinate
from repro.sim.memory import RegisterFile, WordMemory
from repro.sim.module import Module

Kernel = Generator[Any, Any, None]

# Register map shared by all applications (byte addresses = 4 * index).
REG_CTRL = 0       # write 1 to start the kernel
REG_STATUS = 1     # bit 0 set when the kernel finished (polling mode)
REG_ARG0 = 2       # first of the per-app argument registers
NUM_REGS = 16

DOORBELL_ADDR = 0x0003_FFC0   # host-memory word the doorbell write lands in


class Accelerator(Module):
    """Base for all evaluated FPGA applications."""

    DRAM_BYTES = 1 << 21   # 2 MiB of on-FPGA DRAM

    def __init__(self, name: str, interfaces: Dict[str, AxiInterface],
                 doorbell: bool = True):
        super().__init__(name)
        self.doorbell = doorbell
        self.regs = RegisterFile(f"{name}.regs", NUM_REGS)
        self.dram = WordMemory(f"{name}.dram", self.DRAM_BYTES)
        self.ocl = self.submodule(AxiLiteSubordinate(
            f"{name}.ocl", interfaces["ocl"],
            reg_read=self._reg_read, reg_write=self._reg_write))
        self.pcis = self.submodule(AxiSubordinate(
            f"{name}.pcis", interfaces["pcis"], self.dram,
            write_observer=self.on_stream_beat))
        self.pcim = self.submodule(AxiManager(f"{name}.pcim", interfaces["pcim"]))
        self.ddr: Optional[AxiManager] = None
        if "ddr4" in interfaces:
            # §4.1 customisation: DRAM accessed through a monitored AXI bus
            # instead of directly; kernels then use ddr_read/ddr_write ops.
            self.ddr = self.submodule(
                AxiManager(f"{name}.ddr", interfaces["ddr4"]))
        self._kernel: Optional[Kernel] = None
        self._budget = 0
        self._dma_blocked = False
        self._resume_value: Any = None
        # seq() returns immediately while no kernel invocation is live
        # (before the doorbell and after completion). The guard describes
        # this class's seq() only: a subclass that overrides seq() may have
        # work while no kernel runs (FIFO drains, ingress), so it gets no
        # inherited guard.
        if type(self).seq is Accelerator.seq:
            self.seq_idle_when(("none", "_kernel"))
        self.kernels_completed = 0
        self.busy_cycles = 0
        self.doorbell_count = 0

    # ------------------------------------------------------------------
    # register access (hooks for the ocl subordinate)
    # ------------------------------------------------------------------
    def _reg_read(self, addr: int) -> int:
        return self.on_reg_read(addr // 4)

    def _reg_write(self, addr: int, value: int) -> None:
        index = addr // 4
        self.on_reg_write(index, value)

    def on_reg_read(self, index: int) -> int:
        """Register read hook; default reads the register file."""
        return self.regs[index]

    def on_reg_write(self, index: int, value: int) -> None:
        """Register write hook; CTRL writes launch the kernel."""
        self.regs[index] = value
        if index == REG_CTRL and (value & 1):
            self.start()

    def on_stream_beat(self, addr: int, data: int, strobe: int) -> None:
        """Called for every pcis DMA write beat; apps may stream-process."""

    # ------------------------------------------------------------------
    # kernel lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the kernel (idempotent while one is running)."""
        if self._kernel is not None:
            return
        self.regs[REG_STATUS] = 0
        self._kernel = self.kernel()
        self._budget = 0
        self._dma_blocked = False
        self._resume_value = None
        self.seq_wake()   # the idle guard no longer holds

    def kernel(self) -> Kernel:
        """The application's compute; subclasses must override."""
        raise NotImplementedError
        yield  # pragma: no cover

    def on_done(self) -> None:
        """Completion: doorbell write (default) or STATUS for polling hosts.

        The doorbell carries a monotone completion counter so hosts that
        launch several kernels in sequence can wait for the k-th one.
        """
        if self.doorbell:
            self.doorbell_count += 1
            self.pcim.dma_write_bytes(
                DOORBELL_ADDR,
                self.doorbell_count.to_bytes(8, "little").ljust(64, b"\0"))
        else:
            self.regs[REG_STATUS] = 1

    # ------------------------------------------------------------------
    def seq(self) -> None:
        if self._kernel is None:
            return
        self.busy_cycles += 1
        if self._budget > 0:
            self._budget -= 1
            return
        if self._dma_blocked:
            return
        try:
            request = self._kernel.send(self._resume_value)
        except StopIteration:
            self._kernel = None
            self.kernels_completed += 1
            self.on_done()
            return
        self._resume_value = None
        if isinstance(request, int):
            self._budget = max(request - 1, 0)
        elif isinstance(request, tuple) and request and request[0] == "write_host":
            _, addr, payload = request
            self._dma_blocked = True
            self.pcim.dma_write_bytes(addr, payload, on_complete=self._dma_done)
        elif isinstance(request, tuple) and request and request[0] == "read_host":
            _, addr, n_words = request
            self._dma_blocked = True
            self.pcim.dma_read(addr, n_words, on_complete=self._dma_done_read)
        elif isinstance(request, tuple) and request and request[0] == "ddr_write":
            _, addr, payload = request
            self._require_ddr()
            self._dma_blocked = True
            self.ddr.dma_write_bytes(addr, payload, on_complete=self._dma_done)
        elif isinstance(request, tuple) and request and request[0] == "ddr_read":
            _, addr, n_words = request
            self._require_ddr()
            self._dma_blocked = True
            self.ddr.dma_read(addr, n_words, on_complete=self._dma_done_read)
        else:
            raise SimulationError(f"{self.name}: kernel yielded {request!r}")

    def next_wake(self, cycle):
        if self._kernel is None:
            return None            # idle until a CTRL write calls start()
        if self._budget > 0:
            return cycle + self._budget   # burning cycles; resumes exactly then
        if self._dma_blocked:
            return None            # resumes on the DMA completion callback
        return cycle               # kernel advances this cycle

    def on_warp(self, gap: int) -> None:
        # The skipped cycles would each have run seq(): count them busy and
        # burn them off the budget (a warp inside a budget window lands the
        # kernel's resume on exactly the same cycle as per-cycle stepping).
        if self._kernel is not None:
            self.busy_cycles += gap
            if self._budget > 0:
                self._budget -= gap

    def _require_ddr(self) -> None:
        if self.ddr is None:
            raise SimulationError(
                f"{self.name}: kernel uses the DDR4 bus but the deployment "
                "was built without it (pass with_ddr4=True)")

    def _dma_done(self) -> None:
        self._dma_blocked = False
        self.seq_wake()   # parked on the DMA; resume

    def _dma_done_read(self, words) -> None:
        self._dma_blocked = False
        self._resume_value = words
        self.seq_wake()   # parked on the DMA; resume

    # ------------------------------------------------------------------
    def reset_state(self) -> None:
        super().reset_state()
        self.regs.clear()
        self.dram.clear()
        self._kernel = None
        self._budget = 0
        self._dma_blocked = False
        self._resume_value = None
        self.kernels_completed = 0
        self.busy_cycles = 0
        self.doorbell_count = 0
