"""Cycle-accurate simulation kernel: the reproduction's hardware substrate.

This subpackage stands in for the FPGA silicon and vendor simulators used by
the paper. It provides a single-clock synchronous simulator
(:class:`Simulator`), hardware modules (:class:`Module`), signals
(:class:`Signal`), memory primitives, FIFOs (including the buggy frame FIFO
of the debugging case study) and waveform capture.
"""

from repro.sim.clock import DEFAULT_CLOCK, F1_CLOCK_HZ, ClockDomain
from repro.sim.fifo import FrameFIFO, SyncFIFO
from repro.sim.memory import RegisterFile, WordMemory
from repro.sim.module import Module
from repro.sim.signal import Signal
from repro.sim.simulator import Simulator
from repro.sim.vcd import render_vcd, write_vcd
from repro.sim.waveform import WaveformRecorder, render_ascii

__all__ = [
    "ClockDomain",
    "DEFAULT_CLOCK",
    "F1_CLOCK_HZ",
    "FrameFIFO",
    "Module",
    "RegisterFile",
    "Signal",
    "Simulator",
    "SyncFIFO",
    "WaveformRecorder",
    "WordMemory",
    "render_ascii",
    "render_vcd",
    "write_vcd",
]
