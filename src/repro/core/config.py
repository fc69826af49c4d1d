"""Vidi deployment configurations (the paper's R1/R2/R3 setups, §5.1).

* **R1 — transparent**: recording and replaying disabled; the shim is pure
  pass-through wires. The baseline for overhead measurements.
* **R2 — record**: coarse-grained input recording on input channels, end
  (and, by default, content) tracking on output channels.
* **R3 — replay**: channel replayers drive the application from a trace
  while output monitors record a validation trace for divergence detection.

The evaluation monitors all five F1 interfaces (25 channels) regardless of
how many each application uses — the paper's worst-case setting — but the
``interfaces`` field lets deployments restrict monitoring, which is also
what the Fig. 7 resource-scaling sweep varies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple

from repro.core.store import (
    DEFAULT_BANDWIDTH_BYTES_PER_CYCLE,
    DEFAULT_STAGING_BYTES,
)
from repro.errors import ConfigError

F1_INTERFACE_ORDER: Tuple[str, ...] = ("sda", "ocl", "bar1", "pcim", "pcis")
"""The five AXI interfaces between CPU and FPGA on AWS F1, canonical order."""

EXTENDED_INTERFACE_ORDER: Tuple[str, ...] = F1_INTERFACE_ORDER + (
    "ddr4", "axis_in", "axis_out")
"""§4.1 customisation: beyond the five F1 interfaces, deployments may
monitor the DDR4 bus between accelerator and DRAM controller and a pair of
AXI-Stream ports (ingress/egress) — the paper extended its prototype this
way with ~13 lines per interface."""


class VidiMode(enum.Enum):
    """What the shim does with the channels it interposes on."""

    TRANSPARENT = "transparent"   # R1
    RECORD = "record"             # R2
    REPLAY = "replay"             # R3


DEFAULT_FLIGHT_RETAIN_WORDS = 1 << 16
"""Flight-recorder hot-ring budget: 64 Ki storage words (4 MiB)."""

DEFAULT_FLIGHT_COMPRESS_LEVEL = 6
"""zlib level for RUN frames. Level 6 costs a few extra milliseconds per
megabyte of stream over level 3 but closes most of the gap to the
whole-body ratio — the frames are compressed off the simulated path, so
the only cost is host wall-clock."""

DEFAULT_FLIGHT_ANCHOR_STRIDE = 2048
"""Cycles between re-anchoring checkpoint attempts while recording.
Each successful anchor embeds an architectural checkpoint (the ring's
dominant incompressible payload), so the stride trades post-wrap replay
granularity against retained-ring density."""


@dataclass(frozen=True)
class VidiConfig:
    """Immutable description of one Vidi deployment."""

    mode: VidiMode
    interfaces: Tuple[str, ...] = F1_INTERFACE_ORDER
    record_output_contents: bool = True
    staging_bytes: int = DEFAULT_STAGING_BYTES
    store_bandwidth: float = DEFAULT_BANDWIDTH_BYTES_PER_CYCLE
    # Flight-recorder mode (always-on recording, ROADMAP item 1):
    # per-epoch compression of the drained stream, ring-buffer retention
    # with periodic re-anchoring checkpoints. Only meaningful for RECORD
    # deployments; replay/validation stores stay plain.
    flight_recorder: bool = False
    flight_retain_words: int = DEFAULT_FLIGHT_RETAIN_WORDS
    flight_compress_level: int = DEFAULT_FLIGHT_COMPRESS_LEVEL
    flight_anchor_stride: int = DEFAULT_FLIGHT_ANCHOR_STRIDE

    def __post_init__(self) -> None:
        seen = set()
        for name in self.interfaces:
            if name not in EXTENDED_INTERFACE_ORDER:
                raise ConfigError(
                    f"unknown interface {name!r}; valid: "
                    f"{EXTENDED_INTERFACE_ORDER}"
                )
            if name in seen:
                raise ConfigError(f"interface {name!r} listed twice")
            seen.add(name)

    # ------------------------------------------------------------------
    @classmethod
    def r1(cls, **overrides) -> "VidiConfig":
        """Transparent pass-through (record off, replay off)."""
        return cls(mode=VidiMode.TRANSPARENT, **overrides)

    @classmethod
    def r2(cls, **overrides) -> "VidiConfig":
        """Recording enabled on input and output channels."""
        return cls(mode=VidiMode.RECORD, **overrides)

    @classmethod
    def r3(cls, **overrides) -> "VidiConfig":
        """Replaying enabled, with output recording for validation."""
        return cls(mode=VidiMode.REPLAY, **overrides)

    @property
    def monitored(self) -> Tuple[str, ...]:
        """Monitored interfaces in canonical order."""
        return tuple(n for n in EXTENDED_INTERFACE_ORDER
                     if n in self.interfaces)
