"""A fixed reference workload that measures how fast the host is right now.

The benchmark runs on hosts shared with other tenants, which switch
between slow and fast spells lasting seconds and drift by 20-40% over
minutes, whatever runs on them. Each pass times short blocks of this
workload beside its operations, and ``run.py`` rescales the pass's host
times by ``NOMINAL_BLOCK_S / mean(block times)``: the host times it
reports are seconds on a host where one block takes ``NOMINAL_BLOCK_S``.
The workload is the benchmark's own code, so a change to the program
under test cannot move it.

A block is two interpreter-bound loops. The first (dict lookups,
attribute access, small calls) gains more from a fast spell than the
simulator does, the second (bare integer arithmetic) gains less; in the
proportion below their sum tracked the simulator's record runs across the
spells of a 2-vCPU host to within 2.5% (coefficient of variation of the
ratio over 3-second windows, against 17% for the raw run time).
"""

from __future__ import annotations

import time

DICT_ROUNDS = 20_000
ARITH_ROUNDS = 80_000
# Mean block time on the 2-vCPU host the benchmark was tuned on (Python
# 3.11). Any constant works; this one keeps rescaled times close to the
# raw times seen there.
NOMINAL_BLOCK_S = 0.016


class _Reg:
    __slots__ = ("value", "writes")

    def __init__(self):
        self.value = 0
        self.writes = 0

    def write(self, value):
        self.value = value & 0xFFFFFFFF
        self.writes += 1


def block() -> float:
    """Run one block of the reference workload; returns its seconds."""
    start = time.perf_counter()
    regs = {}
    acc = 0
    for i in range(DICT_ROUNDS):
        key = i & 63
        reg = regs.get(key)
        if reg is None:
            reg = regs[key] = _Reg()
        reg.write(reg.value * 31 + i)
        acc ^= reg.value >> 3
    for i in range(ARITH_ROUNDS):
        acc += i * i % 7
    if acc < 0:   # never true; keeps the loops' result live
        raise AssertionError
    return time.perf_counter() - start
