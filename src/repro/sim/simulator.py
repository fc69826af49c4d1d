"""The synchronous cycle simulator.

Each call to :meth:`Simulator.step` simulates one clock cycle:

1. **Combinational settling.** Modules' ``comb()`` processes run until all
   signal values settle, up to ``max_delta`` passes. Failure to settle
   raises :class:`~repro.errors.CombinationalLoopError`.
2. **Sequential update.** Every module's ``seq()`` runs exactly once against
   the settled signal values.
3. **Commit.** All values staged with ``Signal.set_next`` become visible
   simultaneously, emulating a single rising clock edge.

One production kernel implements the cycle, with one reference oracle:

* ``"compiled"`` (the default) — static scheduling. At elaboration every
  signal gets a fanout list of the modules that declared
  :meth:`~repro.sim.module.Module.sensitive_to` it; a value change puts
  exactly those modules on a work-list. At the first ``step()`` the declared
  sensitivity graph is levelized (:mod:`repro.sim.compile`) — comb modules
  topologically ranked by their ``drives()`` → ``sensitive_to()`` edges,
  true combinational cycles demoted to iterative settling, modules without
  declared sensitivity evaluated on every pass — and a fused per-cycle step
  function is generated (``exec`` of assembled source): rank-ordered
  settling of the work-list, sequential calls inlined straight-line with
  ``seq_idle_when`` guards, and an inlined commit. Cycles on which the
  work-list is empty — no external input, no changed register commit, no
  ``wake()`` from a host-side event — skip settling entirely (the
  *quiescent-cycle fast path*, common in polling-host applications).
* ``"fixpoint"`` — the reference oracle: every ``comb()`` on every pass
  until a pass changes nothing, then every ``seq()``. It takes no
  scheduling declaration into account, so the differential harness in
  ``tests/test_scheduler_equivalence.py`` runs every application under
  both kernels and checks bit-identical per-cycle signal histories.

Select with the ``scheduler=`` argument.

Time-warping (quiescent-gap skipping)
-------------------------------------

The quiescent fast path still pays one executed step per simulated cycle.
When every sequential module implements
:meth:`~repro.sim.module.Module.next_wake` the compiled kernel can do
better: on a cycle that (a) has an empty work-list, (b) follows a *fully
quiet* cycle — no settling, no register commits — and (c) has no cycle
hooks registered, it polls every sequential module for the earliest cycle
its ``seq()`` could matter. If the earliest finite answer lies in the
future, the cycle counter jumps straight there (``warped_cycles``/
``warp_jumps`` count the savings) after giving each module an
:meth:`~repro.sim.module.Module.on_warp` catch-up call. The skipped
cycles are provably no-ops: nothing combinational was pending, nothing
was committed the cycle before, and every sequential process declared
itself idle until the warp target.

If *no* module reports a finite wake the kernel ticks normally — a fully
idle design still advances one cycle per step, so the
:class:`~repro.errors.WatchdogTimeout` deadlock detector keeps working —
and does not poll again until a cycle settles or commits something.
Disable warping with ``time_warp=False`` or ``REPRO_SIM_TIMEWARP=0``
(the differential tests replay both ways and compare bit-for-bit).

The simulator intentionally supports only a single clock domain: the paper's
prototype likewise requires all recorded/replayed interfaces to share one
clock (AWS F1 enforces this).
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import CombinationalLoopError, SimulationError, WatchdogTimeout
from repro.sim.module import Module
from repro.sim.signal import Signal

_SCHEDULERS = ("compiled", "fixpoint")


class Simulator:
    """Owns a flattened set of modules and advances them cycle by cycle."""

    def __init__(self, name: str = "sim", max_delta: int = 64,
                 scheduler: str = "compiled",
                 time_warp: Optional[bool] = None):
        if scheduler not in _SCHEDULERS:
            raise SimulationError(
                f"unknown scheduler {scheduler!r}; expected one of {_SCHEDULERS}")
        if time_warp is None:
            time_warp = os.environ.get("REPRO_SIM_TIMEWARP", "1") != "0"
        self.name = name
        self.max_delta = max_delta
        self.scheduler = scheduler
        self.time_warp = bool(time_warp)
        self.cycle = 0
        self.modules: List[Module] = []
        self._comb_modules: List[Module] = []
        self._seq_modules: List[Module] = []
        self._always_comb: List[Module] = []    # no sensitivity: every pass
        self._dynamic_comb: List[Module] = []   # declared, auto-woken per cycle
        self._event_comb: List[Module] = []     # all declared comb modules
        self._pending: List[Module] = []        # the comb work-list
        self._staged: List[Signal] = []
        self._dirty = False
        self._elaborated = False
        self._compiled = None   # CompiledKernel, built lazily at first step
        self._cycle_hooks: List[Callable[[int], None]] = []
        self._profile: Optional[Dict[str, list]] = None
        # Time-warp state: _warp_ok is frozen at elaboration (every seq
        # module must override next_wake); _quiet_streak records that the
        # previous executed cycle neither settled nor committed anything,
        # which makes the *current* empty work-list trustworthy for warping
        # (the compiled kernel uses 2 for "quiet, and the last poll found
        # every module idle").
        self._warp_ok = False
        self._warp_hooks: List[Module] = []
        self._quiet_streak = False
        # Kernel counters (cheap; useful for the throughput bench and the
        # --profile report).
        self.comb_evals = 0
        self.quiescent_cycles = 0
        self.warped_cycles = 0
        self.warp_jumps = 0
        # Compiled-kernel stats (populated by the levelization pass).
        self.compile_s = 0.0
        self.rank_count = 0
        self.demoted_sccs = 0
        self.rank_evals: List[int] = []
        # True when this sim's compiled kernel was re-bound from the
        # in-process schedule cache instead of freshly generated; the
        # tier records which level served it ("memory"/"disk"/"cold").
        self.schedule_cache_hit = False
        self.schedule_cache_tier = "none"

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, module: Module) -> Module:
        """Register a module tree; returns the module for chaining."""
        if self._elaborated:
            raise SimulationError("cannot add modules after elaboration")
        self.modules.extend(module.flatten())
        return module

    def add_cycle_hook(self, hook: Callable[[int], None]) -> None:
        """Run ``hook(cycle)`` after each committed cycle (used by waveforms)."""
        self._cycle_hooks.append(hook)

    def signals(self) -> Iterator[Signal]:
        """Every signal owned by registered modules, in module order."""
        for module in self.modules:
            yield from module._signals

    def elaborate(self) -> None:
        """Bind signals, build sensitivity fanout, freeze the module set.

        Idempotent.
        """
        if self._elaborated:
            return
        for order, module in enumerate(self.modules):
            module._order = order
            module.bind(self)
        self._seq_modules = [m for m in self.modules
                             if type(m).seq is not Module.seq]
        if self.scheduler == "fixpoint":
            # Reference kernel: identical to the seed — every has_comb module
            # runs on every pass. Pin the scheduled flag so wake() and signal
            # fanout (which is never built here) stay no-ops.
            self._comb_modules = [m for m in self.modules if m.has_comb]
            for module in self.modules:
                module._comb_scheduled = True
            self._elaborated = True
            return
        # Compiled kernel. Default-comb (no-op) modules never need
        # evaluation; undeclared real-comb modules go to the always list.
        self._comb_modules = [
            m for m in self.modules
            if m.has_comb and type(m).comb is not Module.comb
        ]
        for module in self.modules:
            module._comb_scheduled = True
        for module in self._comb_modules:
            if module._sensitivity is None:
                self._always_comb.append(module)   # stays pinned: always runs
                continue
            self._event_comb.append(module)
            if not module.comb_static:
                self._dynamic_comb.append(module)
            seen = set()
            for sig in module._sensitivity:
                if id(sig) not in seen:
                    seen.add(id(sig))
                    sig.bind(self)   # tolerate sensitivity to foreign signals
                    sig._fanout.append(module)
        # Everything evaluates on the first cycle.
        self._pending = list(self._event_comb)
        # Time-warp eligibility: every sequential module must declare its
        # wake schedule; one opaque module disables warping for the whole
        # design (safe default — recording runs never warp).
        self._warp_ok = self.time_warp and all(
            type(m).next_wake is not Module.next_wake
            for m in self._seq_modules)
        self._warp_hooks = [m for m in self._seq_modules
                            if type(m).on_warp is not Module.on_warp]
        self._elaborated = True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self, warp_limit: Optional[int] = None) -> None:
        """Simulate one clock cycle.

        With time-warping enabled this may *represent* many cycles: when the
        design is provably quiescent the cycle counter jumps ahead to the
        earliest ``next_wake`` hint before the (single) executed cycle runs.
        ``warp_limit`` caps the jump so that ``run(n)`` never overshoots its
        window; the executed cycle always lies strictly below the limit.
        """
        if self.scheduler == "fixpoint":
            if not self._elaborated:
                self.elaborate()
            self._step_fixpoint()
            return
        kernel = self._compiled
        if kernel is None:
            kernel = self._compile()
        kernel.step(warp_limit)

    def _step_fixpoint(self) -> None:
        """The blanket fixpoint kernel: the differential reference oracle."""
        comb_modules = self._comb_modules
        for _ in range(self.max_delta):
            self._dirty = False
            for module in comb_modules:
                module.comb()
            self.comb_evals += len(comb_modules)
            if not self._dirty:
                break
        else:
            raise CombinationalLoopError(
                f"{self.name}: combinational logic did not settle in "
                f"{self.max_delta} delta passes at cycle {self.cycle}"
            )
        for module in self.modules:
            module.seq()
        staged = self._staged
        if staged:
            for sig in staged:
                sig._commit()
            staged.clear()
        self.cycle += 1
        for hook in self._cycle_hooks:
            hook(self.cycle)

    def _compile(self):
        """Build the compiled kernel (lazily, at the first step).

        Lazy so that ``enable_profiling`` wrappers installed before the run
        are baked into the generated sequential calls; enabling profiling
        after stepping invalidates the kernel and forces a recompile.
        """
        from repro.sim.compile import compile_kernel
        if not self._elaborated:
            self.elaborate()
        t0 = perf_counter()
        kernel = compile_kernel(self)
        self.compile_s += perf_counter() - t0
        self._compiled = kernel
        return kernel

    def _step_callable(self) -> Callable:
        """The per-cycle callable ``run``/``run_until`` should loop over.

        For the compiled kernel this is the generated step function itself,
        skipping one dispatch layer per simulated cycle.
        """
        if self.scheduler == "fixpoint":
            return self.step
        kernel = self._compiled
        if kernel is None:
            kernel = self._compile()
        return kernel.step

    def run(self, cycles: int) -> None:
        """Simulate a fixed number of cycles (warp never overshoots the end)."""
        step = self._step_callable()
        end = self.cycle + cycles
        while self.cycle < end:
            step(warp_limit=end)

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_cycles: int,
        what: Optional[str] = None,
    ) -> int:
        """Step until ``predicate()`` is true; return cycles consumed.

        The predicate is evaluated exactly once per executed cycle boundary
        — including the starting boundary (0 cycles consumed) and the final
        one (true exactly at ``max_cycles`` succeeds); it is *not*
        re-evaluated on the timeout path. Raises
        :class:`~repro.errors.WatchdogTimeout` after ``max_cycles`` cycles
        without the predicate holding — the reproduction's deadlock
        detector. Warped gaps cannot change the predicate (nothing executes
        inside them), so skipping their boundary evaluations is sound and
        the consumed-cycle count stays bit-identical to per-cycle stepping.
        """
        start = self.cycle
        if predicate():
            return 0
        step = self._step_callable()
        end = start + max_cycles
        while self.cycle < end:
            step(warp_limit=end)
            if predicate():
                return self.cycle - start
        raise WatchdogTimeout(
            f"{self.name}: {what or 'condition'} not reached within "
            f"{max_cycles} cycles (cycle {self.cycle})"
        )

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return every module and signal to power-on state; cycle goes to 0.

        Also clears all scheduler state — the work-list, staged ``set_next``
        values and the dirty flag — so a reset taken mid-cycle can never
        leak a pending commit or a stale wake into the next run. The kernel
        counters are zeroed too, so back-to-back runs in one process report
        clean numbers.
        """
        for module in self.modules:
            module.reset_state()
        for sig in self._staged:
            sig._next = None   # belt and braces against partial reset_state()
        self._staged.clear()
        self._dirty = False
        self._quiet_streak = False
        if self._elaborated and self.scheduler != "fixpoint":
            for module in self._event_comb:
                module._comb_scheduled = True
            self._pending = list(self._event_comb)
        self.cycle = 0
        self.comb_evals = 0
        self.quiescent_cycles = 0
        self.warped_cycles = 0
        self.warp_jumps = 0
        for i in range(len(self.rank_evals)):
            self.rank_evals[i] = 0

    # ------------------------------------------------------------------
    # profiling
    # ------------------------------------------------------------------
    def enable_profiling(self) -> None:
        """Accumulate per-module wall-clock time for comb/seq processes.

        Instruments every scheduled process with ``perf_counter`` wrappers;
        costs nothing until enabled. Idempotent.
        """
        if self._profile is not None:
            return
        if not self._elaborated:
            self.elaborate()
        self._profile = {}
        for module in self._comb_modules:
            cell = self._profile.setdefault(module.name, [0.0, 0, 0.0, 0])
            module.comb = _timed(module.comb, cell, 0)
        seq_targets = (self.modules if self.scheduler == "fixpoint"
                       else self._seq_modules)
        for module in seq_targets:
            if type(module).seq is Module.seq:
                continue
            cell = self._profile.setdefault(module.name, [0.0, 0, 0.0, 0])
            module.seq = _timed(module.seq, cell, 2)
        # The compiled kernel bakes bound seq methods into its generated
        # code; rebuild it so the wrappers above are the ones it calls.
        self._compiled = None

    def profile_report(self) -> List[dict]:
        """Per-module time shares, hottest first.

        Rows: ``{"module", "comb_s", "comb_calls", "seq_s", "seq_calls",
        "total_s", "share_pct"}``. Requires :meth:`enable_profiling`.
        """
        if self._profile is None:
            raise SimulationError("profiling was not enabled on this simulator")
        rows = []
        grand = sum(c[0] + c[2] for c in self._profile.values()) or 1e-12
        for name, (comb_s, comb_calls, seq_s, seq_calls) in self._profile.items():
            total = comb_s + seq_s
            rows.append({
                "module": name,
                "comb_s": comb_s,
                "comb_calls": comb_calls,
                "seq_s": seq_s,
                "seq_calls": seq_calls,
                "total_s": total,
                "share_pct": 100.0 * total / grand,
            })
        rows.sort(key=lambda r: r["total_s"], reverse=True)
        return rows


def _timed(fn: Callable[[], None], cell: list, slot: int) -> Callable[[], None]:
    def timed() -> None:
        t0 = perf_counter()
        fn()
        cell[slot] += perf_counter() - t0
        cell[slot + 1] += 1
    return timed
