"""Batched simulation kernel: N structurally-identical instances per sweep.

Campaigns and seed sweeps run many deployments that differ only by seed or
fault plan — same module classes, same signal layout, same declared
scheduling graph (equal :func:`~repro.sim.compile.schedule_key`). The
:class:`BatchKernel` packs such instances behind one set of generated
phase functions (:func:`~repro.sim.compile.compile_batch`) and two numpy
*planes* of shape ``(slots, N)``:

``D`` — due cycle
    ``D[s, k]`` is the absolute cycle at which sequential slot ``s`` of
    instance ``k`` next *executes*; the slot is due whenever
    ``D[s, k] <= cycle``. A parked slot holds the ``INF`` sentinel, and a
    slot of kind ``'always'`` never moves off the packing cycle (due
    forever). Absolute dues mean advancing a cycle — or jumping a whole
    quiet gap — touches no plane entry at all.

``E`` — last executed cycle
    Set each time a slot with a burn catch-up hook executes. The elapsed
    quiet cycles passed to :meth:`~repro.sim.module.Module.on_burn` are
    then just ``cycle - E[s, k] - 1``: exactly the granted burn, shrunk
    automatically when a poke wakes the slot early. Wakes out of a park
    reset ``E`` so the catch-up is zero (a parked slot declared nothing
    timed pending).

One *round* advances every live instance by at least one cycle. An
instance with no due slot, an empty comb work-list and no cycle hooks
provably executes nothing — the whole gap to ``min(D[:, k]) - cycle`` is
skipped in one jump, the batched analogue of the scalar kernel's
time-warp. Unlike the scalar warp this needs no ``next_wake`` on *every*
module, so record-mode runs (whose live CPU model is warp-opaque) skip
their quiescent tails too — the main source of the campaign speed-up.

Burn scheduling (grants, pokes, watchers) is declared per module class —
see the *burn declarations* section of :class:`~repro.sim.module.Module`.
Cross-module wake-ups arrive as *pokes* (``seq_wake`` →
:attr:`~repro.sim.module.Module._burn_hook`), whose due-this-cycle versus
due-next-cycle resolution replicates the scalar compiled kernel's fixed
slot order exactly; guard wires additionally carry
:meth:`~repro.sim.signal.Signal.watch_seq` watchers so combinational
activity (a VALID rising during settle) wakes parked slots in-cycle.

Divergence demotion: an instance whose topology does not match the batch
reference at pack time, that raises mid-run, or that turns out too busy
to profit from batching (skip ratio below :attr:`BatchKernel.DEMOTE_MIN_SKIP`
after a probation window) is *demoted* — its hooks and watchers are
detached and it finishes (or fails) on its own scalar ``Simulator`` path.
The batch never trades correctness for packing, and never runs a busy
instance slower than scalar for long.
"""

from __future__ import annotations

from heapq import heappush, heappop
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError, WatchdogTimeout
from repro.sim.compile import compile_batch, schedule_key
from repro.sim.module import Module
from repro.sim.signal import Signal

INF = 1 << 40
"""Park sentinel for the due-cycle plane (far beyond any run length)."""

_INF_T = INF >> 1
"""Threshold above which a due entry is treated as parked by pokes."""


class Outcome:
    """Per-instance result of a batched run."""

    __slots__ = ("status", "cycles", "error")

    def __init__(self, status: str, cycles: int = 0,
                 error: Optional[BaseException] = None):
        self.status = status   # 'done' | 'error' | 'timeout'
        self.cycles = cycles
        self.error = error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Outcome {self.status} cycles={self.cycles}>"


class BatchKernel:
    """Advances N structurally-identical simulators in lock-stepped rounds.

    ``sims`` must be elaborated, unstarted (or at a clean cycle boundary),
    and share one non-``None`` :func:`~repro.sim.compile.schedule_key` —
    callers pack with :meth:`pack`, which filters mismatches out for
    scalar fallback instead of raising.
    """

    #: Executed rounds after which an instance's skip ratio is probed.
    DEMOTE_PROBE = 2048
    #: Minimum fraction of skipped cycles to stay batched past the probe.
    DEMOTE_MIN_SKIP = 0.25

    def __init__(self, sims: Sequence):
        if not sims:
            raise SimulationError("BatchKernel needs at least one simulator")
        for sim in sims:
            if not sim._elaborated:
                sim.elaborate()
            if sim.scheduler == "fixpoint":
                raise SimulationError(
                    "BatchKernel requires the compiled kernel's "
                    "elaboration, not scheduler 'fixpoint'")
        key0 = schedule_key(sims[0])
        if key0 is None:
            raise SimulationError(
                "BatchKernel: design has no structural fingerprint")
        for sim in sims[1:]:
            if schedule_key(sim) != key0:
                raise SimulationError(
                    "BatchKernel: structurally divergent instance "
                    f"{sim.name!r}; use BatchKernel.pack()")
        self.sims = list(sims)
        n = len(self.sims)
        slots = len(self.sims[0]._seq_modules)
        cycles = [sim.cycle for sim in self.sims]
        self.D = np.empty((slots, n), dtype=np.int64)
        self.D[:] = cycles                  # everything due at its own start
        self.E = np.empty((slots, n), dtype=np.int64)
        self.E[:] = cycles
        self.E -= 1                         # first catch-up is 0 elapsed
        self.program = compile_batch(self.sims, self.D, self.E, INF)
        # An 'always' seq slot is due every cycle, so a quiet gap never
        # opens — skip the per-round jump analysis entirely then.
        self._can_jump = (self.program.can_jump
                          and "always" not in self.program.slot_kinds)
        # Shared poke phase: [instance-or-None, slot-phase, due-heap].
        # slot-phase is -1 during settle and the running slot index during
        # the sequential sweep; commit runs at n_slots; cycle hooks and the
        # inter-round boundary clear the instance back to None.
        self._phase: list = [None, -1, None]
        self._attached = [False] * n
        self._watchers: List[List] = [[] for _ in range(n)]
        self.demoted = [False] * n
        self.rounds = 0
        for k in range(n):
            self._attach(k)

    # ------------------------------------------------------------------
    @classmethod
    def pack(cls, sims: Sequence) -> tuple:
        """Split ``sims`` into (kernel-or-None, packed idx, scalar idx).

        Every instance structurally identical to the first packable one
        joins the batch; everything else — mismatching topology, no
        fingerprint — is returned for scalar fallback.
        """
        keys = []
        for sim in sims:
            if not sim._elaborated:
                sim.elaborate()
            keys.append(None if sim.scheduler == "fixpoint"
                        else schedule_key(sim))
        packed: List[int] = []
        ref = None
        for i, key in enumerate(keys):
            if key is None:
                continue
            if ref is None:
                ref = key
            if key == ref:
                packed.append(i)
        scalar = [i for i in range(len(sims)) if i not in set(packed)]
        if not packed:
            return None, [], scalar
        kernel = cls([sims[i] for i in packed])
        return kernel, packed, scalar

    # ------------------------------------------------------------------
    # hook / watcher plumbing
    # ------------------------------------------------------------------
    def _make_poke(self, si: int, k: int,
                   track_e: bool) -> Callable[[], None]:
        D, E, phase = self.D, self.E, self._phase
        sim = self.sims[k]

        def poke() -> None:
            if phase[0] != k:
                # Outside this instance's round (harness API between
                # cycles, or a cycle hook at the just-advanced boundary):
                # due at the current boundary cycle.
                c = sim.cycle
                if D[si, k] > c:
                    if track_e and D[si, k] >= _INF_T:
                        E[si, k] = c - 1     # woken park: zero catch-up
                    D[si, k] = c
                return
            c = sim.cycle
            if phase[1] < si:
                # Settle phase (-1) or an earlier slot's seq: the scalar
                # sweep would still reach this slot this cycle.
                if D[si, k] > c:
                    if track_e and D[si, k] >= _INF_T:
                        E[si, k] = c - 1
                    D[si, k] = c
                    heappush(phase[2], si)
            else:
                # Own/later slot or commit: the scalar sweep has passed
                # this slot — due next cycle.
                if D[si, k] > c + 1:
                    if track_e and D[si, k] >= _INF_T:
                        E[si, k] = c         # executes at c+1: 0 elapsed
                    D[si, k] = c + 1

        return poke

    def _attach(self, k: int) -> None:
        sim = self.sims[k]
        watchers = self._watchers[k]
        kinds = self.program.slot_kinds
        for si, module in enumerate(sim._seq_modules):
            t = type(module)
            track_e = (kinds[si] == "burn"
                       and (t.on_burn is not Module.on_burn
                            or t.on_warp is not Module.on_warp))
            module._burn_hook = self._make_poke(si, k, track_e)
            for term in (module._seq_idle or ()):
                kind = term[0]
                if kind == "low":
                    sigs = (term[1],)
                elif kind == "nofire":
                    sigs = (term[1].valid, term[1].ready)
                else:
                    continue
                for sig in sigs:
                    if isinstance(sig, Signal):
                        sig.watch_seq(module.seq_wake)
                        watchers.append((sig, module.seq_wake))
        self._attached[k] = True

    def _detach(self, k: int) -> None:
        if not self._attached[k]:
            return
        self._flush_catchups(k)
        sim = self.sims[k]
        for module in sim._seq_modules:
            module._burn_hook = None
        for sig, cb in self._watchers[k]:
            sig.unwatch_seq(cb)
        self._watchers[k].clear()
        self._attached[k] = False

    def _flush_catchups(self, k: int) -> None:
        """Deliver pending burn catch-ups before leaving the batch.

        A mid-grant slot has skipped cycles it has not yet been told about
        (its ``on_burn`` fires at the next execution). The scalar path runs
        ``seq()`` every cycle and never calls ``on_burn``, so without this
        flush a demoted instance's timers would sit too high — delivering
        ``cycle - E - 1`` now makes the scalar continuation exact. Parked
        slots declared nothing timed pending and are skipped, matching the
        zero catch-up they would get from a poke wake.
        """
        sim = self.sims[k]
        c = sim.cycle
        kinds = self.program.slot_kinds
        D, E = self.D, self.E
        for si, module in enumerate(sim._seq_modules):
            if kinds[si] != "burn":
                continue
            t = type(module)
            if (t.on_burn is Module.on_burn
                    and t.on_warp is Module.on_warp):
                continue
            if D[si, k] >= _INF_T:
                continue
            elapsed = c - E[si, k] - 1
            if elapsed > 0:
                module.on_burn(int(elapsed))
                E[si, k] = c - 1

    def detach_all(self) -> None:
        """Remove every hook and watcher (end of the batched run)."""
        for k in range(len(self.sims)):
            self._detach(k)

    def demote(self, k: int) -> None:
        """Drop instance ``k`` to the scalar path (its own ``sim.step``)."""
        self._detach(k)
        self.demoted[k] = True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _round(self, k: int, dues: List[int]) -> None:
        """Execute one real cycle for instance ``k``.

        ``dues`` is the ascending list of already-due slot indices — a
        valid heap. Settle-phase pokes (watchers firing on a drive) and
        mid-sweep pokes to later slots push into it, so combinational
        wake-ups land in this same cycle's sweep, exactly like the scalar
        kernel's in-line slot order.
        """
        program = self.program
        phase = self._phase
        sim = self.sims[k]
        heap = dues
        phase[0] = k
        phase[1] = -1
        phase[2] = heap
        try:
            settled = program.settle(k)
            cycle = sim.cycle
            slot_fns = program.slot_fns
            while heap:
                si = heappop(heap)
                phase[1] = si
                slot_fns[si](k, cycle)
            phase[1] = program.n_slots
            committed = program.commit(k)
            sim._quiet_streak = not settled and not committed
            sim.cycle = cycle + 1
            # Hooks observe the advanced boundary; pokes from them use the
            # outside-round rule (due at the new current cycle).
            phase[0] = None
            hooks = sim._cycle_hooks
            if hooks:
                for hook in hooks:
                    hook(cycle + 1)
        finally:
            phase[0] = None
            phase[1] = -1
            phase[2] = None

    def run_until(self, predicates: Sequence[Callable[[], bool]],
                  max_cycles: int,
                  what: Optional[str] = None) -> List[Outcome]:
        """Advance every non-demoted instance until its predicate holds.

        Semantically per-instance identical to
        :meth:`~repro.sim.simulator.Simulator.run_until`: the predicate is
        evaluated at the starting boundary and after every *executed*
        cycle (jumped gaps execute nothing, so their boundaries are
        skipped soundly), and an instance that burns through
        ``max_cycles`` without its predicate holding times out. Timeouts
        and raised exceptions are returned as per-instance
        :class:`Outcome`\\ s — one instance's failure never aborts its
        batch-mates.
        """
        sims = self.sims
        n = len(sims)
        if len(predicates) != n:
            raise SimulationError("one predicate per packed instance")
        outcomes: List[Optional[Outcome]] = [None] * n
        start = [sim.cycle for sim in sims]
        end = [sim.cycle + max_cycles for sim in sims]
        live: List[int] = []
        for k in range(n):
            if self.demoted[k]:
                outcomes[k] = self._finish_scalar(k, predicates[k],
                                                  start[k], end[k], what)
            elif predicates[k]():
                outcomes[k] = Outcome("done", 0)
            else:
                live.append(k)
        D = self.D
        can_jump = self._can_jump
        probe = self.DEMOTE_PROBE
        min_skip = self.DEMOTE_MIN_SKIP
        execd = [0] * n
        while live:
            self.rounds += 1
            next_live: List[int] = []
            for k in live:
                sim = sims[k]
                cycle = sim.cycle
                col = D[:, k].tolist()
                if can_jump:
                    gap = min(col) - cycle
                    if (gap > 0 and not sim._pending
                            and not sim._cycle_hooks):
                        # Provably quiet gap: no due slot, empty work-list,
                        # no hooks. Jump to the earliest due cycle (capped
                        # so the next executed cycle stays inside the
                        # budget — an all-parked deadlock then times out,
                        # not spins).
                        cap = end[k] - 1 - cycle
                        if gap > cap:
                            gap = cap
                        if gap > 0:
                            cycle += gap
                            sim.cycle = cycle
                            sim.warped_cycles += gap
                            sim.warp_jumps += 1
                dues = [i for i, v in enumerate(col) if v <= cycle]
                try:
                    self._round(k, dues)
                except Exception as exc:
                    self.demote(k)
                    outcomes[k] = Outcome("error", sim.cycle - start[k], exc)
                    continue
                if predicates[k]():
                    outcomes[k] = Outcome("done", sim.cycle - start[k])
                    continue
                if sim.cycle >= end[k]:
                    outcomes[k] = Outcome("timeout", sim.cycle - start[k],
                                          WatchdogTimeout(
                        f"{sim.name}: {what or 'condition'} not reached "
                        f"within {max_cycles} cycles (cycle {sim.cycle})"))
                    continue
                execd[k] += 1
                if execd[k] == probe:
                    # Probation check: an instance executing nearly every
                    # cycle gains nothing from batching and pays the
                    # round machinery — finish it scalar at parity.
                    advanced = sim.cycle - start[k]
                    if advanced - execd[k] < min_skip * advanced:
                        self.demote(k)
                        outcomes[k] = self._finish_scalar(
                            k, predicates[k], start[k], end[k], what)
                        continue
                next_live.append(k)
            live = next_live
        return outcomes  # type: ignore[return-value]

    def _finish_scalar(self, k: int, predicate: Callable[[], bool],
                       start_cycle: int, end_cycle: int,
                       what: Optional[str]) -> Outcome:
        """Finish a demoted instance on its own scalar kernel."""
        sim = self.sims[k]
        try:
            sim.run_until(predicate, end_cycle - sim.cycle, what=what)
            return Outcome("done", sim.cycle - start_cycle)
        except WatchdogTimeout as exc:
            return Outcome("timeout", sim.cycle - start_cycle, exc)
        except Exception as exc:
            return Outcome("error", sim.cycle - start_cycle, exc)

    def run(self, cycles: int) -> None:
        """Advance every non-demoted instance a fixed number of cycles."""
        targets = {}
        for k, sim in enumerate(self.sims):
            if self.demoted[k]:
                sim.run(cycles)
            else:
                targets[k] = sim.cycle + cycles
        live = list(targets)
        D = self.D
        can_jump = self._can_jump
        while live:
            next_live = []
            for k in live:
                sim = self.sims[k]
                cycle = sim.cycle
                col = D[:, k].tolist()
                if can_jump:
                    gap = min(col) - cycle
                    if (gap > 0 and not sim._pending
                            and not sim._cycle_hooks):
                        gap = min(gap, targets[k] - 1 - cycle)
                        if gap > 0:
                            cycle += gap
                            sim.cycle = cycle
                            sim.warped_cycles += gap
                            sim.warp_jumps += 1
                dues = [i for i, v in enumerate(col) if v <= cycle]
                self._round(k, dues)
                if sim.cycle < targets[k]:
                    next_live.append(k)
            live = next_live
