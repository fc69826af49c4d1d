"""Module: the unit of simulated hardware.

A module groups signals and behaviour. Subclasses override:

* ``comb()`` — drive combinational outputs from current signal values. Called
  one or more times per cycle until all signals settle. Must be idempotent
  for a given set of input values and must drive *all* combinational outputs
  unconditionally.
* ``seq()`` — clocked behaviour. Called exactly once per cycle, after the
  combinational fixpoint, with all signals stable. State updates that other
  modules observe must go through ``Signal.set_next``; private Python state
  may be mutated directly (it plays the role of registers that never feed
  combinational paths of other modules).

Set ``has_comb = False`` on subclasses with no combinational process; the
simulator then skips them during delta iteration, which is a significant
speedup for large designs.

Scheduling declarations (compiled kernel)
-----------------------------------------

By default a module's ``comb()`` is assumed to depend on *anything* — the
simulator's safe fallback re-runs it on every delta pass of every cycle,
exactly like the fixpoint reference kernel. Modules opt in to work-list
scheduling by declaring what their combinational process reads:

* ``self.sensitive_to(sig, ...)`` — register the input signals ``comb()``
  reads. Whenever one of them changes value (combinational drive or register
  commit), the module is enqueued for re-evaluation.
* ``self.wake()`` — request a ``comb()`` re-evaluation explicitly. Required
  whenever *non-signal* state that ``comb()`` reads changes (Python-level
  registers mutated in ``seq()``, items pushed into a queue the comb process
  presents, ...). ``wake()`` is idempotent and cheap; calling it
  conservatively is always sound.
* ``comb_static = True`` (class attribute) — assert that the two mechanisms
  above cover *every* input of ``comb()``. Static modules are evaluated only
  when woken; without the flag a declared module is still re-evaluated once
  at the start of every cycle (the *dynamic* safety net for modules whose
  comb reads cycle-start Python state that is hard to track precisely).

A module that declares sensitivity but reads an undeclared signal in
``comb()`` will compute stale outputs — the differential harness in
``tests/test_scheduler_equivalence.py`` exists to catch exactly that.

Static-scheduling declarations
------------------------------

The compiled kernel levelizes the declared sensitivity graph at
elaboration time and generates a fused per-cycle step function
(:mod:`repro.sim.compile`). Two further declarations feed that pass; both
are optional and purely performance hints — undeclared modules stay
correct, they just get the conservative treatment:

* ``self.drives(sig, ...)`` — the signals ``comb()`` combinationally
  drives. Together with ``sensitive_to`` this yields the module-level
  dependency edges the levelizer ranks; a module without ``drives()``
  simply contributes no out-edges (its readers may settle one delta pass
  later, which the outer fixpoint loop absorbs).
* ``self.seq_idle_when(term, ...)`` — a conjunction of conditions under
  which this module's ``seq()`` is provably a no-op, letting the compiled
  kernel skip the call entirely on idle cycles. Terms:

  - ``("low", signal)`` — the signal's current value is 0;
  - ``("nofire", channel)`` — the channel handshake does not complete
    this cycle (VALID and READY not both high);
  - ``("falsy", "attr.path")`` / ``("truthy", "attr.path")`` — a Python
    attribute chain on the module is falsy / truthy;
  - ``("none", "attr.path")`` — the attribute chain is ``None``;
  - ``("sync", "attr.a", "attr.b")`` — two attribute chains compare equal
    (version-cache idioms).

  Declaring a condition that can be true while ``seq()`` still has work
  is a correctness bug — exactly the class of error the compiled-vs-
  fixpoint differential harness exists to catch. A guard describes one
  specific ``seq()``: a base class must not hand its guard to a subclass
  that overrides ``seq()`` with work of its own.

Time-warp declarations (quiescent-gap skipping)
-----------------------------------------------

On cycles where the comb work-list is empty the compiled kernel can go one
step further than skipping settling: it can skip the cycle *entirely* —
provided every sequential process agrees it has nothing to do. Modules
with a ``seq()`` opt in by overriding :meth:`next_wake`:

* return ``None`` — "my ``seq()`` is a no-op until something external
  happens" (a signal change, a ``wake()``, a callback). Pure-reactive
  modules (replayers waiting on vector clocks, idle DMA engines) say this.
* return a cycle number — the earliest future cycle the module's ``seq()``
  must run (a kernel burning an N-cycle budget returns ``cycle + budget``).
  Returning the current cycle means "run me now" and blocks warping.

When *all* sequential modules override ``next_wake`` and the design has
been fully quiet for a cycle, the kernel jumps the cycle counter straight
to the earliest returned wake. Modules that maintain per-cycle Python
counters additionally override :meth:`on_warp` to account for the skipped
cycles in one step (busy-cycle counters, drain-credit accumulators).

A single sequential module *without* a ``next_wake`` override makes the
whole simulation opaque and disables warping — the safe default, and the
reason recording runs (whose CPU model thinks in real cycles) are never
warped while replay runs (whose modules are all reactive) are.

Burn declarations (batched backend)
-----------------------------------

The batched kernel (:mod:`repro.sim.batch`) runs N structurally identical
instances per step and cannot afford a Python-level guard evaluation per
module per instance per cycle. Instead each sequential module grants a
*burn*: the number of upcoming cycles for which its ``seq()`` is a
guaranteed no-op. Grants live in one numpy matrix (seq-slots × instances)
that a single vectorized subtraction advances, so idle modules cost
nothing until they come due.

* :meth:`seq_burn` — return how many upcoming cycles ``seq()`` may be
  skipped (0 = run every cycle, the safe default; ``None`` = skip
  indefinitely, until an explicit wake). The default derives the answer
  from :meth:`next_wake`, so warp-aware modules get burning for free.
* :meth:`on_burn` — account for ``elapsed`` skipped cycles, exactly like
  :meth:`on_warp` (which is the default implementation).
* ``burn_idle = True`` (class attribute) — assert that whenever the
  declared ``seq_idle_when`` conjunction holds, ``seq()`` stays a no-op
  *until an external event*: a watched signal changes (the batch kernel
  auto-watches the signals named by ``("low", …)`` / ``("nofire", …)``
  terms) or someone calls :meth:`seq_wake`. This is the burn analogue of
  ``comb_static`` and carries the same contract: every cross-module
  mutation that can invalidate the guard must be covered by a watcher or
  an explicit ``seq_wake()`` poke.
* :meth:`seq_wake` — demand that ``seq()`` runs again (idempotent, cheap,
  always sound). Wire it into every cross-module entry point that hands
  this module new work (``submit()``, ``send()``, completion callbacks).

Modules that declare nothing run every cycle — always correct, merely
slower. A granted burn that proves wrong (``seq()`` had work before the
grant expired and nothing poked) is a correctness bug of the same class
as a wrong ``seq_idle_when`` term; the batched-vs-scalar equivalence
harness exists to catch exactly that.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.signal import Signal


class Module:
    """Base class for simulated hardware modules."""

    has_comb: bool = True
    # True asserts that sensitive_to()/wake() cover every comb() input, so
    # the scheduler may skip the module entirely on cycles where nothing it
    # watches changed (the quiescent fast path). Leave False for declared
    # modules that read cycle-start Python state the module cannot track.
    comb_static: bool = False
    # True asserts that while the declared seq_idle_when conjunction holds,
    # seq() stays a no-op until a watched guard signal changes or seq_wake()
    # is called — letting the batched kernel park the module indefinitely
    # instead of re-checking the guard every cycle.
    burn_idle: bool = False

    def __init__(self, name: str):
        self.name = name
        self._signals: List[Signal] = []
        self._children: List["Module"] = []
        self._sensitivity: Optional[List[Signal]] = None
        self._drives: Optional[List[Signal]] = None
        self._seq_idle: Optional[List[tuple]] = None
        self._sim = None
        # True while the module sits on the simulator's comb work-list.
        # The compiled kernel clears it as it evaluates; the fixpoint
        # kernel (and undeclared/always modules) pin it True so that
        # wake() and signal fanout stay no-ops for them.
        self._comb_scheduled = False
        self._order = 0   # elaboration index; stabilizes evaluation order
        # Installed by the batched kernel: a zero-arg callback that marks
        # this module's burn slot due. None outside a batch (seq_wake()
        # is then a no-op), so scalar runs pay one attribute check.
        self._burn_hook = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def signal(self, name: str, width: int = 1, reset: int = 0) -> Signal:
        """Create a signal owned by this module and register it."""
        sig = Signal(f"{self.name}.{name}", width=width, reset=reset)
        self._signals.append(sig)
        return sig

    def adopt(self, sig: Signal) -> Signal:
        """Register an externally created signal so it binds with this module."""
        self._signals.append(sig)
        return sig

    def submodule(self, module: "Module") -> "Module":
        """Register a child module; the simulator flattens the hierarchy."""
        self._children.append(module)
        return module

    # ------------------------------------------------------------------
    # scheduling declarations
    # ------------------------------------------------------------------
    def sensitive_to(self, *signals: Signal) -> None:
        """Declare the signals this module's ``comb()`` reads.

        May be called several times (each call appends). Declaring an empty
        sensitivity set is meaningful: it opts the module into work-list
        scheduling with ``wake()`` as its only trigger.
        """
        if self._sensitivity is None:
            self._sensitivity = []
        self._sensitivity.extend(signals)

    def drives(self, *signals: Signal) -> None:
        """Declare the signals this module's ``comb()`` drives.

        Consumed by the compiled kernel's levelization pass; see the
        module docstring. May be called several times (each call appends).
        """
        if self._drives is None:
            self._drives = []
        self._drives.extend(signals)

    def seq_idle_when(self, *terms: tuple) -> None:
        """Declare conditions under which ``seq()`` is provably a no-op.

        The conjunction of all declared terms gates the generated
        ``seq()`` call in the compiled kernel; see the module docstring
        for the term grammar. May be called several times (appends).
        """
        if self._seq_idle is None:
            self._seq_idle = []
        self._seq_idle.extend(terms)

    def wake(self) -> None:
        """Schedule a ``comb()`` re-evaluation (idempotent).

        Call whenever non-signal state read by ``comb()`` may have changed.
        A no-op before elaboration (every comb module is evaluated on the
        first cycle anyway) and for modules the scheduler already re-runs
        unconditionally.
        """
        if not self._comb_scheduled:
            sim = self._sim
            if sim is not None:
                self._comb_scheduled = True
                sim._pending.append(self)

    def next_wake(self, cycle: int) -> Optional[int]:
        """Earliest future cycle this module's ``seq()`` must run.

        ``None`` means "not until something external wakes the design";
        returning ``cycle`` (or any past cycle) means "this cycle matters"
        and blocks warping. The base implementation is never called — a
        module that does not override it is *opaque* and disables
        time-warping for the whole simulation.
        """
        return cycle

    def on_warp(self, gap: int) -> None:
        """Account for ``gap`` skipped quiescent cycles in one step.

        Called on every sequential module when the kernel warps. Override
        when ``seq()`` maintains per-cycle Python counters (busy-cycle
        tallies, credit accumulators, countdowns) that the skipped cycles
        would have advanced.
        """

    # ------------------------------------------------------------------
    # burn declarations (batched backend)
    # ------------------------------------------------------------------
    def seq_wake(self) -> None:
        """Demand that ``seq()`` runs again (batched backend; idempotent).

        Cross-module entry points that hand this module new work must call
        this so a granted burn is cut short. A no-op outside a batch.
        """
        hook = self._burn_hook
        if hook is not None:
            hook()

    def seq_burn(self, cycle: int) -> Optional[int]:
        """How many upcoming cycles ``seq()`` may be skipped, from ``cycle``.

        Returns 0 to run every cycle, a positive count to skip that many
        cycles, or ``None`` to park indefinitely (requires ``burn_idle``
        watchers or :meth:`seq_wake` pokes to come back). The default
        derives the grant from :meth:`next_wake` — modules that already
        declare warp hints burn identically; opaque modules (base
        ``next_wake``) grant 0 and run every cycle.
        """
        if type(self).next_wake is Module.next_wake:
            return 0
        hint = self.next_wake(cycle)
        if hint is None:
            return None
        gap = hint - cycle - 1
        return gap if gap > 0 else 0

    def on_burn(self, elapsed: int) -> None:
        """Account for ``elapsed`` burned (skipped) cycles in one step.

        The batched analogue of :meth:`on_warp`, and by default exactly
        that — modules whose warp accounting is already correct need no
        override. Called just before the module's ``seq()`` runs again.
        """
        self.on_warp(elapsed)

    # ------------------------------------------------------------------
    # compiled-kernel inlining hooks
    # ------------------------------------------------------------------
    def seq_inline_source(self, ctx) -> Optional[List[str]]:
        """Generated source lines replacing the ``seq()`` call, or ``None``.

        The compiled kernel consults this per sequential module; a module
        returning a list of statements (unindented — the generator nests
        them under its idle guard) gets them spliced into the fused step
        function instead of a bound-method call, eliminating interpreter
        dispatch. ``ctx`` is an :class:`repro.sim.compile.InlineContext`
        offering ``bind(obj)``/``const(value)`` for namespace interning.
        The emitted code must be *topology-pure*: reference per-instance
        objects only through ``ctx.bind`` and bake only values shared by
        every structurally identical instance through ``ctx.const``.
        """
        return None

    def seq_inline_key(self):
        """Cache-key contribution for :meth:`seq_inline_source` variants.

        Modules whose inline source depends on per-instance structure
        (direction flags, policy modes) must return a hashable capturing
        it; return ``False`` to declare the module uncacheable. Only
        consulted when ``seq_inline_source`` is overridden.
        """
        return None

    # ------------------------------------------------------------------
    # elaboration
    # ------------------------------------------------------------------
    def bind(self, sim) -> None:
        """Bind all owned signals to the simulator (called at elaboration)."""
        self._sim = sim
        for sig in self._signals:
            sig.bind(sim)

    def flatten(self) -> List["Module"]:
        """This module followed by all descendants, depth-first."""
        out = [self]
        for child in self._children:
            out.extend(child.flatten())
        return out

    # ------------------------------------------------------------------
    # behaviour (overridden by subclasses)
    # ------------------------------------------------------------------
    def comb(self) -> None:
        """Combinational process; default does nothing."""

    def seq(self) -> None:
        """Sequential (clocked) process; default does nothing."""

    def reset_state(self) -> None:
        """Restore power-on state; subclasses with Python-state registers extend."""
        for sig in self._signals:
            sig.reset_value()
        for child in self._children:
            child.reset_state()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
