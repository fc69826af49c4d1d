"""Unit tests for the compiled kernel's levelization and code generation.

The app-level differential harness (``tests/test_scheduler_equivalence.py``)
proves the compiled kernel bit-identical on whole deployments; these tests
pin down the pieces on purpose-built micro-designs: topological rank
ordering, SCC demotion to iterative settling, the undeclared-sensitivity
fallback, seq-idle guard inlining, guard-term validation, and counter
hygiene across ``reset()``.
"""

import pytest

from repro.errors import SimulationError
from repro.faults import run_campaign
from repro.sim.compile import levelize
from repro.sim.module import Module
from repro.sim.simulator import Simulator


class Const(Module):
    """Drives a constant onto its output; woken only explicitly."""

    comb_static = True

    def __init__(self, name, value=1):
        super().__init__(name)
        self.value = value
        self.out = self.signal("out", width=32)
        self.sensitive_to()
        self.drives(self.out)

    def comb(self):
        self.out.drive(self.value)

    def set(self, value):
        self.value = value
        self.wake()


class Inc(Module):
    """out = src + 1, combinationally."""

    comb_static = True

    def __init__(self, name, src):
        super().__init__(name)
        self.src = src
        self.out = self.signal("out", width=32)
        self.sensitive_to(src)
        self.drives(self.out)

    def comb(self):
        self.out.drive(self.src.value + 1)


class MaxOf(Module):
    """out = max(src, floor) — two of these cross-coupled form a settling
    combinational cycle (each pass can only raise the values, bounded by
    the largest floor, so the fixpoint exists)."""

    comb_static = True

    def __init__(self, name, floor=0):
        super().__init__(name)
        self.floor = floor
        self.src = None
        self.out = self.signal("out", width=32)
        self.drives(self.out)

    def couple(self, other):
        self.src = other.out
        self.sensitive_to(other.out)

    def comb(self):
        self.out.drive(max(self.src.value, self.floor))

    def set_floor(self, floor):
        self.floor = floor
        self.wake()


class SelfRamp(Module):
    """Counts up to ``target`` by re-triggering on its own output — a
    combinational self-loop that settles in ``target`` delta passes."""

    comb_static = True

    def __init__(self, name, target):
        super().__init__(name)
        self.target = target
        self.out = self.signal("out", width=32)
        self.sensitive_to(self.out)
        self.drives(self.out)

    def comb(self):
        if self.out.value < self.target:
            self.out.drive(self.out.value + 1)


class Undeclared(Module):
    """Real comb process with no sensitivity declaration at all — must get
    the conservative every-pass treatment under both kernels."""

    def __init__(self, name, src):
        super().__init__(name)
        self.src = src
        self.out = self.signal("out", width=32)

    def comb(self):
        self.out.drive(self.src.value * 2)


class CountSeq(Module):
    """Pure seq module counting its calls, optionally guardable."""

    has_comb = False

    def __init__(self, name, guard=None):
        super().__init__(name)
        self.calls = 0
        self.idle = False
        if guard is not None:
            self.seq_idle_when(*guard)

    def seq(self):
        self.calls += 1


def _compiled_sim(*modules, name="t"):
    sim = Simulator(name, scheduler="compiled")
    for m in modules:
        sim.add(m)
    sim.elaborate()
    return sim


# ----------------------------------------------------------------------
# levelization
# ----------------------------------------------------------------------

class TestLevelize:
    def test_chain_ranks_follow_the_graph_not_elaboration_order(self):
        a = Const("a", value=10)
        b = Inc("b", a.out)
        c = Inc("c", b.out)
        # Added in reverse: ranks must come from drives→sensitivity edges.
        sim = _compiled_sim(c, b, a)
        sim.step()
        lev = sim._compiled.levelization
        assert [s.modules for s in lev.stages] == [(a,), (b,), (c,)]
        assert [s.level for s in lev.stages] == [0, 1, 2]
        assert not any(s.iterative for s in lev.stages)
        assert sim.rank_count == 3
        assert sim.demoted_sccs == 0
        assert c.out.value == 12

    def test_independent_modules_share_a_rank(self):
        a, b = Const("a"), Const("b")
        sim = _compiled_sim(a, b)
        sim.step()
        lev = sim._compiled.levelization
        assert len(lev.stages) == 1
        assert lev.stages[0].modules == (a, b)

    def test_cross_coupled_scc_is_demoted_to_iterative(self):
        a, b = MaxOf("a"), MaxOf("b")
        a.couple(b)
        b.couple(a)
        tail = Inc("tail", a.out)
        sim = _compiled_sim(a, b, tail)
        sim.step()
        lev = sim._compiled.levelization
        assert sim.demoted_sccs == 1
        scc = next(s for s in lev.stages if s.iterative)
        assert set(scc.modules) == {a, b}
        # The downstream reader ranks strictly after the cycle.
        tail_stage = next(s for s in lev.stages if tail in s.modules)
        assert tail_stage.level > scc.level
        # The cycle actually settles: raising one floor lifts both outputs.
        a.set_floor(5)
        sim.step()
        assert a.out.value == 5
        assert b.out.value == 5
        assert tail.out.value == 6

    def test_self_loop_is_demoted_to_iterative(self):
        ramp = SelfRamp("ramp", target=7)
        sim = _compiled_sim(ramp)
        sim.step()
        assert sim.demoted_sccs == 1
        assert sim._compiled.levelization.stages[0].iterative
        assert ramp.out.value == 7

    def test_undeclared_module_falls_back_to_every_pass(self):
        a = Const("a", value=3)
        u = Undeclared("u", a.out)
        sim = _compiled_sim(a, u)
        lev = levelize(sim._event_comb, sim._always_comb, sim._dynamic_comb)
        assert u in lev.always
        assert all(u not in s.modules for s in lev.stages)
        sim.run(3)
        assert u.out.value == 6
        # Always-fallback modules force settling every cycle: the quiescent
        # fast path must stay off.
        assert sim.quiescent_cycles == 0
        # A value change still propagates through the fallback evaluation.
        a.set(8)
        sim.step()
        assert u.out.value == 16

    def test_rank_eval_counters_sum_to_comb_evals(self):
        a = Const("a")
        b = Inc("b", a.out)
        sim = _compiled_sim(a, b)
        sim.run(4)
        assert sim.comb_evals > 0
        assert sum(sim.rank_evals) == sim.comb_evals
        assert len(sim.rank_evals) == sim.rank_count


# ----------------------------------------------------------------------
# seq-idle guards
# ----------------------------------------------------------------------

class TestSeqIdleGuards:
    def test_truthy_guard_skips_seq_calls(self):
        gated = CountSeq("gated", guard=(("truthy", "idle"),))
        free = CountSeq("free")
        sim = _compiled_sim(gated, free)
        sim.run(10)
        assert gated.calls == 10
        assert free.calls == 10
        gated.idle = True
        sim.run(10)
        assert gated.calls == 10    # guard held: every call skipped
        assert free.calls == 20

    def test_bad_attribute_path_is_rejected_at_compile(self):
        bad = CountSeq("bad", guard=(("falsy", "no spaces allowed"),))
        sim = _compiled_sim(bad)
        with pytest.raises(SimulationError):
            sim.step()

    def test_unknown_term_kind_is_rejected_at_compile(self):
        bad = CountSeq("bad", guard=(("sometimes", "idle"),))
        sim = _compiled_sim(bad)
        with pytest.raises(SimulationError):
            sim.step()

    def test_parent_guard_does_not_gate_an_overriding_seq(self):
        """The accelerator base guards its seq() on "no kernel running";
        a subclass whose seq() also works while no kernel runs (a FIFO
        drain, stream ingress) must still be called every cycle."""
        from repro.apps.base import Accelerator
        from repro.platform.interfaces import make_f1_interfaces

        class Drain(Accelerator):
            def __init__(self, name, interfaces):
                super().__init__(name, interfaces)
                self.drained = 0

            def seq(self):
                super().seq()
                self.drained += 1

        plain = Accelerator("plain", make_f1_interfaces("p"))
        drain = Drain("drain", make_f1_interfaces("d"))
        sim = _compiled_sim(plain, drain)
        sim.run(10)
        assert drain._kernel is None
        assert drain.drained == 10
        assert plain._seq_idle == [("none", "_kernel")]


# ----------------------------------------------------------------------
# counter hygiene + campaign smoke
# ----------------------------------------------------------------------

class TestResetAndCampaign:
    def test_reset_zeroes_kernel_counters_in_place(self):
        a = Const("a")
        b = Inc("b", a.out)
        sim = _compiled_sim(a, b)
        sim.run(5)
        assert sim.comb_evals > 0
        rank_evals = sim.rank_evals
        sim.reset()
        assert sim.comb_evals == 0
        assert sim.quiescent_cycles == 0
        assert sim.warped_cycles == 0
        assert sim.warp_jumps == 0
        # The generated code binds the rank_evals list object: reset must
        # zero it in place, not rebind it.
        assert sim.rank_evals is rank_evals
        assert all(n == 0 for n in sim.rank_evals)
        sim.run(5)
        assert sum(sim.rank_evals) == sim.comb_evals

    def test_fixpoint_scheduler_reset_zeroes_counters_too(self):
        a = Const("a")
        sim = Simulator("f", scheduler="fixpoint")
        sim.add(a)
        sim.run(5)
        assert sim.comb_evals > 0
        sim.reset()
        assert (sim.comb_evals, sim.quiescent_cycles,
                sim.warped_cycles, sim.warp_jumps) == (0, 0, 0, 0)

    def test_fault_campaign_smoke_on_compiled_kernel(self):
        report = run_campaign(app="sha256", n_faults=6, seed=4)
        assert len(report.trials) == 6
        assert not report.silent_accepts


class TestReplayDatapathInlining:
    """The replayer's seq() is spliced into the generated step function."""

    @staticmethod
    def _record_trace():
        from repro.apps.registry import get_app
        from repro.core import VidiConfig
        from repro.platform import F1Deployment

        spec = get_app("sha256")
        acc_factory, host_factory = spec.make()
        recording = F1Deployment("inl_rec", acc_factory, VidiConfig.r2(),
                                 seed=1)
        recording.cpu.add_thread(host_factory({}, seed=1))
        recording.run_to_completion()
        return spec, recording.recorded_trace({"app": "sha256", "seed": 1})

    @staticmethod
    def _replay_deployment(spec, trace):
        from repro.core import VidiConfig
        from repro.harness.runner import trace_interfaces
        from repro.platform import F1Deployment

        acc_factory, _host = spec.make()
        return F1Deployment(
            "inl_rep", acc_factory,
            VidiConfig.r3(interfaces=trace_interfaces(trace)),
            replay_trace=trace)

    def test_replay_step_function_contains_inlined_walk(self):
        spec, trace = self._record_trace()
        replaying = self._replay_deployment(spec, trace)
        replaying.sim._step_callable()
        # The generated source carries the replayer's action walk (its
        # temporaries are the `_r...` family), not a bound seq() call
        # per channel replayer.
        source = replaying.sim._compiled.source
        assert "_rpos" in source and "_rneeds" in source

    def test_profiling_suppresses_inlining_and_stays_exact(self):
        spec, trace = self._record_trace()
        reference = self._replay_deployment(spec, trace)
        cycles = reference.run_replay()

        profiled = self._replay_deployment(spec, trace)
        profiled.sim.enable_profiling()
        profiled.sim._step_callable()
        # The per-instance profiling wrapper must stay a call — inlining
        # would bypass its timers — and the schedule cache must not leak
        # an inlined kernel into the profiled simulator.
        source = profiled.sim._compiled.source
        assert "_rpos" not in source
        assert profiled.run_replay() == cycles
        profile = profiled.sim.profile_report()
        assert any("rep." in row["module"] and row["seq_s"] >= 0
                   for row in profile)
