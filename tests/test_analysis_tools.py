"""Tests for the trace-built tools: profiler, auditor, fuzzer."""

import pytest

from repro.analysis.audit import (
    AuditPolicy,
    MemoryWindow,
    audit_trace,
    render_audit,
)
from repro.analysis.profile import profile_trace, render_profile
from repro.apps import atop_echo, dram_dma
from repro.core import VidiConfig
from repro.platform import F1Deployment
from repro.tools.fuzz import fuzz_frames, fuzz_replay, render_fuzz


@pytest.fixture(scope="module")
def dma_trace():
    acc_factory, host_factory = dram_dma.make(polling=False)
    deployment = F1Deployment("prof", acc_factory, VidiConfig.r2(), seed=3)
    result = {}
    deployment.cpu.add_thread(host_factory(result, seed=3, scale=1.0))
    deployment.run_to_completion()
    assert result["ok"]
    return deployment.recorded_trace({"app": "dram_dma"})


class TestProfiler:
    def test_transaction_counts_match_trace(self, dma_trace):
        profile = profile_trace(dma_trace)
        total_ends = sum(bin(p.ends).count("1") for p in dma_trace.packets())
        assert sum(c.transactions for c in profile.channels.values()) == \
            total_ends

    def test_busiest_channel_is_dma_data(self, dma_trace):
        profile = profile_trace(dma_trace)
        busiest = profile.busiest(1)[0]
        assert busiest.name in ("pcis.w", "pcis.r")

    def test_latency_measured_for_inputs(self, dma_trace):
        profile = profile_trace(dma_trace)
        ctrl = profile.channels["ocl.w"]
        assert ctrl.latencies
        assert ctrl.mean_latency >= 0.0
        assert ctrl.max_latency >= int(ctrl.mean_latency)

    def test_timeline_buckets(self, dma_trace):
        profile = profile_trace(dma_trace, timeline_buckets=10)
        assert len(profile.timeline) == 10
        assert sum(profile.timeline) > 0

    def test_render(self, dma_trace):
        text = render_profile(profile_trace(dma_trace))
        assert "trace profile" in text
        assert "activity timeline" in text

    def test_idle_channels_have_no_span(self, dma_trace):
        profile = profile_trace(dma_trace)
        assert profile.channels["bar1.aw"].active_span == 0


class TestAuditor:
    def policy(self, windows):
        return [AuditPolicy(interface="pcim", windows=windows)]

    def test_compliant_trace_passes(self, dma_trace):
        from repro.apps.base import DOORBELL_ADDR
        from repro.apps.dram_dma import MIRROR_HOST_ADDR

        windows = [
            MemoryWindow(MIRROR_HOST_ADDR, 0x1000, allow_read=False),
            MemoryWindow(DOORBELL_ADDR, 64, allow_read=False),
        ]
        violations = audit_trace(dma_trace, self.policy(windows))
        assert violations == []
        assert "no out-of-policy" in render_audit(violations)

    def test_narrow_policy_flags_the_mirror(self, dma_trace):
        from repro.apps.base import DOORBELL_ADDR

        windows = [MemoryWindow(DOORBELL_ADDR, 64)]   # doorbell only
        violations = audit_trace(dma_trace, self.policy(windows))
        assert violations
        assert all(v.operation == "write" for v in violations)
        assert all(v.channel == "pcim.aw" for v in violations)
        assert "out-of-policy" in render_audit(violations)

    def test_unpoliced_interfaces_ignored(self, dma_trace):
        violations = audit_trace(dma_trace, [
            AuditPolicy(interface="bar1", windows=[])])
        assert violations == []

    def test_report_truncates(self):
        from repro.analysis.audit import AuditViolation

        many = [AuditViolation(i, "pcim.aw", "write", i, "x")
                for i in range(30)]
        assert "more" in render_audit(many)


class TestFuzzer:
    @pytest.fixture(scope="class")
    def atop_trace(self):
        acc_factory, host_factory = atop_echo.make(buggy=True, n_words=8)
        deployment = F1Deployment("fz", acc_factory, VidiConfig.r2(), seed=5)
        result = {}
        deployment.cpu.add_thread(host_factory(result, seed=5, scale=0.5))
        deployment.run_to_completion()
        assert result["ok"]
        return deployment.recorded_trace(), acc_factory

    def test_fuzzer_finds_the_atop_deadlock(self, atop_trace):
        """Random end reorderings rediscover the §5.3 bug automatically,
        with causally-impossible mutants triaged via the fixed design."""
        trace, acc_factory = atop_trace
        fixed_factory, _ = atop_echo.make(buggy=False, n_words=8)
        outcomes = fuzz_replay(trace, acc_factory, n_mutants=25, seed=1,
                               max_cycles=8_000,
                               reference_factory=fixed_factory)
        verdicts = {o.verdict for o in outcomes}
        assert "deadlock" in verdicts
        deadlocks = [o for o in outcomes if o.verdict == "deadlock"]
        # The offending mutants involve the filtered pcim write path.
        assert any("pcim" in o.mutation for o in deadlocks)

    def test_fixed_filter_survives_the_same_fuzz(self, atop_trace):
        """Fuzzing the fixed design against itself finds no true deadlock:
        every timeout is a causally impossible mutant."""
        trace, _ = atop_trace
        fixed_factory, _ = atop_echo.make(buggy=False, n_words=8)
        outcomes = fuzz_replay(trace, fixed_factory, n_mutants=25, seed=1,
                               max_cycles=8_000,
                               reference_factory=fixed_factory)
        assert all(o.verdict != "deadlock" for o in outcomes)

    def test_render_fuzz(self, atop_trace):
        trace, acc_factory = atop_trace
        outcomes = fuzz_replay(trace, acc_factory, n_mutants=6, seed=2,
                               max_cycles=8_000)
        text = render_fuzz(outcomes)
        assert "fuzz summary" in text


class TestFrameFuzzer:
    """The container fuzzer (``make fuzz-frames`` runs it at 200 mutants
    per container): every damaged container must fail to load or load
    the original content; a silent accept is a framing hole."""

    @pytest.mark.parametrize("version", [2, 3])
    def test_no_frame_mutant_is_silently_accepted(self, dma_trace, version):
        outcomes = fuzz_frames(dma_trace, n_mutants=60, seed=0,
                               version=version)
        assert len(outcomes) == 60
        assert [o for o in outcomes if o.verdict == "silent-accept"] == []
        assert sum(o.verdict == "detected" for o in outcomes) >= 55
        assert "silent-accept" not in render_fuzz(outcomes)
