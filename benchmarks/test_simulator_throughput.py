"""Infrastructure bench — production kernel vs. the fixpoint oracle.

Not a paper artefact: documents the substrate's speed so absolute
runtimes elsewhere are interpretable, and gates the payoff of the
levelized, code-generated ``compiled`` kernel (``repro.sim.compile``)
over the blanket ``fixpoint`` reference kernel on the configuration that
matters — a full five-interface deployment doing real work. The pipeline
is record (R2) **plus** replay (R3) of the recorded trace, i.e. the
paper's end-to-end record/replay loop, and each leg carries its own
speedup floor:

* **record leg** — R2 with the bench config, exactly as a campaign
  records it;
* **replay leg** — R3 stepping with ``time_warp=False``. Warp skips
  quiescent gaps wholesale (benchmarked separately in
  ``BENCH_replay.json``) and the fixpoint kernel has no warp at all, so
  disabling it makes the leg a pure stepping-rate comparison — the
  regime the replay-datapath inlining targets.

A minimal one-counter design is reported too (no floor): the per-cycle
floor cost of each kernel.

Results land in ``benchmarks/results/BENCH_kernel.json``; the floors are
part of ``make check``. The differential harness
(``tests/test_scheduler_equivalence.py``) proves the two kernels
bit-identical on every application; this bench also cross-checks cycle
counts and recorded trace bytes.
"""

import json
from time import perf_counter

import pytest
from conftest import RESULTS_DIR

from repro.apps.registry import get_app
from repro.core import VidiConfig
from repro.harness.runner import bench_config, trace_interfaces
from repro.platform import F1Deployment
from repro.sim import Module, Simulator

CYCLES = 3_000        # minimal-design run length
ROUNDS = 3            # best-of-N to shed host-scheduler noise
DEPLOY_SCALE = 4.0    # long enough that stepping dominates construction
PIPELINE_FLOOR = 3.0  # record + replay, end to end
RECORD_LEG_FLOOR = 3.0
REPLAY_LEG_FLOOR = 2.8


class _Counter(Module):
    has_comb = False

    def __init__(self):
        super().__init__("counter")
        self.count = self.signal("count", width=32)

    def seq(self):
        self.count.set_next(self.count.value + 1)


def _minimal_cps(scheduler):
    best = 0.0
    for _ in range(ROUNDS):
        sim = Simulator(scheduler=scheduler)
        counter = _Counter()
        sim.add(counter)
        sim._step_callable()   # pre-build the kernel
        t0 = perf_counter()
        sim.run(CYCLES)
        best = max(best, CYCLES / (perf_counter() - t0))
        assert counter.count.value == CYCLES
    return best


def _measure_scheduler(scheduler):
    """Best-of-N wall-clock for each leg (sha256, R2 record / R3 replay).

    Construction and elaboration — including the compiled kernel's one-off
    levelize+codegen, which ``_step_callable`` triggers — happen outside
    the timed regions: the bench measures per-cycle stepping, not setup.
    Each leg takes its own best across rounds so one noisy leg cannot
    poison an otherwise clean round.
    """
    spec = get_app("sha256")
    acc_factory, host_factory = spec.make()
    best_rec, best_rep, stats = float("inf"), float("inf"), {}
    trace = None
    for _ in range(ROUNDS):
        recording = F1Deployment("thr_rec", acc_factory,
                                 bench_config(VidiConfig.r2), seed=1,
                                 scheduler=scheduler)
        result = {}
        recording.cpu.add_thread(
            host_factory(result, seed=1, scale=DEPLOY_SCALE))
        recording.sim._step_callable()   # pre-build the kernel
        t0 = perf_counter()
        record_cycles = recording.run_to_completion()
        best_rec = min(best_rec, perf_counter() - t0)
        spec.check(result)
        trace = recording.recorded_trace({"app": "sha256", "seed": 1})
        stats = {
            "record_cycles": record_cycles,
            "trace_bytes": trace.to_bytes(),
            "compile_s": recording.sim.compile_s,
            "rank_count": recording.sim.rank_count,
            "demoted_sccs": recording.sim.demoted_sccs,
        }
    for _ in range(ROUNDS):
        acc2_factory, _host = spec.make()
        replaying = F1Deployment(
            "thr_rep", acc2_factory,
            VidiConfig.r3(interfaces=trace_interfaces(trace)),
            replay_trace=trace, scheduler=scheduler,
            time_warp=False)             # pure stepping rate (see module doc)
        replaying.sim._step_callable()   # pre-build the kernel
        t0 = perf_counter()
        replay_cycles = replaying.run_replay()
        best_rep = min(best_rep, perf_counter() - t0)
        stats["replay_cycles"] = replay_cycles
        stats["compile_s"] += replaying.sim.compile_s
    return best_rec, best_rep, stats


@pytest.fixture(scope="module")
def legs():
    fx_rec, fx_rep, fixpoint_stats = _measure_scheduler("fixpoint")
    cp_rec, cp_rep, compiled_stats = _measure_scheduler("compiled")
    # Same design, same seed: identical cycle counts and trace bytes (the
    # differential tests check far more than this).
    assert compiled_stats["record_cycles"] == fixpoint_stats["record_cycles"]
    assert compiled_stats["replay_cycles"] == fixpoint_stats["replay_cycles"]
    assert compiled_stats["trace_bytes"] == fixpoint_stats["trace_bytes"]
    return {
        "fx_rec": fx_rec, "fx_rep": fx_rep, "fixpoint_stats": fixpoint_stats,
        "cp_rec": cp_rec, "cp_rep": cp_rep, "compiled_stats": compiled_stats,
    }


def test_kernel_throughput(legs, emit):
    """Write BENCH_kernel.json and enforce the end-to-end pipeline floor."""
    fixpoint_stats = legs["fixpoint_stats"]
    compiled_stats = legs["compiled_stats"]
    fx_rec, fx_rep = legs["fx_rec"], legs["fx_rep"]
    cp_rec, cp_rep = legs["cp_rec"], legs["cp_rep"]
    min_compiled = _minimal_cps("compiled")
    min_fixpoint = _minimal_cps("fixpoint")

    total_cycles = (fixpoint_stats["record_cycles"]
                    + fixpoint_stats["replay_cycles"])
    fixpoint_cps = total_cycles / (fx_rec + fx_rep)
    compiled_cps = total_cycles / (cp_rec + cp_rep)
    speedup = compiled_cps / fixpoint_cps
    record_leg = fx_rec / cp_rec
    replay_leg = fx_rep / cp_rep
    report = {
        "minimal": {
            "cycles": CYCLES,
            "compiled_cycles_per_sec": round(min_compiled),
            "fixpoint_cycles_per_sec": round(min_fixpoint),
        },
        "full_deployment_record_replay": {
            "app": "sha256",
            "config": "r2(five-interface) + r3 replay (time_warp off)",
            "record_cycles": fixpoint_stats["record_cycles"],
            "replay_cycles": fixpoint_stats["replay_cycles"],
            "fixpoint_cycles_per_sec": round(fixpoint_cps),
            "compiled_cycles_per_sec": round(compiled_cps),
            "speedup": round(speedup, 2),
            "speedup_floor": PIPELINE_FLOOR,
            "record_leg_speedup": round(record_leg, 2),
            "record_leg_floor": RECORD_LEG_FLOOR,
            "replay_leg_speedup": round(replay_leg, 2),
            "replay_leg_floor": REPLAY_LEG_FLOOR,
        },
        "compiled_schedule": {
            "compile_s": round(compiled_stats["compile_s"], 4),
            "rank_count": compiled_stats["rank_count"],
            "demoted_sccs": compiled_stats["demoted_sccs"],
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_kernel.json").write_text(
        json.dumps(report, indent=2) + "\n")

    emit("kernel_throughput", "\n".join([
        f"Kernel throughput (cycles/second, best of {ROUNDS} per leg)",
        f"  minimal design:      fixpoint {min_fixpoint:>12,.0f}   "
        f"compiled {min_compiled:>12,.0f}",
        f"  full R2+R3 pipeline: fixpoint {fixpoint_cps:>12,.0f}   "
        f"compiled {compiled_cps:>12,.0f}   speedup {speedup:.2f}x  "
        f"(floor {PIPELINE_FLOOR}x)",
        f"  record leg (R2):          {record_leg:.2f}x  "
        f"(floor {RECORD_LEG_FLOOR}x)",
        f"  replay leg (R3, no warp): {replay_leg:.2f}x  "
        f"(floor {REPLAY_LEG_FLOOR}x)",
        f"  schedule: {compiled_stats['rank_count']} rank(s), "
        f"{compiled_stats['demoted_sccs']} demoted SCC(s), "
        f"compile {compiled_stats['compile_s'] * 1e3:.1f} ms",
        "[also saved to benchmarks/results/BENCH_kernel.json]",
    ]))

    assert speedup >= PIPELINE_FLOOR, (
        f"compiled kernel pipeline speedup regressed: {speedup:.2f}x")


def test_compiled_record_leg(legs):
    """R2 recording alone must clear its own floor — a campaign's steady
    state is back-to-back record runs, so the record leg cannot hide
    behind a fast replay leg (or vice versa)."""
    record_leg = legs["fx_rec"] / legs["cp_rec"]
    assert record_leg >= RECORD_LEG_FLOOR, (
        f"record-leg speedup regressed: {record_leg:.2f}x")


def test_compiled_replay_leg(legs):
    """R3 stepping (warp off) must clear its own floor. The inlined
    replay datapath (``ChannelReplayer.seq_inline_source``) and the
    delta-need vector-clock walk pay off exactly here, where every
    trace cycle executes."""
    replay_leg = legs["fx_rep"] / legs["cp_rep"]
    assert replay_leg >= REPLAY_LEG_FLOOR, (
        f"replay-leg speedup regressed: {replay_leg:.2f}x")
