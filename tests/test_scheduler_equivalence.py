"""Differential harness: the compiled kernel vs. the fixpoint oracle.

The compiled kernel is a pure scheduling optimisation — it decides *when*
``comb()``/``seq()`` processes run, never *what* they compute. The
fixpoint kernel ignores every scheduling declaration (sensitivity lists,
``drives()``, ``seq_idle_when`` guards, warp hints), so it is the
reference semantics. These tests run every application — the ten
registry apps, the extension apps and the two case-study designs — under
both kernels and compare everything observable:

* the per-cycle hash of every signal value in the design (so a divergence
  is caught in the exact cycle it appears, not just at the end),
* the serialized trace bytes (the paper's artefact — must be bit-identical),
* the final cycle count and the application's own output/result dict;
* for a replay of the recorded trace: the replayed cycle count and the
  validation trace bytes.

A wrong scheduling declaration (a module reading a signal it did not
declare, an idle guard that holds while ``seq()`` still has work) shows
up here as a first-divergent-cycle assertion.
"""

from typing import Callable, Dict

import pytest

from repro.apps import atop_echo, frame_fifo_echo
from repro.apps.registry import APPS, EXTRA_APPS, get_app
from repro.core import VidiConfig
from repro.harness.runner import bench_config, trace_interfaces
from repro.platform import F1Deployment

SEEDS = (11,)
#: Workload scale of the registry/extension apps: small enough that the
#: fixpoint oracle keeps the whole matrix cheap, large enough that every
#: app still moves real traffic through its kernel.
SCALE = 0.5
#: Every design finishes in well under this many cycles; a kernel that
#: stalls one (a skipped seq() that never comes due) fails fast.
MAX_CYCLES = 100_000


def _registry_design(key: str) -> Callable:
    def build(seed: int):
        spec = get_app(key)
        acc_factory, host_factory = spec.make()
        config = (bench_config(VidiConfig.r2) if spec.interfaces is None
                  else bench_config(VidiConfig.r2,
                                    interfaces=tuple(spec.interfaces)))
        packets = (spec.stream_workload(seed, SCALE)
                   if spec.stream_workload is not None else None)

        def threads(result):
            return [host_factory(result, seed=seed, scale=SCALE)]

        return acc_factory, config, threads, packets, spec.check
    return build


def _frame_fifo_echo(seed: int):
    """§5.2 echo server started promptly: every byte must echo back."""
    acc_factory, host_threads = frame_fifo_echo.make(start_delay=4)

    def check(result):
        assert result["ok"], f"{result['mismatch_bytes']} bytes lost"

    def threads(result):
        return host_threads(result, seed=seed)

    return acc_factory, bench_config(VidiConfig.r2), threads, None, check


def _atop_echo(seed: int):
    """§5.3 ping-pong through the (buggy) atomic-op filter."""
    acc_factory, host_factory = atop_echo.make()

    def threads(result):
        return [host_factory(result, seed=seed)]

    return (acc_factory, bench_config(VidiConfig.r2), threads, None,
            atop_echo.check)


DESIGNS: Dict[str, Callable] = {
    **{key: _registry_design(key) for key in (*APPS, *EXTRA_APPS)},
    "frame_fifo_echo": _frame_fifo_echo,
    "atop_echo": _atop_echo,
}


def _run_with_history(design: str, scheduler: str, seed: int) -> dict:
    """One full R2 recording run with a per-cycle signal-state history."""
    acc_factory, config, threads, packets, check = DESIGNS[design](seed)
    deployment = F1Deployment(f"eq_{design}_{scheduler}", acc_factory,
                              config, seed=seed, scheduler=scheduler)
    assert deployment.sim.scheduler == scheduler
    signals = []
    history = []

    def snapshot(_cycle: int) -> None:
        if not signals:
            signals.extend(deployment.sim.signals())
        history.append(hash(tuple(sig._value for sig in signals)))

    deployment.sim.add_cycle_hook(snapshot)
    result: dict = {}
    if packets is not None:
        deployment.stream_driver.load_packets(packets)
    for thread in threads(result):
        deployment.cpu.add_thread(thread)
    cycles = deployment.run_to_completion(max_cycles=MAX_CYCLES)
    trace = deployment.recorded_trace({"app": design, "seed": seed})
    return {
        "cycles": cycles,
        "history": history,
        "trace": trace,
        "trace_bytes": trace.to_bytes(),
        "result": result,
        "check": check,
        "comb_evals": deployment.sim.comb_evals,
    }


def _replay(design: str, seed: int, trace, scheduler: str) -> tuple:
    """Replay ``trace`` against a fresh instance of the design."""
    acc_factory = DESIGNS[design](seed)[0]
    deployment = F1Deployment(
        f"eqr_{design}_{scheduler}", acc_factory,
        VidiConfig.r3(interfaces=trace_interfaces(trace)),
        replay_trace=trace, scheduler=scheduler)
    cycles = deployment.run_replay(max_cycles=MAX_CYCLES)
    return cycles, bytes(deployment.recorded_trace().body)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("design", DESIGNS)
def test_compiled_matches_fixpoint(design, seed):
    """The compiled kernel reproduces the fixpoint oracle bit for bit."""
    fixpoint = _run_with_history(design, "fixpoint", seed)
    compiled = _run_with_history(design, "compiled", seed)
    if compiled["history"] != fixpoint["history"]:
        first = next((i for i, (a, b) in enumerate(
            zip(compiled["history"], fixpoint["history"])) if a != b),
            min(len(compiled["history"]), len(fixpoint["history"])))
        pytest.fail(f"{design} seed={seed}: compiled signal state "
                    f"diverged at cycle {first + 1}")
    assert compiled["cycles"] == fixpoint["cycles"], (
        f"{design} seed={seed}: compiled cycle count differs")
    assert compiled["trace_bytes"] == fixpoint["trace_bytes"], (
        f"{design} seed={seed}: compiled trace bytes differ")
    assert compiled["result"] == fixpoint["result"], (
        f"{design} seed={seed}: compiled app result differs")
    fixpoint["check"](fixpoint["result"])
    assert (_replay(design, seed, fixpoint["trace"], "compiled")
            == _replay(design, seed, fixpoint["trace"], "fixpoint")), (
        f"{design} seed={seed}: compiled replay differs")


def test_compiled_scheduler_actually_skips_work():
    """The equivalence above must not be vacuous: levelized sweeps plus
    quiescence must cut comb evaluations by an order of magnitude versus
    the blanket fixpoint loop."""
    compiled = _run_with_history("sha256", "compiled", SEEDS[0])
    fixpoint = _run_with_history("sha256", "fixpoint", SEEDS[0])
    assert compiled["comb_evals"] < fixpoint["comb_evals"] / 10
