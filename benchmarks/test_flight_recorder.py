"""Flight recorder: trace-size reduction and record-path overhead gates.

The always-on recording argument (rr's deployability case, ROADMAP item 1)
only holds if the bounded record path is cheap on both axes the paper
cares about: *storage* — per-epoch DEFLATE of the packet stream must
shrink the external trace footprint enough that a ring of a few thousand
storage words covers a useful replay window — and *time* — framing,
compression and eviction are host-side bookkeeping that must not slow the
recorded execution down. Both are enforced here (BENCH_flightrec.json):

* compression ratio >= 2x on the DMA-heavy app (wide payloads with
  repeated descriptors/status words: the deployment target's profile);
* flight record wall-clock <= 1.15x a plain v2 recording of the same
  run, best-of-N, measuring deployment build + run only (serializing the
  retained ring to a container is an offline/post-crash step).
"""

import json
from time import perf_counter

from conftest import RESULTS_DIR, bench_runs, emit  # noqa: F401

from repro.apps.registry import get_app
from repro.core import VidiConfig
from repro.harness.runner import bench_config, build_record_deployment, \
    record_run

RATIO_APPS = ("dram_dma", "sssp", "rendering3d")
GATE_APP = "dram_dma"
RATIO_FLOOR = 2.0
OVERHEAD_CEILING = 1.15


def _ratio_row(app: str) -> dict:
    metrics = record_run(
        get_app(app), bench_config(VidiConfig.r2, flight_recorder=True),
        seed=0)
    flight = metrics.result["flight"]
    return {
        "flat_bytes": flight["flat_bytes"],
        "frame_bytes": flight["frame_bytes"],
        "compression_ratio": round(flight["compression_ratio"], 3),
        "anchors": flight["anchors"],
    }


def _best_record_seconds(config, spec, rounds: int) -> float:
    """Best-of-N wall clock for deployment build + recorded run."""
    best = float("inf")
    for _ in range(rounds):
        start = perf_counter()
        deployment, _result, _cfg = build_record_deployment(
            spec, config, seed=100)
        deployment.run_to_completion(max_cycles=4_000_000)
        best = min(best, perf_counter() - start)
    return best


def test_flight_recorder_gates(emit):
    report = {"ratio": {}, "overhead": {}}
    lines = ["Flight recorder: trace-size reduction and record overhead"]

    for app in RATIO_APPS:
        row = _ratio_row(app)
        report["ratio"][app] = row
        lines.append(
            f"  {app:<14} flat {row['flat_bytes']:>9,} B -> framed "
            f"{row['frame_bytes']:>9,} B   "
            f"{row['compression_ratio']:.2f}x ({row['anchors']} anchor(s))")

    rounds = bench_runs(4)
    spec = get_app(GATE_APP)
    plain = _best_record_seconds(bench_config(VidiConfig.r2), spec, rounds)
    flight = _best_record_seconds(
        bench_config(VidiConfig.r2, flight_recorder=True), spec, rounds)
    overhead = flight / plain
    report["overhead"] = {
        "app": GATE_APP,
        "rounds": rounds,
        "plain_record_ms": round(plain * 1000, 1),
        "flight_record_ms": round(flight * 1000, 1),
        "overhead": round(overhead, 3),
    }
    lines.append(
        f"  {GATE_APP} record: plain {plain * 1000:.1f} ms   flight "
        f"{flight * 1000:.1f} ms   overhead {overhead:.3f}x "
        f"(best of {rounds})")

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_flightrec.json").write_text(
        json.dumps(report, indent=2) + "\n")
    lines.append("[also saved to benchmarks/results/BENCH_flightrec.json]")
    emit("flight_recorder", "\n".join(lines))

    gate = report["ratio"][GATE_APP]
    assert gate["compression_ratio"] >= RATIO_FLOOR, gate
    assert overhead <= OVERHEAD_CEILING, report["overhead"]
