"""Vidi end-to-end benchmark: one command, three workloads, one result line.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 30 --trace 0

Runs cold passes of one workload (``perfbench/passes.py``, one process
each), as many as take about ``--seconds`` on a slow host (see
``NOMINAL_PASS_S``), checks every verdict against
ground truth, and prints every metric by name and unit. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.

A traced run alternates untraced and traced passes: per-layer numbers
come from the traced ones, ``tracing.overhead_frac`` from the two wall
time medians. End-to-end numbers only ever come from untraced passes.

Host times are rescaled to a reference host speed: every pass times
blocks of a fixed reference workload (``perfbench/refspeed.py``) beside
its operations, and its host times are multiplied (rates divided) by how
much faster than nominal those blocks ran (:func:`pass_speed`). The raw
values and the host speed are printed beside them.

Exit status: 0 when every output matched ground truth (failures that are
recorded known defects still count in ``failed``); 1 on any other
violation; 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refspeed import NOMINAL_BLOCK_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS_SCRIPT = HERE / "passes.py"
WORKLOADS = ("suite", "flight-dma", "service-mix")
# Settings that would replace a default the benchmark is meant to measure.
CLEARED_ENV = ("REPRO_SIM_SCHEDULER", "REPRO_SIM_TIMEWARP",
               "REPRO_SCHEDULE_CACHE")
MIN_PASSES = 3           # per kind of pass: medians need a few samples
# Seconds one pass takes on a 2-vCPU host. ``--seconds`` buys
# round(seconds / this) passes, so every run of a workload has the same
# number of samples however fast the host happens to be: the tail
# percentile's rank, and so which kind of operation it lands on, depends
# on that number.
NOMINAL_PASS_S = {"suite": 10.0, "flight-dma": 7.5, "service-mix": 7.0}
RUN_DEADLINE_S = 170.0   # whole run, set-up included
TAIL_BEYOND = 10         # tail percentile: at least this many samples above

# What each end-to-end metric measures, for the printed report.
E2E_BASIS = {
    "setup_s": "host time at reference speed",
    "wall_s": "host time at reference speed",
    "sim_cycles_per_s": "simulated cycles per reference-speed host second",
    "ops_per_s": "host rate at reference speed",
    "op_latency_p50_s": "host time at reference speed",
    "op_latency_tail_s": "host time at reference speed",
    "peak_rss_mb": "host memory",
    "ops_ok_frac": "outcome",
    "trace_bytes_per_tx": "simulated (deterministic per seed)",
    "salvaged_tx_frac": "simulated (deterministic per seed)",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a verdict on the program)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pass_env(pass_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    # Anything the program caches or spills lands in this pass's own
    # directory, so nothing one pass leaves behind can serve the next.
    for name, sub in (("TMPDIR", "tmp"), ("XDG_CACHE_HOME", "cache")):
        (pass_dir / sub).mkdir()
        env[name] = str(pass_dir / sub)
    return env


def run_pass(args, traced: bool, pass_dir: Path, deadline: float) -> dict:
    """Start one cold pass and wait for it; returns its JSON report."""
    out = pass_dir / "pass.json"
    env = pass_env(pass_dir)
    launch = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(PASS_SCRIPT), "--workload", args.workload,
         "--seed", str(args.seed), "--trace", str(int(traced)),
         "--launch", repr(launch), "--workdir", str(pass_dir),
         "--out", str(out)],
        cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("a pass overran the run deadline")
    finally:
        # The pass shuts its own pool down; make sure of it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not out.exists():
        tail = (stdout + stderr).decode("utf-8", "replace")[-4000:]
        raise BenchError(f"pass exited with {proc.returncode}:\n{tail}")
    return json.loads(out.read_text())


def run_passes(args, work: Path) -> tuple:
    """The run's passes; (untraced, traced) report lists."""
    kinds = (False, True) if args.trace else (False,)
    per_kind = max(MIN_PASSES, round(
        args.seconds / NOMINAL_PASS_S[args.workload] / len(kinds)))
    reports = {False: [], True: []}
    deadline = time.monotonic() + RUN_DEADLINE_S
    for index in range(per_kind * len(kinds)):
        traced = kinds[index % len(kinds)]
        pass_dir = work / f"pass{index}"
        pass_dir.mkdir()
        reports[traced].append(run_pass(args, traced, pass_dir, deadline))
        shutil.rmtree(pass_dir, ignore_errors=True)
    return reports[False], reports[True]


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------


def tail(values):
    """Highest percentile with TAIL_BEYOND samples above it: (value, pct)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def pass_speed(report) -> float:
    """How much faster than the reference host the pass's host ran.

    The mean block time, not the median: the host switches between slow
    and fast spells lasting seconds, and the mean weighs them as they
    weigh on the pass's operations.
    """
    return NOMINAL_BLOCK_S / statistics.fmean(report["ref_blocks"])


def end_to_end(reports, rescale=True) -> tuple:
    """End-to-end metric values and their sample counts.

    With ``rescale``, host times are multiplied, and host rates divided,
    by the pass's :func:`pass_speed`.
    """
    def speed(r):
        return pass_speed(r) if rescale else 1.0

    def per_pass(fn):
        return statistics.median(fn(r) for r in reports)

    def busy(r):
        return (r["wall_s"] - r["setup_s"]) * speed(r)

    ops = [op for r in reports for op in r["ops"]]
    latencies = [op["latency"] * speed(r) for r in reports
                 for op in r["ops"]]
    tail_value, tail_pct = tail(latencies)
    values = {
        "setup_s": per_pass(lambda r: r["setup_s"] * speed(r)),
        "wall_s": per_pass(lambda r: r["wall_s"] * speed(r)),
        "sim_cycles_per_s": per_pass(lambda r: r["sim_cycles"] / busy(r)),
        "ops_per_s": per_pass(lambda r: len(r["ops"]) / busy(r)),
        "op_latency_p50_s": statistics.median(latencies),
        "op_latency_tail_s": tail_value,
        "peak_rss_mb": per_pass(lambda r: r["peak_rss_mb"]),
        "ops_ok_frac": sum(op["ok"] for op in ops) / len(ops),
        # 0 when a failed operation left nothing to measure; the failure
        # itself is already a violation.
        "trace_bytes_per_tx": per_pass(
            lambda r: r["trace_bytes"] / (r["transactions"] or math.inf)),
        "salvaged_tx_frac": per_pass(
            lambda r: statistics.fmean(r["salvage_shares"] or [0.0])),
    }
    samples = {name: f"median of {len(reports)} passes" for name in values}
    samples["op_latency_p50_s"] = f"median of {len(latencies)} operations"
    samples["op_latency_tail_s"] = (
        f"p{tail_pct:.1f} of {len(latencies)} operations, "
        f"{TAIL_BEYOND} beyond")
    samples["ops_ok_frac"] = f"{len(ops)} operations"
    return values, samples


def per_layer(names, untraced, traced) -> dict:
    values = {}
    for name in names:
        if name == "tracing.overhead_frac":
            values[name] = (
                statistics.median(r["wall_s"] * pass_speed(r) for r in traced)
                / statistics.median(r["wall_s"] * pass_speed(r)
                                    for r in untraced))
            continue
        if name not in traced[0]["layers"]:
            raise BenchError(f"no pass measures per-layer metric {name!r}")
        values[name] = statistics.median(r["layers"][name] for r in traced)
    return values


def verdicts(reports) -> tuple:
    """(violations, known defects) over every pass of the run."""
    violations, known = [], []
    for i, report in enumerate(reports):
        violations += [f"pass {i}: {v}" for v in report["violations"]]
        known += report["known_defects"]
    # Statistics an operation failed to produce are missing, not different:
    # the failure is counted already.
    first = reports[0]["stats"]
    for i, report in enumerate(reports[1:], 1):
        differ = sorted(k for k in set(first) & set(report["stats"])
                        if first[k] != report["stats"][k])
        if differ:
            violations.append(
                f"pass {i}: simulated statistics differ from pass 0 for "
                f"the same seed: {', '.join(differ[:8])}")
    return violations, sorted(set(known))


def print_report(args, units, reports, sections, samples, raw, violations,
                 known):
    info = reports[0]["info"]
    tiers = {}
    for report in reports:
        for tier, count in report["info"]["cache_tiers"].items():
            tiers[tier] = tiers.get(tier, 0) + count
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(reports)}  trace {args.trace}")
    print("  pass wall_s, raw host seconds: " + " ".join(
        f"{r['wall_s']:.2f}{'t' if 'layers' in r else ''}" for r in reports))
    print("  pass host speed (reference block "
          f"{NOMINAL_BLOCK_S * 1e3:.0f} ms / measured): " + " ".join(
              f"{pass_speed(r):.3f}" for r in reports))
    print(f"  python {info['python']}  nproc {info['nproc']}  "
          f"scheduler {','.join(info['schedulers']) or '-'}  "
          f"kernel builds by cache tier {tiers}")
    for title, metrics in sections:
        print(f"  {title}:")
        for name, value in metrics.items():
            basis = E2E_BASIS.get(name, "")
            extra = f"  [{samples[name]}]" if name in samples else ""
            if "reference speed" in basis:
                extra += f"  (raw {raw[name]:.6g})"
            print(f"    {name:<32} {value:>16.6g} {units[name]:<11} "
                  f"{basis}{extra}")
    paper = reports[0].get("paper")
    if paper:
        print("  Table 1, measured (simulated cycles, seed "
              f"{args.seed}) beside the paper (real F1 hardware); "
              "informational:")
        print(f"    {'app':<18}{'R2/R1 ovh %':>12}{'paper':>8}{'diff':>8}"
              f"{'reduction':>12}{'paper':>12}{'ratio':>8}")
        for row in paper:
            print(f"    {row['app']:<18}{row['overhead_pct']:>12.2f}"
                  f"{row['paper_overhead_pct']:>8.2f}"
                  f"{row['overhead_diff_pct']:>8.2f}"
                  f"{row['reduction']:>12.1f}{row['paper_reduction']:>12.0f}"
                  f"{row['reduction_ratio']:>8.3f}")
    for defect in known:
        print(f"  known defect: {defect}")
    for violation in violations:
        print(f"  VIOLATION: {violation}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        untraced, traced = run_passes(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reports = untraced + traced
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    violations, known = verdicts(reports)
    e2e, samples = end_to_end(untraced)
    raw, _ = end_to_end(untraced, rescale=False)
    e2e = {m["name"]: e2e[m["name"]] for m in bench["end_to_end"]}
    sections = [("end to end (untraced passes)", e2e)]
    metrics = e2e
    if args.trace:
        try:
            metrics = per_layer([m["name"] for m in bench["per_layer"]],
                                untraced, traced)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        sections.append(("per layer (traced passes, medians)", metrics))
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.write_text("".join(json.dumps(row) + "\n" for r in traced
                                 for row in r["spans"]))
        print(f"spans of {len(traced)} traced passes: {spans}")
    print_report(args, units, reports, sections, samples, raw, violations,
                 known)
    ops = [op for r in reports for op in r["ops"]]
    result = {
        "correct": not violations,
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
