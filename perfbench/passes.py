"""One benchmark pass: a cold process that runs one workload once.

``run.py`` starts this file once per pass and reads the JSON it writes
with ``--out``. A pass is a whole user-visible run — interpreter start,
``repro`` import, elaboration, simulation, verdicts — so set-up and wall
time are measured from the moment ``run.py`` launched the process.

Usage (normally only through ``run.py``)::

    python3 perfbench/passes.py --workload suite --seed 0 --trace 0 \\
        --launch <time.monotonic() at launch> --workdir DIR --out FILE

Every call into the program goes through public harness entry points,
with default settings. Spans (``--trace 1``) wrap those calls from here;
nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from bisect import bisect_left  # noqa: E402
from itertools import accumulate  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import refspeed  # noqa: E402
from tracing import Tracer  # noqa: E402


# flight-dma: dram_dma above its registry default (4.0), so the ring
# re-anchors several times within one recording.
FLIGHT_SCALE = 6.0
SUITE_TEARS = 8            # torn copies per suite app trace
# Torn copies of the flight blob: FLIGHT_SALVAGE_OPS operations of
# FLIGHT_TEARS_PER_OP copies each, torn at offsets spread over the blob.
# Salvage time grows with the window it decodes, so one copy per operation
# would make the median operation a seed-dependent salvage.
FLIGHT_SALVAGE_OPS = 6
FLIGHT_TEARS_PER_OP = 4
# service-mix: apps with clean replays and sub-second jobs, so fixed
# per-job costs dominate. dram_dma (polling, multi-second) only streams.
# Each app gets one record -> replay -> salvage chain and one divergence
# job, plus one ingest stream; the seed only seeds the jobs, so every seed
# runs the same mix. No campaign jobs: their worker-crash trials kill or
# hang processes at random (README, known defect 4).
SERVICE_APPS = ("sha256", "bnn", "digit_recognition", "rendering3d",
                "face_detection", "optical_flow", "mobilenet", "spam_filter")
SERVICE_JOB_KINDS = ("record", "replay", "divergence", "salvage")
POLL_S = 0.01
REF_EVERY_S = 0.2          # operation seconds per host-speed sample
SERVICE_REF_ROUNDS = 10    # service-mix: host-speed rounds before/after
RERUN_TIMEOUT_S = 60.0


class GroundTruthError(Exception):
    """An output that disagrees with ground truth."""


class Pass:
    """Operations, checks, kernel counters and spans of one pass."""

    def __init__(self, workload: str, seed: int, traced: bool,
                 launch: float):
        self.seed = seed
        self.rng = random.Random(f"{workload}:{seed}")
        self.tracer = Tracer(traced, f"{workload}-{seed}-{os.getpid()}",
                             launch)
        self.span = self.tracer.span
        self.launch = launch
        self.setup_end = None
        self.verdict_end = None
        self.ops = []          # dicts: kind, app, latency, ok
        self.violations = []
        self.known = []
        self.builds = []       # kernel counters of every deployment run
        self.stats = {}        # simulated statistics, identical per seed
        self.layer = {}        # per-layer counters (traced output)
        self.sim_cycles = 0
        self.trace_bytes = 0
        self.transactions = 0
        self.salvage_shares = []   # per torn copy: transactions recovered
        self.checks = []           # (op row, check) run after the wall
        self.paper = None      # suite: measured vs paper Table 1 rows
        # Host speed samples: reference-workload block times (refspeed).
        # Sequential workloads time blocks after every operation, one per
        # REF_EVERY_S of it, so the samples weigh the pass's spells of
        # host speed as its operations do.
        self.ref_blocks = []
        self.ref_per_op = workload != "service-mix"
        self.ref_in_setup = 0.0    # seconds of blocks inside set-up / wall
        self.ref_in_wall = 0.0
        self.lock = threading.Lock()

    # -- operations -------------------------------------------------------
    def op(self, kind, app, fn, known=None, row=None):
        """Run one counted operation; returns its value, or None if it failed.

        ``known`` is ``(exception type, note)`` for a recorded known
        defect: it still counts as a failed operation, but is reported as
        a known defect rather than a ground-truth violation. ``row`` is
        the caller's handle on the operation's record, for checks that
        can only fail it later.
        """
        row = {} if row is None else row
        row.update(kind=kind, app=app, ok=True)
        start = time.monotonic()
        try:
            return fn()
        except Exception as exc:
            row["ok"] = False
            text = f"{kind} {app}: {type(exc).__name__}: {exc}".splitlines()
            with self.lock:
                if known is not None and isinstance(exc, known[0]):
                    self.known.append(f"{known[1]} ({text[0]})")
                else:
                    self.violations.append(text[0])
            return None
        finally:
            row["latency"] = time.monotonic() - start
            with self.lock:
                self.ops.append(row)
            if self.ref_per_op:
                self.calibrate(max(1, round(row["latency"] / REF_EVERY_S)))

    def fail(self, row, message):
        row["ok"] = False
        self.violations.append(message)

    def later(self, row, check):
        """Check an operation's output once the timed part is over."""
        self.checks.append((row, check))

    def run_checks(self):
        for row, check in self.checks:
            with self.span("bench.check"):
                try:
                    check()
                except Exception as exc:   # a check that cannot complete
                    self.fail(row, f"{row['kind']} {row['app']}: "
                                   f"{type(exc).__name__}: {exc}")

    def end_wall(self):
        """The last verdict of the pass has been given."""
        self.verdict_end = time.monotonic()

    def calibrate(self, blocks=1, pool=None, width=1):
        """Time reference blocks here, or ``width`` at a time on the warm
        pool's workers; their seconds are kept out of set-up and wall."""
        start = time.monotonic()
        with self.span("bench.calibrate"):
            for _ in range(blocks):
                if pool is None:
                    self.ref_blocks.append(refspeed.block())
                else:
                    futures = [pool.submit(refspeed.block)
                               for _ in range(width)]
                    self.ref_blocks += [f.result() for f in futures]
        spent = time.monotonic() - start
        if self.setup_end is None:
            self.ref_in_setup += spent
        elif self.verdict_end is None:
            self.ref_in_wall += spent

    def mark_first_cycle(self):
        if self.setup_end is None:
            self.setup_end = time.monotonic()

    def add(self, name, value):
        with self.lock:
            self.layer[name] = self.layer.get(name, 0) + value

    def build(self, sim, role, app, run_s):
        """Fold one finished deployment's kernel counters in."""
        row = {"role": role, "app": app, "run_s": run_s,
               "cycles": sim.cycle, "comb_evals": sim.comb_evals,
               "quiescent": sim.quiescent_cycles,
               "warped": sim.warped_cycles, "warp_jumps": sim.warp_jumps,
               "compile_s": sim.compile_s, "scheduler": sim.scheduler,
               "tier": sim.schedule_cache_tier}
        with self.lock:
            self.builds.append(row)
            self.sim_cycles += sim.cycle


# ----------------------------------------------------------------------
# shared legs
# ----------------------------------------------------------------------


def record_leg(p, spec, config, seed, scale=None, role="record",
               attach=None):
    """build_record_deployment -> run_to_completion -> finish_record_metrics.

    ``attach`` runs on the built deployment before its first cycle (the
    ingest streamer); its span is ``ingest``.
    """
    from repro.harness.runner import (build_record_deployment,
                                      finish_record_metrics)

    with p.span("elaborate"):
        deployment, result, config = build_record_deployment(
            spec, config, seed, scale=scale)
    p.add("elaborate.calls", 1)
    if attach is not None:
        with p.span("ingest"):
            attach(deployment)
    p.mark_first_cycle()
    start = time.monotonic()
    with p.span("record.run"):
        cycles = deployment.run_to_completion()
    run_s = time.monotonic() - start
    p.build(deployment.sim, role, spec.key, run_s)
    with p.span("record.finish"):
        metrics = finish_record_metrics(spec, config, deployment, result,
                                        seed, cycles)
    p.add("store.stall_cycles", metrics.store_stall_cycles)
    p.add("store.stored_bytes", metrics.stored_bytes)
    p.add("monitor.transactions", metrics.monitored_transactions)
    return deployment, metrics


def replay_leg(p, spec, trace, allow_content):
    """replay_run -> compare_traces, checked against ground truth."""
    from repro.core import compare_traces
    from repro.errors import ReplayStallError
    from repro.harness.runner import replay_run

    start = time.monotonic()
    with p.span("replay.run"):
        try:
            replay = replay_run(spec, trace)
        except ReplayStallError as exc:
            with p.lock:
                p.sim_cycles += exc.cycle   # the cycles it did simulate
            raise
    p.build(replay.result["deployment"].sim, "replay", spec.key,
            time.monotonic() - start)
    with p.span("divergence"):
        report = compare_traces(trace, replay.result["validation"])
    kinds = {k: len(report.of_kind(k))
             for k in ("content", "count", "ordering")}
    if kinds["count"] or kinds["ordering"] or (
            kinds["content"] and not allow_content):
        raise GroundTruthError(f"replay diverged: {kinds}")
    return replay, kinds


class Intact:
    """An intact trace's packet offsets and transaction counts, for checks."""

    def __init__(self, trace):
        self.body = bytes(trace.body)
        self.offsets = trace.index().offsets + [len(self.body)]
        # Cumulative transaction (handshake-end) count before each packet.
        self.prefix = [0] + list(accumulate(
            bin(packet.ends).count("1") for packet in trace.iter_packets()))

    @property
    def transactions(self):
        return self.prefix[-1]

    def salvaged_share(self, salvaged, require_prefix):
        """Share of transactions a salvaged copy kept; raises unless its
        body is a packet-aligned slice of this one (a prefix for v2)."""
        part = bytes(salvaged.body)
        pos = 0 if require_prefix else self.body.find(part)
        first = bisect_left(self.offsets, pos)
        last = first + salvaged.packet_count
        if (not salvaged.salvaged or last >= len(self.offsets)
                or self.offsets[first] != pos
                or self.body[pos:self.offsets[last]] != part):
            raise GroundTruthError("salvaged body is not a packet-aligned "
                                   "slice of the intact trace")
        return (self.prefix[last] - self.prefix[first]) / self.transactions


def salvage_load(p, blob, frac):
    """Salvage-load a copy of ``blob`` torn at ``frac`` of its length."""
    from repro.core import TraceFile

    with p.span("salvage"):
        return TraceFile.from_bytes(blob[:int(len(blob) * frac)],
                                    salvage=True)


def tear_fractions(rng, count, lo, hi):
    """Stratified seeded tear points: one per equal slice of [lo, hi)."""
    return [lo + (hi - lo) * (i + rng.random()) / count
            for i in range(count)]


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


def suite_pass(p):
    """Table-1 loop: R1, R2, container round trip, R3 replay, verdict."""
    from repro.apps.registry import APPS
    from repro.core import TraceFile, VidiConfig
    from repro.errors import ReplayStallError
    from repro.harness.runner import bench_config

    rows = {}
    for key, spec in APPS.items():
        r1 = p.op("record.r1", key, lambda: record_leg(
            p, spec, bench_config(VidiConfig.r1), p.seed, role="r1")[1])
        r2 = p.op("record.r2", key, lambda: record_leg(
            p, spec, bench_config(VidiConfig.r2), p.seed, role="r2")[1])
        if r1 is None or r2 is None:
            continue
        trace = r2.result["trace"]
        rows[key] = (r1.cycles, r2.cycles, r2.trace_bytes)
        p.stats[f"{key}.r1.cycles"] = r1.cycles
        p.stats[f"{key}.r2.cycles"] = r2.cycles
        p.stats[f"{key}.r2.trace_bytes"] = r2.trace_bytes
        fracs = tear_fractions(p.rng, SUITE_TEARS, 0.5, 1.0)

        def container():
            with p.span("frame.encode"):
                blob = trace.to_bytes()
            with p.span("frame.decode"):
                loaded = TraceFile.from_bytes(blob)
            return blob, loaded, [salvage_load(p, blob, f) for f in fracs]

        row = {}
        done = p.op("container", key, container, row=row)
        if done is None:
            continue

        def check(key=key, r2=r2, trace=trace, done=done):
            blob, loaded, salvaged = done
            if bytes(loaded.body) != bytes(trace.body):
                raise GroundTruthError("round trip changed the trace body")
            intact = Intact(loaded)
            if intact.transactions != r2.monitored_transactions:
                raise GroundTruthError(
                    f"trace holds {intact.transactions} transactions, "
                    f"monitors saw {r2.monitored_transactions}")
            p.add("frame.bytes", len(blob))
            p.trace_bytes += len(blob)
            p.transactions += intact.transactions
            shares = [intact.salvaged_share(s, require_prefix=True)
                      for s in salvaged]
            p.salvage_shares += shares
            p.stats[f"{key}.container_bytes"] = len(blob)
            p.stats[f"{key}.salvage_shares"] = shares

        p.later(row, check)
        known = None
        if key == "sssp":
            known = (ReplayStallError,
                     "sssp replay at default scale outruns the fixed "
                     "16,384-cycle stall budget")
        result = p.op("replay", key, lambda: replay_leg(
            p, spec, done[1], allow_content=(key == "dram_dma")),
            known=known)
        if result is not None:
            p.stats[f"{key}.replay.cycles"] = result[0].cycles
    p.end_wall()
    r1_total = sum(r[0] for r in rows.values())
    r2_total = sum(r[1] for r in rows.values())
    if r1_total:
        p.layer["record_overhead_pct"] = 100.0 * (r2_total - r1_total) \
            / r1_total
        p.stats["record_overhead_pct"] = p.layer["record_overhead_pct"]
    p.paper = paper_rows(rows)


def paper_rows(rows):
    """Measured R2/R1 overhead and trace reduction beside the paper's."""
    from repro.apps.registry import APPS
    from repro.harness.experiments import CYCLE_ACCURATE_BYTES_PER_CYCLE

    out = []
    for key, (r1, r2, trace_bytes) in rows.items():
        paper = APPS[key].paper
        overhead = 100.0 * (r2 - r1) / r1
        reduction = r2 * CYCLE_ACCURATE_BYTES_PER_CYCLE / trace_bytes
        out.append({"app": key, "overhead_pct": overhead,
                    "paper_overhead_pct": paper.overhead_pct,
                    "overhead_diff_pct": overhead - paper.overhead_pct,
                    "reduction": reduction,
                    "paper_reduction": paper.reduction,
                    "reduction_ratio": reduction / paper.reduction})
    return out


def flight_pass(p):
    """Flight record -> blob -> load, torn copies -> salvage, replay; R2."""
    from repro.apps.registry import get_app
    from repro.core import TraceFile, VidiConfig
    from repro.harness.runner import bench_config

    spec = get_app("dram_dma")
    meta = {"app": spec.key, "seed": p.seed}

    flight = p.op("record.flight", spec.key, lambda: record_leg(
        p, spec, bench_config(VidiConfig.r2, flight_recorder=True), p.seed,
        scale=FLIGHT_SCALE, role="flight"))
    plain = p.op("record.r2", spec.key, lambda: record_leg(
        p, spec, bench_config(VidiConfig.r2), p.seed, scale=FLIGHT_SCALE,
        role="r2")[1])
    if flight is None:
        p.end_wall()
        return
    deployment, metrics = flight
    stats = metrics.result["flight"]
    blob = metrics.result["flight_blob"]
    record_s = [b["run_s"] for b in p.builds if b["role"] == "flight"]
    plain_s = [b["run_s"] for b in p.builds if b["role"] == "r2"]
    if plain is not None:
        p.layer["flight.overhead_ratio"] = record_s[0] / plain_s[0]

    def encode():
        with p.span("frame.encode"):
            again = deployment.shim.flight_blob(
                dict(meta, cycles=metrics.cycles))
        if again != blob:
            raise GroundTruthError("flight_blob is not deterministic")

    def load():
        with p.span("frame.decode"):
            return TraceFile.from_bytes(blob)

    p.op("frame.encode", spec.key, encode)
    load_row = {}
    loaded = p.op("load", spec.key, load, row=load_row)
    if loaded is not None:
        intact = []

        def check_load():
            intact.append(Intact(loaded))
            if stats["evicted_bytes"] == 0 and \
                    intact[0].transactions != metrics.monitored_transactions:
                raise GroundTruthError(
                    f"unevicted ring holds {intact[0].transactions} "
                    f"transactions, monitors saw "
                    f"{metrics.monitored_transactions}")

        p.later(load_row, check_load)
        fracs = tear_fractions(
            p.rng, FLIGHT_SALVAGE_OPS * FLIGHT_TEARS_PER_OP, 0.1, 1.0)
        for i in range(FLIGHT_SALVAGE_OPS):
            row = {}
            mine = fracs[i::FLIGHT_SALVAGE_OPS]
            salvaged = p.op("salvage", spec.key, lambda: [
                salvage_load(p, blob, frac) for frac in mine], row=row)

            def check(i=i, salvaged=salvaged):
                shares = [intact[0].salvaged_share(s, require_prefix=False)
                          for s in salvaged]
                p.salvage_shares += shares
                p.stats[f"salvage{i}.shares"] = shares

            if salvaged is not None:
                p.later(row, check)
        replay = p.op("replay", spec.key, lambda: replay_leg(
            p, spec, loaded, allow_content=True))
        if replay is not None:
            p.stats["replay.cycles"] = replay[0].cycles
            p.stats["replay.content"] = replay[1]["content"]
    p.end_wall()
    # Bytes per transaction as encoded, before DEFLATE: the framed size
    # swings +-25% with the seed through the anchor count (every anchor
    # restarts the compressor), so it is per-layer (frame.bytes).
    p.trace_bytes = stats["flat_bytes"]
    p.transactions = metrics.monitored_transactions
    for name in ("compression_ratio", "dedup_ratio", "anchors",
                 "evicted_bytes"):
        p.layer[f"flight.{name}"] = stats[name]
    p.layer["frame.bytes"] = stats["frame_bytes"]
    p.stats.update({"flight.cycles": metrics.cycles,
                    "flight.frame_bytes": stats["frame_bytes"],
                    "flight.blob_bytes": len(blob),
                    "flight.anchors": stats["anchors"]})
    if plain is not None:
        p.stats["r2.cycles"] = plain.cycles
        p.stats["r2.trace_bytes"] = plain.trace_bytes


def service_pass(p, workdir):
    """Closed loop of nproc clients against an embedded TraceService."""
    from repro.apps.registry import get_app
    from repro.core import TraceFile, VidiConfig
    from repro.harness import worker_pool
    from repro.harness.runner import bench_config
    from repro.service import FlightStreamer, ServiceClient, TraceService

    width = len(os.sched_getaffinity(0))
    with p.span("service.start"):
        service = TraceService(workdir / "svc", jobs=width).run_in_thread()
        client = ServiceClient(data_dir=service.data_dir)
        pool = worker_pool.get_pool(width)
        # One no-op per slot: the pool is ready once every worker has
        # started and run its warm initializer.
        for future in [pool.submit(os.getpid) for _ in range(width)]:
            future.result()
    if p.tracer.enabled:
        append = service.results.append

        def timed_append(*args, **kwargs):
            with p.span("results.append"):
                return append(*args, **kwargs)

        service.results.append = timed_append
    p.mark_first_cycle()   # service-mix set-up ends when daemon + pool are up

    traces = workdir / "traces"
    traces.mkdir()
    tears = tear_fractions(p.rng, len(SERVICE_APPS), 0.5, 1.0)
    p.rng.shuffle(tears)
    # A fixed interleaving: which jobs meet on the same affinity slot
    # decides how long slots idle, so a seeded order would make the
    # throughput depend on the seed. The seed varies the jobs' inputs.
    chains = [("ingest", "dram_dma", None)]
    half = len(SERVICE_APPS) // 2
    for i, (app, frac) in enumerate(zip(SERVICE_APPS, tears)):
        chains.append(("trace", app, frac))
        chains.append(("divergence", SERVICE_APPS[(i + half) % len(
            SERVICE_APPS)], None))
    jobs = []   # (chain.kind, op row, kind, params, result, salvage paths)
    ingest = {}
    next_chain = [0]

    def submit(chain, kind, params, extra=None):
        def call():
            with p.span("service.submit"):
                job_id = client.submit(kind, params)
            with p.span("service.wait"):
                while True:
                    detail = client.status(job_id)
                    if detail["state"] in ("done", "failed"):
                        break
                    time.sleep(POLL_S)
            if detail["state"] != "done":
                raise GroundTruthError(f"job failed: {detail.get('error')}")
            return detail["result"]

        row = {}
        result = p.op(kind, params.get("app", "-"), call, row=row)
        with p.lock:
            jobs.append((f"chain{chain}.{kind}", row, kind, params, result,
                         extra))
        return result

    def stream_dram_dma(seed):
        spec = get_app("dram_dma")
        streamer = FlightStreamer(client, f"tenant-{seed}")
        deployment, metrics = record_leg(
            p, spec, bench_config(VidiConfig.r2, flight_recorder=True), seed,
            role="ingest", attach=streamer.attach)
        with p.span("ingest"):
            info = streamer.detach()
        ingest.update(metrics=metrics, info=info,
                      bytes=streamer.bytes_sent)
        return metrics

    def run_chain(kind, app, frac, index):
        seed = p.seed * 1000 + index
        if kind == "trace":
            path = traces / f"{index}-{app}.trace"
            record = submit(index, "record", {"app": app, "seed": seed,
                                              "save_to": str(path)})
            if record is None:
                return
            submit(index, "replay", {"app": app, "trace_path": str(path)})
            blob = path.read_bytes()
            torn_path = traces / f"{index}-{app}.torn"
            torn_path.write_bytes(blob[:int(len(blob) * frac)])
            submit(index, "salvage", {"trace_path": str(torn_path)},
                   extra=(torn_path, path))
        elif kind == "divergence":
            submit(index, "divergence", {"app": app, "seed": seed})
        else:
            ingest["row"] = {}
            p.op("ingest", app, lambda: stream_dram_dma(seed),
                 row=ingest["row"])

    def client_loop():
        while True:
            with p.lock:
                index = next_chain[0]
                next_chain[0] += 1
            if index >= len(chains):
                return
            run_chain(*chains[index], index)

    # Host speed is sampled on the pool's workers, where the jobs run,
    # with every worker busy as in the loop; around the loop, not inside
    # it, where a block would take a slot or a core from the jobs.
    p.calibrate(SERVICE_REF_ROUNDS, pool, width)
    threads = [threading.Thread(target=client_loop, name=f"client-{i}")
               for i in range(width)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    p.end_wall()
    p.calibrate(SERVICE_REF_ROUNDS, pool, width)
    pool_stats = worker_pool.pool_stats()
    with p.span("service.shutdown"):
        service.shutdown()
    p.layer["pool.affinity_hit_rate"] = pool_stats["affinity_hit_rate"]
    p.layer["pool.recycles"] = pool_stats["workers_recycled"]
    verify_service(p, jobs, ingest, TraceFile)


def verify_service(p, jobs, ingest, TraceFile):
    """Ground truth for every service job, after the timed loop."""
    jobs = sorted(jobs, key=lambda job: job[0])
    reruns = rerun_jobs(p, jobs)
    exec_s = {}
    exec_gap = []
    for key, row, kind, params, result, paths in jobs:
        if result is None:
            continue
        tag = f"{key} ({params.get('app', '-')})"
        p.stats[key] = {
            k: result.get(k) for k in ("cycles", "record_cycles",
                                       "replay_cycles", "trace_bytes",
                                       "trace_sha256", "validation_sha256",
                                       "body_sha256")
            if k in result}
        if kind == "record":
            p.sim_cycles += result["cycles"]
            p.trace_bytes += result["trace_bytes"]
            p.transactions += result["transactions"]
        elif kind == "replay":
            p.sim_cycles += result["cycles"]
        elif kind == "divergence":
            p.sim_cycles += result["record_cycles"] + result["replay_cycles"]
        if kind in ("replay", "divergence") and not result["clean"]:
            p.fail(row, f"{tag}: replay diverged: {result['summary']}")
        if kind == "salvage":
            torn_path, full_path = paths
            with p.span("bench.check"):
                local = TraceFile.from_bytes(torn_path.read_bytes(),
                                             salvage=True)
                intact = Intact(TraceFile.load(full_path))
                try:
                    share = intact.salvaged_share(local, require_prefix=True)
                except GroundTruthError as exc:
                    share = None
                    p.fail(row, f"{tag}: {exc}")
            if hashlib.sha256(bytes(local.body)).hexdigest() != \
                    result["body_sha256"]:
                p.fail(row, f"{tag}: daemon salvage differs from in-process")
            elif share is not None:
                p.salvage_shares.append(share)
        if key not in reruns:
            continue
        rerun = reruns[key]
        if rerun is None:
            p.fail(row, f"{tag}: the execute_job re-run did not finish")
        elif "error" in rerun:
            p.fail(row, f"{tag}: execute_job re-run failed: "
                        f"{rerun['error']}")
        else:
            exec_s.setdefault(kind, []).append(rerun["s"])
            exec_gap.append(row["latency"] - rerun["s"])
            for digest in ("trace_sha256", "validation_sha256",
                           "body_sha256"):
                if digest in result and \
                        rerun["result"].get(digest) != result[digest]:
                    p.fail(row, f"{tag}: daemon {digest} differs from "
                                "execute_job outside the daemon")
    if "metrics" in ingest:
        metrics, info = ingest["metrics"], ingest["info"]
        with p.span("bench.check"):
            journal = TraceFile.load(info["journal"])
            ring = TraceFile.from_bytes(metrics.result["flight_blob"])
        evicted = metrics.result["flight"]["evicted_bytes"]
        if evicted == 0 and bytes(journal.body) != bytes(ring.body):
            p.fail(ingest["row"], "ingest journal differs from the "
                                  "recorder's own ring")
        p.layer["ingest.bytes"] = ingest["bytes"]
        p.stats["ingest"] = {"cycles": metrics.cycles,
                             "journal_bytes": len(journal.body)}
    for kind, times in exec_s.items():
        p.layer[f"service.exec.s.{kind}"] = sum(times) / len(times)
    if exec_gap:
        p.layer["service.overhead.s"] = sum(exec_gap) / len(exec_gap)


def rerun_jobs(p, jobs):
    """Re-run daemon jobs through execute_job in a separate process.

    Every record job (its digest must match); on traced passes also the
    first job of every other kind, which gives ``service.exec.s.<kind>``.
    Returns key -> result row, or None for a job the helper never finished.
    """
    picked, seen = [], set()
    for key, row, kind, params, result, paths in jobs:
        if result is None:
            continue
        if kind == "record" or (p.tracer.enabled and kind not in seen):
            seen.add(kind)
            picked.append([key, kind, {k: v for k, v in params.items()
                                       if k != "save_to"}])
    if not picked:
        return {}
    with p.span("bench.check"):
        # Same process group as this pass: run.py kills whatever the
        # helper's nested pools leave behind when the pass ends.
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("exec_jobs.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        try:
            out, _ = proc.communicate(json.dumps(picked).encode(),
                                      timeout=RERUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
    done = {}
    for line in out.decode("utf-8", "replace").splitlines():
        if line.startswith('{"key"'):
            row = json.loads(line)
            done[row["key"]] = row
    return {key: done.get(key) for key, _kind, _params in picked}


# ----------------------------------------------------------------------
# per-layer metrics of one traced pass
# ----------------------------------------------------------------------

SPAN_METRICS = {
    "import": "import.s", "elaborate": "elaborate.s",
    "record.run": "record.run.s", "record.finish": "record.finish.s",
    "replay.run": "replay.run.s", "frame.encode": "frame.encode.s",
    "frame.decode": "frame.decode.s", "salvage": "salvage.s",
    "divergence": "divergence.s", "service.start": "service.start.s",
    "service.submit": "service.submit.s", "service.wait": "service.wait.s",
    "service.shutdown": "service.shutdown.s",
    "results.append": "results.append.s", "ingest": "ingest.s",
    "bench.check": "bench.check.s",
    # The root span's self time: the pass minus every layer span in it.
    "pass": "unattributed.s",
}
# Counters a workload sets only when it exercises that layer.
LAYER_COUNTERS = (
    "elaborate.calls", "store.stall_cycles", "store.stored_bytes",
    "monitor.transactions", "frame.bytes", "record_overhead_pct",
    "flight.compression_ratio", "flight.dedup_ratio", "flight.anchors",
    "flight.evicted_bytes", "flight.overhead_ratio", "ingest.bytes",
    "pool.affinity_hit_rate", "pool.recycles", "service.overhead.s",
)


def layer_metrics(p, cache_stats):
    """Per-layer numbers of this pass; 0 where the workload lacks the layer."""
    from repro.apps.registry import app_keys

    self_times = p.tracer.self_times()
    out = {name: self_times.get(span, 0.0)
           for span, name in SPAN_METRICS.items()}
    out.update((name, p.layer.get(name, 0)) for name in LAYER_COUNTERS)
    out.update((f"service.exec.s.{kind}",
                p.layer.get(f"service.exec.s.{kind}", 0))
               for kind in SERVICE_JOB_KINDS)
    rec = [b for b in p.builds if b["role"] != "replay"]
    rep = [b for b in p.builds if b["role"] == "replay"]
    cycles = sum(b["cycles"] for b in p.builds)
    out["compile.s"] = sum(b["compile_s"] for b in p.builds)
    out["compile.tier.ram"] = cache_stats["hits"] - cache_stats["disk_hits"]
    out["compile.tier.disk"] = cache_stats["disk_hits"]
    out["compile.tier.cold"] = cache_stats["misses"]
    out["record.us_per_cycle"] = _us_per_cycle(rec)
    out["replay.us_per_cycle"] = _us_per_cycle(rep)
    out["sim.cycles"] = cycles
    out["sim.comb_evals"] = sum(b["comb_evals"] for b in p.builds)
    out["sim.comb_evals_per_cycle"] = (out["sim.comb_evals"] / cycles
                                       if cycles else 0.0)
    out["sim.quiescent_cycles"] = sum(b["quiescent"] for b in p.builds)
    out["sim.warped_cycles"] = sum(b["warped"] for b in p.builds)
    out["sim.warp_jumps"] = sum(b["warp_jumps"] for b in p.builds)
    for app in app_keys():
        mine = [b for b in p.builds if b["app"] == app]
        out[f"record.run.s.{app}"] = sum(b["run_s"] for b in mine
                                         if b["role"] != "replay")
        out[f"sim.cycles.{app}"] = sum(b["cycles"] for b in mine)
        out[f"sim.warped_cycles.{app}"] = sum(b["warped"] for b in mine)
    return out


def _us_per_cycle(builds):
    cycles = sum(b["cycles"] for b in builds)
    return 1e6 * sum(b["run_s"] for b in builds) / cycles if cycles else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite", "flight-dma", "service-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    p = Pass(args.workload, args.seed, bool(args.trace), args.launch)
    with p.span("import", start=PROCESS_T0):
        import repro  # noqa: F401
        import repro.harness.runner  # noqa: F401
        if args.workload == "service-mix":
            import repro.service  # noqa: F401
    if args.workload == "suite":
        suite_pass(p)
    elif args.workload == "flight-dma":
        flight_pass(p)
    else:
        service_pass(p, Path(args.workdir))
    p.run_checks()
    p.tracer.close_root(time.monotonic())

    from repro.sim.compile import schedule_cache_stats

    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    tiers = {}
    for b in p.builds:
        tiers[b["tier"]] = tiers.get(b["tier"], 0) + 1
    out = {
        # Raw host seconds; run.py rescales them by ref_blocks.
        "setup_s": p.setup_end - p.launch - p.ref_in_setup,
        "wall_s": (p.verdict_end - p.launch - p.ref_in_setup
                   - p.ref_in_wall),
        "ref_blocks": p.ref_blocks,
        "ops": [{k: r[k] for k in ("kind", "app", "latency", "ok")}
                for r in p.ops],
        "violations": p.violations,
        "known_defects": p.known,
        "sim_cycles": p.sim_cycles,
        "trace_bytes": p.trace_bytes,
        "transactions": p.transactions,
        "salvage_shares": p.salvage_shares,
        # ru_maxrss is in KiB; children = the largest reaped pool worker.
        "peak_rss_mb": (usage_self + usage_kids) / 1024.0,
        "stats": p.stats,
        "paper": p.paper,
        "info": {"schedulers": sorted({b["scheduler"] for b in p.builds}),
                 "cache_tiers": tiers,
                 "python": sys.version.split()[0],
                 "nproc": len(os.sched_getaffinity(0))},
    }
    if p.tracer.enabled:
        out["layers"] = layer_metrics(p, schedule_cache_stats())
        out["spans"] = p.tracer.dump()
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
