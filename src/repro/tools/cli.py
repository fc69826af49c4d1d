"""Offline trace tools: the command-line analogue of Vidi's C++ tooling.

The paper ships offline trace-analysis tools (a validation tool that
detects divergences by comparing two traces, and a mutation tool that
reorders transaction events, §4.2). This module provides them — plus
inspection commands — behind one CLI::

    python -m repro.tools info     run.trace
    python -m repro.tools stats    run.trace
    python -m repro.tools dump     run.trace --channel pcim.w --limit 20
    python -m repro.tools diff     reference.trace validation.trace
    python -m repro.tools mutate   run.trace -o mutated.trace \
        --move-end-before pcim.w:0 pcim.aw:0
    python -m repro.tools profile  run.trace
    python -m repro.tools audit    run.trace --allow pcim:write:0x10000:0x1000
    python -m repro.tools coverage run1.trace run2.trace ...

The trace-service daemon (:mod:`repro.service`) lives behind the same
CLI — installed as the ``vidi`` console script::

    vidi serve   --data-dir /var/vidi --jobs 8
    vidi submit  --data-dir /var/vidi record --app sha256 --seed 7
    vidi submit  --data-dir /var/vidi campaign --faults 200 --wait
    vidi status  --data-dir /var/vidi
    vidi results --data-dir /var/vidi --kind job --limit 10

Commands print to stdout and exit non-zero on divergences (``diff``),
policy violations (``audit``), invalid mutations or failed jobs, so
they compose in scripts and CI.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.metrics import fmt_bytes
from repro.analysis.tables import render_table
from repro.core.divergence import compare_traces
from repro.core.mutation import EventRef, TraceMutator
from repro.core.trace_file import TraceFile
from repro.errors import ReproError


def _parse_event(text: str, kind: str) -> EventRef:
    """Parse ``channel:occurrence`` into an :class:`EventRef`."""
    try:
        channel, occurrence = text.rsplit(":", 1)
        return EventRef(kind, channel, int(occurrence))
    except ValueError:
        raise ReproError(
            f"expected CHANNEL:OCCURRENCE (e.g. pcim.w:0), got {text!r}"
        ) from None


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_info(args) -> int:
    trace = TraceFile.load(args.trace)
    packets = trace.packets()
    print(f"trace      : {args.trace}")
    print(f"format     : v{trace.format_version} "
          f"{'(CRC32-framed)' if trace.format_version >= 2 else '(legacy)'}")
    print(f"body       : {fmt_bytes(trace.size_bytes)} "
          f"({len(packets)} cycle packets)")
    print(f"validation : {'output contents recorded' if trace.with_validation else 'no'}")
    if trace.metadata:
        print(f"metadata   : {trace.metadata}")
    print(render_table(
        f"channel table ({trace.table.n} channels)",
        ["#", "Channel", "Dir", "Payload bits", "Content bytes"],
        [[c.index, c.name, c.direction, c.payload_bits, c.content_bytes]
         for c in trace.table.channels]))
    return 0


def cmd_stats(args) -> int:
    trace = TraceFile.load(args.trace)
    table = trace.table
    starts = [0] * table.n
    ends = [0] * table.n
    content_bytes = [0] * table.n
    for packet in trace.packets():
        for index in range(table.n):
            if (packet.starts >> index) & 1:
                starts[index] += 1
                content_bytes[index] += table[index].content_bytes
            if (packet.ends >> index) & 1:
                ends[index] += 1
    print(f"body         : {fmt_bytes(trace.size_bytes)} "
          f"({trace.packet_count} cycle packets, format v"
          f"{trace.format_version})")
    cycles = trace.metadata.get("cycles")
    if isinstance(cycles, int) and cycles > 0:
        print(f"bytes/cycle  : {trace.size_bytes / cycles:.3f} "
              f"(over {cycles} recorded cycles)")
    cs = trace.container_stats
    if cs:
        # v3 flight-recorder container: the loader kept expansion stats.
        if cs["frame_bytes"]:
            print(f"compression  : {fmt_bytes(cs['body_bytes'])} flat -> "
                  f"{fmt_bytes(cs['frame_bytes'])} framed "
                  f"({cs['body_bytes'] / cs['frame_bytes']:.2f}x, "
                  f"{cs['anchors']} anchor(s))")
    ring = trace.metadata.get("ring")
    if ring:
        print(f"ring window  : starts at packet {ring.get('ordinal')} "
              f"(cycle {ring.get('cycle')}), checkpoint "
              f"{'present' if ring.get('checkpoint') else 'absent'}")
    rows = []
    for index in range(table.n):
        if starts[index] == 0 and ends[index] == 0 and not args.all:
            continue
        rows.append([table[index].name, table[index].direction,
                     starts[index], ends[index],
                     fmt_bytes(content_bytes[index])])
    print(render_table("per-channel transaction statistics",
                       ["Channel", "Dir", "Starts", "Ends", "Content"],
                       rows))
    return 0


def cmd_dump(args) -> int:
    trace = TraceFile.load(args.trace)
    table = trace.table
    wanted: Optional[int] = None
    if args.channel:
        wanted = table.by_name(args.channel).index
    printed = 0
    for packet_index, packet in enumerate(trace.packets()):
        for index in range(table.n):
            if wanted is not None and index != wanted:
                continue
            events: List[str] = []
            if (packet.starts >> index) & 1:
                content = packet.contents.get(index, b"")
                events.append(f"start content={content.hex()}")
            if (packet.ends >> index) & 1:
                suffix = ""
                if index in packet.validation:
                    suffix = f" content={packet.validation[index].hex()}"
                events.append(f"end{suffix}")
            for event in events:
                print(f"packet {packet_index:6d}  {table[index].name:<12s} {event}")
                printed += 1
                if args.limit and printed >= args.limit:
                    return 0
    return 0


def cmd_diff(args) -> int:
    reference = TraceFile.load(args.reference)
    validation = TraceFile.load(args.validation)
    report = compare_traces(reference, validation)
    print(report.summary())
    return 0 if report.clean else 1


def cmd_mutate(args) -> int:
    trace = TraceFile.load(args.trace)
    mutator = TraceMutator(trace)
    for moved_text, anchor_text in args.move_end_before or []:
        mutator.move_end_before(_parse_event(moved_text, "end"),
                                _parse_event(anchor_text, "end"))
    for dropped in args.drop_end or []:
        mutator.drop_event(_parse_event(dropped, "end"))
    for dropped in args.drop_start or []:
        mutator.drop_event(_parse_event(dropped, "start"))
    for target, hex_content in args.rewrite_content or []:
        mutator.rewrite_start_content(_parse_event(target, "start"),
                                      bytes.fromhex(hex_content))
    problem = mutator.validate()
    if problem and not args.force:
        print(f"mutation produces an inconsistent trace: {problem}",
              file=sys.stderr)
        return 2
    mutator.build().save(args.output)
    print(f"mutated trace written to {args.output}")
    return 0


def cmd_profile(args) -> int:
    from repro.analysis.profile import profile_trace, render_profile

    trace = TraceFile.load(args.trace)
    print(render_profile(profile_trace(trace, timeline_buckets=args.buckets)))
    return 0


def _parse_window(text: str):
    """Parse ``interface:ops:base:length`` into (interface, MemoryWindow)."""
    from repro.analysis.audit import MemoryWindow

    try:
        interface, ops, base, length = text.split(":")
        return interface, MemoryWindow(
            base=int(base, 0), length=int(length, 0),
            allow_read="read" in ops or ops == "rw",
            allow_write="write" in ops or ops == "rw")
    except ValueError:
        raise ReproError(
            "expected IFACE:OPS:BASE:LEN (e.g. pcim:write:0x10000:0x1000), "
            f"got {text!r}") from None


def cmd_audit(args) -> int:
    from repro.analysis.audit import AuditPolicy, audit_trace, render_audit

    trace = TraceFile.load(args.trace)
    policies = {}
    for spec in args.allow or []:
        interface, window = _parse_window(spec)
        policies.setdefault(interface,
                            AuditPolicy(interface=interface)).windows.append(
                                window)
    violations = audit_trace(trace, list(policies.values()))
    print(render_audit(violations))
    return 0 if not violations else 1


def cmd_fuzz(args) -> int:
    """Fuzz an application with random mutations of one of its traces."""
    from repro.apps.registry import get_app
    from repro.tools.fuzz import fuzz_frames, fuzz_replay, render_fuzz

    trace = TraceFile.load(args.trace)
    if args.frames:
        outcomes = fuzz_frames(trace, n_mutants=args.mutants, seed=args.seed,
                               version=args.container)
        print(render_fuzz(outcomes))
        return 0 if not any(o.verdict == "silent-accept"
                            for o in outcomes) else 1
    if args.app is None:
        print("error: fuzz needs an app (or --frames)", file=sys.stderr)
        return 2
    spec = get_app(args.app)
    under_test = spec.make()[0]
    reference = None
    if args.reference_app:
        reference = get_app(args.reference_app).make()[0]
    outcomes = fuzz_replay(trace, under_test, n_mutants=args.mutants,
                           seed=args.seed, max_cycles=args.max_cycles,
                           reference_factory=reference)
    print(render_fuzz(outcomes))
    return 0 if not any(o.verdict == "deadlock" for o in outcomes) else 1


def cmd_salvage(args) -> int:
    """Recover the valid packet prefix of a damaged or partial v2 trace."""
    trace = TraceFile.load(args.trace, salvage=True)
    if trace.salvaged:
        info = trace.metadata["salvaged"]
        print(f"salvaged   : {info['packets']} packet(s), "
              f"{fmt_bytes(info['bytes'])} "
              f"(dropped {fmt_bytes(info['dropped_bytes'])})")
        print(f"reason     : {info['reason']}")
    else:
        print("trace is intact; no salvage needed")
    if args.output:
        trace.save(args.output)
        print(f"written to : {args.output}")
    return 0


def cmd_coverage(args) -> int:
    from repro.analysis.coverage import OrderingCoverage, render_coverage

    coverage = OrderingCoverage(window=args.window)
    for path in args.traces:
        added = coverage.add_trace(TraceFile.load(path))
        print(f"{path}: +{added} ordering observation(s)")
    print(render_coverage(coverage))
    return 0


# ----------------------------------------------------------------------
# trace service (daemon + client)
# ----------------------------------------------------------------------


def cmd_serve(args) -> int:
    """Run the trace-service daemon in the foreground."""
    from repro.service.server import TraceService

    service = TraceService(args.data_dir, jobs=args.jobs, host=args.host,
                           port=args.port, cache_dir=args.cache_dir,
                           retain_words=args.retain_words)
    print(f"trace service listening on {service.endpoint} "
          f"(data dir {service.data_dir}, {args.jobs} job slot(s))")
    sys.stdout.flush()
    service.serve_forever()
    return 0


def _job_params(args) -> dict:
    """Collect the submit subcommand's params into a job-params dict."""
    params = {}
    for name in ("app", "seed", "scale", "trace_path",
                 "save_to", "n_faults", "crash_app", "batch_size",
                 "flight_recorder", "salvage"):
        value = getattr(args, name, None)
        if value is not None and value is not False:
            params[name] = value
    return params


def cmd_submit(args) -> int:
    """Submit one job to a running daemon; optionally wait for it."""
    import json as _json

    from repro.service.client import ServiceClient

    client = ServiceClient(data_dir=args.data_dir, endpoint=args.endpoint)
    job_id = client.submit(args.job_kind, _job_params(args),
                           priority=args.priority)
    print(f"submitted {args.job_kind} as {job_id}")
    if not args.wait:
        return 0
    detail = client.wait(job_id, timeout=args.timeout)
    print(_json.dumps(detail["result"], indent=2, sort_keys=True))
    result = detail["result"] or {}
    if result.get("clean") is False or result.get("silent_accepts"):
        return 1
    return 0


def cmd_status(args) -> int:
    """Show a running daemon's queue/ingest/results summary."""
    import json as _json

    from repro.service.client import ServiceClient

    client = ServiceClient(data_dir=args.data_dir, endpoint=args.endpoint)
    status = client.status(args.job) if args.job else client.status()
    print(_json.dumps(status, indent=2, sort_keys=True))
    return 0


def cmd_results(args) -> int:
    """Query the persistent results store (live daemon or direct file)."""
    import json as _json

    if args.endpoint or (args.data_dir and _service_live(args.data_dir)):
        from repro.service.client import ServiceClient

        client = ServiceClient(data_dir=args.data_dir,
                               endpoint=args.endpoint)
        records = client.results(kind=args.kind, name=args.name,
                                 limit=args.limit)
    else:
        # No live daemon: read the store file directly (same framing).
        from repro.service.results import ResultsStore
        from repro.service.server import RESULTS_FILENAME

        store = ResultsStore(f"{args.data_dir}/{RESULTS_FILENAME}")
        records = store.records(kind=args.kind, name=args.name,
                                limit=args.limit)
    print(_json.dumps(records, indent=2, sort_keys=True))
    return 0


def _service_live(data_dir: str) -> bool:
    from pathlib import Path

    from repro.service.server import SERVICE_FILENAME

    return (Path(data_dir) / SERVICE_FILENAME).exists()


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data-dir", default=".vidi-service", metavar="DIR",
                        help="the daemon's data directory (journals, "
                        "results store, service.json endpoint file)")
    parser.add_argument("--endpoint", default=None, metavar="URL",
                        help="explicit http://host:port (overrides the "
                        "data dir's service.json)")


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools",
        description="Offline tools for Vidi traces (inspect, validate, mutate)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="header and channel table")
    p_info.add_argument("trace")
    p_info.set_defaults(func=cmd_info)

    p_stats = sub.add_parser("stats", help="per-channel transaction counts")
    p_stats.add_argument("trace")
    p_stats.add_argument("--all", action="store_true",
                         help="include channels with no traffic")
    p_stats.set_defaults(func=cmd_stats)

    p_dump = sub.add_parser("dump", help="list transaction events")
    p_dump.add_argument("trace")
    p_dump.add_argument("--channel", help="restrict to one channel name")
    p_dump.add_argument("--limit", type=int, default=0,
                        help="stop after N events (0 = all)")
    p_dump.set_defaults(func=cmd_dump)

    p_diff = sub.add_parser(
        "diff", help="compare a reference and a validation trace (§3.6)")
    p_diff.add_argument("reference")
    p_diff.add_argument("validation")
    p_diff.set_defaults(func=cmd_diff)

    p_mut = sub.add_parser("mutate", help="reorder/drop/rewrite events (§5.3)")
    p_mut.add_argument("trace")
    p_mut.add_argument("-o", "--output", required=True)
    p_mut.add_argument("--move-end-before", nargs=2, action="append",
                       metavar=("MOVED", "ANCHOR"),
                       help="reorder end MOVED (CH:OCC) before end ANCHOR")
    p_mut.add_argument("--drop-end", action="append", metavar="CH:OCC")
    p_mut.add_argument("--drop-start", action="append", metavar="CH:OCC")
    p_mut.add_argument("--rewrite-content", nargs=2, action="append",
                       metavar=("CH:OCC", "HEX"))
    p_mut.add_argument("--force", action="store_true",
                       help="write even if the result fails validation")
    p_mut.set_defaults(func=cmd_mutate)

    p_prof = sub.add_parser("profile",
                            help="per-channel throughput/latency profile")
    p_prof.add_argument("trace")
    p_prof.add_argument("--buckets", type=int, default=20)
    p_prof.set_defaults(func=cmd_profile)

    p_aud = sub.add_parser("audit",
                           help="check DMA addresses against a policy")
    p_aud.add_argument("trace")
    p_aud.add_argument("--allow", action="append",
                       metavar="IFACE:OPS:BASE:LEN",
                       help="allowed window, e.g. pcim:write:0x10000:0x1000")
    p_aud.set_defaults(func=cmd_audit)

    p_cov = sub.add_parser("coverage",
                           help="ordering coverage across traces")
    p_cov.add_argument("traces", nargs="+")
    p_cov.add_argument("--window", type=int, default=4)
    p_cov.set_defaults(func=cmd_coverage)

    p_fuzz = sub.add_parser(
        "fuzz", help="replay random mutations of a trace against an app "
        "(exit 1 when a deadlock bug is found)")
    p_fuzz.add_argument("app", nargs="?", default=None,
                        help="registry key of the design under test "
                        "(not needed with --frames)")
    p_fuzz.add_argument("trace")
    p_fuzz.add_argument("--mutants", type=int, default=20)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--max-cycles", type=int, default=20_000)
    p_fuzz.add_argument("--reference-app",
                        help="known-good design for causal triage")
    p_fuzz.add_argument("--frames", action="store_true",
                        help="fuzz the container framing instead of the "
                        "event semantics (exit 1 on any silent accept)")
    p_fuzz.add_argument("--container", type=int, default=2, choices=(2, 3),
                        help="container version --frames targets: 2 "
                        "(CRC-framed body) or 3 (flight-recorder frames)")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_sal = sub.add_parser(
        "salvage", help="recover the valid packet prefix of a damaged or "
        "crash-truncated v2 trace")
    p_sal.add_argument("trace")
    p_sal.add_argument("-o", "--output",
                       help="write the recovered trace here")
    p_sal.set_defaults(func=cmd_salvage)

    p_serve = sub.add_parser(
        "serve", help="run the trace-service daemon (async ingest, job "
        "queue over the warm pool, persistent results store)")
    p_serve.add_argument("--data-dir", default=".vidi-service",
                         metavar="DIR")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="0 picks a free port (written to "
                         "service.json in the data dir)")
    p_serve.add_argument("--jobs", type=int, default=4,
                         help="warm-pool width = concurrent jobs")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="compiled-schedule cache shared by workers")
    from repro.core.config import DEFAULT_FLIGHT_RETAIN_WORDS

    p_serve.add_argument("--retain-words", type=int,
                         default=DEFAULT_FLIGHT_RETAIN_WORDS,
                         help="per-tenant live ring retention budget")
    p_serve.set_defaults(func=cmd_serve)

    p_sub = sub.add_parser(
        "submit", help="submit a record/replay/divergence/salvage/"
        "campaign job to a running daemon")
    _add_service_args(p_sub)
    p_sub.add_argument("job_kind", choices=(
        "record", "replay", "divergence", "salvage", "campaign"))
    p_sub.add_argument("--app", default=None)
    p_sub.add_argument("--seed", type=int, default=None)
    p_sub.add_argument("--scale", type=float, default=None)
    p_sub.add_argument("--trace-path", default=None, metavar="PATH",
                       help="trace file for replay/salvage jobs (must be "
                       "readable by the daemon)")
    p_sub.add_argument("--save-to", default=None, metavar="PATH",
                       help="record jobs: also write the trace blob here")
    p_sub.add_argument("--faults", type=int, default=None, dest="n_faults",
                       help="campaign jobs: fault count")
    p_sub.add_argument("--crash-app", default=None)
    p_sub.add_argument("--batch-size", type=int, default=None)
    p_sub.add_argument("--flight-recorder", action="store_true",
                       default=None)
    p_sub.add_argument("--salvage", action="store_true", default=None,
                       help="replay jobs: salvage the trace before replay")
    p_sub.add_argument("--priority", type=int, default=10,
                       help="lower runs first; FIFO within a level")
    p_sub.add_argument("--wait", action="store_true",
                       help="block until the job finishes and print its "
                       "result (exit 1 on divergence/silent-accepts)")
    p_sub.add_argument("--timeout", type=float, default=600.0)
    p_sub.set_defaults(func=cmd_submit)

    p_stat = sub.add_parser(
        "status", help="a running daemon's queue/ingest/results summary")
    _add_service_args(p_stat)
    p_stat.add_argument("--job", default=None, metavar="JOB_ID",
                        help="show one job's full detail instead")
    p_stat.set_defaults(func=cmd_status)

    p_res = sub.add_parser(
        "results", help="query the persistent results store (live daemon "
        "or its on-disk file)")
    _add_service_args(p_res)
    p_res.add_argument("--kind", default=None,
                       help="filter: job | bench | ...")
    p_res.add_argument("--name", default=None,
                       help="filter: job kind or bench name")
    p_res.add_argument("--limit", type=int, default=None,
                       help="newest N records")
    p_res.set_defaults(func=cmd_results)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
