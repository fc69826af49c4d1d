"""Trace fuzzing: automated §5.3 — search orderings the environment never produced.

The testing case study mutates one trace by hand. This tool generalises
it: starting from a recorded production trace, it applies random *legal*
mutations (reordering end events, rewriting input contents), replays each
mutant against the design under a watchdog, and classifies the outcomes:

* ``ok``           — the design absorbed the mutant (replay drained),
* ``deadlock``     — the replay stopped making progress (the atop-filter
  failure mode: a latent ordering assumption violated),
* ``divergence``   — replay completed but outputs changed (content
  sensitivity worth a look),
* ``rejected``     — the mutation produced a structurally invalid trace
  and was skipped before replay,
* ``unreplayable`` — the mutant demands a causally impossible ordering
  (e.g. an output end moved before the inputs that cause it), which no
  design could satisfy.

Random reorderings can violate causality, not just design assumptions, so
raw timeouts need triage: pass a known-good ``reference_factory`` and
every timing-out mutant is re-replayed against it — if the reference
deadlocks too, the mutant is ``unreplayable``; if only the design under
test deadlocks, it is a genuine ``deadlock`` bug.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.analysis.tables import render_table
from repro.core.config import VidiConfig
from repro.core.divergence import compare_traces
from repro.core.mutation import EventRef, TraceMutator
from repro.core.trace_file import TraceFile
from repro.errors import ReproError, WatchdogTimeout


@dataclass
class FuzzOutcome:
    """Result of replaying one mutant."""

    mutation: str
    verdict: str          # 'ok' | 'deadlock' | 'divergence' | 'rejected'
    detail: str = ""


def _end_events(trace: TraceFile) -> List[EventRef]:
    """Every end event in the trace, as (channel, occurrence) references."""
    table = trace.table
    counts = [0] * table.n
    events: List[EventRef] = []
    for packet in trace.packets():
        for index in range(table.n):
            if (packet.ends >> index) & 1:
                events.append(EventRef("end", table[index].name,
                                       counts[index]))
                counts[index] += 1
    return events


def _input_starts(trace: TraceFile) -> List[EventRef]:
    table = trace.table
    counts = [0] * table.n
    events: List[EventRef] = []
    for packet in trace.packets():
        for index in range(table.n):
            if (packet.starts >> index) & 1:
                events.append(EventRef("start", table[index].name,
                                       counts[index]))
                counts[index] += 1
    return events


def _random_mutant(trace: TraceFile, rng: random.Random,
                   rewrite_contents: bool) -> Optional[tuple]:
    """One random mutation; returns (description, mutated trace) or None."""
    mutator = TraceMutator(trace)
    if rewrite_contents and rng.random() < 0.3:
        starts = _input_starts(trace)
        if not starts:
            return None
        target = rng.choice(starts)
        length = trace.table.by_name(target.channel).content_bytes
        content = bytes(rng.getrandbits(8) for _ in range(length))
        description = (f"rewrite {target.channel}:{target.occurrence} "
                       f"content")
        try:
            mutator.rewrite_start_content(target, content)
        except ReproError:
            return None
    else:
        ends = _end_events(trace)
        if len(ends) < 2:
            return None
        anchor_position = rng.randrange(len(ends) - 1)
        moved_position = rng.randrange(anchor_position + 1, len(ends))
        moved, anchor = ends[moved_position], ends[anchor_position]
        description = (f"move end {moved.channel}:{moved.occurrence} before "
                       f"{anchor.channel}:{anchor.occurrence}")
        try:
            mutator.move_end_before(moved, anchor)
        except ReproError:
            return None
    if mutator.validate() is not None:
        return description, None
    return description, mutator.build({"fuzz": description})


def _replays_to_completion(factory: Callable, mutated: TraceFile,
                           max_cycles: int, tag: str) -> bool:
    from repro.platform.shell import F1Deployment

    deployment = F1Deployment(tag, factory, VidiConfig.r3(),
                              replay_trace=mutated)
    try:
        deployment.run_replay(max_cycles=max_cycles)
        return True
    except WatchdogTimeout:
        return False


def fuzz_replay(trace: TraceFile,
                accelerator_factory: Callable,
                n_mutants: int = 20,
                seed: int = 0,
                max_cycles: int = 20_000,
                rewrite_contents: bool = False,
                reference_factory: Optional[Callable] = None) -> List[FuzzOutcome]:
    """Generate and replay ``n_mutants`` random mutations of ``trace``."""
    from repro.platform.shell import F1Deployment

    rng = random.Random(seed)
    outcomes: List[FuzzOutcome] = []
    for mutant_index in range(n_mutants):
        candidate = _random_mutant(trace, rng, rewrite_contents)
        if candidate is None:
            outcomes.append(FuzzOutcome("(no candidate)", "rejected"))
            continue
        description, mutated = candidate
        if mutated is None:
            outcomes.append(FuzzOutcome(description, "rejected",
                                        "failed structural validation"))
            continue
        deployment = F1Deployment(f"fuzz{mutant_index}", accelerator_factory,
                                  VidiConfig.r3(), replay_trace=mutated)
        try:
            deployment.run_replay(max_cycles=max_cycles)
        except WatchdogTimeout:
            if reference_factory is not None and not _replays_to_completion(
                    reference_factory, mutated, max_cycles,
                    f"fuzzref{mutant_index}"):
                outcomes.append(FuzzOutcome(
                    description, "unreplayable",
                    "the reference design cannot satisfy this ordering "
                    "either (causally impossible mutant)"))
            else:
                outcomes.append(FuzzOutcome(
                    description, "deadlock",
                    f"no progress in {max_cycles} cycles"))
            continue
        report = compare_traces(trace, deployment.recorded_trace())
        if report.clean:
            outcomes.append(FuzzOutcome(description, "ok"))
        else:
            kinds = sorted({d.kind for d in report.divergences})
            outcomes.append(FuzzOutcome(
                description, "divergence",
                f"{len(report.divergences)} divergence(s): {','.join(kinds)}"))
    return outcomes


def fuzz_frames(trace: TraceFile, n_mutants: int = 50,
                seed: int = 0, version: int = 2) -> List[FuzzOutcome]:
    """Fuzz the *container framing* instead of the event semantics.

    Each mutant damages the serialized container and asserts the loader's
    verdict. ``version=2`` flips one random bit per mutant
    (:func:`~repro.core.mutation.corrupt_frame` cycles through every
    region class: magic, lengths, header, body, footer). ``version=3``
    targets the flight-recorder frame container instead
    (:func:`~repro.core.mutation.corrupt_v3_frame`: magic, length and
    header flips, run/anchor payload flips, mid-frame truncation).
    Verdicts:

    * ``detected``      — the load raised a typed ``TraceFormatError``
      (salvageable regions additionally note what salvage recovered);
    * ``silent-accept`` — the damaged container loaded cleanly with
      content that differs from the original: a framing hole. A healthy
      format produces **zero** of these.
    """
    from repro.core.mutation import (FRAME_REGIONS, V3_FRAME_REGIONS,
                                     corrupt_frame, corrupt_v3_frame)
    from repro.errors import TraceFormatError

    rng = random.Random(seed)
    if version == 3:
        blob = trace.to_bytes(version=3)
        regions: tuple = V3_FRAME_REGIONS
        corrupt = corrupt_v3_frame
        salvage_regions = ("run", "anchor", "truncate")
    else:
        blob = trace.to_bytes()
        regions = FRAME_REGIONS
        corrupt = corrupt_frame
        salvage_regions = ("body",)
    outcomes: List[FuzzOutcome] = []
    for mutant_index in range(n_mutants):
        # Round-robin over region classes so small runs still cover all.
        region = regions[mutant_index % len(regions)]
        description, damaged = corrupt(blob, rng, region=region)
        try:
            loaded = TraceFile.from_bytes(damaged)
        except TraceFormatError as exc:
            detail = type(exc).__name__
            if region in salvage_regions:
                try:
                    salvaged = TraceFile.from_bytes(damaged, salvage=True)
                    info = salvaged.metadata.get("salvaged", {})
                    detail += f", salvaged {info.get('packets', 0)} packet(s)"
                except TraceFormatError:
                    detail += ", unsalvageable"
            outcomes.append(FuzzOutcome(description, "detected", detail))
            continue
        if bytes(loaded.body) == bytes(trace.body) \
                and loaded.table.to_dict() == trace.table.to_dict():
            # A flip the format legitimately does not care about would land
            # here; with CRC-framed containers nothing should.
            outcomes.append(FuzzOutcome(description, "ok",
                                        "loaded with identical content"))
        else:
            outcomes.append(FuzzOutcome(description, "silent-accept",
                                        "damaged container loaded cleanly"))
    return outcomes


def render_fuzz(outcomes: List[FuzzOutcome]) -> str:
    """Summary table plus per-verdict counts."""
    counts = {}
    for outcome in outcomes:
        counts[outcome.verdict] = counts.get(outcome.verdict, 0) + 1
    header = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    rows = [[o.verdict, o.mutation, o.detail] for o in outcomes
            if o.verdict in ("deadlock", "divergence", "silent-accept")][:15]
    table = render_table("notable mutants", ["Verdict", "Mutation", "Detail"],
                         rows) if rows else "no notable mutants"
    return f"fuzz summary: {header}\n{table}"
