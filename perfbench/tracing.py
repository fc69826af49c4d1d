"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent, run id). Spans are kept in a list
and only turned into numbers when the pass ends, so recording one costs
two clock reads and a list append. With ``enabled=False`` every span is
a no-op, which is how the untraced runs that give the end-to-end
metrics are taken.

Self time of a span is its duration minus the part of it covered by its
children. Children can overlap (the service workload has one client
thread per core), so the covered part is the union of their intervals,
never their sum.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class Tracer:
    """Collects nested spans across threads for one benchmark pass."""

    def __init__(self, enabled: bool, run_id: str, root_start: float):
        self.enabled = enabled
        self.run_id = run_id
        # Span rows: [name, start, end, parent index]; index 0 is the root,
        # which opens at process launch and closes in :meth:`close_root`.
        self.spans: List[list] = [["pass", root_start, None, -1]]
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    @contextmanager
    def span(self, name: str, start: Optional[float] = None):
        """Time the body as span ``name``; ``start`` backdates its start."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        row = [name, time.monotonic() if start is None else start, None,
               stack[-1]]
        with self._lock:
            self.spans.append(row)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            row[2] = time.monotonic()

    def close_root(self, end: float) -> None:
        self.spans[0][2] = end

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name, in seconds (root is ``pass``)."""
        children: Dict[int, List[int]] = {}
        for index, row in enumerate(self.spans):
            if row[3] >= 0 and row[2] is not None:
                children.setdefault(row[3], []).append(index)
        totals: Dict[str, float] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            if end is None:
                continue
            covered = _union_length(
                [(max(start, self.spans[c][1]), min(end, self.spans[c][2]))
                 for c in children.get(index, ())])
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for row in self.spans:
            out[row[0]] = out.get(row[0], 0) + 1
        return out

    def dump(self) -> List[dict]:
        """Spans as plain rows, relative to the root start, for the log."""
        t0 = self.spans[0][1]
        return [{"run": self.run_id, "id": i, "name": name,
                 "start": round(start - t0, 6),
                 "end": None if end is None else round(end - t0, 6),
                 "parent": parent if parent >= 0 else None}
                for i, (name, start, end, parent) in enumerate(self.spans)]


def _union_length(intervals: List[tuple]) -> float:
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total
