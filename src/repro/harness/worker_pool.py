"""Process-persistent warm worker pool for parallel frontends.

Every ``run_cells`` caller used to build a fresh ``ProcessPoolExecutor``
and tear it down at the end of the call — so each campaign round, sweep,
and sharded replay paid full interpreter start-up, ``repro`` import, and
cold kernel compilation in every worker, every time. This module keeps
one module-level pool alive for the whole process and hands it to any
caller that asks for ``warm_pool=True``.

Design:

* The pool is ``size`` independent single-worker executors ("slots")
  rather than one N-worker executor. That buys two things a monolithic
  pool cannot provide: **topology affinity** (a cell can be routed to a
  specific slot, so cells with the same schedule key land on a worker
  whose in-process schedule cache already holds their kernel) and
  **surgical recycling** (a crashed worker poisons only its own slot;
  the other N-1 warm workers keep their caches).
* Each worker runs :func:`_warm_init` once at start: it pre-imports the
  heavy ``repro`` modules and pre-binds every compiled schedule from the
  on-disk cache (:mod:`repro.sim.schedule_store`) into RAM, so the first
  real cell dispatched to it binds in microseconds instead of
  levelizing.
* Dispatch is deterministic: ``crc32(repr(affinity_key))`` picks the
  slot, so equal keys always share a worker within a run *and* across
  runs (no dependence on ``PYTHONHASHSEED``).

The pool registers its affinity counters with
:func:`repro.sim.compile.register_cache_stats_provider`, so
``schedule_cache_stats()`` — and therefore ``--profile`` output — shows
the worker-affinity hit rate without the sim layer ever importing the
harness.
"""

from __future__ import annotations

import atexit
import zlib
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Set

__all__ = [
    "WarmPool", "get_pool", "shutdown_pool", "pool_stats", "cell_affinity",
]

_STATS = {
    "affinity_dispatches": 0,   # submits that carried an affinity key
    "affinity_hits": 0,         # ... whose slot had already seen that key
    "workers_recycled": 0,      # slots replaced after a hard crash
    "warm_submits": 0,          # total cells dispatched through the pool
}


def _warm_init(cache_dir: Optional[str]) -> None:
    """Worker initializer: pre-import repro and pre-bind disk schedules.

    Runs once per worker process. After it returns, the worker holds the
    full ``repro`` import graph and a RAM mirror of every valid on-disk
    schedule entry, so its first cell skips both import cost and cold
    levelization.
    """
    import repro                      # noqa: F401  (full package graph)
    import repro.harness.runner       # noqa: F401  (cell workers live here)
    import repro.apps.registry        # noqa: F401  (app factories)
    from repro.sim import schedule_store

    if cache_dir is not None:
        schedule_store.configure(cache_dir)
    schedule_store.preload()


def _stable_slot(affinity: object, size: int) -> int:
    """Deterministic slot for an affinity key (PYTHONHASHSEED-proof)."""
    return zlib.crc32(repr(affinity).encode("utf-8", "replace")) % size


class WarmPool:
    """N warm single-worker executors with affinity dispatch."""

    def __init__(self, size: int, cache_dir: Optional[str] = None):
        if size < 1:
            raise ValueError("warm pool needs at least one slot")
        self.size = size
        self.cache_dir = cache_dir
        self._slots: List[Optional[ProcessPoolExecutor]] = [None] * size
        # Affinity keys each slot's worker has already compiled/bound.
        self._seen: List[Set[object]] = [set() for _ in range(size)]
        self._rr = 0

    # -- slot management ------------------------------------------------

    def _executor(self, slot: int) -> ProcessPoolExecutor:
        ex = self._slots[slot]
        if ex is None:
            ex = ProcessPoolExecutor(
                max_workers=1, initializer=_warm_init,
                initargs=(self.cache_dir,))
            self._slots[slot] = ex
        return ex

    def slot_for(self, affinity: object) -> int:
        """Pick a slot: by affinity key when given, else round-robin."""
        if affinity is None:
            self._rr = (self._rr + 1) % self.size
            return self._rr
        _STATS["affinity_dispatches"] += 1
        slot = _stable_slot(affinity, self.size)
        if affinity in self._seen[slot]:
            _STATS["affinity_hits"] += 1
        else:
            self._seen[slot].add(affinity)
        return slot

    def submit(self, fn, *args, affinity: object = None):
        """Submit ``fn(*args)`` to the affinity-chosen slot.

        A slot whose worker died earlier raises ``BrokenProcessPool``
        straight from ``submit``; that slot is recycled and the call
        retried once on the fresh worker, so callers only ever see
        breakage through a future's ``result()``.
        """
        slot = self.slot_for(affinity)
        _STATS["warm_submits"] += 1
        try:
            future = self._executor(slot).submit(fn, *args)
        except (BrokenProcessPool, RuntimeError):
            self.recycle(slot)
            future = self._executor(slot).submit(fn, *args)
        future.warm_slot = slot
        return future

    def recycle(self, slot: int) -> None:
        """Replace one broken slot; the other workers stay warm."""
        ex = self._slots[slot]
        self._slots[slot] = None
        self._seen[slot] = set()
        _STATS["workers_recycled"] += 1
        if ex is not None:
            ex.shutdown(wait=False, cancel_futures=True)

    def grow(self, size: int) -> None:
        """Widen the pool in place (never shrinks: warm slots are assets)."""
        if size > self.size:
            self._slots.extend([None] * (size - self.size))
            self._seen.extend(set() for _ in range(size - self.size))
            self.size = size

    def live_workers(self) -> int:
        return sum(1 for ex in self._slots if ex is not None)

    def worker_pids(self) -> List[int]:
        """PIDs of the live worker processes (for drain/leak checks)."""
        pids: List[int] = []
        for ex in self._slots:
            if ex is not None:
                pids.extend(p.pid for p in ex._processes.values())
        return pids

    def shutdown(self, wait: bool = True) -> None:
        """Drain and stop every slot.

        ``wait=True`` (the default) lets in-flight cells finish and then
        joins each worker process — the graceful path the trace-service
        daemon and atexit use, so no worker outlives its parent. The
        previous fire-and-forget behaviour (``wait=False``) abandoned the
        executor threads mid-handshake and could leak live worker
        processes when the parent exited quickly; it remains available
        for hard-recycle paths that already know the worker is dead.
        """
        for slot, ex in enumerate(self._slots):
            self._slots[slot] = None
            if ex is not None:
                ex.shutdown(wait=wait, cancel_futures=True)
        self._seen = [set() for _ in range(self.size)]


# ----------------------------------------------------------------------
# module-level pool: one per frontend process, shared by every caller
# ----------------------------------------------------------------------

_POOL: Optional[WarmPool] = None


def get_pool(jobs: int, cache_dir: Optional[str] = None) -> WarmPool:
    """The process-wide warm pool, created on first use and grown on demand."""
    global _POOL
    if _POOL is None:
        _POOL = WarmPool(jobs, cache_dir=cache_dir)
    else:
        _POOL.grow(jobs)
        if cache_dir is not None and _POOL.cache_dir is None:
            _POOL.cache_dir = cache_dir   # applies to future slot spawns
    return _POOL


def shutdown_pool(wait: bool = True) -> None:
    """Drain and tear down the shared pool (atexit, daemon shutdown, tests)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=wait)
        _POOL = None


atexit.register(shutdown_pool)


def reset_stats() -> None:
    for k in _STATS:
        _STATS[k] = 0


def pool_stats() -> Dict[str, object]:
    """Affinity/recycle counters, merged into ``schedule_cache_stats()``."""
    stats: Dict[str, object] = dict(_STATS)
    dispatches = _STATS["affinity_dispatches"]
    stats["affinity_hit_rate"] = (
        _STATS["affinity_hits"] / dispatches if dispatches else 0.0)
    stats["warm_pool_size"] = _POOL.size if _POOL is not None else 0
    stats["warm_pool_live"] = _POOL.live_workers() if _POOL is not None else 0
    return stats


def cell_affinity(cell: object) -> tuple:
    """Topology-affinity key for a sweep/replay cell.

    Everything that feeds ``schedule_key`` — app topology, config mode,
    scale, DMA patching — without the per-cell seed, so cells that share
    a compiled schedule hash to the same warm worker. Unknown cell types
    degrade to their class name (still deterministic, never wrong).
    """
    fields = ("app", "config", "scale", "patched_dma", "flight_recorder")
    return (type(cell).__name__,) + tuple(
        getattr(cell, f, None) for f in fields)


# Publish affinity counters through the sim layer's stats hook.
from repro.sim.compile import register_cache_stats_provider  # noqa: E402

register_cache_stats_provider(pool_stats)
