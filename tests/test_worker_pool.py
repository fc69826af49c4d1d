"""Warm worker pool: reuse, affinity dispatch, surgical recycling.

Workers are observed through their PIDs: a reused pool answers from the
same process across calls, affinity routing sends equal schedule keys to
one worker, and a crash replaces exactly one slot while the survivors
keep their warm state. The cold-path churn fix is pinned the same way —
``run_cells`` must keep one executor across retry rounds unless a round
actually broke it.
"""

import os

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.harness import worker_pool
from repro.harness.runner import SweepCell, last_run_stats, run_cells
from repro.harness.worker_pool import WarmPool, _stable_slot
from repro.sim import schedule_store
from repro.sim.compile import clear_schedule_cache


@pytest.fixture(autouse=True)
def fresh_pool():
    """Each test gets its own module-level pool and zeroed counters."""
    worker_pool.shutdown_pool()
    worker_pool.reset_stats()
    yield
    worker_pool.shutdown_pool()
    os.environ.pop("REPRO_TEST_CRASH_FLAG", None)


def _pid_worker(cell):
    return {"seed": cell.seed, "pid": os.getpid()}


def _crash_once_worker(cell):
    """Hard-kill the worker for seed 999, once (flag file = already done)."""
    flag = os.environ["REPRO_TEST_CRASH_FLAG"]
    if cell.seed == 999 and not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(13)
    return {"seed": cell.seed, "pid": os.getpid()}


def _fail_once_worker(cell):
    """Plain-exception twin: raises for seed 999, once."""
    flag = os.environ["REPRO_TEST_CRASH_FLAG"]
    if cell.seed == 999 and not os.path.exists(flag):
        open(flag, "w").close()
        raise ValueError("transient")
    return {"seed": cell.seed, "pid": os.getpid()}


def _pid_task():
    return os.getpid()


def _die_task():
    os._exit(13)


def _cells(n, app="x"):
    return [SweepCell(app=app, config="r2", seed=i) for i in range(n)]


def _keys_for_slots(size):
    """Affinity keys proven to land on slots 0 and 1 of a size-wide pool."""
    k0 = next(k for k in range(1000) if _stable_slot(("k", k), size) == 0)
    k1 = next(k for k in range(1000) if _stable_slot(("k", k), size) == 1)
    return ("k", k0), ("k", k1)


# ----------------------------------------------------------------------
# reuse and affinity
# ----------------------------------------------------------------------


def test_warm_pool_persists_across_run_cells_calls():
    cells = _cells(3)
    first = run_cells(cells, _pid_worker, jobs=2, warm_pool=True)
    second = run_cells(cells, _pid_worker, jobs=2, warm_pool=True)
    # Equal affinity (same app/config) routes every cell to one slot, and
    # that slot's worker process survives between calls.
    assert len({r["pid"] for r in first + second}) == 1
    assert last_run_stats["mode"] == "warm"


def test_affinity_routes_equal_keys_to_one_worker():
    jobs = 2
    cells = _cells(4, app="a") + _cells(4, app="b")
    results = run_cells(cells, _pid_worker, jobs=jobs, warm_pool=True)
    pid_by_slot = {}
    for cell, res in zip(cells, results):
        slot = _stable_slot(worker_pool.cell_affinity(cell), jobs)
        pid_by_slot.setdefault(slot, set()).add(res["pid"])
    # One worker per slot, no matter how many cells hashed there.
    assert all(len(pids) == 1 for pids in pid_by_slot.values())
    stats = worker_pool.pool_stats()
    # 8 dispatches, 2 first-contact misses (one per distinct key).
    assert stats["affinity_dispatches"] == 8
    assert stats["affinity_hits"] == 6
    assert stats["affinity_hit_rate"] == pytest.approx(0.75)


def test_recycle_replaces_only_the_broken_slot():
    k0, k1 = _keys_for_slots(2)
    pool = WarmPool(2)
    try:
        pid0 = pool.submit(_pid_task, affinity=k0).result()
        pid1 = pool.submit(_pid_task, affinity=k1).result()
        assert pid0 != pid1
        with pytest.raises(BrokenProcessPool):
            pool.submit(_die_task, affinity=k0).result()
        pool.recycle(0)
        assert pool.submit(_pid_task, affinity=k0).result() != pid0
        # The untouched slot still answers from its original process.
        assert pool.submit(_pid_task, affinity=k1).result() == pid1
        assert worker_pool.pool_stats()["workers_recycled"] == 1
    finally:
        pool.shutdown()


def test_run_cells_warm_recovers_from_worker_crash(tmp_path):
    os.environ["REPRO_TEST_CRASH_FLAG"] = str(tmp_path / "crashed")
    cells = _cells(3) + [SweepCell(app="x", config="r2", seed=999)]
    results = run_cells(cells, _crash_once_worker, jobs=2, retries=2,
                        warm_pool=True)
    assert [r["seed"] for r in results] == [0, 1, 2, 999]
    assert worker_pool.pool_stats()["workers_recycled"] >= 1


def test_run_cells_warm_exception_retry_keeps_workers(tmp_path):
    os.environ["REPRO_TEST_CRASH_FLAG"] = str(tmp_path / "failed")
    cells = _cells(2) + [SweepCell(app="x", config="r2", seed=999)]
    results = run_cells(cells, _fail_once_worker, jobs=2, retries=1,
                        warm_pool=True)
    assert [r["seed"] for r in results] == [0, 1, 999]
    # A plain exception leaves the worker healthy: nothing recycled.
    assert worker_pool.pool_stats()["workers_recycled"] == 0


# ----------------------------------------------------------------------
# cold-path churn fix
# ----------------------------------------------------------------------


def test_cold_path_reuses_pool_across_retry_rounds(tmp_path):
    os.environ["REPRO_TEST_CRASH_FLAG"] = str(tmp_path / "failed")
    cells = _cells(3) + [SweepCell(app="x", config="r2", seed=999)]
    results = run_cells(cells, _fail_once_worker, jobs=2, retries=2)
    assert [r["seed"] for r in results] == [0, 1, 2, 999]
    # Two rounds ran, but the surviving pool was reused: one executor.
    assert last_run_stats["rounds"] == 2
    assert last_run_stats["pools_created"] == 1


def test_cold_path_rebuilds_pool_only_after_crash(tmp_path):
    os.environ["REPRO_TEST_CRASH_FLAG"] = str(tmp_path / "crashed")
    cells = _cells(3) + [SweepCell(app="x", config="r2", seed=999)]
    results = run_cells(cells, _crash_once_worker, jobs=2, retries=2)
    assert [r["seed"] for r in results] == [0, 1, 2, 999]
    assert last_run_stats["pools_created"] == 2


# ----------------------------------------------------------------------
# warm initializer: schedules pre-bound from the disk tier
# ----------------------------------------------------------------------


def _tier_worker(cell):
    from repro.apps.registry import get_app
    from repro.core import VidiConfig
    from repro.harness.runner import bench_config, record_run
    from repro.sim.compile import schedule_cache_stats

    metrics = record_run(get_app(cell.app), bench_config(VidiConfig.r2),
                         seed=cell.seed)
    stats = schedule_cache_stats()
    return {"cycles": metrics.cycles, "disk_hits": stats["disk_hits"],
            "disk_misses": stats["disk_misses"]}


def test_warm_workers_prebind_schedules_from_disk(tmp_path):
    from repro.apps.registry import get_app
    from repro.core import VidiConfig
    from repro.harness.runner import bench_config, record_run

    prev = schedule_store.cache_dir()
    cache = tmp_path / "sched"
    try:
        clear_schedule_cache()
        schedule_store.configure(cache)
        # Seed the disk tier with a cold compile, then forget it in RAM
        # so the workers cannot inherit an in-process hit via fork.
        ref = record_run(get_app("sha256"), bench_config(VidiConfig.r2),
                         seed=5)
        clear_schedule_cache()

        cells = [SweepCell(app="sha256", config="r2", seed=5)]
        (res,) = run_cells(cells * 2, _tier_worker, jobs=2, warm_pool=True,
                           cache_dir=str(cache))[:1]
        assert res["cycles"] == ref.cycles
        # The worker's first compile bound the preloaded disk entry.
        assert res["disk_hits"] >= 1
        assert res["disk_misses"] == 0
    finally:
        clear_schedule_cache()
        schedule_store.configure(str(prev) if prev is not None else None)
