"""Disk tier of the compiled-schedule cache: correctness and corruption.

The contract under test is the one the module docstring promises: a disk
hit re-binds the stored step source without re-levelizing and produces a
kernel bit-identical to a cold compile, while *any* damaged or stale
entry — truncated, garbage, CRC-flipped, version-skewed — silently falls
back to the cold path. The cache may make a compile slower; it must
never make a kernel wrong.
"""

import pytest

from repro.sim import schedule_store
from repro.sim import compile as compile_mod
from repro.sim.compile import (
    clear_schedule_cache,
    schedule_cache_stats,
    schedule_key,
)
from repro.sim.module import Module
from repro.sim.simulator import Simulator

from tests.test_scheduler_equivalence import SEEDS, _run_with_history


@pytest.fixture
def store_dir(tmp_path):
    """A fresh, empty disk tier; both cache tiers cleaned around the test."""
    prev = schedule_store.cache_dir()
    clear_schedule_cache()
    schedule_store.clear()
    directory = tmp_path / "sched"
    schedule_store.configure(directory)
    yield directory
    clear_schedule_cache()
    schedule_store.clear()
    schedule_store.configure(str(prev) if prev is not None else None)


class Stage(Module):
    """src -> +1 chain element (a deterministic, cacheable topology)."""

    comb_static = True

    def __init__(self, name, src=None):
        super().__init__(name)
        self.src = src
        self.out = self.signal("out", width=32)
        if src is not None:
            self.sensitive_to(src)
        else:
            self.sensitive_to()
        self.drives(self.out)

    def comb(self):
        base = self.src.value if self.src is not None else 7
        self.out.drive(base + 1)


def _chain_sim(depth=3, name="chain"):
    sim = Simulator(name, scheduler="compiled")
    prev = None
    for i in range(depth):
        stage = Stage(f"s{i}", prev.out if prev is not None else None)
        sim.add(stage)
        prev = stage
    sim.elaborate()
    return sim, prev


def _entry_files(directory):
    return sorted(directory.glob("*" + schedule_store._SUFFIX))


# ----------------------------------------------------------------------
# cold write → disk hit
# ----------------------------------------------------------------------


def test_cold_compile_persists_entry(store_dir):
    sim, tail = _chain_sim()
    sim.run(3)
    assert tail.out.value == 10
    assert sim.schedule_cache_tier == "cold"
    stats = schedule_cache_stats()
    assert stats["disk_writes"] == 1
    assert len(_entry_files(store_dir)) == 1


def test_disk_hit_skips_levelization(store_dir, monkeypatch):
    sim1, tail1 = _chain_sim()
    sim1.run(3)
    clear_schedule_cache()   # kill the in-process tier; disk files survive

    # A disk hit must re-bind the stored source without re-levelizing:
    # make any levelization attempt explode.
    def boom(*_a, **_k):
        raise AssertionError("disk hit re-ran levelization")

    monkeypatch.setattr(compile_mod, "levelize", boom)
    sim2, tail2 = _chain_sim()
    sim2.run(3)
    assert sim2.schedule_cache_hit
    assert sim2.schedule_cache_tier == "disk"
    assert tail2.out.value == tail1.out.value
    stats = schedule_cache_stats()
    assert stats["disk_hits"] == 1
    assert stats["disk_misses"] == 0


def test_disk_hit_promotes_to_memory_tier(store_dir):
    sim1, _ = _chain_sim()
    sim1.run(1)
    clear_schedule_cache()
    sim2, _ = _chain_sim()
    sim2.run(1)
    assert sim2.schedule_cache_tier == "disk"
    sim3, _ = _chain_sim()
    sim3.run(1)
    assert sim3.schedule_cache_tier == "memory"
    assert schedule_cache_stats()["disk_hits"] == 1


def test_preload_serves_hits_without_file_io(store_dir):
    sim1, _ = _chain_sim()
    sim1.run(1)
    clear_schedule_cache()
    assert schedule_store.preload() == 1
    for path in _entry_files(store_dir):
        path.unlink()   # RAM mirror must now be the only copy
    sim2, _ = _chain_sim()
    sim2.run(1)
    assert sim2.schedule_cache_tier == "disk"


def test_failed_write_is_counted_and_leaves_no_part_file(store_dir,
                                                        monkeypatch):
    def refuse(src, dst):
        raise OSError("simulated full disk")

    monkeypatch.setattr(schedule_store.os, "replace", refuse)
    sim, tail = _chain_sim()
    sim.run(3)
    assert tail.out.value == 10     # the compile itself is unaffected
    stats = schedule_cache_stats()
    assert stats["disk_write_failures"] == 1
    assert stats["disk_writes"] == 0
    assert list(store_dir.iterdir()) == []


def test_disabled_tier_stays_cold(store_dir):
    schedule_store.configure(None)
    sim, _ = _chain_sim()
    sim.run(1)
    assert sim.schedule_cache_tier == "cold"
    assert schedule_cache_stats()["disk_writes"] == 0


# ----------------------------------------------------------------------
# bit-identity: cold vs disk-hit kernels against the fixpoint oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("app_key", ("sha256", "dram_dma"))
def test_disk_hit_kernel_bit_identical_across_schedulers(store_dir, app_key):
    """The equivalence matrix, with the compiled kernel bound from disk.

    Fixpoint is the reference semantics; a *cold* compiled run writes
    the disk entry, then the in-process cache is wiped so the second
    compiled run must bind from it. All three runs must agree on every
    per-cycle signal hash, the serialized trace bytes, and the app result.
    """
    seed = SEEDS[0]
    fixpoint = _run_with_history(app_key, "fixpoint", seed)
    cold = _run_with_history(app_key, "compiled", seed)
    assert schedule_cache_stats()["disk_writes"] >= 1

    clear_schedule_cache()
    warm = _run_with_history(app_key, "compiled", seed)
    assert schedule_cache_stats()["disk_hits"] >= 1, (
        "second compiled run did not bind from the disk tier")

    for name, run in (("compiled-cold", cold), ("compiled-disk", warm)):
        assert run["cycles"] == fixpoint["cycles"], name
        assert run["history"] == fixpoint["history"], name
        assert run["trace_bytes"] == fixpoint["trace_bytes"], name
        assert run["result"] == fixpoint["result"], name


# ----------------------------------------------------------------------
# corruption: every damage mode must fall back to a cold compile
# ----------------------------------------------------------------------


def _damage_and_recompile(store_dir, damage):
    """Cold-compile, apply ``damage`` to the entry file, recompile."""
    sim1, tail1 = _chain_sim()
    sim1.run(3)
    (path,) = _entry_files(store_dir)
    damage(path)
    clear_schedule_cache()
    sim2, tail2 = _chain_sim()
    sim2.run(3)
    assert tail2.out.value == tail1.out.value
    return sim2


def test_truncated_entry_falls_back_cold(store_dir):
    sim = _damage_and_recompile(
        store_dir, lambda p: p.write_bytes(p.read_bytes()[:10]))
    assert sim.schedule_cache_tier == "cold"
    stats = schedule_cache_stats()
    assert stats["disk_invalidations"] == 1
    # The damaged file was unlinked and the cold compile re-wrote it
    # (clear_schedule_cache zeroed the counters between the two runs, so
    # this write is the fallback compile's, not the original's).
    assert stats["disk_writes"] == 1
    assert len(_entry_files(store_dir)) == 1


def test_garbage_entry_falls_back_cold(store_dir):
    sim = _damage_and_recompile(
        store_dir, lambda p: p.write_bytes(b"\xde\xad" * 512))
    assert sim.schedule_cache_tier == "cold"
    assert schedule_cache_stats()["disk_invalidations"] == 1


def test_crc_flip_falls_back_cold(store_dir):
    def flip(path):
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF   # payload byte: CRC32 check must catch it
        path.write_bytes(bytes(blob))

    sim = _damage_and_recompile(store_dir, flip)
    assert sim.schedule_cache_tier == "cold"
    assert schedule_cache_stats()["disk_invalidations"] == 1


def test_stale_format_version_falls_back_cold(store_dir):
    def stale(path):
        payload = schedule_store._decode(path.read_bytes())
        payload["format"] = schedule_store.FORMAT_VERSION + 1
        path.write_bytes(schedule_store._encode(payload))

    sim = _damage_and_recompile(store_dir, stale)
    assert sim.schedule_cache_tier == "cold"
    assert schedule_cache_stats()["disk_invalidations"] == 1


def test_tampered_source_hash_falls_back_cold(store_dir):
    def tamper(path):
        payload = schedule_store._decode(path.read_bytes())
        payload["source"] += "\n# tampered\n"
        path.write_bytes(schedule_store._encode(payload))

    sim = _damage_and_recompile(store_dir, tamper)
    assert sim.schedule_cache_tier == "cold"
    assert schedule_cache_stats()["disk_invalidations"] == 1


# ----------------------------------------------------------------------
# key derivation: the stale-cache hazards that must change the key
# ----------------------------------------------------------------------


def test_store_key_depends_on_package_version(monkeypatch):
    sim, _ = _chain_sim()
    key = schedule_key(sim)
    before = schedule_store.store_key(key)
    import repro

    monkeypatch.setattr(repro, "__version__", "999.0.0")
    assert schedule_store.store_key(key) != before


def test_store_key_depends_on_codegen_source(monkeypatch):
    sim, _ = _chain_sim()
    key = schedule_key(sim)
    before = schedule_store.store_key(key)
    monkeypatch.setattr(schedule_store, "_CODEGEN_SHA", "f" * 64)
    assert schedule_store.store_key(key) != before


def test_version_skewed_entry_never_loads(store_dir, monkeypatch):
    """Even a bit-perfect entry from another package version is invisible:
    the version is part of the key, so the lookup misses entirely."""
    sim1, _ = _chain_sim()
    sim1.run(1)
    clear_schedule_cache()
    import repro

    monkeypatch.setattr(repro, "__version__", "999.0.0")
    sim2, _ = _chain_sim()
    sim2.run(1)
    assert sim2.schedule_cache_tier == "cold"
    assert schedule_cache_stats()["disk_misses"] == 1
