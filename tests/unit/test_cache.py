"""Unit tests for the content-addressed simulation result cache.

Correctness contract: a hit must be indistinguishable from a fresh
simulation (bit for bit), and a key must change whenever the request,
the backend, or the simulator code version changes — those are the
only three inputs a result depends on.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

import os
import time

import repro.sim.cache as cache_module
from repro.sim import AlgorithmSpec, SimulationRequest, simulate
from repro.sim.cache import (
    SimulationCache,
    cache_key,
    configure_cache,
    get_cache,
    request_fingerprint,
    shard_cache_key,
)
from repro.sim.service import backend_run_count


def _request(**overrides):
    defaults = dict(
        algorithm=AlgorithmSpec.algorithm1(8),
        n_agents=2,
        target=(5, 3),
        move_budget=100_000,
        n_trials=6,
        seed=7,
    )
    defaults.update(overrides)
    return SimulationRequest(**defaults)


@pytest.fixture
def fresh_cache(tmp_path):
    """A private cache instance installed as the process default."""
    cache = configure_cache(directory=tmp_path, max_memory_entries=8)
    cache.clear()
    yield cache
    # Restore the session-isolated default (see tests/conftest.py).
    configure_cache(
        directory=cache_module.default_cache_dir(), max_memory_entries=256
    )


class TestFingerprint:
    def test_stable_across_equal_requests(self):
        assert request_fingerprint(_request()) == request_fingerprint(_request())

    def test_every_field_mutation_changes_the_fingerprint(self):
        base = request_fingerprint(_request())
        mutations = [
            _request(algorithm=AlgorithmSpec.algorithm1(9)),
            _request(algorithm=AlgorithmSpec.nonuniform(8, 1)),
            _request(n_agents=3),
            _request(target=(5, 4)),
            _request(move_budget=100_001),
            _request(n_trials=7),
            _request(seed=8),
            _request(seed_keys=(1,)),
            _request(distance_bound=64),
            _request(step_budget=1000),
        ]
        fingerprints = {request_fingerprint(m) for m in mutations}
        assert base not in fingerprints
        assert len(fingerprints) == len(mutations)

    def test_backend_and_code_version_enter_the_key(self, monkeypatch):
        request = _request()
        assert cache_key(request, "batched") != cache_key(request, "reference")
        before = cache_key(request, "batched")
        monkeypatch.setattr(cache_module, "CODE_VERSION", "sim-vNEXT")
        assert cache_key(request, "batched") != before


class TestMemoryLayer:
    def test_hit_returns_stored_outcomes(self, fresh_cache):
        request = _request()
        result = simulate(request, backend="batched", cache=False)
        fresh_cache.store(request, "batched", result.outcomes)
        assert fresh_cache.lookup(request, "batched") == result.outcomes

    def test_miss_on_request_mutation_and_backend_change(self, fresh_cache):
        request = _request()
        result = simulate(request, backend="batched", cache=False)
        fresh_cache.store(request, "batched", result.outcomes)
        assert fresh_cache.lookup(_request(seed=8), "batched") is None
        assert fresh_cache.lookup(request, "reference") is None

    def test_lru_eviction_bounds_memory(self, fresh_cache):
        outcomes = simulate(_request(), backend="batched", cache=False).outcomes
        for seed in range(20):
            fresh_cache.store(_request(seed=seed), "batched", outcomes)
        info = fresh_cache.info()
        assert info.memory_entries <= info.max_memory_entries == 8
        # The most recent stores survive; disk still holds everything.
        assert fresh_cache.lookup(_request(seed=19), "batched") is not None
        assert info.stores == 20

    def test_code_version_bump_invalidates(self, fresh_cache, monkeypatch):
        request = _request()
        outcomes = simulate(request, backend="batched", cache=False).outcomes
        fresh_cache.store(request, "batched", outcomes)
        monkeypatch.setattr(cache_module, "CODE_VERSION", "sim-vNEXT")
        assert fresh_cache.lookup(request, "batched") is None

    def test_sim_v3_entries_not_served_under_sim_v4(
        self, fresh_cache, monkeypatch
    ):
        """Entries written before the blocked-kernel rewrite stay dead.

        The blocked kernels (CODE_VERSION sim-v4) consume the RNG
        stream in a different order than sim-v3, so a sim-v3 payload
        is distributionally fine but bit-different; serving one would
        silently break request-level determinism.
        """
        assert cache_module.CODE_VERSION == "sim-v4"
        request = _request()
        outcomes = simulate(request, backend="batched", cache=False).outcomes
        monkeypatch.setattr(cache_module, "CODE_VERSION", "sim-v3")
        fresh_cache.store(request, "batched", outcomes)
        assert fresh_cache.lookup(request, "batched") == outcomes
        monkeypatch.setattr(cache_module, "CODE_VERSION", "sim-v4")
        assert fresh_cache.lookup(request, "batched") is None
        # A fresh store under the current version is served again.
        fresh_cache.store(request, "batched", outcomes)
        assert fresh_cache.lookup(request, "batched") == outcomes


class TestDiskLayer:
    def test_round_trip_equals_fresh_simulation_bit_for_bit(self, tmp_path):
        request = _request(n_trials=10)
        writer = SimulationCache(directory=tmp_path)
        fresh = simulate(request, backend="reference", cache=False)
        writer.store(request, "reference", fresh.outcomes)
        # A separate instance sees only the disk layer, like a new
        # process would.
        reader = SimulationCache(directory=tmp_path)
        loaded = reader.lookup(request, "reference")
        assert loaded == fresh.outcomes
        again = simulate(request, backend="reference", cache=False)
        assert loaded == again.outcomes
        assert reader.info().hits_disk == 1

    def test_corrupt_disk_entry_is_quarantined_not_fatal(self, tmp_path):
        request = _request()
        cache = SimulationCache(directory=tmp_path)
        outcomes = simulate(request, backend="batched", cache=False).outcomes
        cache.store(request, "batched", outcomes)
        (name,) = [path.name for path in tmp_path.glob("*.pkl")]
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"not a checksummed container")
        reader = SimulationCache(directory=tmp_path)
        assert reader.lookup(request, "batched") is None
        # The damaged entry is moved out of the served store, not
        # deleted: preserved under quarantine/ for inspection.
        assert list(tmp_path.glob("*.pkl")) == []
        assert (tmp_path / "quarantine" / name).is_file()
        assert reader.info().quarantined == 1

    def test_truncated_disk_entry_fails_the_checksum(self, tmp_path):
        request = _request()
        cache = SimulationCache(directory=tmp_path)
        outcomes = simulate(request, backend="batched", cache=False).outcomes
        cache.store(request, "batched", outcomes)
        (path,) = tmp_path.glob("*.pkl")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        reader = SimulationCache(directory=tmp_path)
        assert reader.lookup(request, "batched") is None
        assert reader.info().quarantined == 1

    def test_disk_payload_validates_fingerprint(self, tmp_path):
        """A hash collision cannot serve the wrong request's outcomes."""
        request = _request()
        cache = SimulationCache(directory=tmp_path)
        outcomes = simulate(request, backend="batched", cache=False).outcomes
        cache.store(request, "batched", outcomes)
        other = _request(seed=99)
        path = cache._path_for(cache_key(request, "batched"))
        header, stored = cache_module._decode_entry(path.read_bytes())
        header["fingerprint"] = request_fingerprint(other)
        # Re-encode with a *valid* checksum so only the fingerprint
        # validation — not the integrity layer — rejects the entry.
        path.write_bytes(cache_module._encode_entry(header, stored))
        reader = SimulationCache(directory=tmp_path)
        assert reader.lookup(request, "batched") is None
        assert reader.info().quarantined == 0

    def test_verify_reports_and_repairs_corrupt_entries(self, tmp_path):
        cache = SimulationCache(directory=tmp_path)
        good = _request()
        bad = _request(seed=77)
        outcomes = simulate(good, backend="batched", cache=False).outcomes
        cache.store(good, "batched", outcomes)
        cache.store(bad, "batched", outcomes)
        bad_path = cache._path_for(cache_key(bad, "batched"))
        data = bad_path.read_bytes()
        middle = len(data) // 2
        bad_path.write_bytes(
            data[:middle] + bytes([data[middle] ^ 0xFF]) + data[middle + 1:]
        )
        report = cache.verify()
        assert report.scanned == 2
        assert report.ok == 1
        assert report.corrupt == (bad_path.name,)
        assert report.quarantined == 0  # report-only without --repair
        assert bad_path.is_file()
        repaired = cache.verify(repair=True)
        assert repaired.corrupt == (bad_path.name,)
        assert repaired.quarantined == 1
        assert not bad_path.is_file()
        assert (tmp_path / "quarantine" / bad_path.name).is_file()
        # The good entry still round-trips after the sweep.
        reader = SimulationCache(directory=tmp_path)
        assert reader.lookup(good, "batched") == outcomes

    def test_unwritable_directory_degrades_to_memory_only(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        cache = SimulationCache(directory=blocked / "sub")
        request = _request()
        outcomes = simulate(request, backend="batched", cache=False).outcomes
        cache.store(request, "batched", outcomes)
        assert cache.lookup(request, "batched") == outcomes
        info = cache.info()
        assert not info.disk_enabled
        assert info.disk_error

    def test_reconfiguring_after_degradation_restores_the_disk_layer(
        self, tmp_path, fresh_cache
    ):
        """Runtime degradation is state, not intent: a new directory
        must bring disk caching back."""
        blocked = tmp_path / "blocked-file"
        blocked.write_text("a file, not a directory")
        degraded = configure_cache(directory=blocked / "sub")
        request = _request()
        outcomes = simulate(request, backend="batched", cache=False).outcomes
        degraded.store(request, "batched", outcomes)
        assert not degraded.info().disk_enabled
        writable = tmp_path / "writable"
        recovered = configure_cache(directory=writable)
        recovered.store(request, "batched", outcomes)
        assert recovered.info().disk_enabled
        assert len(list(writable.glob("*.pkl"))) == 1

    def test_clear_removes_disk_entries(self, tmp_path):
        cache = SimulationCache(directory=tmp_path)
        outcomes = simulate(_request(), backend="batched", cache=False).outcomes
        cache.store(_request(), "batched", outcomes)
        assert cache.clear() == 1
        assert list(tmp_path.glob("*.pkl")) == []


class TestShardEntries:
    """Per-shard entries: the job layer's resume substrate."""

    def test_shard_round_trip(self, tmp_path):
        request = _request(n_trials=6)
        cache = SimulationCache(directory=tmp_path)
        outcomes = simulate(request, backend="reference", cache=False).outcomes
        shard = range(0, 3)
        cache.store_shard(request, "reference", shard, outcomes[:3])
        reader = SimulationCache(directory=tmp_path)
        assert reader.lookup_shard(request, "reference", shard) == outcomes[:3]

    def test_shard_key_is_disjoint_from_full_key(self, tmp_path):
        request = _request(n_trials=6)
        assert shard_cache_key(request, "reference", 0, 6) != cache_key(
            request, "reference"
        )
        cache = SimulationCache(directory=tmp_path)
        outcomes = simulate(request, backend="reference", cache=False).outcomes
        cache.store_shard(request, "reference", range(0, 6), outcomes)
        # A full-request lookup must not be satisfied by a shard entry,
        # even one covering every trial.
        assert cache.lookup(request, "reference") is None

    def test_different_ranges_are_different_entries(self, tmp_path):
        request = _request(n_trials=6)
        cache = SimulationCache(directory=tmp_path)
        outcomes = simulate(request, backend="reference", cache=False).outcomes
        cache.store_shard(request, "reference", range(0, 3), outcomes[:3])
        assert cache.lookup_shard(request, "reference", range(3, 6)) is None
        assert cache.lookup_shard(request, "reference", range(0, 2)) is None

    def test_shard_counters_break_out_shard_traffic(self, tmp_path):
        """Shard lookups count in both aggregate and shard counters."""
        request = _request(n_trials=6)
        cache = SimulationCache(directory=tmp_path)
        outcomes = simulate(request, backend="reference", cache=False).outcomes

        assert cache.lookup_shard(request, "reference", range(0, 3)) is None
        cache.store_shard(request, "reference", range(0, 3), outcomes[:3])
        assert cache.lookup_shard(
            request, "reference", range(0, 3)
        ) == outcomes[:3]
        cache.store(request, "reference", outcomes)
        assert cache.lookup(request, "reference") == outcomes

        info = cache.info()
        assert info.hits_shard == 1
        assert info.misses_shard == 1
        assert info.stores_shard == 1
        # Aggregates include the shard traffic plus the full-request
        # lookup/store pair.
        assert info.hits_memory + info.hits_disk == 2
        assert info.misses == 1
        assert info.stores == 2
        assert any("shard level" in line for line in info.summary_lines())


class TestPrune:
    """LRU disk pruning: eviction order and bound enforcement."""

    def _populate(self, tmp_path, count):
        cache = SimulationCache(directory=tmp_path)
        outcomes = simulate(_request(), backend="batched", cache=False).outcomes
        paths = []
        for seed in range(count):
            request = _request(seed=seed)
            cache.store(request, "batched", outcomes)
            paths.append(cache._path_for(cache_key(request, "batched")))
        return cache, paths

    def test_prune_enforces_the_byte_bound(self, tmp_path):
        cache, paths = self._populate(tmp_path, 6)
        entry_size = paths[0].stat().st_size
        budget = int(entry_size * 2.5)  # room for exactly two entries
        result = cache.prune(budget)
        assert result.remaining_bytes <= budget
        assert result.remaining_files == 2
        assert result.removed_files == 4
        assert result.freed_bytes == 4 * entry_size
        assert len(list(tmp_path.glob("*.pkl"))) == 2

    def test_prune_evicts_least_recently_used_first(self, tmp_path):
        cache, paths = self._populate(tmp_path, 4)
        # Hand-set last_used: entry 2 oldest, then 0, then 3, then 1.
        now = time.time()
        ages = {2: 400, 0: 300, 3: 200, 1: 100}
        for index, age in ages.items():
            os.utime(paths[index], (now - age, now - age))
        entry_size = paths[0].stat().st_size
        result = cache.prune(int(entry_size * 2.5))
        assert result.removed_files == 2
        survivors = {path for path in tmp_path.glob("*.pkl")}
        assert paths[2] not in survivors and paths[0] not in survivors
        assert paths[3] in survivors and paths[1] in survivors

    def test_disk_hit_refreshes_last_used(self, tmp_path):
        request = _request(seed=5)
        cache = SimulationCache(directory=tmp_path)
        outcomes = simulate(request, backend="batched", cache=False).outcomes
        cache.store(request, "batched", outcomes)
        path = cache._path_for(cache_key(request, "batched"))
        stale = time.time() - 10_000
        os.utime(path, (stale, stale))
        reader = SimulationCache(directory=tmp_path)  # disk hit, not memory
        assert reader.lookup(request, "batched") == outcomes
        assert path.stat().st_mtime > stale + 5_000

    def test_prune_to_zero_clears_the_disk(self, tmp_path):
        cache, _ = self._populate(tmp_path, 3)
        result = cache.prune(0)
        assert result.remaining_files == 0
        assert result.remaining_bytes == 0
        assert list(tmp_path.glob("*.pkl")) == []

    def test_prune_under_budget_is_a_no_op(self, tmp_path):
        cache, _ = self._populate(tmp_path, 3)
        result = cache.prune(10**12)
        assert result.removed_files == 0
        assert result.remaining_files == 3

    def test_prune_rejects_negative_budget(self, tmp_path):
        from repro.errors import InvalidParameterError

        cache = SimulationCache(directory=tmp_path)
        with pytest.raises(InvalidParameterError):
            cache.prune(-1)


class TestSimulateIntegration:
    def test_second_invocation_performs_zero_simulations(self, fresh_cache):
        request = _request(seed=1234)
        before = backend_run_count()
        first = simulate(request, backend="batched")
        after_first = backend_run_count()
        second = simulate(request, backend="batched")
        after_second = backend_run_count()
        assert after_first == before + 1
        assert after_second == after_first  # served from cache
        assert list(first.moves_or_budget()) == list(second.moves_or_budget())

    def test_auto_and_explicit_batched_share_entries(self, fresh_cache):
        """The key uses the *resolved* backend, not the request string."""
        request = _request(seed=4321)  # n_trials > 1 -> auto = batched
        before = backend_run_count()
        simulate(request, backend="batched")
        simulate(request, backend="auto")
        assert backend_run_count() == before + 1

    def test_cache_false_forces_execution(self, fresh_cache):
        request = _request(seed=777)
        before = backend_run_count()
        simulate(request, backend="batched")
        simulate(request, backend="batched", cache=False)
        assert backend_run_count() == before + 2

    def test_enabled_flag_gates_default_consultation(self, fresh_cache):
        request = _request(seed=888)
        configure_cache(enabled=False)
        try:
            before = backend_run_count()
            simulate(request, backend="batched")
            simulate(request, backend="batched")
            assert backend_run_count() == before + 2
        finally:
            configure_cache(enabled=True)
        simulate(request, backend="batched")
        before = backend_run_count()
        simulate(request, backend="batched")
        assert backend_run_count() == before

    def test_get_cache_is_process_wide(self, fresh_cache):
        assert get_cache() is fresh_cache
