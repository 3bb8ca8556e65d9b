"""Unit tests for shard routing and the columnar instance store."""

import pytest

from repro.core.errors import DeploymentError
from repro.serve import InstanceStore, shard_of
from tests.serve.conftest import machine_for


def commit_table():
    return machine_for("commit").dispatch_table()


class TestShardRouting:
    def test_routing_is_stable_across_calls(self):
        for key in ("session-0000001", "user:42", "x"):
            assert shard_of(key, 8) == shard_of(key, 8)

    def test_routing_is_stable_across_store_rebuilds(self):
        table = commit_table()
        keys = [f"session-{i:07d}" for i in range(500)]
        first = InstanceStore(table, shards=8)
        second = InstanceStore(table, shards=8)
        for key in keys:
            first.spawn(key)
        for key in reversed(keys):
            second.spawn(key)
        assert [first.shard_id(k) for k in keys] == [
            second.shard_id(k) for k in keys
        ]

    def test_routing_is_crc32_not_builtin_hash(self):
        # The documented contract: CRC-32 of the UTF-8 key, so routing is
        # reproducible across processes (builtin str hash is randomised).
        import zlib

        assert shard_of("session-0000042", 16) == zlib.crc32(b"session-0000042") % 16

    def test_memoized_shard_matches_hash_contract(self):
        """``shard_ids[slot]`` is a cache of ``shard_of``, never a fork of it."""
        store = InstanceStore(commit_table(), shards=8)
        keys = [f"k{i}" for i in range(200)]
        for key in keys:
            store.spawn(key)
        for key in keys:
            assert store.shard_id(key) == shard_of(key, 8)
            assert store.shard_ids[store.slot_of[key]] == shard_of(key, 8)

    def test_unknown_key_still_routes_by_hash(self):
        store = InstanceStore(commit_table(), shards=8)
        assert store.shard_id("never-spawned") == shard_of("never-spawned", 8)

    def test_population_spreads_across_shards(self):
        table = commit_table()
        store = InstanceStore(table, shards=8)
        for i in range(4_000):
            store.spawn(f"session-{i:07d}")
        sizes = store.shard_sizes()
        assert sum(sizes) == 4_000
        assert min(sizes) > 0.5 * (4_000 / 8)
        assert max(sizes) < 1.5 * (4_000 / 8)


class TestInstanceStore:
    def test_spawn_interns_columns(self):
        table = commit_table()
        store = InstanceStore(table, shards=4)
        slot = store.spawn("a")
        assert store.slot("a") == slot
        assert store.slot_of["a"] == slot
        assert store.key_of[slot] == "a"
        assert store.states[slot] == table.start_index * table.width
        assert store.logs[slot] == []
        assert store.backends[slot] is None
        assert store.shard_ids[slot] == shard_of("a", 4)
        assert "a" in store
        assert len(store) == 1

    def test_slots_are_dense_in_spawn_order(self):
        store = InstanceStore(commit_table(), shards=4)
        assert [store.spawn(f"k{i}") for i in range(10)] == list(range(10))
        assert len(store.states) == len(store.logs) == len(store.key_of) == 10

    def test_duplicate_and_unknown(self):
        store = InstanceStore(commit_table(), shards=4)
        store.spawn("a")
        with pytest.raises(DeploymentError):
            store.spawn("a")
        with pytest.raises(DeploymentError):
            store.slot("b")
        with pytest.raises(DeploymentError):
            store.release("b")

    def test_release_reuses_slot_without_leaking_log(self):
        """A recycled slot must hand its next occupant pristine columns."""
        table = commit_table()
        store = InstanceStore(table, shards=4)
        slot = store.spawn("a", backend="sentinel-backend")
        store.states[slot] = 3 * table.width
        store.logs[slot].append(("vote",))
        assert store.release("a") == slot
        assert "a" not in store
        assert store.key_of[slot] is None
        assert store.free_slots == [slot]
        # Reuse: same slot, fresh state/log/backend columns.
        assert store.spawn("b") == slot
        assert store.key_of[slot] == "b"
        assert store.states[slot] == table.start_index * table.width
        assert store.logs[slot] == []
        assert store.backends[slot] is None
        assert store.shard_ids[slot] == shard_of("b", 4)
        assert store.free_slots == []

    def test_release_updates_membership(self):
        store = InstanceStore(commit_table(), shards=4)
        for i in range(20):
            store.spawn(f"k{i}")
        store.release("k7")
        assert len(store) == 19
        assert "k7" not in store.keys()
        assert sum(store.shard_sizes()) == 19

    def test_log_policy_columns(self):
        full = InstanceStore(commit_table(), shards=2, log_policy="full")
        assert full.logs[full.spawn("a")] == []
        off = InstanceStore(commit_table(), shards=2, log_policy="off")
        assert off.logs[off.spawn("a")] is None

    def test_invalid_log_policy(self):
        with pytest.raises(DeploymentError):
            InstanceStore(commit_table(), shards=2, log_policy="verbose")
        with pytest.raises(DeploymentError):
            InstanceStore(commit_table(), shards=2, log_policy="count")

    def test_keys_grouped_by_shard(self):
        store = InstanceStore(commit_table(), shards=4)
        keys = [f"k{i}" for i in range(40)]
        for key in keys:
            store.spawn(key)
        grouped = store.keys()
        assert sorted(grouped) == sorted(keys)
        shard_ids = [store.shard_id(k) for k in grouped]
        assert shard_ids == sorted(shard_ids)

    def test_clear(self):
        store = InstanceStore(commit_table(), shards=2)
        store.spawn("a")
        store.spawn("b")
        store.release("a")
        store.clear()
        assert len(store) == 0
        assert store.shard_sizes() == [0, 0]
        assert len(store.states) == 0
        assert store.free_slots == []
        # A store cleared of free slots interns densely from zero again.
        assert store.spawn("c") == 0

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            InstanceStore(commit_table(), shards=0)
