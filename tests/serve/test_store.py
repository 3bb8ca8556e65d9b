"""Unit tests for key routing and the columnar instance store."""

import pytest

from repro.core.errors import DeploymentError
from repro.opt import IndexedMachine
from repro.serve import InstanceStore, shard_of
from tests.serve.conftest import machine_for


def commit_ir() -> IndexedMachine:
    return IndexedMachine.from_machine(machine_for("commit"))


def commit_start() -> int:
    """The commit machine's start state, premultiplied by its width."""
    im = commit_ir()
    return im.start * im.width


class TestShardRouting:
    def test_routing_is_stable_across_calls(self):
        for key in ("session-0000001", "user:42", "x"):
            assert shard_of(key, 8) == shard_of(key, 8)

    def test_routing_is_crc32_not_builtin_hash(self):
        # The documented contract: CRC-32 of the UTF-8 key, so routing is
        # reproducible across processes (builtin str hash is randomised).
        import zlib

        assert shard_of("session-0000042", 16) == zlib.crc32(b"session-0000042") % 16

    def test_population_spreads_across_shards(self):
        sizes = [0] * 8
        for i in range(4_000):
            sizes[shard_of(f"session-{i:07d}", 8)] += 1
        assert min(sizes) > 0.5 * (4_000 / 8)
        assert max(sizes) < 1.5 * (4_000 / 8)


class TestInstanceStore:
    def test_spawn_interns_columns(self):
        store = InstanceStore(commit_start())
        slot = store.spawn("a")
        assert store.slot("a") == slot
        assert store.slot_of["a"] == slot
        assert store.key_of[slot] == "a"
        assert store.states[slot] == commit_start()
        assert store.logs[slot] == []
        assert store.backends[slot] is None
        assert "a" in store
        assert len(store) == 1

    def test_slots_are_dense_in_spawn_order(self):
        store = InstanceStore(commit_start())
        assert [store.spawn(f"k{i}") for i in range(10)] == list(range(10))
        assert len(store.states) == len(store.logs) == len(store.key_of) == 10

    def test_duplicate_and_unknown(self):
        store = InstanceStore(commit_start())
        store.spawn("a")
        with pytest.raises(DeploymentError):
            store.spawn("a")
        with pytest.raises(DeploymentError):
            store.slot("b")
        with pytest.raises(DeploymentError):
            store.release("b")

    def test_release_reuses_slot_without_leaking_log(self):
        """A recycled slot must hand its next occupant pristine columns."""
        store = InstanceStore(commit_start())
        slot = store.spawn("a", backend="sentinel-backend")
        store.states[slot] = 3 * commit_ir().width
        store.logs[slot].append(("vote",))
        assert store.release("a") == slot
        assert "a" not in store
        assert store.key_of[slot] is None
        assert store.free_slots == [slot]
        # Reuse: same slot, fresh state/log/backend columns.
        assert store.spawn("b") == slot
        assert store.key_of[slot] == "b"
        assert store.states[slot] == commit_start()
        assert store.logs[slot] == []
        assert store.backends[slot] is None
        assert store.free_slots == []

    def test_release_updates_membership(self):
        store = InstanceStore(commit_start())
        for i in range(20):
            store.spawn(f"k{i}")
        store.release("k7")
        assert len(store) == 19
        assert "k7" not in store.keys()
        assert len(store.keys()) == 19

    def test_log_policy_columns(self):
        full = InstanceStore(commit_start(), log_policy="full")
        assert full.logs[full.spawn("a")] == []
        off = InstanceStore(commit_start(), log_policy="off")
        assert off.logs[off.spawn("a")] is None

    def test_invalid_log_policy(self):
        with pytest.raises(DeploymentError):
            InstanceStore(commit_start(), log_policy="verbose")
        with pytest.raises(DeploymentError):
            InstanceStore(commit_start(), log_policy="count")

    def test_keys_in_spawn_order(self):
        store = InstanceStore(commit_start())
        keys = [f"k{i}" for i in range(40)]
        for key in keys:
            store.spawn(key)
        assert store.keys() == keys
        # A respawned key takes the freed slot but comes last.
        slot = store.release("k7")
        assert store.spawn("k7") == slot
        assert store.keys() == keys[:7] + keys[8:] + ["k7"]

    def test_clear(self):
        store = InstanceStore(commit_start())
        store.spawn("a")
        store.spawn("b")
        store.release("a")
        store.clear()
        assert len(store) == 0
        assert store.keys() == []
        assert len(store.states) == 0
        assert store.free_slots == []
        # A store cleared of free slots interns densely from zero again.
        assert store.spawn("c") == 0
