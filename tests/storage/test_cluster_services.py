"""Integration tests: the storage services on a full simulated cluster."""

import pytest

from repro.storage import (
    DataBlock,
    FaultPlan,
    GUID,
    StorageCluster,
)
from repro.storage.endpoint import (
    ExponentialBackoff,
    FixedBackoff,
    RandomBackoff,
    ServerOrder,
    agree_on_history,
)


def peer_set_for(guid: GUID, node_count=12, r=4, seed=1) -> list[str]:
    probe = StorageCluster(node_count=node_count, replication_factor=r, seed=seed)
    return probe.add_endpoint("probe").locate_peers(guid.key)


class TestDataStorage:
    def test_store_reaches_quorum(self):
        cluster = StorageCluster(node_count=12, replication_factor=4, seed=7)
        endpoint = cluster.add_endpoint("client")
        operation = endpoint.store_block(DataBlock(b"payload"))
        assert cluster.run_until(lambda: operation.done)
        assert operation.success
        assert len(operation.acked) >= 3  # r - f

    def test_store_replicates_to_responsible_nodes(self):
        cluster = StorageCluster(node_count=12, replication_factor=4, seed=7)
        endpoint = cluster.add_endpoint("client")
        block = DataBlock(b"payload")
        operation = endpoint.store_block(block)
        cluster.run_until(lambda: operation.done)
        cluster.run(50)
        holders = [
            node_id
            for node_id, node in cluster.nodes.items()
            if block.pid.hex in node.blocks
        ]
        assert set(holders) == set(operation.replicas)

    def test_retrieve_verifies_hash(self):
        cluster = StorageCluster(node_count=12, replication_factor=4, seed=7)
        endpoint = cluster.add_endpoint("client")
        block = DataBlock(b"payload")
        store = endpoint.store_block(block)
        cluster.run_until(lambda: store.done)
        retrieve = endpoint.retrieve_block(block.pid)
        cluster.run_until(lambda: retrieve.done)
        assert retrieve.success
        assert retrieve.block.data == b"payload"

    def test_retrieve_missing_block_fails_cleanly(self):
        cluster = StorageCluster(node_count=12, replication_factor=4, seed=7)
        endpoint = cluster.add_endpoint("client")
        retrieve = endpoint.retrieve_block(DataBlock(b"never stored").pid)
        assert cluster.run_until(lambda: retrieve.done)
        assert not retrieve.success

    def test_corrupt_replica_detected_and_skipped(self):
        block = DataBlock(b"precious")
        replicas = peer_set_for_block = None
        probe = StorageCluster(node_count=12, replication_factor=4, seed=13)
        replicas = probe.add_endpoint("probe").locate_peers(block.pid.key)
        cluster = StorageCluster(
            node_count=12,
            replication_factor=4,
            seed=13,
            fault_plans={replicas[0]: FaultPlan.corrupt()},
        )
        endpoint = cluster.add_endpoint("client", server_order=ServerOrder.FIXED)
        store = endpoint.store_block(block)
        cluster.run_until(lambda: store.done)
        retrieve = endpoint.retrieve_block(block.pid)
        cluster.run_until(lambda: retrieve.done)
        assert retrieve.success  # fell through to an honest replica
        assert replicas[0] in retrieve.rejected

    def test_silent_replicas_time_out_store_still_succeeds(self):
        block = DataBlock(b"data")
        probe = StorageCluster(node_count=12, replication_factor=4, seed=5)
        replicas = probe.add_endpoint("probe").locate_peers(block.pid.key)
        cluster = StorageCluster(
            node_count=12,
            replication_factor=4,
            seed=5,
            fault_plans={replicas[0]: FaultPlan.silent()},
        )
        endpoint = cluster.add_endpoint("client")
        store = endpoint.store_block(block)
        assert cluster.run_until(lambda: store.done)
        assert store.success  # r - f acks do not need the silent node


class TestVersionHistory:
    @pytest.mark.parametrize("r", [4, 7])
    def test_append_and_agreement(self, r):
        cluster = StorageCluster(node_count=3 * r, replication_factor=r, seed=7)
        endpoint = cluster.add_endpoint("client")
        guid = GUID.for_name("file")
        append = endpoint.append_version(guid, DataBlock(b"v1").pid)
        assert cluster.run_until(lambda: append.done, timeout=2000)
        assert append.success
        assert append.attempts == 1  # a healthy peer set needs no retry
        cluster.run(100)
        assert cluster.histories_prefix_consistent(guid.hex)

    def test_sequential_appends_ordered(self):
        cluster = StorageCluster(node_count=12, replication_factor=4, seed=7)
        endpoint = cluster.add_endpoint("client")
        guid = GUID.for_name("file")
        pids = []
        for payload in (b"v1", b"v2", b"v3", b"v4", b"v5"):
            pid = DataBlock(payload).pid
            pids.append(pid.hex)
            append = endpoint.append_version(guid, pid)
            assert cluster.run_until(lambda: append.done, timeout=2000)
            assert append.success
        cluster.run(200)
        histories = cluster.histories(guid.hex)
        longest = max(histories.values(), key=len)
        assert [pid for _, pid in longest] == pids
        assert cluster.histories_prefix_consistent(guid.hex)

    def test_byzantine_member_cannot_corrupt_history(self):
        guid = GUID.for_name("contested")
        peers = peer_set_for(guid)
        cluster = StorageCluster(
            node_count=12,
            replication_factor=4,
            seed=3,
            fault_plans={peers[0]: FaultPlan.promiscuous()},
        )
        endpoint = cluster.add_endpoint("client")
        append = endpoint.append_version(guid, DataBlock(b"honest").pid)
        assert cluster.run_until(lambda: append.done, timeout=3000)
        assert append.success
        cluster.run(200)
        assert cluster.histories_prefix_consistent(guid.hex)

    def test_lying_member_outvoted_on_retrieval(self):
        guid = GUID.for_name("contested")
        peers = peer_set_for(guid)
        cluster = StorageCluster(
            node_count=12,
            replication_factor=4,
            seed=3,
            fault_plans={peers[0]: FaultPlan.liar()},
        )
        endpoint = cluster.add_endpoint("client")
        pid = DataBlock(b"honest").pid
        append = endpoint.append_version(guid, pid)
        cluster.run_until(lambda: append.done, timeout=3000)
        cluster.run(100)
        history = endpoint.get_history(guid)
        cluster.run_until(lambda: history.done)
        assert history.success
        assert [p for _, p in history.agreed] == [pid.hex]
        assert all(p != "f" * 40 for _, p in history.agreed)

    def test_silent_member_tolerated(self):
        guid = GUID.for_name("contested")
        peers = peer_set_for(guid)
        cluster = StorageCluster(
            node_count=12,
            replication_factor=4,
            seed=3,
            fault_plans={peers[1]: FaultPlan.silent()},
        )
        endpoint = cluster.add_endpoint("client")
        append = endpoint.append_version(guid, DataBlock(b"x").pid)
        assert cluster.run_until(lambda: append.done, timeout=3000)
        assert append.success
        cluster.run(100)
        assert cluster.histories_prefix_consistent(guid.hex)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_contention_converges(self, seed):
        """Two racing clients: both eventually commit, one global order."""
        guid = GUID.for_name("race")
        cluster = StorageCluster(
            node_count=12, replication_factor=4, seed=seed, abandon_timeout=20.0
        )
        a = cluster.add_endpoint("alice")
        b = cluster.add_endpoint("bob")
        op_a = a.append_version(guid, DataBlock(b"a").pid)
        op_b = b.append_version(guid, DataBlock(b"b").pid)
        assert cluster.run_until(lambda: op_a.done and op_b.done, timeout=10_000)
        assert op_a.success and op_b.success
        cluster.run(300)
        assert cluster.histories_prefix_consistent(guid.hex)

    def test_crashed_member_stalls_then_retry_succeeds(self):
        guid = GUID.for_name("fragile")
        peers = peer_set_for(guid)
        cluster = StorageCluster(
            node_count=12,
            replication_factor=4,
            seed=11,
            fault_plans={peers[0]: FaultPlan(crash_at=0.5)},
        )
        endpoint = cluster.add_endpoint("client")
        append = endpoint.append_version(guid, DataBlock(b"x").pid)
        assert cluster.run_until(lambda: append.done, timeout=5000)
        assert append.success  # 3 of 4 members suffice (2f+1 votes, f+1 commits)
        cluster.run(100)
        assert cluster.histories_prefix_consistent(guid.hex)


class TestHistoryAgreement:
    def test_quorum_prefix(self):
        responses = [
            [("u1", "a"), ("u2", "b")],
            [("u1", "a"), ("u2", "b")],
            [("u1", "a")],
            [("forged", "f")],
        ]
        assert agree_on_history(responses, quorum=2) == [("u1", "a"), ("u2", "b")]

    def test_no_agreement_yields_empty(self):
        responses = [[("u1", "a")], [("u2", "b")]]
        assert agree_on_history(responses, quorum=2) == []

    def test_forged_entry_cannot_reach_quorum_alone(self):
        responses = [[("forged", "f")], [("u1", "a")], [("u1", "a")]]
        assert agree_on_history(responses, quorum=2) == [("u1", "a")]


class TestRetryPolicies:
    def test_fixed_backoff(self):
        import random

        policy = FixedBackoff(interval=7.0)
        assert policy.delay(1, random.Random(0)) == 7.0
        assert policy.delay(5, random.Random(0)) == 7.0

    def test_random_backoff_in_bounds(self):
        import random

        policy = RandomBackoff(low=2.0, high=4.0)
        rng = random.Random(0)
        assert all(2.0 <= policy.delay(i, rng) <= 4.0 for i in range(1, 10))

    def test_exponential_backoff_grows_and_caps(self):
        import random

        policy = ExponentialBackoff(base=1.0, factor=2.0, cap=8.0, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay(attempt, rng) for attempt in range(1, 7)]
        assert delays == [1.0, 2.0, 4.0, 8.0, 8.0, 8.0]
