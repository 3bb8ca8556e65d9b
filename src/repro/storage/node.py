"""A storage node: data storage replica + version-history peer (paper §2).

Each :class:`StorageNode` participates in both distributed services of the
generic storage layer:

* **data storage** (§2.1): it stores immutable blocks for the PIDs whose
  replica keys it is responsible for, acknowledges stores, and serves
  retrievals (which clients verify against the PID's hash);
* **version history** (§2.2): for each GUID whose peer set it belongs to,
  it runs the Byzantine-fault-tolerant commit protocol through *generated*
  FSM instances (one per ongoing update) via
  :class:`~repro.storage.version_history.GuidCommitEngine`.

Byzantine behaviours from :mod:`repro.storage.faults` are implemented here,
at the boundary between network and protocol, so the protocol engines stay
clean: a silent node drops protocol traffic, a promiscuous voter bypasses
its FSM and votes for everything, a data corrupter flips bytes on the way
out, and a history liar fabricates retrieval responses.
"""

from __future__ import annotations

from typing import Optional

from repro.models.commit import CommitModel
from repro.storage.blocks import DataBlock
from repro.storage.faults import ByzantineBehaviour, FaultPlan
from repro.storage.sim.network import Message, Network
from repro.storage.sim.node import SimNode
from repro.storage.version_history import GuidCommitEngine, VersionRecord

#: How long an update instance may sit idle before the member abandons it.
DEFAULT_ABANDON_TIMEOUT = 30.0
#: How often members sweep for stalled instances.
ABANDON_SWEEP_INTERVAL = 10.0

#: Commit-protocol message kinds, as the model's wiring declares them.
_PROTOCOL_KINDS = CommitModel.wiring.wire_messages


class StorageNode(SimNode):
    """A peer-set member of the simulated ASA storage layer."""

    def __init__(
        self,
        node_id: str,
        network: Network,
        replication_factor: int,
        fault_plan: Optional[FaultPlan] = None,
        abandon_timeout: float = DEFAULT_ABANDON_TIMEOUT,
    ):
        super().__init__(node_id, network)
        self._r = replication_factor
        self._fault_plan = fault_plan or FaultPlan.correct()
        self._abandon_timeout = abandon_timeout

        #: pid hex -> stored block.
        self.blocks: dict[str, DataBlock] = {}
        #: guid hex -> commit engine.
        self._engines: dict[str, GuidCommitEngine] = {}
        #: guid hex -> peer set (learned from incoming messages).
        self._peer_sets: dict[str, list[str]] = {}
        #: guid hex -> update_id -> requesting client node id.
        self._update_clients: dict[str, dict[str, str]] = {}
        #: updates this (promiscuous) node already echoed.
        self._echoed: set[tuple[str, str]] = set()

        if self._fault_plan.crash_at is not None:
            self.sim.schedule(self._fault_plan.crash_at, self.crash)
        self.set_timer(ABANDON_SWEEP_INTERVAL, self._sweep_stalled)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def fault_plan(self) -> FaultPlan:
        """This node's configured faults."""
        return self._fault_plan

    @property
    def is_byzantine(self) -> bool:
        """Whether the node misbehaves while alive."""
        return self._fault_plan.is_byzantine

    def engine(self, guid_hex: str) -> Optional[GuidCommitEngine]:
        """The commit engine for a GUID, if this node has seen it."""
        return self._engines.get(guid_hex)

    def history(self, guid_hex: str) -> list[VersionRecord]:
        """This member's committed history for a GUID."""
        engine = self._engines.get(guid_hex)
        return list(engine.history) if engine else []

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        kind = message.kind
        if kind == "store_block":
            self._on_store_block(message)
        elif kind == "get_block":
            self._on_get_block(message)
        elif kind in _PROTOCOL_KINDS:
            self._on_protocol(message)
        elif kind == "get_history":
            self._on_get_history(message)
        elif kind == "replica_probe":
            self._on_replica_probe(message)
        elif kind == "replicate_to":
            self._on_replicate_to(message)

    # ------------------------------------------------------------------
    # data storage service (paper §2.1)
    # ------------------------------------------------------------------

    def _on_store_block(self, message: Message) -> None:
        if self._fault_plan.behaviour is ByzantineBehaviour.SILENT:
            return
        data: bytes = message.payload["data"]
        block = DataBlock(data)
        self.blocks[block.pid.hex] = block
        self.send(
            message.source,
            "store_ack",
            pid=block.pid.hex,
            request_id=message.payload["request_id"],
        )

    def _on_get_block(self, message: Message) -> None:
        if self._fault_plan.behaviour is ByzantineBehaviour.SILENT:
            return
        pid_hex: str = message.payload["pid"]
        block = self.blocks.get(pid_hex)
        data: Optional[bytes] = block.data if block is not None else None
        corrupting = self._fault_plan.behaviour is ByzantineBehaviour.CORRUPT_DATA
        if data is not None and corrupting:
            data = _corrupt(data)
        self.send(
            message.source,
            "block_data",
            pid=pid_hex,
            data=data,
            request_id=message.payload["request_id"],
        )

    def _on_replica_probe(self, message: Message) -> None:
        """Maintenance cross-check: report the digest of a stored block."""
        if self._fault_plan.behaviour is ByzantineBehaviour.SILENT:
            return
        pid_hex: str = message.payload["pid"]
        block = self.blocks.get(pid_hex)
        digest = None
        if block is not None:
            data = block.data
            if self._fault_plan.behaviour is ByzantineBehaviour.CORRUPT_DATA:
                data = _corrupt(data)
            digest = DataBlock(data).pid.hex
        self.send(
            message.source,
            "replica_probe_ack",
            pid=pid_hex,
            digest=digest,
            request_id=message.payload["request_id"],
        )

    def _on_replicate_to(self, message: Message) -> None:
        """Maintenance asked this node to push a replica to another node."""
        pid_hex: str = message.payload["pid"]
        target: str = message.payload["target"]
        block = self.blocks.get(pid_hex)
        if block is None:
            return
        self.send(
            target, "store_block", data=block.data, request_id=f"repair:{pid_hex}"
        )

    # ------------------------------------------------------------------
    # version history service (paper §2.2)
    # ------------------------------------------------------------------

    def _on_protocol(self, message: Message) -> None:
        behaviour = self._fault_plan.behaviour
        if behaviour is ByzantineBehaviour.SILENT:
            return
        guid_hex: str = message.payload["guid"]
        update_id: str = message.payload["update_id"]
        pid_hex: Optional[str] = message.payload.get("pid")
        peers: Optional[list[str]] = message.payload.get("peers")
        if peers:
            self._peer_sets[guid_hex] = list(peers)
        if message.kind == "update":
            self._update_clients.setdefault(guid_hex, {})[update_id] = message.source

        if behaviour is ByzantineBehaviour.PROMISCUOUS_VOTER:
            # Byzantine: skip the FSM entirely, endorse everything once.
            if (guid_hex, update_id) not in self._echoed:
                self._echoed.add((guid_hex, update_id))
                self._broadcast_protocol(guid_hex, "vote", update_id, pid_hex)
                self._broadcast_protocol(guid_hex, "commit", update_id, pid_hex)
            return

        engine = self._engine_for(guid_hex)
        engine.handle(message.kind, update_id, pid_hex)

    def _engine_for(self, guid_hex: str) -> GuidCommitEngine:
        engine = self._engines.get(guid_hex)
        if engine is None:
            engine = GuidCommitEngine(
                self._r,
                send=lambda kind, update_id, g=guid_hex: self._broadcast_protocol(
                    g, kind, update_id, self._pid_for(g, update_id)
                ),
                now=lambda: self.sim.now,
                on_commit=lambda record, g=guid_hex: self._on_committed(g, record),
            )
            self._engines[guid_hex] = engine
        return engine

    def _pid_for(self, guid_hex: str, update_id: str) -> Optional[str]:
        engine = self._engines.get(guid_hex)
        if engine is None:
            return None
        instance = engine.instance(update_id)
        return instance.pid_hex if instance else None

    def _broadcast_protocol(
        self, guid_hex: str, kind: str, update_id: str, pid_hex: Optional[str]
    ) -> None:
        peers = self._peer_sets.get(guid_hex, [])
        self.broadcast(
            peers,
            kind,
            guid=guid_hex,
            update_id=update_id,
            pid=pid_hex,
            peers=peers,
        )

    def _on_committed(self, guid_hex: str, record: VersionRecord) -> None:
        """An update reached the finish state: notify the requesting client."""
        client = self._update_clients.get(guid_hex, {}).get(record.update_id)
        if client is not None:
            self.send(
                client,
                "committed",
                guid=guid_hex,
                update_id=record.update_id,
                pid=record.pid_hex,
            )

    def _on_get_history(self, message: Message) -> None:
        behaviour = self._fault_plan.behaviour
        if behaviour is ByzantineBehaviour.SILENT:
            return
        guid_hex: str = message.payload["guid"]
        history = [record.as_tuple() for record in self.history(guid_hex)]
        if behaviour is ByzantineBehaviour.LIE_HISTORY:
            history = [("forged-update", "f" * 40)]
        self.send(
            message.source,
            "history",
            guid=guid_hex,
            history=history,
            request_id=message.payload["request_id"],
        )

    # ------------------------------------------------------------------
    # background sweeping
    # ------------------------------------------------------------------

    def _sweep_stalled(self) -> None:
        for engine in self._engines.values():
            engine.abandon_stalled(self._abandon_timeout)
        self.set_timer(ABANDON_SWEEP_INTERVAL, self._sweep_stalled)


def _corrupt(data: bytes) -> bytes:
    """Flip the first byte (detected by hash verification)."""
    if not data:
        return b"\xff"
    return bytes([data[0] ^ 0xFF]) + data[1:]
