"""Simulated ASA distributed storage substrate (paper §2).

Layered as in the paper's Fig 1: a discrete-event simulation kernel
(:mod:`repro.storage.sim`) carries a Chord-style key-based routing layer
(:mod:`repro.storage.p2p`), on which the generic storage layer provides the
data storage service (PID → immutable block, §2.1) and the version history
service (GUID → PID sequence, §2.2) whose commit protocol runs *generated*
FSM instances.  :class:`~repro.storage.cluster.StorageCluster` assembles a
complete deployment.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.storage.blocks import GUID, PID, DataBlock
    from repro.storage.cluster import StorageCluster
    from repro.storage.endpoint import (
        AppendOperation,
        ExponentialBackoff,
        FixedBackoff,
        HistoryOperation,
        RandomBackoff,
        RetrieveOperation,
        RetryPolicy,
        ServerOrder,
        ServiceEndpoint,
        StoreOperation,
        agree_on_history,
    )
    from repro.storage.faults import ByzantineBehaviour, FaultPlan
    from repro.storage.filesystem import (
        DistributedFileSystem,
        FileSystemError,
        FileVersion,
    )
    from repro.storage.maintenance import MaintenanceStats, ReplicaMaintainer
    from repro.storage.node import StorageNode
    from repro.storage.version_history import (
        GuidCommitEngine,
        UpdateInstance,
        VersionRecord,
        commit_machine_for,
    )

__all__ = [
    "AppendOperation",
    "ByzantineBehaviour",
    "DataBlock",
    "DistributedFileSystem",
    "FileSystemError",
    "FileVersion",
    "ExponentialBackoff",
    "FaultPlan",
    "FixedBackoff",
    "GUID",
    "GuidCommitEngine",
    "HistoryOperation",
    "MaintenanceStats",
    "PID",
    "RandomBackoff",
    "ReplicaMaintainer",
    "RetrieveOperation",
    "RetryPolicy",
    "ServerOrder",
    "ServiceEndpoint",
    "StorageCluster",
    "StorageNode",
    "StoreOperation",
    "UpdateInstance",
    "VersionRecord",
    "agree_on_history",
    "commit_machine_for",
]

# Resolved on first use (see repro._lazy): the scenario plane's event
# kernel loads without the storage substrate around it.
_EXPORTS = {
    "repro.storage.blocks": ("GUID", "PID", "DataBlock"),
    "repro.storage.cluster": ("StorageCluster",),
    "repro.storage.endpoint": (
        "AppendOperation",
        "ExponentialBackoff",
        "FixedBackoff",
        "HistoryOperation",
        "RandomBackoff",
        "RetrieveOperation",
        "RetryPolicy",
        "ServerOrder",
        "ServiceEndpoint",
        "StoreOperation",
        "agree_on_history",
    ),
    "repro.storage.faults": ("ByzantineBehaviour", "FaultPlan"),
    "repro.storage.filesystem": (
        "DistributedFileSystem",
        "FileSystemError",
        "FileVersion",
    ),
    "repro.storage.maintenance": ("MaintenanceStats", "ReplicaMaintainer"),
    "repro.storage.node": ("StorageNode",),
    "repro.storage.version_history": (
        "GuidCommitEngine",
        "UpdateInstance",
        "VersionRecord",
        "commit_machine_for",
    ),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
