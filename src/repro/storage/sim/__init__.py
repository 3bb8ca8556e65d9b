"""Discrete-event simulation substrate for the storage system."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.storage.sim.kernel import Simulator, Timer
    from repro.storage.sim.network import (
        ExponentialLatency,
        FixedLatency,
        LatencyModel,
        Message,
        Network,
        NetworkStats,
        UniformLatency,
    )
    from repro.storage.sim.node import SimNode

__all__ = [
    "ExponentialLatency",
    "FixedLatency",
    "LatencyModel",
    "Message",
    "Network",
    "NetworkStats",
    "SimNode",
    "Simulator",
    "Timer",
    "UniformLatency",
]

# Resolved on first use (see repro._lazy): importing the kernel does
# not load the network model.
_EXPORTS = {
    "repro.storage.sim.kernel": ("Simulator", "Timer"),
    "repro.storage.sim.network": (
        "ExponentialLatency",
        "FixedLatency",
        "LatencyModel",
        "Message",
        "Network",
        "NetworkStats",
        "UniformLatency",
    ),
    "repro.storage.sim.node": ("SimNode",),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
