"""Chord-style peer-to-peer key-based routing layer (paper §2, [5,6])."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.storage.p2p.keys import (
        KEY_BITS,
        KEY_SPACE,
        distance,
        format_key,
        in_interval,
        key_for_bytes,
        key_for_string,
        parse_key,
        replica_keys,
    )
    from repro.storage.p2p.ring import ChordRing
    from repro.storage.p2p.routing import FingerTable, RouteResult, Router

__all__ = [
    "KEY_BITS",
    "KEY_SPACE",
    "ChordRing",
    "FingerTable",
    "RouteResult",
    "Router",
    "distance",
    "format_key",
    "in_interval",
    "key_for_bytes",
    "key_for_string",
    "parse_key",
    "replica_keys",
]

# Resolved on first use (see repro._lazy).
_EXPORTS = {
    "repro.storage.p2p.keys": (
        "KEY_BITS",
        "KEY_SPACE",
        "distance",
        "format_key",
        "in_interval",
        "key_for_bytes",
        "key_for_string",
        "parse_key",
        "replica_keys",
    ),
    "repro.storage.p2p.ring": ("ChordRing",),
    "repro.storage.p2p.routing": ("FingerTable", "RouteResult", "Router"),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
