"""A sessioned connection protocol, authored hierarchically.

The canonical "structure-first" design the flattening literature uses to
motivate hierarchy: a connection lifecycle with a nested retry region
around connection establishment, a nested authentication region inside
the connected super-state, and root-level escape transitions
(``disconnect`` / ``fatal``) inherited by every state of the protocol::

    session
    ├── Disconnected                    (initial)
    ├── Connecting        [retry region; entry ->start_timer, exit ->stop_timer]
    │   ├── SynSent                     (initial)
    │   └── AwaitRetry
    ├── Connected         [entry ->start_keepalive, exit ->stop_keepalive]
    │   ├── Auth          [auth region; entry ->begin_auth]
    │   │   ├── AwaitChallenge          (initial)
    │   │   └── AwaitVerdict
    │   ├── Active        [entry ->session_ready]
    │   │   ├── Idle                    (initial)
    │   │   └── Busy
    │   └── Suspended
    ├── Maintenance                     (deliberately unreachable)
    └── Closed                          (final)

The ``Maintenance`` leaf is targeted by nothing: flattening writes its
row and step 3 drops it, so the bundled model exercises the pruning.
"""

from __future__ import annotations

from repro.core.hsm import HierarchicalModel

#: Message alphabet of the session protocol, in declaration order.
SESSION_MESSAGES = (
    "connect",
    "syn_ack",
    "timeout",
    "refused",
    "resume",
    "challenge",
    "proof_ok",
    "proof_bad",
    "auth_retry",
    "request",
    "done",
    "ping",
    "pause",
    "disconnect",
    "fatal",
)


def build_session_hsm() -> HierarchicalModel:
    """The sessioned connection protocol as a :class:`HierarchicalModel`."""
    model = HierarchicalModel("session", messages=SESSION_MESSAGES)
    root = model.root
    # Escape hatches, inherited by every state of the protocol.
    root.on("disconnect", "Disconnected", actions=("->teardown",))
    root.on("fatal", "Closed", actions=("->log_fatal",))

    root.leaf(
        "Disconnected",
        initial=True,
        annotations=("No connection; all session context torn down.",),
    ).on("connect", "Connecting", actions=("->open_socket",))

    connecting = root.composite(
        "Connecting",
        entry=("->start_timer",),
        exit=("->stop_timer",),
        annotations=("Connection establishment with a retry region.",),
    )
    # Inherited by both establishment leaves: a timeout moves to the
    # backoff leaf, a refusal abandons the attempt entirely.
    connecting.on("timeout", "AwaitRetry", actions=("->backoff",))
    connecting.on("refused", "Disconnected", actions=("->give_up",))
    connecting.leaf("SynSent", initial=True).on(
        "syn_ack", "Connected", actions=("->established",)
    )
    # Retrying re-enters the whole region: Connecting's exit and entry
    # actions (timer stop/start) run again — the external-transition
    # semantics the flattening pipeline must preserve.
    connecting.leaf("AwaitRetry").on("resume", "Connecting", actions=("->retry",))

    connected = root.composite(
        "Connected",
        entry=("->start_keepalive",),
        exit=("->stop_keepalive",),
        annotations=("Established connection: authenticate, then serve.",),
    )
    auth = connected.composite("Auth", initial=True, entry=("->begin_auth",))
    auth.on("auth_retry", "Auth", actions=("->restart_auth",))
    auth.leaf("AwaitChallenge", initial=True).on(
        "challenge", "AwaitVerdict", actions=("->send_proof",)
    )
    verdict = auth.leaf("AwaitVerdict")
    verdict.on("proof_ok", "Active", actions=("->auth_ok",))
    verdict.on("proof_bad", "Disconnected", actions=("->log_auth_failure",))

    active = connected.composite("Active", entry=("->session_ready",))
    active.on("pause", "Suspended", actions=("->save_context",))
    idle = active.leaf("Idle", initial=True)
    idle.on("request", "Busy", actions=("->serve",))
    idle.on("ping", "Idle", actions=("->pong",))
    active.leaf("Busy").on("done", "Idle", actions=("->respond",))

    connected.leaf("Suspended").on("resume", "Active", actions=("->restore_context",))

    # Deliberately unreachable: nothing targets Maintenance, so
    # flattening prunes it.
    root.leaf(
        "Maintenance",
        annotations=("Operator-only state, not reachable from the protocol.",),
    ).on("resume", "Disconnected")

    root.leaf(
        "Closed",
        final=True,
        annotations=("Fatal error: the session can never be reused.",),
    )
    model.set_finish("Closed")
    model.validate()
    return model
