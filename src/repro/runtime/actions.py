"""Action bindings for generated machine classes.

The source renderer emits calls to ``send_<action>()`` methods and leaves
their implementation to a separate class the generated class inherits from
(paper §5.1: "The rendering code is parameterised with a class defining
appropriate action methods").  This module provides generic, algorithm-
independent bases:

* :class:`RecordingActions` — records performed actions in order (used by
  tests, the interpreter-vs-compiled differential harness and benchmarks);
* :class:`CallbackActions` — forwards each action to a callable (used by
  the storage substrate to turn actions into simulated network sends).

A generated class names the action methods it calls in ``ACTION_METHODS``;
both bases define those as plain methods when the class is created.  Any
other ``send_*`` name is synthesised on demand, so the bases work for every
abstract model without per-algorithm code.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Optional

#: Prefix of generated action methods (mirrors repro.render.source).
_ACTION_PREFIX = "send_"


class _SendMethods:
    """``send_<action>`` methods: declared ones installed, others on demand."""

    @staticmethod
    def _action_method(action: str) -> Callable[..., None]:
        """The function ``send_<action>`` is bound to."""
        raise NotImplementedError

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name in cls.__dict__.get("ACTION_METHODS", ()):
            # A method the class or a hand-written base defines wins.
            if not hasattr(cls, name):
                action = name.removeprefix(_ACTION_PREFIX)
                setattr(cls, name, cls._action_method(action))

    def __getattr__(self, name: str):
        if name.startswith(_ACTION_PREFIX):
            action = name.removeprefix(_ACTION_PREFIX)
            return self._action_method(action).__get__(self)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )


class RecordingActions(_SendMethods):
    """Base class recording every performed action name, in order.

    The generated machine calls ``self.send_vote()``; this base records
    ``"vote"`` into :attr:`sent` and optionally forwards to a sink callable.
    """

    def __init__(self, sink: Optional[Callable[[str], None]] = None):
        self.sent: list[str] = []
        self._sink = sink

    @staticmethod
    def _action_method(action: str) -> Callable[..., None]:
        def send(self) -> None:
            self.sent.append(action)
            if self._sink is not None:
                self._sink(action)

        return send

    def clear_sent(self) -> None:
        """Forget recorded actions (keeps the machine state untouched)."""
        self.sent.clear()


class CallbackActions(_SendMethods):
    """Base class forwarding every action to a single callback.

    Unlike :class:`RecordingActions` it keeps no history, making it suitable
    for long-running deployments where the surrounding system (e.g. the
    simulated peer-set member in :mod:`repro.storage.peer`) reacts to each
    action as it happens.
    """

    def __init__(self, callback: Callable[[str], None]):
        self._callback = callback

    @staticmethod
    def _action_method(action: str) -> Callable[..., None]:
        def send(self) -> None:
            self._callback(action)

        return send
