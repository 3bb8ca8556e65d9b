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

``ACTION_METHODS`` is the whole contract: a class names the action methods
it calls there (every generated class does) and both bases define exactly
those, as plain methods, when the class is created — so the bases work for
every abstract model without per-algorithm code.  A name nobody declared
or defined is an ordinary ``AttributeError``: neither base intercepts
attribute lookup, because on CPython a lookup hook anywhere in the MRO
takes every instance of every generated class off the specialised
attribute path (docs/architecture.md, "The action contract").
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Optional

#: Prefix of generated action methods (mirrors repro.render.source).
_ACTION_PREFIX = "send_"


class _SendMethods:
    """Defines the ``send_<action>`` methods a subclass declares."""

    @staticmethod
    def _action_method(action: str) -> Callable[..., None]:
        """The function ``send_<action>`` is bound to."""
        raise NotImplementedError

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        declared = cls.__dict__.get("ACTION_METHODS", ())
        # ("send_vote") is a str: iterating it would install s, e, n, d, ...
        if isinstance(declared, (str, bytes)):
            raise TypeError(
                f"{cls.__qualname__}.ACTION_METHODS must be a tuple of method "
                f"names, not {declared!r} (missing comma?)"
            )
        for name in declared:
            if not (
                isinstance(name, str)
                and name.isidentifier()
                and name.startswith(_ACTION_PREFIX)
            ):
                raise TypeError(
                    f"{cls.__qualname__}.ACTION_METHODS holds {name!r}, which is "
                    f"not a {_ACTION_PREFIX}<action> method name"
                )
            # A method the class or a hand-written base defines wins.
            if hasattr(cls, name):
                continue
            method = cls._action_method(name.removeprefix(_ACTION_PREFIX))
            qualname = f"{cls.__qualname__}.{name}"
            method.__name__, method.__qualname__ = name, qualname
            # Tracebacks and profiles read the code object's names.
            method.__code__ = method.__code__.replace(
                co_name=name, co_qualname=qualname
            )
            setattr(cls, name, method)


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
