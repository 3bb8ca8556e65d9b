"""A Chandra–Toueg-style coordinator round as a generated FSM family.

Paper §5.2 identifies the Chandra–Toueg consensus algorithm [15] as a prime
candidate for the methodology: "the state held at each node and the
messages themselves are relatively simple and amenable to being processed
by a FSM".  This model generates the coordinator's FSM for one round of a
CT-style protocol: the coordinator gathers estimates from the ``n``
participants, broadcasts its chosen estimate once a majority has reported,
counts positive acknowledgements, and decides when a majority acks —
aborting the round instead if a suspicion message arrives first.

State components (parameter ``processes`` = ``n``):

* ``estimates_received`` — estimates gathered this round (0..n-1);
* ``estimate_sent`` — whether the coordinator broadcast its estimate;
* ``acks_received`` — positive acknowledgements (0..n-1);
* ``decided`` — a decision was broadcast (terminal);
* ``aborted`` — the round was aborted after a suspicion (terminal).

Messages: ``estimate``, ``ack``, ``suspect``.

The majority threshold is ``floor(n/2) + 1``; the coordinator's own
estimate and ack are counted implicitly (it participates like any process),
so broadcast happens after ``majority - 1`` external estimates and decision
after ``majority - 1`` external acks.
"""

from __future__ import annotations

from repro.core.components import BooleanComponent, IntComponent
from repro.core.errors import ModelDefinitionError
from repro.core.model import AbstractModel, StateView, TransitionBuilder
from repro.core.wiring import Wiring

MESSAGES = ("estimate", "ack", "suspect")


def majority(processes: int) -> int:
    """Smallest majority of ``processes``: ``floor(n/2) + 1``."""
    return processes // 2 + 1


class CoordinatorRoundModel(AbstractModel):
    """FSM family for one coordinator round of CT-style consensus."""

    #: Each member coordinates its own round over the same process set: its
    #: broadcast ``estimate`` reaches the peers as the ``ack`` they answer
    #: with; ``suspect`` is the failure detector (a round stuck for 200
    #: units aborts), and two client ``estimate`` s reach n=5's majority.
    wiring = Wiring(
        peers=(("estimate", "ack", 1.0),),
        timer=("suspect", 200.0),
        client=("estimate", "estimate"),
    )

    def __init__(self, processes: int):
        if processes < 3:
            raise ModelDefinitionError(
                f"consensus needs at least 3 processes, got {processes}"
            )
        super().__init__(processes=processes)
        self._n = processes

    def configure(self, *, processes: int):
        components = [
            IntComponent("estimates_received", processes - 1),
            BooleanComponent("estimate_sent"),
            IntComponent("acks_received", processes - 1),
            BooleanComponent("decided"),
            BooleanComponent("aborted"),
        ]
        return components, MESSAGES

    @property
    def processes(self) -> int:
        """Number of participating processes (``n``)."""
        return self._n

    @property
    def external_majority(self) -> int:
        """External messages needed for a majority, counting the coordinator."""
        return majority(self._n) - 1

    def machine_name(self) -> str:
        return f"ct-round[n={self._n}]"

    def is_final(self, view: StateView) -> bool:
        return view["decided"] or view["aborted"]

    def generate_transition(self, message: str, b: TransitionBuilder) -> None:
        if message == "estimate":
            self._on_estimate(b)
        elif message == "ack":
            self._on_ack(b)
        elif message == "suspect":
            self._on_suspect(b)

    def _on_estimate(self, b: TransitionBuilder) -> None:
        """A participant reports its current estimate."""
        b.increment("estimates_received", because="Gathered one more estimate.")
        if (
            not b["estimate_sent"]
            and b["estimates_received"] >= self.external_majority
        ):
            b.send(
                "estimate",
                because=(
                    "Majority of estimates gathered: broadcast the chosen estimate."
                ),
            )
            b.set("estimate_sent", True)

    def _on_ack(self, b: TransitionBuilder) -> None:
        """A participant acknowledges the broadcast estimate."""
        if not b["estimate_sent"]:
            b.invalid("ack before the estimate was broadcast")
        b.increment("acks_received", because="A participant acknowledged.")
        if b["acks_received"] >= self.external_majority:
            b.send("decide", because="Majority acknowledged: broadcast decision.")
            b.set("decided", True)

    def _on_suspect(self, b: TransitionBuilder) -> None:
        """The failure detector suspects the coordinator: abort the round."""
        b.send("abort", because="Coordinator suspected: abort the round.")
        b.set("aborted", True)
