"""The generic abstract model: the heart of the generative approach.

An :class:`AbstractModel` captures the structure common to a whole family of
finite state machines (paper §3.3–3.4).  Executing it with concrete
parameter values generates one family member as a
:class:`~repro.core.machine.StateMachine`:

1. generate all possible states from the component ranges,
2. for each state, generate the transitions resulting from each message,
3. prune states unreachable from the start state,
4. combine equivalent states.

Subclasses supply the problem-specific parts: the component/message
declaration (:meth:`AbstractModel.configure`, mirroring the paper's
Fig 20 ``initAbstractModel``) and the per-message transition logic
(:meth:`AbstractModel.generate_transition`, mirroring Fig 10's
``generateTransitionOnVote``).  Everything else — enumeration, pruning,
merging, rendering — is inherited, so "it is possible to apply the
methodology to new algorithms without writing any new generative code"
(paper §5.1).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, Optional

from repro.core.components import StateComponent, StateSpace
from repro.core.errors import InvalidStateError, ModelDefinitionError
from repro.core.machine import StateMachine


class StateView:
    """Read-only view of a state vector with access by component name.

    Passed to model hooks (:meth:`AbstractModel.is_final`,
    :meth:`AbstractModel.describe_state`) so they can inspect component
    values without knowing vector positions.
    """

    __slots__ = ("_space", "_vector")

    def __init__(self, space: StateSpace, vector: tuple):
        self._space = space
        self._vector = vector

    @property
    def space(self) -> StateSpace:
        """The state space the vector belongs to."""
        return self._space

    @property
    def vector(self) -> tuple:
        """The underlying immutable state vector."""
        return self._vector

    @property
    def name(self) -> str:
        """Encoded state name (``T/2/F/0/F/F/F`` style)."""
        return self._space.vector_name(self._vector)

    def get(self, component: str) -> Any:
        """Value of the named component."""
        try:
            return self._vector[self._space._index[component]]
        except KeyError:  # index_of raises the ComponentError naming it
            return self._vector[self._space.index_of(component)]

    __getitem__ = get

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateView({self.name})"


class Describer:
    """A model's Fig 14 commentary on one state vector, as a tuple of lines.

    A generated IR carries one instead of the prose
    (:attr:`~repro.opt.indexed.IndexedMachine.describe`): it pickles with
    its model, and :meth:`AbstractModel.describe_state` runs only when a
    machine's ``State`` objects are built.  Two describers are equal when
    their models are of one class with equal parameters, which is what
    names a generated machine (:meth:`AbstractModel.machine_name`).
    """

    __slots__ = ("model",)

    def __init__(self, model: AbstractModel):
        self.model = model

    def __call__(self, vector: tuple) -> tuple[str, ...]:
        model = self.model
        return tuple(model.describe_state(StateView(model.space, vector)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Describer):
            return NotImplemented
        mine, theirs = self.model, other.model
        return type(mine) is type(theirs) and mine.parameters == theirs.parameters


class TransitionBuilder(StateView):
    """Mutable elaboration of one transition's consequences (paper Fig 10).

    The paper's abstract model applies a series of ``targetOnX()`` utility
    methods to a state variable ``s1``, accumulating outgoing messages in an
    ``actions`` list and commentary in annotations.  This class plays the
    role of ``s1 + actions``: handlers call :meth:`set`, :meth:`increment`
    and :meth:`send` and the builder tracks the resulting state vector, the
    ordered action list, and the recorded annotations.

    Any attempt to move a component outside its legal range raises
    :class:`~repro.core.errors.InvalidStateError`, which the pipeline treats
    as "message not applicable in this state".
    """

    __slots__ = ("_source", "_actions", "_annotations")

    def __init__(self, space: StateSpace, vector: tuple):
        super().__init__(space, vector)
        self._source = vector
        self._actions: list[str] = []
        self._annotations: list[str] = []

    # ------------------------------------------------------------------
    # state updates
    # ------------------------------------------------------------------

    def set(self, component: str, value: Any, because: Optional[str] = None) -> None:
        """Assign ``value`` to a component; optionally record the rationale."""
        try:
            self._vector = self._space.replace(self._vector, component, value)
        except Exception as exc:
            raise InvalidStateError(
                f"cannot set {component}={value!r} in state "
                f"{self._space.vector_name(self._source)}: {exc}"
            ) from exc
        if because:
            self._annotations.append(because)

    def increment(self, component: str, because: Optional[str] = None) -> None:
        """Add one to a counter component.

        Raises :class:`InvalidStateError` when the counter is already at its
        maximum — e.g. a vote arriving when ``votes_received`` is ``r-1``.
        """
        self.set(component, self.get(component) + 1, because=because)

    def send(self, message: str, because: Optional[str] = None) -> None:
        """Record an outgoing message as a transition action (``->message``)."""
        self._actions.append(f"->{message}")
        if because:
            self._annotations.append(because)

    def act(self, action: str, because: Optional[str] = None) -> None:
        """Record an arbitrary non-message action string."""
        self._actions.append(action)
        if because:
            self._annotations.append(because)

    def annotate(self, *lines: str) -> None:
        """Record documentation lines without changing state or actions."""
        self._annotations.extend(lines)

    def invalid(self, reason: str) -> None:
        """Declare the message inapplicable in the source state."""
        raise InvalidStateError(reason)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    @property
    def source_vector(self) -> tuple:
        """The state vector the transition starts from."""
        return self._source

    @property
    def actions(self) -> tuple[str, ...]:
        """Ordered actions accumulated so far."""
        return tuple(self._actions)

    @property
    def recorded_annotations(self) -> tuple[str, ...]:
        """Annotation lines accumulated so far."""
        return tuple(self._annotations)

    @property
    def changed(self) -> bool:
        """Whether the state vector differs from the source vector."""
        return self._vector != self._source

    def is_effective(self) -> bool:
        """Whether this elaboration produced any observable effect.

        Transitions that neither change state nor perform actions are not
        recorded in the generated machine (the paper's Fig 14 lists no
        UPDATE row for a state that has already received its update).
        """
        return self.changed or bool(self._actions)


class AbstractModel:
    """Base class for problem-specific abstract models.

    Parameters are supplied at construction (e.g.
    ``CommitModel(replication_factor=4)``); :meth:`configure` maps them to
    the component and message declarations.  The paper's
    ``generateStateMachine(int replication_factor)`` corresponds to
    constructing a model and calling :meth:`generate_state_machine`.
    """

    def __init__(self, **parameters: Any):
        self._parameters = dict(parameters)
        declared = self.configure(**parameters)
        try:
            components, messages = declared
        except (TypeError, ValueError):
            raise ModelDefinitionError(
                "configure() must return (components, messages)"
            ) from None
        if not messages:
            raise ModelDefinitionError("a model must declare at least one message")
        self._space = StateSpace(list(components))
        self._messages = tuple(messages)

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------

    def configure(
        self, **parameters: Any
    ) -> tuple[Sequence[StateComponent], Sequence[str]]:
        """Declare state components and messages for the given parameters.

        Mirrors the paper's Fig 20 initialisation of the generic abstract
        model.  Must be overridden.
        """
        raise NotImplementedError

    def generate_transition(self, message: str, builder: TransitionBuilder) -> None:
        """Elaborate the effect of receiving ``message`` (paper Fig 10).

        Implementations mutate ``builder``; raising
        :class:`InvalidStateError` (or calling ``builder.invalid``) means
        the message is not applicable in the source state.  Must be
        overridden.

        The outcome must be a function of the component values read
        through ``builder`` (``builder[name]``, :meth:`~StateView.get`,
        :meth:`~TransitionBuilder.increment`), as the paper's handlers
        are: the engines run the handler once per distinct sequence of
        values it reads and reuse that outcome for every state that
        shares the sequence (:class:`Elaborator`).  ``vector``,
        ``source_vector``, ``name``, ``changed`` and ``is_effective()``
        count as reading every component, so a handler that uses them is
        run once per state.
        """
        raise NotImplementedError

    def is_final(self, view: StateView) -> bool:
        """Whether ``view`` is a terminal state (no outgoing transitions).

        Final states are where the algorithm has completed; the generation
        pipeline produces no transitions from them and step 4 merges all
        reachable final states into the machine's single finish state.
        Like :meth:`generate_transition`, a function of the values read
        through ``view``: the engines evaluate it once per distinct read
        path, and ``view.vector`` / ``view.name`` read every component.
        """
        return False

    def start_vector(self) -> tuple:
        """The state vector of the start state (default: all initial values)."""
        return self._space.initial_vector()

    def describe_state(self, view: StateView) -> list[str]:
        """Documentation lines for a state (Fig 14 commentary).

        The default lists each component value; models override this to
        produce algorithm-level commentary.
        """
        return self._space.describe_vector(view.vector)

    def machine_name(self) -> str:
        """Name given to generated machines."""
        args = ",".join(f"{k}={v}" for k, v in sorted(self._parameters.items()))
        base = type(self).__name__
        return f"{base}[{args}]" if args else base

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def space(self) -> StateSpace:
        """The declared state space."""
        return self._space

    @property
    def messages(self) -> tuple[str, ...]:
        """The declared message alphabet."""
        return self._messages

    @property
    def parameters(self) -> dict:
        """Constructor parameters."""
        return dict(self._parameters)

    # ------------------------------------------------------------------
    # generation (delegates to the pipeline; imported lazily to avoid a
    # circular dependency between model and pipeline modules)
    # ------------------------------------------------------------------

    def generate_state_machine(
        self, *, prune: bool = True, merge: bool = True, engine: str = "eager"
    ) -> StateMachine:
        """Run the generation process and return the machine.

        ``engine`` selects between the eager four-step pipeline
        (:func:`repro.core.pipeline.generate`) and the lazy frontier-based
        engine (:func:`repro.core.lazy.generate_lazy`); both produce
        isomorphic machines.  ``prune=False`` (inspecting the unpruned
        product space) requires the eager engine and raises ``ValueError``
        with the lazy one.
        """
        from repro.core.pipeline import generate_with_engine

        machine, _ = generate_with_engine(self, engine, prune=prune, merge=merge)
        return machine

    def generate_with_report(
        self, *, prune: bool = True, merge: bool = True, engine: str = "eager"
    ):
        """As :meth:`generate_state_machine`, also returning the step report."""
        from repro.core.pipeline import generate_with_engine

        return generate_with_engine(self, engine, prune=prune, merge=merge)


# ----------------------------------------------------------------------
# step 2, memoised: once per distinct read, not once per state
# ----------------------------------------------------------------------


class _Recorder(TransitionBuilder):
    """A builder that logs the source values its hook reads, in read order.

    The log is the hook's memo key: the first read of each component the
    hook has not written, as ``(index, value)``.  A read after a write is
    not logged, since the written value follows from earlier reads.  The
    accessors that expose the whole vector log every component not yet
    logged.  The engines hand a recorder to ``is_final`` too, as its view.
    """

    __slots__ = ("_reads", "_known", "_written")

    def __init__(self, space: StateSpace, vector: tuple):
        super().__init__(space, vector)
        self._reads: list[tuple[int, Any]] = []
        self._known: set[int] = set()  # indices logged or written
        self._written: set[int] = set()

    def get(self, component: str) -> Any:
        index = self._space.index_of(component)
        if index not in self._known:
            self._known.add(index)
            self._reads.append((index, self._source[index]))
        return self._vector[index]

    __getitem__ = get

    def set(self, component: str, value: Any, because: Optional[str] = None) -> None:
        super().set(component, value, because)
        index = self._space.index_of(component)
        self._known.add(index)
        self._written.add(index)

    def _read_all(self) -> None:
        logged = {index for index, _ in self._reads}
        self._reads += [(i, v) for i, v in enumerate(self._source) if i not in logged]
        self._known.update(range(len(self._source)))

    @property
    def vector(self) -> tuple:
        self._read_all()
        return super().vector

    @property
    def source_vector(self) -> tuple:
        self._read_all()
        return super().source_vector

    @property
    def name(self) -> str:
        self._read_all()
        return super().name

    @property
    def changed(self) -> bool:
        self._read_all()
        return super().changed


class _Branch:
    """A trie node: the hook's next logged read is component ``index``."""

    __slots__ = ("index", "children")

    def __init__(self, index: int):
        self.index = index
        self.children: dict = {}


#: What a trie walk returns when no run has followed the state's path yet.
_MISS = object()


def _lookup(node, vector: tuple):
    """The outcome recorded at the end of ``vector``'s path, or ``_MISS``."""
    while type(node) is _Branch:
        node = node.children.get(vector[node.index], _MISS)
    return node


def _grow(roots: dict, key, reads: list, outcome) -> None:
    """Store ``outcome`` at the end of the path ``reads`` in ``roots[key]``."""
    holder = roots
    for index, value in reads:
        node = holder.get(key, _MISS)
        if node is _MISS:
            node = holder[key] = _Branch(index)
        elif type(node) is not _Branch or node.index != index:
            raise ModelDefinitionError(
                "a model hook read differently from an earlier run on the same "
                "values: hooks must be functions of the values they read"
            )
        holder, key = node.children, value
    holder[key] = outcome


class Elaborator:
    """A model's hooks, memoised for one generation call (paper §3.4 step 2).

    Per message, a decision trie is keyed by the values the handler read
    (see :class:`_Recorder`).  A leaf holds the outcome: ``None`` when the
    message is inapplicable, else the written components' final values
    with the action and annotation tuples.  A state whose values walk to
    a leaf applies its writes, and drops the transition when that leaves
    the state unchanged without actions (ineffective); any other state
    runs the handler and adds its path.  ``is_final`` gets the same trie.
    For hooks that keep the contract of
    :meth:`AbstractModel.generate_transition` the result is exactly a
    per-state loop's.  Both engines build one per call and keep nothing
    on the model.
    """

    def __init__(self, model: AbstractModel):
        self._model = model
        self._space = model.space
        self._messages = model.messages
        self._roots: dict = {}  # message -> its trie; None -> is_final's
        #: Handler runs (``generate_transition`` calls) so far.
        self.elaborations = 0

    def is_final(self, vector: tuple) -> bool:
        """``model.is_final`` at ``vector``."""
        final = _lookup(self._roots.get(None, _MISS), vector)
        if final is _MISS:
            view = _Recorder(self._space, vector)
            final = self._model.is_final(view)
            _grow(self._roots, None, view._reads, final)
        return final

    def successors(self, vector: tuple):
        """Yield ``(message, target, actions, annotations)`` per message
        that is applicable (no :class:`InvalidStateError`) and effective
        (changes state or performs actions) in ``vector``."""
        roots = self._roots
        for message in self._messages:
            outcome = _lookup(roots.get(message, _MISS), vector)
            if outcome is _MISS:
                outcome = self._elaborate(message, vector)
            if outcome is None:
                continue  # inapplicable on this path (Fig 10)
            writes, actions, annotations = outcome
            target = vector
            if writes:
                target = list(vector)
                for index, value in writes:
                    target[index] = value
                target = tuple(target)
            if target != vector or actions:  # else ineffective: not recorded
                yield message, target, actions, annotations

    def _elaborate(self, message: str, vector: tuple):
        """Run the handler on ``vector``; record and return its outcome."""
        self.elaborations += 1
        builder = _Recorder(self._space, vector)
        try:
            self._model.generate_transition(message, builder)
        except InvalidStateError:
            outcome = None
        else:
            outcome = (
                tuple((i, builder._vector[i]) for i in builder._written),
                tuple(builder._actions),
                tuple(builder._annotations),
            )
        _grow(self._roots, message, builder._reads, outcome)
        return outcome
