"""Hierarchical state machines and the flattening pipeline.

The generative pipeline of the paper produces *flat* machines, but real
protocol designs are hierarchical: a "Connected" super-state with nested
authentication and activity regions, a retry loop wrapped around a whole
connection attempt, an "abort from anywhere inside the protocol" escape
hatch.  Following the standard bridge surveyed by Devroey et al. (*State
Machine Flattening: Mapping Study and Assessment*), this module adds a
structure-first authoring layer — :class:`CompositeState` trees owned by a
:class:`HierarchicalModel` — and a ``flatten()`` pipeline that expands the
hierarchy into a plain :class:`~repro.core.machine.StateMachine`.  The
flat result passes ``check_integrity()`` and runs unchanged on every
downstream subsystem: the interpreter, the compiled backend, and the
fleet execution plane.

Semantics (UML-style, external transitions, deterministic):

* A model is a tree of uniquely named nodes: :class:`CompositeState`
  groups with a designated initial child, and :class:`LeafState` atoms.
  The *flat name* of a leaf is its dot-joined path below the root, e.g.
  ``Connected.Auth.AwaitChallenge``.
* Transitions may be declared on leaves **and** on composites.  A
  transition on a composite is *inherited* by every descendant leaf;
  resolution is inner-first, so a deeper state handling the same message
  overrides its ancestors.
* Targeting a composite performs *entry dispatch*: the configuration
  descends through initial children to a leaf.
* Every transition is *external*.  Firing a transition owned by node
  ``S`` from current leaf ``L`` to target ``T`` exits from ``L`` up to
  (exclusive) the least common proper ancestor of ``S`` and ``T``
  (performing exit actions innermost-first), then performs the
  transition's own actions, then enters down to the initial leaf of
  ``T`` (entry actions outermost-first).  A self-transition on a
  composite therefore exits and re-enters it — the canonical "retry the
  whole region" idiom.
* A ``final`` leaf absorbs every message (flat final states have no
  outgoing transitions), and startup enters the initial configuration
  without performing entry actions — both mirror flat-machine semantics
  so that direct hierarchical execution and the flattened machine are
  trace-identical.

Flattening is the generator's steps 2 and 3 run on the leaves: every
leaf, in declaration order, becomes a row of the arrays
:mod:`repro.core.pipeline` writes, its transitions resolved by
:meth:`HierarchicalModel.effective_transitions` and
:meth:`HierarchicalModel.fire`; step 3 keeps the rows reachable from the
initial leaf, and those rows become the
:class:`~repro.opt.indexed.IndexedMachine` the flat machine is a view
over — the one form a generated machine takes too.

:class:`HierarchicalSimulator` executes the hierarchy *directly* —
same ``receive``/``get_state``/``is_finished``/``sent``/``reset``
protocol as :class:`~repro.runtime.interp.MachineInterpreter` — and is
the oracle the differential tests replay against flattened machines on
both backends and every fleet dispatch mode.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Optional

from repro.core.errors import (
    DeploymentError,
    MachineStructureError,
    ModelDefinitionError,
)
from repro.core.machine import StateMachine
from repro.core.pipeline import _Arrays, _explored, _reachable, _renumber

#: Separator between path segments in flattened state names.  Chosen to be
#: distinct from the ``/`` used inside generated commit-state names so the
#: embedded hierarchical commit model keeps its native leaf names readable.
PATH_SEPARATOR = "."


class HsmTransition:
    """A transition declared on a hierarchy node.

    ``target`` names any node in the tree (leaf or composite); ``actions``
    keep the raw ``->``-prefixed form used throughout the toolchain.
    """

    __slots__ = ("message", "target", "actions", "annotations")

    def __init__(
        self,
        message: str,
        target: str,
        actions: Sequence[str] = (),
        annotations: Sequence[str] = (),
    ):
        self.message = message
        self.target = target
        self.actions = tuple(actions)
        self.annotations = tuple(annotations)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        arrow = ", ".join(self.actions) or "-"
        return f"HsmTransition({self.message} [{arrow}] -> {self.target})"


class _Node:
    """Shared behaviour of hierarchy nodes (composite groups and leaves)."""

    def __init__(
        self,
        name: str,
        parent: Optional["CompositeState"],
        entry: Sequence[str] = (),
        exit: Sequence[str] = (),
        annotations: Sequence[str] = (),
    ):
        if not name:
            raise ModelDefinitionError("hierarchy nodes need a non-empty name")
        if PATH_SEPARATOR in name:
            raise ModelDefinitionError(
                f"node name {name!r} may not contain the path separator "
                f"{PATH_SEPARATOR!r}"
            )
        self.name = name
        self.parent = parent
        self.entry_actions = tuple(entry)
        self.exit_actions = tuple(exit)
        self.annotations = tuple(annotations)
        self.transitions: dict[str, HsmTransition] = {}

    def on(
        self,
        message: str,
        target: str,
        actions: Sequence[str] = (),
        annotations: Sequence[str] = (),
    ) -> HsmTransition:
        """Declare a transition on this node; at most one per message."""
        if message in self.transitions:
            raise ModelDefinitionError(
                f"node {self.name!r} already handles message {message!r}"
            )
        transition = HsmTransition(message, target, actions, annotations)
        self.transitions[message] = transition
        return transition

    def path(self) -> list["_Node"]:
        """Nodes from the root down to (and including) this node."""
        chain: list[_Node] = []
        node: Optional[_Node] = self
        while node is not None:
            chain.append(node)
            node = node.parent
        chain.reverse()
        return chain

    def flat_name(self) -> str:
        """Dot-joined path below the root: the flattened state name."""
        return PATH_SEPARATOR.join(node.name for node in self.path()[1:])

    def depth(self) -> int:
        """Nesting depth below the root (root children are at depth 1)."""
        return len(self.path()) - 1


class LeafState(_Node):
    """An atomic state of the hierarchy.

    ``final`` leaves terminate the machine: they declare no transitions
    and absorb every message, exactly like a flat final state.
    """

    def __init__(
        self,
        name: str,
        parent: Optional["CompositeState"],
        final: bool = False,
        entry: Sequence[str] = (),
        exit: Sequence[str] = (),
        annotations: Sequence[str] = (),
    ):
        super().__init__(name, parent, entry=entry, exit=exit, annotations=annotations)
        self.final = final

    def on(self, message, target, actions=(), annotations=()):
        if self.final:
            raise ModelDefinitionError(
                f"final leaf {self.name!r} cannot declare transitions"
            )
        return super().on(message, target, actions, annotations)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "final " if self.final else ""
        return f"LeafState({kind}{self.name!r})"


class CompositeState(_Node):
    """A named region containing child states (leaves or nested regions).

    Children are kept in declaration order; the *initial* child — the
    entry-dispatch target when the composite itself is entered — defaults
    to the first child and can be overridden with ``initial=True``.
    """

    def __init__(
        self,
        name: str,
        parent: Optional["CompositeState"] = None,
        entry: Sequence[str] = (),
        exit: Sequence[str] = (),
        annotations: Sequence[str] = (),
    ):
        super().__init__(name, parent, entry=entry, exit=exit, annotations=annotations)
        self.children: dict[str, _Node] = {}
        self._initial_name: Optional[str] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _adopt(self, child: _Node, initial: bool) -> _Node:
        if child.name in self.children:
            raise ModelDefinitionError(
                f"composite {self.name!r} already has a child {child.name!r}"
            )
        self.children[child.name] = child
        if initial:
            if self._initial_name is not None:
                raise ModelDefinitionError(
                    f"composite {self.name!r} already has initial child "
                    f"{self._initial_name!r}"
                )
            self._initial_name = child.name
        return child

    def leaf(
        self,
        name: str,
        *,
        initial: bool = False,
        final: bool = False,
        entry: Sequence[str] = (),
        exit: Sequence[str] = (),
        annotations: Sequence[str] = (),
    ) -> LeafState:
        """Add (and return) a leaf child."""
        return self._adopt(
            LeafState(
                name, self, final=final, entry=entry, exit=exit, annotations=annotations
            ),
            initial,
        )

    def composite(
        self,
        name: str,
        *,
        initial: bool = False,
        entry: Sequence[str] = (),
        exit: Sequence[str] = (),
        annotations: Sequence[str] = (),
    ) -> "CompositeState":
        """Add (and return) a nested composite child."""
        return self._adopt(
            CompositeState(name, self, entry=entry, exit=exit, annotations=annotations),
            initial,
        )

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @property
    def initial_child(self) -> _Node:
        """The entry-dispatch child (explicitly marked, or the first one)."""
        if not self.children:
            raise ModelDefinitionError(f"composite {self.name!r} has no children")
        if self._initial_name is not None:
            return self.children[self._initial_name]
        return next(iter(self.children.values()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompositeState({self.name!r}, {len(self.children)} children)"


@dataclass
class FlattenReport:
    """Counts and timings from one run of the flattening pipeline.

    The blow-up factors quantify what the mapping-study literature calls
    the *cost of flattening*: an inherited transition declared once on a
    composite is copied into every descendant leaf, so
    ``transition_blowup`` is typically well above 1; state counts can
    only shrink (pruning), so ``state_blowup`` is at most 1 relative to
    the leaf population.
    """

    model_name: str
    composite_count: int = 0
    leaf_count: int = 0
    max_depth: int = 0
    declared_transitions: int = 0
    inherited_expansions: int = 0
    flat_states: int = 0
    flat_transitions: int = 0
    timings: dict[str, float] = field(default_factory=dict)
    #: Post-flatten optimization results (``flatten(optimize=...)``):
    #: state/transition counts after the pipeline ran, and the
    #: :class:`repro.opt.PassReport` with the per-pass deltas.  Zero /
    #: ``None`` when no pipeline ran.
    opt_states: int = 0
    opt_transitions: int = 0
    opt_report: object = None

    @property
    def total_time(self) -> float:
        """Total flattening wall-clock time in seconds."""
        return sum(self.timings.values())

    @property
    def state_blowup(self) -> float:
        """Flat states per declared leaf (pruning makes this <= 1)."""
        return self.flat_states / self.leaf_count if self.leaf_count else 0.0

    @property
    def transition_blowup(self) -> float:
        """Flat transitions per declared transition (inheritance copies)."""
        if not self.declared_transitions:
            return 0.0
        return self.flat_transitions / self.declared_transitions

    @property
    def recovered_states(self) -> int:
        """States the post-flatten optimizer clawed back (0 when it didn't run)."""
        if self.opt_report is None:
            return 0
        return self.flat_states - self.opt_states

    def __str__(self) -> str:
        return (
            f"{self.model_name}: {self.composite_count} groups + "
            f"{self.leaf_count} leaves (depth {self.max_depth}), "
            f"{self.declared_transitions} declared transitions -> "
            f"{self.flat_states} states / {self.flat_transitions} transitions "
            f"(x{self.transition_blowup:.2f} transition blow-up, "
            f"{self.total_time * 1000:.1f}ms)"
        )


class HierarchicalModel:
    """A hierarchical state-machine design that flattens into a
    :class:`~repro.core.machine.StateMachine`.

    ``messages`` fixes the alphabet (and its declaration order); when
    omitted, the alphabet is collected from the tree in declaration
    order.  ``parameters`` travel onto the flattened machine, so the
    compiled-backend cache and reporting see hierarchical machines
    exactly like generated ones.
    """

    def __init__(
        self,
        name: str,
        messages: Optional[Sequence[str]] = None,
        parameters: Optional[dict] = None,
    ):
        self.name = name
        self.root = CompositeState(name)
        self._messages = tuple(messages) if messages is not None else None
        self.parameters = dict(parameters or {})
        self._finish_name: Optional[str] = None
        # Name -> node lookup cache, built by validate().  Nodes are only
        # ever added (no removal/rename API), so a cached entry can never
        # go stale; find() falls back to a tree walk for names added
        # after the last validation.
        self._index: Optional[dict[str, _Node]] = None

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------

    def nodes(self) -> list[_Node]:
        """Every node in declaration (depth-first) order, root first."""
        ordered: list[_Node] = []
        stack: list[_Node] = [self.root]
        while stack:
            node = stack.pop()
            ordered.append(node)
            if isinstance(node, CompositeState):
                stack.extend(reversed(list(node.children.values())))
        return ordered

    def leaves(self) -> list[LeafState]:
        """Every leaf in declaration order."""
        return [node for node in self.nodes() if isinstance(node, LeafState)]

    def find(self, name: str) -> _Node:
        """Look up a node by its (tree-unique) name."""
        if self._index is not None:
            node = self._index.get(name)
            if node is not None:
                return node
        for node in self.nodes():
            if node.name == name:
                return node
        raise ModelDefinitionError(f"unknown hierarchy node {name!r}")

    def set_finish(self, name: str) -> None:
        """Designate the finish leaf of the flattened machine."""
        self._finish_name = name

    @property
    def finish_name(self) -> Optional[str]:
        """The designated finish leaf's name, if any."""
        return self._finish_name

    def messages(self) -> tuple[str, ...]:
        """The message alphabet, explicit or collected in declaration order."""
        if self._messages is not None:
            return self._messages
        collected: list[str] = []
        for node in self.nodes():
            for message in node.transitions:
                if message not in collected:
                    collected.append(message)
        return tuple(collected)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ModelDefinitionError` on structural problems."""
        nodes = self.nodes()
        names: dict[str, _Node] = {}
        for node in nodes:
            if node.name in names:
                raise ModelDefinitionError(
                    f"duplicate node name {node.name!r} in hierarchy {self.name!r}"
                )
            names[node.name] = node
        if not self.root.children:
            raise ModelDefinitionError(f"hierarchy {self.name!r} has no states")
        alphabet = self.messages()
        if len(set(alphabet)) != len(alphabet):
            raise ModelDefinitionError(f"duplicate messages: {list(alphabet)}")
        for node in nodes:
            if isinstance(node, CompositeState) and node is not self.root:
                if not node.children:
                    raise ModelDefinitionError(
                        f"composite {node.name!r} has no children"
                    )
            for message, transition in node.transitions.items():
                if message not in alphabet:
                    raise ModelDefinitionError(
                        f"transition on undeclared message {message!r} "
                        f"(node {node.name!r})"
                    )
                if transition.target not in names:
                    raise ModelDefinitionError(
                        f"transition {message!r} on node {node.name!r} targets "
                        f"unknown node {transition.target!r}"
                    )
        if self._finish_name is not None:
            finish = names.get(self._finish_name)
            if not isinstance(finish, LeafState) or not finish.final:
                raise ModelDefinitionError(
                    f"finish node {self._finish_name!r} must be a final leaf"
                )
        self._index = names

    # ------------------------------------------------------------------
    # shared semantics (used by flatten() and the simulator)
    # ------------------------------------------------------------------

    def initial_leaf(self, node: Optional[_Node] = None) -> LeafState:
        """Entry-dispatch: descend through initial children to a leaf."""
        current = node if node is not None else self.root
        while isinstance(current, CompositeState):
            current = current.initial_child
        assert isinstance(current, LeafState)
        return current

    def effective_transitions(
        self, leaf: LeafState
    ) -> dict[str, tuple[_Node, HsmTransition]]:
        """The leaf's handler map: message -> (owning node, transition).

        Resolution is inner-first — the leaf's own transitions override
        its parent's, which override the grandparent's, and so on up to
        the root.  Final leaves handle nothing.  The map iterates in
        alphabet order, which fixes the flat machine's transition order.
        """
        if leaf.final:
            return {}
        handlers: dict[str, tuple[_Node, HsmTransition]] = {}
        node: Optional[_Node] = leaf
        while node is not None:
            for message, transition in node.transitions.items():
                if message not in handlers:
                    handlers[message] = (node, transition)
            node = node.parent
        return {
            message: handlers[message]
            for message in self.messages()
            if message in handlers
        }

    def fire(
        self, source_leaf: LeafState, owner: _Node, transition: HsmTransition
    ) -> tuple[LeafState, tuple[str, ...]]:
        """Resolve one transition firing: target leaf and full action list.

        The action list is exit actions (from ``source_leaf`` up to, but
        not including, the least common proper ancestor of ``owner`` and
        the target — innermost first), then the transition's own actions,
        then entry actions (down to the target's initial leaf — outermost
        first).  Raw ``->`` prefixes are preserved; executors strip them.
        """
        target_node = self.find(transition.target)
        boundary = _least_common_proper_ancestor(owner, target_node)
        actions: list[str] = []
        node: Optional[_Node] = source_leaf
        while node is not None and node is not boundary:
            actions.extend(node.exit_actions)
            node = node.parent
        actions.extend(transition.actions)
        entry_chain = target_node.path()
        if boundary is not None:
            entry_chain = entry_chain[entry_chain.index(boundary) + 1 :]
        for node in entry_chain:
            actions.extend(node.entry_actions)
        entry_leaf = self.initial_leaf(target_node)
        for node in entry_leaf.path()[len(target_node.path()) :]:
            actions.extend(node.entry_actions)
        return entry_leaf, tuple(actions)

    # ------------------------------------------------------------------
    # flattening
    # ------------------------------------------------------------------

    def flatten(self, *, optimize=None) -> StateMachine:
        """Expand the hierarchy into a flat machine (see module docs).

        ``optimize`` optionally runs a :class:`repro.opt.PassPipeline`
        (or a level / pass-list spec) over the flattened machine — the
        hook that recovers the state blow-up flattening produces.
        """
        machine, _ = self.flatten_with_report(optimize=optimize)
        return machine

    def flatten_with_report(
        self, *, optimize=None
    ) -> tuple[StateMachine, FlattenReport]:
        """Flatten and report blow-up statistics.

        Every leaf is a row, in declaration order; step 3 keeps the rows
        reachable from the initial leaf, renumbered in that order.  The
        finish state is the designated finish leaf, when it is kept, else
        the one final leaf, if there is exactly one.
        """
        self.validate()
        leaves = self.leaves()
        composites = [n for n in self.nodes() if isinstance(n, CompositeState)]
        report = FlattenReport(
            model_name=self.name,
            composite_count=len(composites),
            leaf_count=len(leaves),
            max_depth=max(leaf.depth() for leaf in leaves),
            declared_transitions=sum(len(n.transitions) for n in self.nodes()),
        )
        started = time.perf_counter()
        rows = _LeafRows(self)
        arrays = _Arrays(self.messages(), rows)
        ids = {leaf: i for i, leaf in enumerate(leaves)}
        for leaf in leaves:
            arrays.add_row(leaf, leaf.final, ids.__getitem__)
        report.inherited_expansions = rows.inherited
        report.timings["expand"] = time.perf_counter() - started

        started = time.perf_counter()
        start = ids[self.initial_leaf()]
        reachable = _reachable(arrays.next_state, arrays.width, start)
        keep = [i for i in range(len(leaves)) if i in reachable]
        new_id = _renumber(keep, len(leaves))
        kept = [leaves[i] for i in keep]
        final = [leaf.final for leaf in kept]
        if self._finish_name is not None:
            finish = new_id[ids[self.find(self._finish_name)]]
        else:
            finish = final.index(True) if final.count(True) == 1 else -1
        ir = _explored(
            arrays,
            keep,
            new_id,
            name=self.name,
            parameters=dict(self.parameters),
            messages=self.messages(),
            state_names=tuple(leaf.flat_name() for leaf in kept),
            start=new_id[start],
            finish=finish,
            final=tuple(final),
            state_annotations=tuple(map(_leaf_notes, kept)),
        )
        ir.check_integrity()
        machine = StateMachine._over(ir)
        report.timings["prune"] = time.perf_counter() - started
        report.flat_states = ir.state_count
        report.flat_transitions = ir.transition_count()
        if optimize is not None:
            from repro.core.pipeline import _run_optimizer

            machine, report.opt_report = _run_optimizer(machine, optimize)
            if report.opt_report is not None:
                report.opt_states = len(machine)
                report.opt_transitions = machine.transition_count()
                report.timings["optimize"] = report.opt_report.total_time
        return machine, report

    # ------------------------------------------------------------------
    # direct execution
    # ------------------------------------------------------------------

    def simulator(
        self,
        sink: Optional[Callable[[str], None]] = None,
        validate: bool = True,
    ) -> "HierarchicalSimulator":
        """A :class:`HierarchicalSimulator` over this (validated) model.

        ``validate=False`` skips the structural walk — for callers that
        spawn many simulators over one already-validated model, exactly
        like ``MachineInterpreter(machine, validate=False)``.
        """
        return HierarchicalSimulator(self, sink=sink, validate=validate)


class _LeafRows:
    """The flattener's step 2 hooks (see :class:`repro.core.pipeline._Arrays`):
    a leaf's flat transitions, in alphabet order."""

    def __init__(self, model: HierarchicalModel):
        self._model = model
        #: Transitions the rows so far copied from an enclosing state.
        self.inherited = 0

    def successors(self, leaf: LeafState):
        """Yield ``(message, target leaf, actions, annotations)`` per
        message the leaf handles, inherited ones annotated as such."""
        model = self._model
        for message, (owner, transition) in model.effective_transitions(leaf).items():
            target, actions = model.fire(leaf, owner, transition)
            annotations = transition.annotations
            if owner is not leaf:
                annotations += (f"Inherited from enclosing state {owner.name!r}.",)
                self.inherited += 1
            yield message, target, actions, annotations


def _leaf_notes(leaf: LeafState) -> tuple[str, ...]:
    """A flat state's commentary: its place in the hierarchy, then the
    leaf's own annotations."""
    path = " > ".join(node.name for node in leaf.path()[1:])
    return (f"Hierarchical leaf: {path}.", *leaf.annotations)


def _least_common_proper_ancestor(a: _Node, b: _Node) -> Optional[_Node]:
    """Deepest node that strictly contains both ``a`` and ``b``.

    ``None`` when no proper common ancestor exists (one of the nodes is
    the root, or a self-transition on a root child): the firing then
    exits and re-enters the whole tree, root entry/exit actions included.
    """
    ancestors_a = a.path()[:-1]
    ancestors_b = set(id(node) for node in b.path()[:-1])
    for node in reversed(ancestors_a):
        if id(node) in ancestors_b:
            return node
    return None


class HierarchicalSimulator:
    """Execute a hierarchical model directly, without flattening.

    Exposes the common executor protocol (``receive`` / ``get_state`` /
    ``set_state`` / ``is_finished`` / ``sent`` / ``reset`` / ``run``), so
    it can stand wherever a :class:`~repro.runtime.interp.MachineInterpreter`
    does.  ``get_state`` reports the *flat* name of the current leaf,
    which is what makes traces directly comparable against flattened
    machines.
    """

    def __init__(
        self,
        model: HierarchicalModel,
        sink: Optional[Callable[[str], None]] = None,
        validate: bool = True,
    ):
        """``validate=False`` skips the structural walk — for callers
        that spawn many simulators over one already-validated model."""
        if validate:
            model.validate()
        self._model = model
        self._alphabet = frozenset(model.messages())
        self._leaf = model.initial_leaf()
        self._handlers: dict[str, dict[str, tuple[_Node, HsmTransition]]] = {}
        self._sink = sink
        self.sent: list[str] = []

    @property
    def model(self) -> HierarchicalModel:
        """The hierarchical model being executed."""
        return self._model

    def get_state(self) -> str:
        """Flat name of the current leaf."""
        return self._leaf.flat_name()

    def set_state(self, flat_name: str) -> None:
        """Force the configuration to a named leaf (no entry actions)."""
        for leaf in self._model.leaves():
            if leaf.flat_name() == flat_name:
                self._leaf = leaf
                return
        raise MachineStructureError(f"unknown state {flat_name!r}")

    def is_finished(self) -> bool:
        """Whether the configuration rests in a final leaf."""
        return self._leaf.final

    def receive(self, message: str) -> bool:
        """Process one message; returns whether a transition fired.

        Messages with no handler in the current configuration (or any
        message in a final leaf) are ignored, mirroring flat semantics.
        """
        if message not in self._alphabet:
            raise DeploymentError(f"unknown message {message!r}")
        leaf = self._leaf
        handlers = self._handlers.get(leaf.name)
        if handlers is None:
            handlers = self._model.effective_transitions(leaf)
            self._handlers[leaf.name] = handlers
        resolved = handlers.get(message)
        if resolved is None:
            return False
        owner, transition = resolved
        target_leaf, actions = self._model.fire(leaf, owner, transition)
        for action in actions:
            name = action[2:] if action.startswith("->") else action
            self.sent.append(name)
            if self._sink is not None:
                self._sink(name)
        self._leaf = target_leaf
        return True

    def run(self, messages: Sequence[str]) -> list[str]:
        """Feed a message sequence; returns the actions it performed."""
        before = len(self.sent)
        for message in messages:
            self.receive(message)
        return self.sent[before:]

    def reset(self) -> None:
        """Return to the initial configuration and clear the action log."""
        self._leaf = self._model.initial_leaf()
        self.sent.clear()
