"""State components: the typed building blocks of an abstract state space.

The paper's generic abstract model (Fig 20) is initialised with an array of
``StateComponent`` objects — ``IntComponent("votes_received", r - 1)``,
``BooleanComponent("vote_sent")`` and so on — whose value ranges define the
space of possible states.  This module provides those component classes plus
a :class:`StateSpace` that owns an ordered set of components and can
enumerate, encode and decode complete state vectors.

Component values are plain Python objects (``bool`` / ``int`` / enumeration
members as ``str``).  A *state vector* is a tuple holding one value per
component, in declaration order; vectors are immutable and hashable so they
can serve as dictionary keys during generation.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from typing import Any

from repro.core.errors import ComponentError

#: The largest component whose spellings :class:`StateSpace` tabulates.
_SPELLED = 1 << 12


class StateComponent:
    """One named dimension of an abstract state space.

    Subclasses define the set of legal values.  Components are immutable
    value objects: equality and hashing are based on the declaration, not
    identity, so two models declaring the same components compare equal.
    """

    def __init__(self, name: str):
        if not name or not name.replace("_", "").isalnum():
            raise ComponentError(
                f"component name must be an identifier-like string, got {name!r}"
            )
        self._name = name

    @property
    def name(self) -> str:
        """Declared component name, e.g. ``"votes_received"``."""
        return self._name

    def values(self) -> Sequence[Any]:
        """All legal values for this component, in canonical order."""
        raise NotImplementedError

    def initial_value(self) -> Any:
        """The value this component takes in a freshly created machine."""
        return self.values()[0]

    def contains(self, value: Any) -> bool:
        """Whether ``value`` is legal for this component."""
        return value in self.values()

    def encode(self, value: Any) -> str:
        """Short printable encoding used in state names (``T``/``F``/digits)."""
        raise NotImplementedError

    def describe(self, value: Any) -> str:
        """Human-readable description of ``value`` for documentation."""
        return f"{self._name} = {self.encode(value)}"

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self._key() == other._key()  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> tuple:
        return (self._name,)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self._name!r})"


class BooleanComponent(StateComponent):
    """A flag component; values are ``False`` then ``True``.

    Mirrors ``BooleanComponent`` in the paper's Fig 20.
    """

    _VALUES = (False, True)

    def values(self) -> Sequence[bool]:
        return self._VALUES

    def contains(self, value: Any) -> bool:
        return value is True or value is False

    def encode(self, value: Any) -> str:
        return "T" if value else "F"


class IntComponent(StateComponent):
    """A bounded counter component with values ``0 .. maximum`` inclusive.

    Mirrors ``IntComponent`` in the paper's Fig 20, where the maximum for
    the message counts is ``replication_factor - 1``.
    """

    def __init__(self, name: str, maximum: int):
        super().__init__(name)
        if maximum < 0:
            raise ComponentError(f"maximum for {name!r} must be >= 0, got {maximum}")
        self._maximum = maximum

    @property
    def maximum(self) -> int:
        """Largest legal value."""
        return self._maximum

    def values(self) -> Sequence[int]:
        return range(self._maximum + 1)

    def contains(self, value: Any) -> bool:
        return (
            isinstance(value, int)
            and not isinstance(value, bool)
            and 0 <= value <= self._maximum
        )

    def encode(self, value: Any) -> str:
        return str(value)

    def _key(self) -> tuple:
        return (self._name, self._maximum)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntComponent({self._name!r}, {self._maximum})"


class EnumComponent(StateComponent):
    """A component ranging over a fixed set of symbolic values.

    Not used by the paper's commit model but useful for other
    message-counting algorithms (e.g. a round phase in Chandra–Toueg style
    consensus).  Values are strings; the first declared value is initial.
    """

    def __init__(self, name: str, values: Sequence[str]):
        super().__init__(name)
        if not values:
            raise ComponentError(f"enum component {name!r} needs at least one value")
        if len(set(values)) != len(values):
            raise ComponentError(f"enum component {name!r} has duplicate values")
        self._values = tuple(values)

    def values(self) -> Sequence[str]:
        return self._values

    def encode(self, value: Any) -> str:
        return str(value)

    def _key(self) -> tuple:
        return (self._name, self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EnumComponent({self._name!r}, {list(self._values)!r})"


class StateSpace:
    """An ordered collection of components defining a product state space.

    The space provides vector-level operations used by the generation
    pipeline: enumeration of all possible vectors (step 1 of the paper's
    process), component lookup by name, and single-component updates that
    return new immutable vectors.
    """

    SEPARATOR = "/"

    def __init__(self, components: Sequence[StateComponent]):
        if not components:
            raise ComponentError("a state space needs at least one component")
        names = [c.name for c in components]
        if len(set(names)) != len(names):
            raise ComponentError(f"duplicate component names: {names}")
        self._components = tuple(components)
        self._index = {c.name: i for i, c in enumerate(self._components)}
        #: Per component, each legal value -> its encoding in a state name
        #: (left empty for a component of more than _SPELLED values).
        self._spellings = tuple(
            {value: c.encode(value) for value in c.values()}
            if len(c.values()) <= _SPELLED
            else {}
            for c in self._components
        )

    @property
    def components(self) -> tuple[StateComponent, ...]:
        """Components in declaration order."""
        return self._components

    @property
    def names(self) -> tuple[str, ...]:
        """Component names in declaration order."""
        return tuple(c.name for c in self._components)

    def __len__(self) -> int:
        return len(self._components)

    def size(self) -> int:
        """Number of vectors in the full product space (paper: ``2^5 r^2``)."""
        total = 1
        for c in self._components:
            total *= len(c.values())
        return total

    def index_of(self, name: str) -> int:
        """Position of the named component."""
        try:
            return self._index[name]
        except KeyError:
            raise ComponentError(
                f"unknown component {name!r}; have {list(self._index)}"
            ) from None

    def component(self, name: str) -> StateComponent:
        """The named component object."""
        return self._components[self.index_of(name)]

    def enumerate_vectors(self) -> Iterator[tuple]:
        """Yield every possible state vector (generation step 1)."""
        yield from itertools.product(*(c.values() for c in self._components))

    def initial_vector(self) -> tuple:
        """Vector of initial values (all flags clear, all counters zero)."""
        return tuple(c.initial_value() for c in self._components)

    def validate_vector(self, vector: Sequence[Any]) -> tuple:
        """Check ``vector`` against the component ranges; return it as a tuple."""
        if len(vector) != len(self._components):
            raise ComponentError(
                f"vector has {len(vector)} values but space has {len(self._components)} components"
            )
        for component, value in zip(self._components, vector):
            if not component.contains(value):
                raise ComponentError(
                    f"value {value!r} is illegal for component {component.name!r}"
                )
        return tuple(vector)

    def get(self, vector: Sequence[Any], name: str) -> Any:
        """Value of the named component within ``vector``."""
        return vector[self.index_of(name)]

    def replace(self, vector: Sequence[Any], name: str, value: Any) -> tuple:
        """New vector with the named component set to ``value``."""
        i = self.index_of(name)
        if not self._components[i].contains(value):
            raise ComponentError(f"value {value!r} is illegal for component {name!r}")
        out = list(vector)
        out[i] = value
        return tuple(out)

    def vector_name(self, vector: Sequence[Any]) -> str:
        """Encode a vector as a state name, e.g. ``T/2/F/0/F/F/F`` (Fig 14).

        Each value is spelled from its component's table of encodings,
        with no call per component; a value the table lacks (one outside
        the component's range) is encoded by the component itself."""
        try:
            return self.SEPARATOR.join(map(dict.__getitem__, self._spellings, vector))
        except (KeyError, TypeError):
            return self.SEPARATOR.join(
                c.encode(v) for c, v in zip(self._components, vector)
            )

    def parse_name(self, name: str) -> tuple:
        """Inverse of :meth:`vector_name`; raises on malformed names."""
        parts = name.split(self.SEPARATOR)
        if len(parts) != len(self._components):
            raise ComponentError(
                f"state name {name!r} has {len(parts)} fields, expected {len(self._components)}"
            )
        values = []
        for component, text in zip(self._components, parts):
            values.append(_decode(component, text))
        return self.validate_vector(values)

    def describe_vector(self, vector: Sequence[Any]) -> list[str]:
        """One human-readable line per component, for documentation output."""
        return [c.describe(v) for c, v in zip(self._components, vector)]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StateSpace) and self._components == other._components

    def __hash__(self) -> int:
        return hash(self._components)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateSpace({list(self._components)!r})"


def _decode(component: StateComponent, text: str) -> Any:
    """Decode one encoded field back into a component value."""
    if isinstance(component, BooleanComponent):
        if text == "T":
            return True
        if text == "F":
            return False
        raise ComponentError(f"cannot decode {text!r} as boolean {component.name!r}")
    if isinstance(component, IntComponent):
        try:
            value = int(text)
        except ValueError:
            raise ComponentError(
                f"cannot decode {text!r} as int {component.name!r}"
            ) from None
        return value
    if isinstance(component, EnumComponent):
        if text in component.values():
            return text
        raise ComponentError(f"cannot decode {text!r} as enum {component.name!r}")
    raise ComponentError(f"no decoder for component type {type(component).__name__}")
