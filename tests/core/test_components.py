"""Unit tests for state components and the state space."""

import pytest
from hypothesis import given, strategies as st

from repro.core.components import (
    BooleanComponent,
    EnumComponent,
    IntComponent,
    StateSpace,
)
from repro.core.errors import ComponentError


class TestBooleanComponent:
    def test_values_order(self):
        assert list(BooleanComponent("flag").values()) == [False, True]

    def test_initial_value_is_false(self):
        assert BooleanComponent("flag").initial_value() is False

    def test_contains_only_booleans(self):
        component = BooleanComponent("flag")
        assert component.contains(True)
        assert component.contains(False)
        assert not component.contains(1)
        assert not component.contains("T")

    def test_encode(self):
        component = BooleanComponent("flag")
        assert component.encode(True) == "T"
        assert component.encode(False) == "F"

    def test_equality_by_name(self):
        assert BooleanComponent("a") == BooleanComponent("a")
        assert BooleanComponent("a") != BooleanComponent("b")

    def test_hashable(self):
        assert len({BooleanComponent("a"), BooleanComponent("a")}) == 1

    def test_rejects_bad_name(self):
        with pytest.raises(ComponentError):
            BooleanComponent("")
        with pytest.raises(ComponentError):
            BooleanComponent("has space")


class TestIntComponent:
    def test_values_range(self):
        assert list(IntComponent("count", 3).values()) == [0, 1, 2, 3]

    def test_initial_value_is_zero(self):
        assert IntComponent("count", 3).initial_value() == 0

    def test_contains_bounds(self):
        component = IntComponent("count", 3)
        assert component.contains(0)
        assert component.contains(3)
        assert not component.contains(4)
        assert not component.contains(-1)

    def test_bool_is_not_an_int_value(self):
        assert not IntComponent("count", 3).contains(True)

    def test_encode(self):
        assert IntComponent("count", 9).encode(7) == "7"

    def test_negative_maximum_rejected(self):
        with pytest.raises(ComponentError):
            IntComponent("count", -1)

    def test_zero_maximum_allowed(self):
        assert list(IntComponent("count", 0).values()) == [0]

    def test_equality_includes_maximum(self):
        assert IntComponent("c", 3) == IntComponent("c", 3)
        assert IntComponent("c", 3) != IntComponent("c", 4)


class TestEnumComponent:
    def test_values_preserved(self):
        component = EnumComponent("phase", ["idle", "busy", "done"])
        assert list(component.values()) == ["idle", "busy", "done"]

    def test_initial_is_first(self):
        assert EnumComponent("phase", ["idle", "busy"]).initial_value() == "idle"

    def test_empty_rejected(self):
        with pytest.raises(ComponentError):
            EnumComponent("phase", [])

    def test_duplicates_rejected(self):
        with pytest.raises(ComponentError):
            EnumComponent("phase", ["a", "a"])

    def test_contains(self):
        component = EnumComponent("phase", ["idle", "busy"])
        assert component.contains("idle")
        assert not component.contains("unknown")


def make_space() -> StateSpace:
    return StateSpace(
        [
            BooleanComponent("flag"),
            IntComponent("count", 2),
            EnumComponent("phase", ["p", "q"]),
        ]
    )


class TestStateSpace:
    def test_size_is_product(self):
        assert make_space().size() == 2 * 3 * 2

    def test_enumerate_yields_all_distinct(self):
        vectors = list(make_space().enumerate_vectors())
        assert len(vectors) == 12
        assert len(set(vectors)) == 12

    def test_initial_vector(self):
        assert make_space().initial_vector() == (False, 0, "p")

    def test_vector_name(self):
        assert make_space().vector_name((True, 2, "q")) == "T/2/q"

    def test_vector_name_spells_as_each_component_encodes(self):
        """The per-component spelling tables give what ``encode`` gives,
        also for multi-character spellings; a value outside a
        component's range, and any value of a component too large to
        tabulate, is encoded by the component itself."""
        space = StateSpace(
            [
                IntComponent("count", 12),
                EnumComponent("phase", ["idle", "busy"]),
                BooleanComponent("flag"),
            ]
        )
        for vector in space.enumerate_vectors():
            expected = "/".join(
                c.encode(v) for c, v in zip(space.components, vector)
            )
            assert space.vector_name(vector) == expected
        assert space.vector_name((13, "idle", False)) == "13/idle/F"
        wide = StateSpace([IntComponent("big", 1 << 13), BooleanComponent("f")])
        assert wide.vector_name((8000, True)) == "8000/T"

    def test_parse_name_roundtrip(self):
        space = make_space()
        for vector in space.enumerate_vectors():
            assert space.parse_name(space.vector_name(vector)) == vector

    def test_parse_rejects_wrong_arity(self):
        with pytest.raises(ComponentError):
            make_space().parse_name("T/2")

    def test_parse_rejects_bad_boolean(self):
        with pytest.raises(ComponentError):
            make_space().parse_name("X/2/q")

    def test_parse_rejects_out_of_range_int(self):
        with pytest.raises(ComponentError):
            make_space().parse_name("T/9/q")

    def test_parse_rejects_unknown_enum(self):
        with pytest.raises(ComponentError):
            make_space().parse_name("T/1/z")

    def test_get_by_name(self):
        space = make_space()
        assert space.get((True, 1, "q"), "count") == 1
        assert space.get((True, 1, "q"), "phase") == "q"

    def test_replace_returns_new_vector(self):
        space = make_space()
        original = (False, 0, "p")
        updated = space.replace(original, "count", 2)
        assert updated == (False, 2, "p")
        assert original == (False, 0, "p")

    def test_replace_rejects_illegal_value(self):
        with pytest.raises(ComponentError):
            make_space().replace((False, 0, "p"), "count", 3)

    def test_unknown_component_rejected(self):
        with pytest.raises(ComponentError):
            make_space().get((False, 0, "p"), "missing")

    def test_duplicate_component_names_rejected(self):
        with pytest.raises(ComponentError):
            StateSpace([BooleanComponent("a"), BooleanComponent("a")])

    def test_empty_space_rejected(self):
        with pytest.raises(ComponentError):
            StateSpace([])

    def test_validate_vector_checks_ranges(self):
        space = make_space()
        assert space.validate_vector([True, 2, "q"]) == (True, 2, "q")
        with pytest.raises(ComponentError):
            space.validate_vector([True, 3, "q"])
        with pytest.raises(ComponentError):
            space.validate_vector([True, 2])

    def test_describe_vector_mentions_each_component(self):
        lines = make_space().describe_vector((True, 1, "q"))
        assert len(lines) == 3
        assert any("flag" in line for line in lines)

    def test_equality(self):
        assert make_space() == make_space()


@given(
    flag=st.booleans(),
    count=st.integers(min_value=0, max_value=2),
    phase=st.sampled_from(["p", "q"]),
)
def test_property_name_roundtrip(flag, count, phase):
    """Encoding then parsing any legal vector is the identity."""
    space = make_space()
    vector = (flag, count, phase)
    assert space.parse_name(space.vector_name(vector)) == vector


@given(maximum=st.integers(min_value=0, max_value=50))
def test_property_int_component_value_count(maximum):
    """An IntComponent with maximum m has exactly m+1 values."""
    assert len(list(IntComponent("c", maximum).values())) == maximum + 1
