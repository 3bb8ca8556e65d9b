"""Adapter tests: backend protocol parity and compiled-class caching."""

import pytest

from repro.core.errors import DeploymentError, MachineStructureError
from repro.models.commit import CommitModel
from repro.runtime.cache import GeneratedCodeCache
from repro.serve import make_backend
from tests.serve.conftest import machine_for


def commit_machine():
    return machine_for("commit")


class TestBackendAdapter:
    @pytest.mark.parametrize("kind", ["interp", "compiled"])
    def test_instances_speak_the_protocol(self, kind):
        adapter = make_backend(kind, commit_machine())
        instance = adapter.new_instance()
        assert instance.get_state() == commit_machine().start_state.name
        assert instance.receive("free")
        assert not instance.is_finished()
        instance.reset()
        assert instance.get_state() == commit_machine().start_state.name
        assert instance.sent == []

    @pytest.mark.parametrize("kind", ["interp", "compiled"])
    def test_restore_instance(self, kind):
        adapter = make_backend(kind, commit_machine())
        instance = adapter.new_instance()
        target = commit_machine().states[3].name
        adapter.restore_instance(instance, target, ("vote", "commit"))
        assert instance.get_state() == target
        assert instance.sent == ["vote", "commit"]

    @pytest.mark.parametrize("kind", ["interp", "compiled"])
    def test_restore_instance_rejects_unknown_state(self, kind):
        """A state name the machine does not have (a snapshot of another
        machine, a typo) must fail the restore, not park the instance
        where every message is ignored and it never finishes."""
        adapter = make_backend(kind, commit_machine())
        instance = adapter.new_instance()
        instance.receive("free")
        before = instance.get_state()
        with pytest.raises((ValueError, MachineStructureError), match="NO/SUCH"):
            adapter.restore_instance(instance, "NO/SUCH/STATE", ("vote",))
        assert instance.get_state() == before
        assert instance.sent == []
        assert instance.receive("update")

    def test_unknown_kind_rejected(self):
        with pytest.raises(DeploymentError):
            make_backend("jit", commit_machine())

    def test_compiled_class_generated_once_per_machine(self):
        cache = GeneratedCodeCache(max_entries=None)
        adapter_a = make_backend("compiled", commit_machine(), cache=cache)
        adapter_b = make_backend("compiled", commit_machine(), cache=cache)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert type(adapter_a.new_instance()) is type(adapter_b.new_instance())

    def test_compiled_cache_distinguishes_structures(self):
        cache = GeneratedCodeCache(max_entries=None)
        make_backend("compiled", commit_machine(), cache=cache)
        other = CommitModel(7).generate_state_machine()
        make_backend("compiled", other, cache=cache)
        assert cache.stats.misses == 2


class TestCompiledCacheKey:
    """Regression: machine.parameters with unhashable/nested values must
    not break (or silently bypass) the shared compiled-class cache."""

    @staticmethod
    def tiny_machine(parameters):
        from repro.core.machine import StateMachine
        from repro.core.state import State, Transition

        machine = StateMachine(["go"], name="tiny", parameters=parameters)
        start = machine.add_state(State("A"))
        machine.add_state(State("B", final=True))
        start.record_transition(Transition("go", "B", ("->done",)))
        machine.set_start("A")
        return machine

    def test_nested_unhashable_parameters_are_cacheable(self):
        cache = GeneratedCodeCache(max_entries=None)
        machine = self.tiny_machine(
            {
                "weights": {"b": [1, 2], "a": {"x": 1}},
                "tags": {"q", "p"},
                "limits": [10, {"soft": 5}],
            }
        )
        adapter_a = make_backend("compiled", machine, cache=cache)
        adapter_b = make_backend("compiled", machine, cache=cache)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert type(adapter_a.new_instance()) is type(adapter_b.new_instance())

    def test_dict_ordering_does_not_split_the_cache(self):
        cache = GeneratedCodeCache(max_entries=None)
        first = self.tiny_machine({"a": 1, "b": {"x": [1], "y": 2}})
        second = self.tiny_machine({"b": {"y": 2, "x": [1]}, "a": 1})
        make_backend("compiled", first, cache=cache)
        make_backend("compiled", second, cache=cache)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_different_parameters_get_distinct_entries(self):
        cache = GeneratedCodeCache(max_entries=None)
        make_backend(
            "compiled", self.tiny_machine({"cfg": {"mode": "fast"}}), cache=cache
        )
        make_backend(
            "compiled", self.tiny_machine({"cfg": {"mode": "safe"}}), cache=cache
        )
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0

    def test_flattened_hierarchical_machine_uses_shared_cache(self):
        from repro.models import build_session_hsm

        cache = GeneratedCodeCache(max_entries=None)
        model = build_session_hsm()
        model.parameters["tuning"] = {"retries": [1, 2, 3]}
        make_backend("compiled", model.flatten("eager"), cache=cache)
        make_backend("compiled", model.flatten("lazy"), cache=cache)
        # Same name, same parameters, same reachable structure -> one entry.
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
