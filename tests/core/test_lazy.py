"""The lazy frontier-based engine: differential equivalence with the eager
pipeline, report semantics, and engine selection plumbing."""

from __future__ import annotations

import pytest

from repro.analysis import equivalent
from repro.analysis.stats import merged_state_count, table1_row
from repro.cli import main
from repro.core.lazy import generate_lazy
from repro.core.pipeline import ENGINES, generate, generate_with_engine
from repro.models.chandra_toueg import CoordinatorRoundModel
from repro.models.commit import CommitModel
from repro.models.termination import TerminationModel
from repro.models.threshold_sig import ThresholdSignatureModel
from repro.runtime.policy import GenerationPolicy, MachineFactory

#: Every bundled abstract model at its seed parameters.
BUNDLED_MODELS = [
    pytest.param(lambda: CommitModel(replication_factor=4), id="commit-r4"),
    pytest.param(lambda: CommitModel(replication_factor=7), id="commit-r7"),
    pytest.param(lambda: CoordinatorRoundModel(processes=5), id="chandra-toueg-n5"),
    pytest.param(lambda: TerminationModel(max_tasks=3), id="termination-t3"),
    pytest.param(
        lambda: ThresholdSignatureModel(signers=4, threshold=3), id="threshold-sig-4of3"
    ),
]


class TestDifferentialEquivalence:
    """generate_lazy and generate must agree for every bundled model."""

    @pytest.mark.parametrize("make_model", BUNDLED_MODELS)
    def test_merged_machines_pair_one_to_one(self, make_model):
        eager_machine, eager_report = generate(make_model())
        lazy_machine, lazy_report = generate_lazy(make_model())
        verdict = equivalent(lazy_machine, eager_machine)
        assert verdict.one_to_one, str(verdict)
        assert lazy_report.merged_states == eager_report.merged_states
        assert len(lazy_machine) == len(eager_machine)

    @pytest.mark.parametrize("make_model", BUNDLED_MODELS)
    def test_unmerged_reachable_sets_identical(self, make_model):
        """Before merging, both engines yield the *same named* states.

        State names encode the component vectors, so the unmerged machines
        must agree exactly — not just up to isomorphism — on states,
        finality and transitions.
        """
        eager_machine, _ = generate(make_model(), merge=False)
        lazy_machine, _ = generate_lazy(make_model(), merge=False)
        assert set(eager_machine.state_names()) == set(lazy_machine.state_names())
        assert eager_machine.start_state.name == lazy_machine.start_state.name
        for state in eager_machine.states:
            twin = lazy_machine.get_state(state.name)
            assert twin.final == state.final
            assert twin.transition_signature() == state.transition_signature()

    @pytest.mark.parametrize("make_model", BUNDLED_MODELS)
    def test_reachable_counts_match(self, make_model):
        _, eager_report = generate(make_model())
        _, lazy_report = generate_lazy(make_model())
        assert lazy_report.reachable_states == eager_report.reachable_states

    def test_commit_r4_merged_is_33(self):
        machine, report = generate_lazy(CommitModel(replication_factor=4))
        assert len(machine) == 33
        assert report.merged_states == 33

    @pytest.mark.parametrize("r", [4, 5, 7, 10, 12, 46])
    def test_commit_closed_form_holds(self, r):
        machine, _ = generate_lazy(CommitModel(r))
        assert len(machine) == merged_state_count(r)


class TestLazyReport:
    """The lazy GenerationReport's engine-specific fields."""

    def test_report_fields(self):
        model = CommitModel(4)
        _, report = generate_lazy(model)
        assert report.engine == "lazy"
        assert report.initial_states == model.space.size() == 512
        assert report.reachable_states == 48
        assert report.frontier_peak >= 1
        assert set(report.timings) == {"explore", "merge", "finish"}
        assert report.timings["merge"] > 0
        assert report.total_time == pytest.approx(sum(report.timings.values()))
        assert "[lazy]" in str(report)

    def test_no_merge_timings(self):
        _, report = generate_lazy(CommitModel(4), merge=False)
        assert set(report.timings) == {"explore", "finish"}
        assert report.merged_states == report.reachable_states == 48

    def test_frontier_peak_bounded_by_reachable(self):
        _, report = generate_lazy(CommitModel(8))
        assert 1 <= report.frontier_peak <= report.reachable_states

    def test_eager_report_defaults(self):
        _, report = generate(CommitModel(4))
        assert report.engine == "eager"
        assert report.frontier_peak == 0


class TestEngineSelection:
    """engine= plumbing through models, the dispatcher and the factory."""

    def test_generate_state_machine_engine_kwarg(self):
        eager = CommitModel(4).generate_state_machine()
        lazy = CommitModel(4).generate_state_machine(engine="lazy")
        assert equivalent(lazy, eager).one_to_one

    def test_generate_with_engine_dispatch(self):
        _, eager_report = generate_with_engine(CommitModel(4), "eager")
        _, lazy_report = generate_with_engine(CommitModel(4), "lazy")
        assert eager_report.engine == "eager"
        assert lazy_report.engine == "lazy"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown generation engine"):
            generate_with_engine(CommitModel(4), "psychic")

    def test_lazy_rejects_prune_false(self):
        with pytest.raises(ValueError, match="requires the eager engine"):
            generate_with_engine(CommitModel(4), "lazy", prune=False)
        with pytest.raises(ValueError, match="requires the eager engine"):
            CommitModel(4).generate_state_machine(prune=False, engine="lazy")

    def test_machine_factory_rejects_unknown_engine(self):
        from repro.core.errors import DeploymentError

        with pytest.raises(DeploymentError, match="unknown generation engine"):
            MachineFactory(
                lambda replication_factor: CommitModel(replication_factor),
                engine="Lazy",
            )

    def test_engines_constant(self):
        assert ENGINES == ("eager", "lazy")

    def test_table1_row_lazy_matches_paper(self):
        row = table1_row(4, engine="lazy")
        assert row.matches_paper()

    def test_machine_factory_lazy_engine(self):
        factory = MachineFactory(
            lambda replication_factor: CommitModel(replication_factor),
            policy=GenerationPolicy.ON_DEMAND,
            engine="lazy",
        )
        assert factory.engine == "lazy"
        instance = factory.new_instance(replication_factor=4)
        for message in ["free", "update", "vote", "vote", "commit", "commit"]:
            instance.receive(message)
        assert instance.is_finished()

    def test_top_level_exports(self):
        import repro

        assert callable(repro.generate_lazy)
        assert "generate_lazy" in repro.__all__


class TestCliEngineFlag:
    """--engine is accepted and reported by the CLI."""

    def test_generate_lazy_flag(self, capsys):
        assert main(["generate", "-r", "12", "--engine", "lazy"]) == 0
        output = capsys.readouterr().out
        assert "[lazy]" in output
        assert "4608 initial states" in output
        assert "193 after merging" in output

    def test_render_lazy_flag(self, capsys):
        assert main(["render", "-r", "4", "--format", "text", "--engine", "lazy"]) == 0
        assert "33" in capsys.readouterr().out

    def test_engine_flag_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--help"])
        output = capsys.readouterr().out
        assert "--engine" in output
        assert "lazy" in output
