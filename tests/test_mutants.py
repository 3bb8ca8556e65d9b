"""scripts/mutants.py without a subprocess: every declared locator still
finds its one node, so a refactor that moves a target fails tier-1 in
well under a second, not only the mutation gate."""

import ast
import functools
import importlib.util
import pathlib

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _SCRIPT)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@functools.cache
def tree(file: str) -> ast.Module:
    return ast.parse((mutants.PACKAGE / file).read_text())


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.ident)
def test_each_declared_mutant_matches_one_node(mutant):
    mutants.locate(mutant, tree(mutant.file))
    assert (mutants.REPO / mutant.test).is_file()


@pytest.mark.parametrize("node, count", [("recycled += 2", 0), ("recycled += 1", 2)])
def test_a_locator_matching_no_node_or_two_is_refused(node, count):
    mutant = mutants.MUTANTS[0]._replace(node=node)
    with pytest.raises(mutants.Refused, match=f"matches {count} nodes, not 1"):
        mutants.locate(mutant, tree(mutant.file))


def test_a_test_file_failing_unmutated_refuses_the_run(monkeypatch, capsys):
    runs = []

    def failing(copy_root, targets, stop, timeout):
        runs.append((targets, stop))
        return mutants.Outcome("killed", 0.0, ("tests/x.py::test_y",))

    monkeypatch.setattr(mutants, "_pytest", failing)
    assert mutants.main([]) == 2
    assert "fails with no mutation applied" in capsys.readouterr().err
    # Only the unmutated runs, one per named file; no mutant was scored.
    named = {mutant.test for mutant in mutants.MUTANTS}
    assert sorted(runs) == sorted(([name], False) for name in named)
