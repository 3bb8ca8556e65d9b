"""The textual renderer reproduces the paper's Fig 14 artefact."""

import pytest

from repro.render.text import TextRenderer
from tests.conftest import commit_machine

#: The description block of Fig 14, reproduced verbatim from the paper.
FIG14_DESCRIPTION_LINES = [
    "Have received initial update from client.",
    "Have not voted since another update has already been voted for.",
    "Have received 2 votes and no commits.",
    "Have not sent a commit since neither the vote threshold (3) nor the "
    "external commit threshold (2) has been reached.",
    "May not choose since another ongoing update has been voted for.",
    "Have not chosen this update since another ongoing update has been chosen.",
    "Waiting for 1 further vote (including local vote if any) before sending commit.",
    "Waiting for 2 further external commits to finish.",
]


def fig14_block() -> str:
    machine = commit_machine(4)
    state = machine.get_state("T/2/F/0/F/F/F")
    return TextRenderer(include_header=False).render_state(state)


class TestFig14:
    def test_header_line(self):
        assert fig14_block().startswith("state: T/2/F/0/F/F/F\n")

    def test_underline_matches_title_length(self):
        lines = fig14_block().splitlines()
        assert lines[1] == "-" * len(lines[0])

    def test_description_lines_verbatim(self):
        text = fig14_block()
        for line in FIG14_DESCRIPTION_LINES:
            assert line in text, f"missing Fig 14 line: {line!r}"

    def test_vote_transition_block(self):
        text = fig14_block()
        assert " message: VOTE" in text
        vote_section = text.split(" message: VOTE")[1].split(" message:")[0]
        assert "action: ->vote" in vote_section
        assert "action: ->commit" in vote_section
        assert "transition to: T/3/T/0/T/F/F" in vote_section

    def test_commit_transition_block(self):
        text = fig14_block()
        commit_section = text.split(" message: COMMIT")[1].split(" message:")[0]
        assert "action:" not in commit_section  # simple transition
        assert "transition to: T/2/F/1/F/F/F" in commit_section

    def test_free_transition_block(self):
        text = fig14_block()
        free_section = text.split(" message: FREE")[1]
        assert "action: ->vote" in free_section
        assert "action: ->commit" in free_section
        assert "action: ->not free" in free_section  # display form with space
        assert "transition to: T/2/T/0/T/T/T" in free_section

    def test_exactly_three_transitions(self):
        assert fig14_block().count(" message: ") == 3


class TestWholeMachineRendering:
    def test_header_contains_counts(self):
        text = TextRenderer().render(commit_machine(4))
        assert "states: 33" in text
        assert "start state: F/0/F/0/F/F/F" in text
        assert "finish state: FINISHED" in text

    def test_message_alphabet_displayed(self):
        text = TextRenderer().render(commit_machine(4))
        assert "UPDATE, VOTE, COMMIT, FREE, NOT FREE" in text

    @pytest.mark.parametrize("r", [4, 13])
    def test_every_state_has_a_block(self, r):
        machine = commit_machine(r)
        text = TextRenderer().render(machine)
        for state in machine.states:
            assert f"state: {state.name}" in text
        blocks = [line for line in text.splitlines() if line.startswith("state: ")]
        assert len(blocks) == len(machine)

    def test_finish_state_marked(self):
        text = TextRenderer().render(commit_machine(4))
        assert "This is a finish state" in text

    def test_finish_state_has_no_transitions(self):
        machine = commit_machine(4)
        block = TextRenderer(include_header=False).render_state(machine.finish_state)
        assert "(none)" in block
