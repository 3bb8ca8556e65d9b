"""Tests for the diagram and documentation renderers (paper Fig 15)."""

import xml.etree.ElementTree as ET

import pytest

from repro.analysis import equivalent
from repro.core.errors import RenderError
from repro.render.dot import DotRenderer
from repro.render.markdown import MarkdownRenderer
from repro.render.xml import XmlRenderer, parse_machine_xml
from tests.conftest import commit_machine


class TestDotRenderer:
    def test_digraph_header(self):
        dot = DotRenderer().render(commit_machine(4))
        assert dot.startswith('digraph "commit[r=4]" {')
        assert dot.rstrip().endswith("}")

    def test_every_state_declared(self):
        machine = commit_machine(4)
        dot = DotRenderer().render(machine)
        for state in machine.states:
            assert f'"{state.name}"' in dot

    def test_start_entry_arrow(self):
        dot = DotRenderer().render(commit_machine(4))
        assert '__start -> "F/0/F/0/F/F/F";' in dot

    def test_final_state_double_circle(self):
        dot = DotRenderer().render(commit_machine(4))
        assert "doublecircle" in dot

    def test_phase_transitions_bold(self):
        """Fig 8: thick arrows for phase transitions, thin for simple."""
        machine = commit_machine(4)
        dot = DotRenderer().render(machine)
        assert "style=bold" in dot
        assert "style=solid" in dot
        bold = dot.count("style=bold")
        assert bold == machine.phase_transition_count()

    def test_edge_count_matches_machine(self):
        machine = commit_machine(4)
        dot = DotRenderer().render(machine)
        edges = dot.count("style=bold") + dot.count("style=solid")
        assert edges == machine.transition_count()

    def test_actions_in_labels(self):
        dot = DotRenderer().render(commit_machine(4))
        assert "->vote" in dot

    def test_actions_can_be_hidden(self):
        dot = DotRenderer(include_actions=False).render(commit_machine(4))
        assert "->vote" not in dot

    def test_rankdir_option(self):
        dot = DotRenderer(rankdir="LR").render(commit_machine(4))
        assert "rankdir=LR;" in dot


class TestXmlRenderer:
    def test_well_formed(self):
        xml = XmlRenderer().render(commit_machine(4))
        root = ET.fromstring(xml)
        assert root.tag == "stateMachine"

    def test_attributes(self):
        root = ET.fromstring(XmlRenderer().render(commit_machine(4)))
        assert root.get("states") == "33"
        assert root.get("startState") == "F/0/F/0/F/F/F"
        assert root.get("finishState") == "FINISHED"

    def test_messages_listed(self):
        root = ET.fromstring(XmlRenderer().render(commit_machine(4)))
        names = [m.get("name") for m in root.findall("./messages/message")]
        assert names == ["update", "vote", "commit", "free", "not_free"]

    def test_state_elements(self):
        root = ET.fromstring(XmlRenderer().render(commit_machine(4)))
        states = root.findall("./states/state")
        assert len(states) == 33

    def test_transitions_carry_actions(self):
        root = ET.fromstring(XmlRenderer().render(commit_machine(4)))
        actions = root.findall(".//transition/action")
        assert actions
        assert all(a.get("name").startswith("->") for a in actions)

    def test_annotations_preserved(self):
        root = ET.fromstring(XmlRenderer().render(commit_machine(4)))
        annotations = root.findall(".//state/annotation")
        assert annotations

    def test_roundtrip_isomorphic(self):
        machine = commit_machine(4)
        parsed = parse_machine_xml(XmlRenderer().render(machine))
        verdict = equivalent(machine, parsed)
        assert verdict.one_to_one, str(verdict)

    def test_roundtrip_preserves_finality(self):
        parsed = parse_machine_xml(XmlRenderer().render(commit_machine(4)))
        assert parsed.finish_state is not None
        assert parsed.finish_state.final

    def test_parse_rejects_garbage(self):
        with pytest.raises(RenderError):
            parse_machine_xml("not xml at all <<<")

    def test_parse_rejects_wrong_root(self):
        with pytest.raises(RenderError):
            parse_machine_xml("<wrong/>")


class TestMarkdownRenderer:
    def test_title(self):
        text = MarkdownRenderer().render(commit_machine(4))
        assert text.startswith("# State machine `commit[r=4]`")

    def test_custom_title(self):
        text = MarkdownRenderer(title="My Machine").render(commit_machine(4))
        assert text.startswith("# My Machine")

    def test_overview_table(self):
        text = MarkdownRenderer().render(commit_machine(4))
        assert "| States | 33 |" in text

    def test_transition_table_has_kinds(self):
        text = MarkdownRenderer().render(commit_machine(4))
        assert "| phase |" in text
        assert "| simple |" in text

    def test_state_sections(self):
        machine = commit_machine(4)
        text = MarkdownRenderer().render(machine)
        for state in machine.states:
            assert f"### `{state.name}`" in text

    def test_start_and_finish_badges(self):
        text = MarkdownRenderer().render(commit_machine(4))
        assert "**start**" in text
        assert "**finish**" in text

    def test_merged_note(self):
        text = MarkdownRenderer().render(commit_machine(4))
        assert "Merged from" in text

    def test_parameters_row(self):
        text = MarkdownRenderer().render(commit_machine(4))
        assert "replication_factor=4" in text
