"""Artefact renderers for generated state machines (paper §3.5, §4.1).

* :class:`~repro.render.text.TextRenderer` — Fig 14 textual descriptions;
* :class:`~repro.render.source.PythonSourceRenderer` — executable protocol
  implementations (the paper's Fig 16/17/19, retargeted to Python);
* :class:`~repro.render.source.JavaSourceRenderer` — Fig 16-faithful Java;
* :class:`~repro.render.dot.DotRenderer` — Graphviz diagrams (Fig 15);
* :class:`~repro.render.hsm.HierarchicalDotRenderer` and
  :class:`~repro.render.hsm.HierarchicalOutlineRenderer` — clustered
  diagrams and text outlines of hierarchical (unflattened) designs;
* :class:`~repro.render.xml.XmlRenderer` — XML diagram interchange (Fig 15)
  with :func:`~repro.render.xml.parse_machine_xml` for round-trips;
* :class:`~repro.render.markdown.MarkdownRenderer` — documentation;
* :class:`~repro.render.codebuffer.CodeBuffer` — the Fig 18 generation
  utilities all source renderers are built on.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.render.base import (
        Renderer,
        camel_case,
        display_action,
        display_message,
        python_identifier,
    )
    from repro.render.codebuffer import CodeBuffer
    from repro.render.dot import DotRenderer
    from repro.render.efsm_source import PythonEfsmRenderer, efsm_class_name
    from repro.render.efsm_text import EfsmTextRenderer
    from repro.render.hsm import HierarchicalDotRenderer, HierarchicalOutlineRenderer
    from repro.render.html import HtmlRenderer
    from repro.render.markdown import MarkdownRenderer
    from repro.render.scxml import SCXML_NS, ScxmlRenderer
    from repro.render.source import (
        JavaSourceRenderer,
        PythonSourceRenderer,
        action_method_name,
        machine_class_name,
    )
    from repro.render.text import TextRenderer
    from repro.render.xml import XmlRenderer, parse_machine_xml

__all__ = [
    "CodeBuffer",
    "DotRenderer",
    "EfsmTextRenderer",
    "HierarchicalDotRenderer",
    "HierarchicalOutlineRenderer",
    "HtmlRenderer",
    "JavaSourceRenderer",
    "MarkdownRenderer",
    "PythonEfsmRenderer",
    "PythonSourceRenderer",
    "Renderer",
    "SCXML_NS",
    "ScxmlRenderer",
    "TextRenderer",
    "XmlRenderer",
    "action_method_name",
    "camel_case",
    "display_action",
    "display_message",
    "efsm_class_name",
    "machine_class_name",
    "parse_machine_xml",
    "python_identifier",
]

# Resolved on first use (see repro._lazy): importing one renderer loads
# neither the others nor xml.etree and html.
_EXPORTS = {
    "repro.render.base": (
        "Renderer",
        "camel_case",
        "display_action",
        "display_message",
        "python_identifier",
    ),
    "repro.render.codebuffer": ("CodeBuffer",),
    "repro.render.dot": ("DotRenderer",),
    "repro.render.efsm_source": ("PythonEfsmRenderer", "efsm_class_name"),
    "repro.render.efsm_text": ("EfsmTextRenderer",),
    "repro.render.hsm": ("HierarchicalDotRenderer", "HierarchicalOutlineRenderer"),
    "repro.render.html": ("HtmlRenderer",),
    "repro.render.markdown": ("MarkdownRenderer",),
    "repro.render.scxml": ("SCXML_NS", "ScxmlRenderer"),
    "repro.render.source": (
        "JavaSourceRenderer",
        "PythonSourceRenderer",
        "action_method_name",
        "machine_class_name",
    ),
    "repro.render.text": ("TextRenderer",),
    "repro.render.xml": ("XmlRenderer", "parse_machine_xml"),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
