"""Code-generation buffer with the paper's Fig 18 utility methods.

Generative code is hard to read when it controls the generated layout via
explicit whitespace in string literals.  The paper's remedy is a small set
of buffer utilities — ``add``, ``addLn``, ``enterBlock``, ``exitBlock``,
``increaseIndent``, ``decreaseIndent``, ``resetIndent`` — that manage
indentation and block structure so the generative code (Fig 19) reads like
the generated code (Fig 16).  :class:`CodeBuffer` is a Python port of those
utilities supporting both brace-delimited blocks (Java-style output) and
indentation-only blocks (Python-style output).
"""

from __future__ import annotations

from repro.core.errors import RenderError


class CodeBuffer:
    """Accumulates generated source with managed indentation.

    ``brace_blocks`` selects the block style: ``True`` makes
    :meth:`enter_block` emit ``{`` and :meth:`exit_block` emit ``}``
    (Java-style, as in the paper's Fig 17–19); ``False`` adjusts only the
    indent level (Python-style).
    """

    def __init__(self, indent_unit: str = "    ", brace_blocks: bool = False):
        self._parts: list[str] = []
        self._indent_unit = indent_unit
        self._level = 0
        self._brace_blocks = brace_blocks
        self._at_line_start = True

    # ------------------------------------------------------------------
    # Fig 18 operations
    # ------------------------------------------------------------------

    def add(self, *items: str) -> "CodeBuffer":
        """Append items to the current line (no newline)."""
        for item in items:
            if item and self._at_line_start:
                self._parts.append(self._indent_unit * self._level)
                self._at_line_start = False
            self._parts.append(item)
        return self

    def add_line(self, *items: str) -> "CodeBuffer":
        """Append items followed by a newline."""
        parts = self._parts
        if self._at_line_start and any(items):
            parts.append(self._indent_unit * self._level)
        parts += items
        parts.append("\n")
        self._at_line_start = True
        return self

    def blank(self) -> "CodeBuffer":
        """Append an empty line (never indented)."""
        if not self._at_line_start:
            self._parts.append("\n")
            self._at_line_start = True
        self._parts.append("\n")
        return self

    def enter_block(self, header: str | None = None) -> "CodeBuffer":
        """Open a new block and increase the indent level.

        With brace blocks, ``header`` (if given) is emitted followed by
        `` {``; without, ``header`` is emitted as its own line (callers
        typically include the trailing ``:`` themselves).
        """
        if self._brace_blocks:
            if header is not None:
                self.add(header, " ")
            self.add_line("{")
        elif header is not None:
            self.add_line(header)
        self._level += 1
        return self

    def exit_block(self) -> "CodeBuffer":
        """Close the current block and decrease the indent level."""
        if self._level == 0:
            raise RenderError("exit_block() without matching enter_block()")
        self._level -= 1
        if self._brace_blocks:
            self.add_line("}")
        return self

    def increase_indent(self) -> "CodeBuffer":
        """Increase the indent level without emitting anything."""
        self._level += 1
        return self

    def decrease_indent(self) -> "CodeBuffer":
        """Decrease the indent level without emitting anything."""
        if self._level == 0:
            raise RenderError("decrease_indent() below zero")
        self._level -= 1
        return self

    def reset_indent(self) -> "CodeBuffer":
        """Reset indentation to the left margin."""
        self._level = 0
        return self

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    @property
    def level(self) -> int:
        """Current indent level."""
        return self._level

    def text(self) -> str:
        """The accumulated source text."""
        if self._level != 0:
            raise RenderError(
                f"unbalanced blocks: {self._level} block(s) still open"
            )
        return "".join(self._parts)

    def __str__(self) -> str:
        return "".join(self._parts)
