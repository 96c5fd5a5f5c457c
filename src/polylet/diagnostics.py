"""Error reporting shared by every pipeline stage.

A Diagnostic is both a value and an exception: stages raise it, the CLI
catches it and renders `file:line:col: kind: message`.

Printing lives here too, below both `syntax` and `typesys`: `render_layout`
prints code, types and values, and `check_print_size` limits the last two.
"""

from __future__ import annotations

import enum
import sys

from .records import record


class Kind(enum.Enum):
    PARSE_ERROR = "ParseError"
    TYPE_ERROR = "TypeError"
    UNBOUND_VAR = "UnboundVar"
    SCOPE_EXTRUSION = "ScopeExtrusion"
    SOUNDNESS_VIOLATION = "SoundnessViolation"
    CSP_SERIALIZATION = "CspSerialization"
    RESOURCE_LIMIT = "ResourceLimit"


@record
class Location:
    """Position in input text, immutable by convention: char offset, 1-based line/column."""

    offset: int
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


def location(text: str, offset: int) -> Location:
    """The Location of `offset` in `text`.  Lines are counted only here,
    when a diagnostic is raised."""
    return Location(offset, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


class Diagnostic(Exception):
    def __init__(self, kind: Kind, message: str, location: Location | None = None):
        super().__init__(message)
        self.kind = kind
        self.message = message
        self.location = location

    def render(self, filename: str = "<input>") -> str:
        if self.location is not None:
            return f"{filename}:{self.location}: {self.kind.value}: {self.message}"
        return f"{filename}: {self.kind.value}: {self.message}"

    def __repr__(self) -> str:
        return f"Diagnostic({self.kind.value}, {self.message!r})"


def parse_error(message: str, location: Location | None = None) -> Diagnostic:
    return Diagnostic(Kind.PARSE_ERROR, message, location)


def type_error(message: str, location: Location | None = None) -> Diagnostic:
    return Diagnostic(Kind.TYPE_ERROR, message, location)


def unbound_var(name: str, location: Location | None = None) -> Diagnostic:
    return Diagnostic(Kind.UNBOUND_VAR, f"unbound variable {name}", location)


def recursion_limit(location: Location | None = None) -> Diagnostic:
    limit = sys.getrecursionlimit()
    return Diagnostic(Kind.RESOURCE_LIMIT, f"nesting exceeds the recursion limit ({limit})", location)


PRINT_LIMIT = 1_000_000  # nodes in a printed type or value, counted as a tree


def print_limit(what: str, size) -> Diagnostic:
    return Diagnostic(Kind.RESOURCE_LIMIT, f"a {what} of {size} nodes exceeds the print limit ({PRINT_LIMIT})")


def check_print_size(what: str, root, parts) -> None:
    """Raise `print_limit` if root, printed as a tree, would pass the limit.
    Counts each node of the DAG that `parts` gives once, by id."""
    sizes: dict[int, int] = {}
    stack = [root]  # each entry is a distinct node of the tree
    while stack:
        node = stack[-1]
        todo = [p for p in parts(node) if id(p) not in sizes]
        if not todo:
            sizes[id(stack.pop())] = 1 + sum([sizes[id(p)] for p in parts(node)])
        elif len(stack) < PRINT_LIMIT:
            stack += todo
        else:  # so the tree is larger, or infinite: a cell that holds itself
            raise print_limit(what, f"more than {PRINT_LIMIT}")
    if sizes[id(root)] > PRINT_LIMIT:
        raise print_limit(what, sizes[id(root)])


def render_layout(what: str, root, level: int, layouts: dict) -> str:
    """The text of root.  `layouts` maps each class of root's family to a
    function giving a node's layout: its text, or its precedence level and
    its parts, each a string or a (child, least level at which the child
    prints without parentheses) pair.  Prints from an explicit stack, so
    any depth is fine; `what` names the family in the error for a node of
    no known class."""
    out: list[str] = []
    emit = out.append
    stack: list = [(root, level)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            emit(item)
            continue
        node, least = item
        try:
            layout = layouts[type(node)](node)
        except KeyError:
            raise TypeError(f"unexpected {what} {node!r}") from None
        if type(layout) is str:
            emit(layout)
            continue
        level, parts = layout
        if level < least:
            emit("(")
            stack.append(")")
        stack += parts[::-1]
    return "".join(out)
