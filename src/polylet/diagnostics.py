"""Error reporting shared by every pipeline stage.

A Diagnostic is both a value and an exception: stages raise it, the CLI
catches it and renders `file:line:col: kind: message`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Kind(enum.Enum):
    PARSE_ERROR = "ParseError"
    TYPE_ERROR = "TypeError"
    UNBOUND_VAR = "UnboundVar"
    SCOPE_EXTRUSION = "ScopeExtrusion"
    SOUNDNESS_VIOLATION = "SoundnessViolation"
    CSP_SERIALIZATION = "CspSerialization"
    RESOURCE_LIMIT = "ResourceLimit"


@dataclass(frozen=True)
class Location:
    """Position in the input text: byte offset plus 1-based line/column."""

    offset: int
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


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
