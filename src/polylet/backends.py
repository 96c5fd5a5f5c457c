"""Interpretations of the code combinators, and a run under one of them.

* quote   -- rebuilds source trees, the hygienic quotation semantics;
* string  -- the quote backend's tree, checked and printed once as
             concrete syntax (re-parseable plain programs);
* eval    -- the quote backend's tree, run when forced on the machine
             that built it; an inserted let's right-hand side is run once,
             at insertion time, and its value is what the scope sees.

A backend is a name that the run's `Machine` keeps, and only `engine`
knows what differs by it: how a persisted value is lifted, what a let
insertion does, and the prefix of `lam`'s binders.  Here, `evaluate`
runs a term, then checks and wraps the final code of a printing backend.
"""

from __future__ import annotations

from . import syntax as S
from .diagnostics import Diagnostic, Kind
from .engine import Machine, RuntimeValue, VCode, runtime_tag
from .records import record

__all__ = [
    "StringCode",
    "QuoteCode",
    "evaluate",
    "check_scope",
]


@record
class StringCode:
    text: str


@record
class QuoteCode:
    tree: S.Expr


def check_scope(code: QuoteCode) -> list[RuntimeValue]:
    """Reject rebuilt code with unbound variables (extruded binders);
    returns the run-time values the code persists."""
    free, persisted = S.scan(code.tree)
    if free:
        raise Diagnostic(
            Kind.SCOPE_EXTRUSION,
            "generated code has unbound variables: " + ", ".join(sorted(free)),
        )
    return persisted


def evaluate(term, backend: str | None = "quote", name_start: int = 1) -> Machine:
    """Evaluate a closed translated term on a fresh machine, and return the
    machine, which holds the final value.

    Under both printing backends the final code value is checked for
    scope extrusion; the string backend then prints the tree, and rejects
    one that persists a run-time value, which has no concrete syntax.
    """
    machine = Machine(backend, name_start)
    value = machine.execute(term)
    if backend in ("quote", "string") and isinstance(value, VCode):
        code = QuoteCode(value.code)
        persisted = check_scope(code)
        if backend == "string":
            if persisted:
                tag = runtime_tag(persisted[0])
                raise Diagnostic(Kind.CSP_SERIALIZATION, f"cannot serialize a {tag} value into emitted code")
            code = StringCode(S.pretty(code.tree))
        value = VCode(code)
    machine.value = value
    return machine
