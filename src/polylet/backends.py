"""Interpretations of the code combinators.

* quote   -- rebuilds source trees, the hygienic quotation semantics;
* string  -- the quote backend's tree, checked and printed once as
             concrete syntax (re-parseable plain programs);
* eval    -- the quote backend's tree, run when forced on the machine
             that built it; an inserted let's right-hand side is run once,
             at insertion time, and its value is what the scope sees.

The machine builds every node itself (`engine._COMB`).  A backend,
installed as the run's `Machine.backend`, gives only what differs:
`lift` rebuilds or embeds a persisted value; `genlet_parts` gives what
the continuation resumed by a let insertion sees, and the binding, if
any, to insert around the scope's code; `label` names the backend in
messages; `binder_prefix` starts the names that `lam` and `genletfun`
make.
"""

from __future__ import annotations

from typing import Optional

from . import syntax as S
from .diagnostics import Diagnostic, Kind
from .engine import (
    Evaluation,
    Machine,
    VCode,
    VInt,
    VList,
    VPair,
    VStr,
    VUnit,
    RuntimeValue,
    runtime_tag,
)
from .records import record

__all__ = [
    "StringCode",
    "QuoteCode",
    "QuoteBackend",
    "EvalBackend",
    "evaluate",
    "check_scope",
]


@record
class StringCode:
    text: str


@record
class QuoteCode:
    tree: S.Expr


def value_to_literal(v: RuntimeValue) -> Optional[S.Expr]:
    """Rebuild a ground value as a literal tree; None if not ground."""
    if isinstance(v, VInt):
        return S.IntLit(v.value)
    if isinstance(v, VStr):
        return S.StrLit(v.value)
    if isinstance(v, VUnit):
        return S.Unit()
    if isinstance(v, VList):
        tree: S.Expr = S.Nil()
        for item in reversed(v.items):
            part = value_to_literal(item)
            if part is None:
                return None
            tree = S.Cons(part, tree)
        return tree
    if isinstance(v, VPair):
        a, b = value_to_literal(v.first), value_to_literal(v.second)
        if a is None or b is None:
            return None
        return S.Pair(a, b)
    return None


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


class QuoteBackend:
    """Code values are bare trees; `evaluate` wraps the final one."""

    label, binder_prefix = "quote", "x"

    def lift(self, v: RuntimeValue) -> S.Expr:
        return value_to_literal(v) or S.CspValue(v)

    def genlet_parts(self, m: Machine, code: VCode):
        tvar = m.gensym("t")
        return VCode(S.Var(tvar)), (tvar, code.code)


class EvalBackend(QuoteBackend):
    """Code values are the quote backend's trees, run on the same machine
    when forced.  A lifted value is shared, never rebuilt, and an inserted
    let's right-hand side runs once, at insertion time."""

    label, binder_prefix = "eval", "dynamic"

    def lift(self, v: RuntimeValue) -> S.Expr:
        return S.CspValue(v)

    def genlet_parts(self, m: Machine, code: VCode):
        # The continuation sees the bound value, and nothing is inserted.
        return VCode(S.CspValue(m.run_code(code.code))), None


_BACKENDS = {"string": QuoteBackend, "quote": QuoteBackend, "eval": EvalBackend}


def evaluate(term, backend: str | None = "quote", name_start: int = 1) -> Evaluation:
    """Evaluate a closed translated term on a fresh machine.

    Under both printing backends the final code value is checked for
    scope extrusion; the string backend then prints the tree, and rejects
    one that persists a run-time value, which has no concrete syntax.
    """
    machine = Machine(name_start)
    if backend is not None:
        machine.backend = _BACKENDS[backend]()
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
    return Evaluation(value=value, machine=machine)
