"""Interpretations of the code combinators.

* quote   -- rebuilds source trees, the hygienic quotation semantics;
* string  -- the quote backend's tree, checked and printed once as
             concrete syntax (re-parseable plain programs);
* eval    -- the quote backend's tree, run when forced on the machine
             that built it; an inserted let's right-hand side is run once,
             at insertion time, and its value is what the scope sees.

The machine builds every node itself (`engine._COMB`).  A backend,
given to the run's `Machine`, gives only what differs:
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


def value_to_literal(v: RuntimeValue, built: dict | None = None) -> Optional[S.Expr]:
    """Rebuild a ground value as a literal tree; None if not ground.  Each
    distinct value is rebuilt once (`built` keeps its tree by id), so the
    tree shares what the value shares."""
    if built is None:
        built = {}
    tree = built.get(id(v))
    if tree is not None:
        return tree
    if isinstance(v, VInt):
        tree = S.IntLit(v.value)
    elif isinstance(v, VStr):
        tree = S.StrLit(v.value)
    elif isinstance(v, VUnit):
        tree = S.Unit()
    elif isinstance(v, VList):
        tree = S.Nil()
        for item in reversed(v.items):
            part = value_to_literal(item, built)
            if part is None:
                return None
            tree = S.Cons(part, tree)
    elif isinstance(v, VPair):
        a, b = value_to_literal(v.first, built), value_to_literal(v.second, built)
        if a is None or b is None:
            return None
        tree = S.Pair(a, b)
    else:
        return None
    built[id(v)] = tree
    return tree


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
        return VCode(S.CspValue(m.execute(code.code))), None


_BACKENDS = {"string": QuoteBackend, "quote": QuoteBackend, "eval": EvalBackend}


def evaluate(term, backend: str | None = "quote", name_start: int = 1) -> Machine:
    """Evaluate a closed translated term on a fresh machine, and return the
    machine, which holds the final value.

    Under both printing backends the final code value is checked for
    scope extrusion; the string backend then prints the tree, and rejects
    one that persists a run-time value, which has no concrete syntax.
    """
    machine = Machine(_BACKENDS[backend]() if backend else None, name_start)
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
