"""Interpretations of the code combinators.

* quote   -- rebuilds source trees, the hygienic quotation semantics;
* string  -- the quote backend's tree, checked and printed once as
             concrete syntax (re-parseable plain programs);
* eval    -- the quote backend's tree, run when forced on the machine
             that built it; an inserted let's right-hand side is run once,
             at insertion time, and its value is what the scope sees.

A backend is built on one run's machine and installed as its `backend`.
The machine splits `lam` around its own application of the body
(`begin_lam`, `finish_lam`); `genlet_parts` gives what the resumed
continuation sees and an optional wrapper for the delimited result (the
inserted let around the scope's code); `apply_simple` builds the rest.

Let insertion is shared across backends: `genlet` captures up to its
scope's prompt and splices a binding at the scope point; `genletfun`
additionally memoizes the inserted function binding, so every use within
one funscope shares a single generated binder.
"""

from __future__ import annotations

from typing import Optional

from . import syntax as S
from .diagnostics import Diagnostic, Kind, type_error
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


# The node class each compound combinator builds.
_NODE_OF = {name: cls for cls, name in S.COMB_OF.items()}


class QuoteBackend:
    """Code values are bare trees; `evaluate` wraps the final one."""

    label, binder_prefix = "quote", "x"

    def __init__(self, machine: Machine):
        self.machine = machine

    def _tree(self, v: RuntimeValue) -> S.Expr:
        if isinstance(v, VCode):
            return v.code
        raise type_error(f"{self.label} backend got a non-code operand ({runtime_tag(v)})")

    def lift(self, v: RuntimeValue) -> S.Expr:
        lit = value_to_literal(v)
        return lit if lit is not None else S.CspValue(v)

    def begin_lam(self) -> tuple[str, VCode]:
        name = self.machine.gensym(self.binder_prefix)
        return name, VCode(S.Var(name))

    def finish_lam(self, binder: str, body: VCode) -> VCode:
        return VCode(S.Fun(binder, self._tree(body)))

    def genlet_parts(self, code: VCode):
        tvar = self.machine.gensym("t")
        bound = self._tree(code)

        def wrap(rest: RuntimeValue) -> RuntimeValue:
            return VCode(S.Let(tvar, bound, self._tree(rest)))

        return VCode(S.Var(tvar)), wrap

    def apply_simple(self, name: str, values: list[RuntimeValue]) -> RuntimeValue:
        node = _NODE_OF.get(name)
        if node is not None:
            return VCode(node(*map(self._tree, values)))
        if name in ("int", "str", "csp"):
            (v,) = values
            return VCode(self.lift(v))
        if name == "nil":
            return VCode(S.Nil())
        raise type_error(f"unknown combinator {name}")


class EvalBackend(QuoteBackend):
    """Code values are the quote backend's trees, run on the same machine
    when forced.  A lifted value is shared, never rebuilt, and an inserted
    let's right-hand side runs once, at insertion time."""

    label, binder_prefix = "eval", "dynamic"

    def lift(self, v: RuntimeValue) -> S.Expr:
        return S.CspValue(v)

    def genlet_parts(self, code: VCode):
        # The continuation sees the bound value, and there is nothing to wrap.
        return VCode(S.CspValue(self.machine.run_code(self._tree(code)))), None


_BACKENDS = {
    "string": QuoteBackend,
    "quote": QuoteBackend,
    "eval": EvalBackend,
}


def evaluate(term, backend: str | None = "quote", name_start: int = 1) -> Evaluation:
    """Evaluate a closed translated term on a fresh machine.

    Under both printing backends the final code value is checked for
    scope extrusion; the string backend then prints the tree, and rejects
    one that persists a run-time value, which has no concrete syntax.
    """
    machine = Machine(name_start)
    if backend is not None:
        machine.backend = _BACKENDS[backend](machine)
    value = machine.execute(term)
    if backend in ("quote", "string") and isinstance(value, VCode):
        code = QuoteCode(value.code)
        persisted = check_scope(code)
        if backend == "string":
            if persisted:
                raise Diagnostic(
                    Kind.CSP_SERIALIZATION,
                    f"cannot serialize a {runtime_tag(persisted[0])} value into emitted code",
                )
            code = StringCode(S.pretty(code.tree))
        value = VCode(code)
    return Evaluation(value=value, machine=machine)
