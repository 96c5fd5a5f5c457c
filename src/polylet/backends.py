"""Interpretations of the code combinators.

* quote   -- rebuilds source trees, the hygienic quotation semantics;
* string  -- the quote backend's tree, checked and printed once as
             concrete syntax (re-parseable plain programs);
* eval    -- a meta-circular interpretation: code values are thunks, and
             generated functions capture the dynamic environment at force
             time, binding their parameter with dlet on each application.

A backend is built on one run's machine and installed as its `backend`.
The machine splits `lam` around its own application of the body
(`begin_lam`, `finish_lam`); `genlet_parts` gives what the resumed
continuation sees and an optional wrapper for the delimited result (the
inserted let around the scope's code); `apply_simple` runs the rest.

Let insertion is shared across backends: `genlet` captures up to its
scope's prompt and splices a binding at the scope point; `genletfun`
additionally memoizes the inserted function binding, so every use within
one funscope shares a single generated binder.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from . import syntax as S
from .diagnostics import Diagnostic, Kind, type_error, unbound_var
from .engine import (
    Evaluation,
    Machine,
    VCode,
    VInt,
    VList,
    VNative,
    VPair,
    VRefCell,
    VStr,
    VUnit,
    RuntimeValue,
    add_ints,
    rset_runtime,
    runtime_tag,
)
from .records import record

__all__ = [
    "StringCode",
    "QuoteCode",
    "EvalCode",
    "QuoteBackend",
    "EvalBackend",
    "evaluate",
    "check_scope",
    "rset_runtime",
]


@record
class StringCode:
    text: str


@record
class QuoteCode:
    tree: S.Expr


@record(eq=False)
class EvalCode:
    thunk: Callable[[], RuntimeValue]


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

    def __init__(self, machine: Machine):
        self.machine = machine

    def _tree(self, v: RuntimeValue) -> S.Expr:
        if isinstance(v, VCode):
            return v.code
        raise type_error(f"quote backend got a non-code operand ({runtime_tag(v)})")

    def begin_lam(self) -> tuple[object, VCode]:
        name = self.machine.gensym("x")
        return name, VCode(S.Var(name))

    def finish_lam(self, binder: object, body: VCode) -> VCode:
        assert isinstance(binder, str)
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
            lit = value_to_literal(v)
            return VCode(lit if lit is not None else S.CspValue(v))
        if name == "nil":
            return VCode(S.Nil())
        raise type_error(f"unknown combinator {name}")


class EvalBackend:
    """Code values are thunks over a dynamic environment: generated binder
    ids to values."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self._dyn_ids = itertools.count(1)
        self.dynenv: dict[int, RuntimeValue] = {}

    def dnew(self) -> int:
        return next(self._dyn_ids)

    def dref(self, ref: int) -> RuntimeValue:
        try:
            return self.dynenv[ref]
        except KeyError:
            raise unbound_var(f"dynamic variable #{ref}") from None

    def dlet(
        self,
        denv: dict[int, RuntimeValue],
        ref: int,
        value: RuntimeValue,
        body: Callable[[], RuntimeValue],
    ) -> RuntimeValue:
        saved = self.dynenv
        self.dynenv = env = denv.copy()
        env[ref] = value
        try:
            return body()
        finally:
            self.dynenv = saved

    def _code(self, v: RuntimeValue) -> EvalCode:
        if isinstance(v, VCode) and isinstance(v.code, EvalCode):
            return v.code
        raise type_error(f"eval backend got a non-code operand ({runtime_tag(v)})")

    def _wrap(self, thunk: Callable[[], RuntimeValue]) -> VCode:
        return VCode(EvalCode(thunk))

    def force(self, code: EvalCode) -> RuntimeValue:
        self.machine.force_depth += 1
        try:
            return code.thunk()
        finally:
            self.machine.force_depth -= 1

    def begin_lam(self) -> tuple[object, VCode]:
        r = self.dnew()
        return r, self._wrap(lambda: self.dref(r))

    def finish_lam(self, binder: object, body: VCode) -> VCode:
        b = self._code(body)

        def make_closure() -> RuntimeValue:
            denv = self.dynenv  # kept, not copied: dlet always builds a new dict

            def call(x: RuntimeValue) -> RuntimeValue:
                return self.dlet(denv, binder, x, lambda: self.force(b))

            return VNative(call)

        return self._wrap(make_closure)

    def genlet_parts(self, code: VCode):
        # Force the bound expression at insertion time; the continuation
        # sees a constant delayed value, and there is nothing to wrap.
        shared = self.force(self._code(code))
        return self._wrap(lambda: shared), None

    def apply_simple(self, name: str, values: list[RuntimeValue]) -> RuntimeValue:
        if name in ("int", "str", "csp"):
            (v,) = values
            # The present-stage value itself is shared with the future stage.
            return self._wrap(lambda: v)
        if name == "nil":
            return self._wrap(lambda: VList(()))
        codes = [self._code(v) for v in values]
        if name == "add":
            a, b = codes

            return self._wrap(lambda: add_ints(self.force(a), self.force(b)))
        if name == "app":
            f, x = codes
            return self._wrap(lambda: self.machine.call(self.force(f), self.force(x)))
        if name == "pair":
            a, b = codes

            def pair() -> RuntimeValue:
                second = self.force(b)
                first = self.force(a)
                return VPair(first, second)

            return self._wrap(pair)
        if name == "cons":
            h, t = codes

            def cons() -> RuntimeValue:
                head = self.force(h)
                tail = self.force(t)
                if not isinstance(tail, VList):
                    raise type_error("cons onto a non-list")
                return VList((head,) + tail.items)

            return self._wrap(cons)
        if name == "ref_":
            (a,) = codes
            return self._wrap(lambda: VRefCell(self.force(a)))
        if name == "rget":
            (a,) = codes

            def rget() -> RuntimeValue:
                cell = self.force(a)
                if not isinstance(cell, VRefCell):
                    raise type_error("dereference of a non-cell")
                return cell.contents

            return self._wrap(rget)
        if name == "rset_":
            c, v = codes
            return self._wrap(lambda: rset_runtime(self.force(c), self.force(v)))
        raise type_error(f"unknown combinator {name}")


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
    if isinstance(machine.backend, QuoteBackend) and isinstance(value, VCode):
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
