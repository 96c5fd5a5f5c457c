"""Call-by-value evaluator for translated terms, with delimited control.

The machine is defunctionalized: the continuation is an explicit stack of
frames, so a prompt is a frame and capturing up to it is a slice.  Let
insertion (shift0) removes the segment above the delimiter and re-installs
it in place, parking the backend's wrap-up as a post-processing frame;
nothing leaves the stack, so a capture inside the resumed segment still
reaches prompts below it.  Combinators that must apply object-level
functions (lam, the scope builders, genletfun) run them on the main stack
so captures may cross them.

Pair components evaluate right to left, mirroring the host language the
generated traces come from; every other position is left to right.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from . import syntax as S
from .diagnostics import Diagnostic, Kind, type_error, unbound_var
from .syntax import UNIT_BINDER, binds, quote_string, unescape


# --- runtime values --------------------------------------------------------


class RuntimeValue:
    def __str__(self) -> str:
        return render_value(self)


@dataclass(frozen=True)
class VInt(RuntimeValue):
    value: int


@dataclass(frozen=True)
class VStr(RuntimeValue):
    value: str


@dataclass(frozen=True)
class VUnit(RuntimeValue):
    pass


@dataclass(frozen=True)
class VList(RuntimeValue):
    items: tuple[RuntimeValue, ...]


@dataclass(frozen=True)
class VPair(RuntimeValue):
    first: RuntimeValue
    second: RuntimeValue


@dataclass(eq=False)
class VRefCell(RuntimeValue):
    """Identity is observable: separately created cells are distinct."""

    contents: RuntimeValue


@dataclass(eq=False, frozen=True)
class VClosure(RuntimeValue):
    param: str
    body: S.Expr
    env: dict[str, RuntimeValue]


@dataclass(eq=False, frozen=True)
class VNative(RuntimeValue):
    """A host-level function value (e.g. a forced generated function)."""

    fn: Callable[[RuntimeValue], RuntimeValue]
    label: str = "<fun>"


@dataclass(eq=False, frozen=True)
class VCode(RuntimeValue):
    code: object  # a backend CodeValue


@dataclass(eq=False)
class FunScopeMemo:
    """Write-once slot for the function binding a funscope has inserted."""

    value: Optional[VCode] = None

    def store(self, code: VCode) -> None:
        assert self.value is None, "funscope memo overwritten"
        self.value = code


@dataclass(eq=False, frozen=True)
class VScope(RuntimeValue):
    prompt: int
    memo: Optional[FunScopeMemo] = None


def runtime_tag(v: RuntimeValue) -> str:
    if isinstance(v, VInt):
        return "int"
    if isinstance(v, VStr):
        return "string"
    if isinstance(v, VUnit):
        return "unit"
    if isinstance(v, VList):
        return "list"
    if isinstance(v, VPair):
        return "pair"
    if isinstance(v, VRefCell):
        return "ref"
    if isinstance(v, (VClosure, VNative)):
        return "function"
    if isinstance(v, VCode):
        return "code"
    return type(v).__name__


def rset_runtime(cell: RuntimeValue, v: RuntimeValue) -> VList:
    """Prepend v to the list stored in the cell, store and return it.

    The run-time tag of v must match the tag of the current head; a
    mismatch is the observable surrogate for memory corruption in an
    unsafely shared cell.
    """
    if not isinstance(cell, VRefCell):
        raise type_error(f"rset expects a reference cell, got {runtime_tag(cell)}")
    old = cell.contents
    if not isinstance(old, VList):
        raise type_error(f"rset expects a cell holding a list, got {runtime_tag(old)}")
    if old.items:
        have, new = runtime_tag(old.items[0]), runtime_tag(v)
        if have != new:
            raise Diagnostic(
                Kind.SOUNDNESS_VIOLATION,
                f"cannot prepend a {new} onto a {have} list",
            )
    updated = VList((v,) + old.items)
    cell.contents = updated
    return updated


def parse_value_literal(text: str) -> RuntimeValue:
    """Ground literal for a CLI argument: int, "string", (), or []."""
    text = text.strip()
    if text == "()":
        return VUnit()
    if text == "[]":
        return VList(())
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return VStr(unescape(text[1:-1]))
    try:
        return VInt(int(text))
    except ValueError:
        raise type_error(f"cannot parse literal argument {text!r}") from None


def render_value(v: RuntimeValue) -> str:
    if isinstance(v, VInt):
        return str(v.value)
    if isinstance(v, VStr):
        return quote_string(v.value)
    if isinstance(v, VUnit):
        return "()"
    if isinstance(v, VList):
        return "[" + "; ".join(render_value(x) for x in v.items) + "]"
    if isinstance(v, VPair):
        return f"({render_value(v.first)}, {render_value(v.second)})"
    if isinstance(v, VRefCell):
        return "{contents = " + render_value(v.contents) + "}"
    if isinstance(v, (VClosure, VNative)):
        return "<fun>"
    if isinstance(v, VCode):
        return "<code>"
    if isinstance(v, VScope):
        return "<scope>"
    return repr(v)


# --- dynamic binding -------------------------------------------------------


class Session:
    """Owns the per-evaluation state: name supplies, the prompt allocator,
    and the dynamic environment used by the evaluating backend."""

    def __init__(self, name_start: int = 1):
        self.backend = None  # set by the evaluation entry point
        self._name_start = name_start
        self._names: dict[str, itertools.count] = {}
        self._prompts = itertools.count(1)
        self._dyn_ids = itertools.count(1)
        self.dynenv: dict[int, RuntimeValue] = {}
        self.force_depth = 0

    def gensym(self, prefix: str) -> str:
        counter = self._names.setdefault(prefix, itertools.count(self._name_start))
        return f"{prefix}_{next(counter)}"

    def fresh_prompt(self) -> int:
        return next(self._prompts)

    # DynBind: dnew / dref / denv_get / dlet.
    def dnew(self) -> int:
        return next(self._dyn_ids)

    def dref(self, ref: int) -> RuntimeValue:
        try:
            return self.dynenv[ref]
        except KeyError:
            raise unbound_var(f"dynamic variable #{ref}") from None

    def denv_get(self) -> dict[int, RuntimeValue]:
        return dict(self.dynenv)

    def dlet(
        self,
        denv: dict[int, RuntimeValue],
        ref: int,
        value: RuntimeValue,
        body: Callable[[], RuntimeValue],
    ) -> RuntimeValue:
        saved = self.dynenv
        self.dynenv = {**denv, ref: value}
        try:
            return body()
        finally:
            self.dynenv = saved


# --- frames ----------------------------------------------------------------


class Frame:
    pass


@dataclass(frozen=True)
class FApp(Frame):
    arg: S.Expr
    env: dict


@dataclass(frozen=True)
class FCall(Frame):
    fn: RuntimeValue


@dataclass(frozen=True)
class FLet(Frame):
    name: str
    body: S.Expr
    env: dict


@dataclass(frozen=True)
class FAddL(Frame):
    right: S.Expr
    env: dict


@dataclass(frozen=True)
class FAddR(Frame):
    left: RuntimeValue


@dataclass(frozen=True)
class FConsL(Frame):
    tail: S.Expr
    env: dict


@dataclass(frozen=True)
class FConsR(Frame):
    head: RuntimeValue


@dataclass(frozen=True)
class FPairSnd(Frame):
    first: S.Expr
    env: dict


@dataclass(frozen=True)
class FPairFst(Frame):
    second: RuntimeValue


@dataclass(frozen=True)
class FRefNew(Frame):
    pass


@dataclass(frozen=True)
class FRefGet(Frame):
    pass


@dataclass(frozen=True)
class FRsetL(Frame):
    value: S.Expr
    env: dict


@dataclass(frozen=True)
class FRsetR(Frame):
    cell: RuntimeValue


@dataclass(frozen=True)
class FComb(Frame):
    name: str
    args: tuple[S.Expr, ...]
    env: dict
    order: tuple[int, ...]
    filled: tuple[tuple[int, RuntimeValue], ...]


@dataclass(frozen=True)
class FPrompt(Frame):
    prompt: int


@dataclass(frozen=True)
class FLam(Frame):
    binder: object  # backend-specific handle


@dataclass(frozen=True)
class FMemo(Frame):
    memo: FunScopeMemo


@dataclass(frozen=True)
class FGenletAfter(Frame):
    scope: VScope


@dataclass(frozen=True, eq=False)
class FPost(Frame):
    """Backend post-processing of a delimited result (e.g. wrapping the
    rest of a scope's code in an inserted let binding)."""

    fn: Callable[[RuntimeValue], RuntimeValue]


# --- the machine -------------------------------------------------------------

_EXPR, _VALUE = 0, 1


class Machine:
    def __init__(self, session: Session):
        self.session = session

    def execute(self, term: S.Expr, env: dict[str, RuntimeValue] | None = None) -> RuntimeValue:
        stack: list[Frame] = []
        return self._loop((_EXPR, term, env or {}), stack)

    def call(self, fn: RuntimeValue, arg: RuntimeValue) -> RuntimeValue:
        """Apply a function value outside the main loop (force time)."""
        stack: list[Frame] = []
        return self._loop(self._apply(fn, arg), stack)

    # -- main loop --

    def _loop(self, control, stack: list[Frame]) -> RuntimeValue:
        while True:
            if control[0] == _EXPR:
                control = self._step_expr(control[1], control[2], stack)
            else:
                if not stack:
                    return control[1]
                control = self._step_frame(stack.pop(), control[1], stack)

    def _step_expr(self, t: S.Expr, env: dict, stack: list[Frame]):
        if isinstance(t, S.Var):
            try:
                return (_VALUE, env[t.name])
            except KeyError:
                raise unbound_var(t.name) from None
        if isinstance(t, S.IntLit):
            return (_VALUE, VInt(t.value))
        if isinstance(t, S.StrLit):
            return (_VALUE, VStr(t.value))
        if isinstance(t, S.Unit):
            return (_VALUE, VUnit())
        if isinstance(t, S.Nil):
            return (_VALUE, VList(()))
        if isinstance(t, S.CspValue):
            return (_VALUE, t.value)
        if isinstance(t, S.Fun):
            return (_VALUE, VClosure(t.param, t.body, env))
        if isinstance(t, S.App):
            stack.append(FApp(t.arg, env))
            return (_EXPR, t.fn, env)
        if isinstance(t, S.Let):
            stack.append(FLet(t.name, t.body, env))
            return (_EXPR, t.rhs, env)
        if isinstance(t, S.Add):
            stack.append(FAddL(t.right, env))
            return (_EXPR, t.left, env)
        if isinstance(t, S.Cons):
            stack.append(FConsL(t.tail, env))
            return (_EXPR, t.head, env)
        if isinstance(t, S.Pair):
            stack.append(FPairSnd(t.first, env))
            return (_EXPR, t.second, env)
        if isinstance(t, S.RefNew):
            stack.append(FRefNew())
            return (_EXPR, t.init, env)
        if isinstance(t, S.RefGet):
            stack.append(FRefGet())
            return (_EXPR, t.ref, env)
        if isinstance(t, S.Rset):
            stack.append(FRsetL(t.value, env))
            return (_EXPR, t.ref, env)
        if isinstance(t, S.Comb):
            if not t.args:
                return self._dispatch_comb(t.name, [], stack)
            order = tuple(reversed(range(len(t.args)))) if t.name == "pair" else tuple(
                range(len(t.args))
            )
            stack.append(FComb(t.name, t.args, env, order, ()))
            return (_EXPR, t.args[order[0]], env)
        raise TypeError(f"unexpected term {t!r}")

    def _step_frame(self, frame: Frame, v: RuntimeValue, stack: list[Frame]):
        if isinstance(frame, FApp):
            stack.append(FCall(v))
            return (_EXPR, frame.arg, frame.env)
        if isinstance(frame, FCall):
            return self._apply(frame.fn, v)
        if isinstance(frame, FLet):
            env = frame.env
            if binds(frame.name):
                env = {**env, frame.name: v}
            return (_EXPR, frame.body, env)
        if isinstance(frame, FAddL):
            stack.append(FAddR(v))
            return (_EXPR, frame.right, frame.env)
        if isinstance(frame, FAddR):
            if not (isinstance(frame.left, VInt) and isinstance(v, VInt)):
                raise type_error("addition of non-integers")
            return (_VALUE, VInt(frame.left.value + v.value))
        if isinstance(frame, FConsL):
            stack.append(FConsR(v))
            return (_EXPR, frame.tail, frame.env)
        if isinstance(frame, FConsR):
            if not isinstance(v, VList):
                raise type_error("cons onto a non-list")
            return (_VALUE, VList((frame.head,) + v.items))
        if isinstance(frame, FPairSnd):
            stack.append(FPairFst(v))
            return (_EXPR, frame.first, frame.env)
        if isinstance(frame, FPairFst):
            return (_VALUE, VPair(v, frame.second))
        if isinstance(frame, FRefNew):
            return (_VALUE, VRefCell(v))
        if isinstance(frame, FRefGet):
            if not isinstance(v, VRefCell):
                raise type_error("dereference of a non-cell")
            return (_VALUE, v.contents)
        if isinstance(frame, FRsetL):
            stack.append(FRsetR(v))
            return (_EXPR, frame.value, frame.env)
        if isinstance(frame, FRsetR):
            return (_VALUE, rset_runtime(frame.cell, v))
        if isinstance(frame, FComb):
            filled = frame.filled + ((frame.order[len(frame.filled)], v),)
            if len(filled) < len(frame.args):
                stack.append(FComb(frame.name, frame.args, frame.env, frame.order, filled))
                return (_EXPR, frame.args[frame.order[len(filled)]], frame.env)
            values = [val for _, val in sorted(filled)]
            return self._dispatch_comb(frame.name, values, stack)
        if isinstance(frame, FPrompt):
            return (_VALUE, v)
        if isinstance(frame, FLam):
            return (_VALUE, self._backend().finish_lam(frame.binder, self._as_code(v)))
        if isinstance(frame, FMemo):
            frame.memo.store(self._as_code(v))
            return (_VALUE, v)
        if isinstance(frame, FGenletAfter):
            return self._genlet(frame.scope, self._as_code(v), stack)
        if isinstance(frame, FPost):
            return (_VALUE, frame.fn(v))
        raise TypeError(f"unexpected frame {frame!r}")

    def _apply(self, fn: RuntimeValue, arg: RuntimeValue):
        if isinstance(fn, VClosure):
            if fn.param == UNIT_BINDER and not isinstance(arg, VUnit):
                raise type_error("unit-pattern function applied to a non-unit value")
            env = {**fn.env, fn.param: arg} if binds(fn.param) else fn.env
            return (_EXPR, fn.body, env)
        if isinstance(fn, VNative):
            return (_VALUE, fn.fn(arg))
        raise type_error(f"cannot apply a {runtime_tag(fn)} value")

    # -- combinator dispatch --

    def _backend(self):
        backend = self.session.backend
        if backend is None:
            raise type_error("code combinator encountered in plain evaluation")
        return backend

    def _as_code(self, v: RuntimeValue) -> VCode:
        if not isinstance(v, VCode):
            raise type_error(f"expected a code value, got {runtime_tag(v)}")
        return v

    def _dispatch_comb(self, name: str, values: list[RuntimeValue], stack: list[Frame]):
        backend = self._backend()
        if name == "lam":
            (fn,) = values
            binder, var_code = backend.begin_lam()
            stack.append(FLam(binder))
            return self._apply(fn, var_code)
        if name in ("new_scope", "new_funscope"):
            (fn,) = values
            memo = FunScopeMemo() if name == "new_funscope" else None
            scope = VScope(self.session.fresh_prompt(), memo)
            stack.append(FPrompt(scope.prompt))
            return self._apply(fn, scope)
        if name == "genlet":
            scope, code = values
            if not isinstance(scope, VScope):
                raise type_error("genlet expects a scope")
            return self._genlet(scope, self._as_code(code), stack)
        if name == "genletfun":
            scope, fn = values
            if not (isinstance(scope, VScope) and scope.memo is not None):
                raise type_error("genletfun expects a funscope")
            if scope.memo.value is not None:
                return (_VALUE, scope.memo.value)
            stack.append(FMemo(scope.memo))
            stack.append(FGenletAfter(scope))
            binder, var_code = backend.begin_lam()
            stack.append(FLam(binder))
            return self._apply(fn, var_code)
        return (_VALUE, backend.apply_simple(name, values))

    def _find_prompt(self, prompt: int, stack: list[Frame]) -> int:
        if self.session.force_depth > 0:
            raise Diagnostic(
                Kind.SCOPE_EXTRUSION,
                "let insertion attempted while running generated code",
            )
        for i in range(len(stack) - 1, -1, -1):
            frame = stack[i]
            if isinstance(frame, FPrompt) and frame.prompt == prompt:
                return i
        raise Diagnostic(Kind.SCOPE_EXTRUSION, "prompt not active: scope already closed")

    def _genlet(self, scope: VScope, code: VCode, stack: list[Frame]):
        # shift0: remove up to and including the delimiter, let the backend
        # decide what the resumption sees and how to post-process the
        # delimited result, then re-install the segment in place.  Keeping
        # one stack lets a later capture reach prompts below this one.
        i = self._find_prompt(scope.prompt, stack)
        captured = stack[i + 1 :]
        del stack[i:]
        resume_value, post = self._backend().genlet_parts(code)
        if post is not None:
            stack.append(FPost(post))
        stack.append(FPrompt(scope.prompt))
        stack.extend(captured)
        return (_VALUE, resume_value)


@dataclass(eq=False)
class Evaluation:
    """Result of one evaluation session: keeps the session alive so that
    eval-backend code values can be forced (and applied) afterwards."""

    value: RuntimeValue
    session: Session
    machine: Machine
    backend: object

    def force(self) -> RuntimeValue:
        """The final value; eval-backend code values are run to a result."""
        if isinstance(self.value, VCode) and hasattr(self.backend, "force"):
            return self.backend.force(self.value.code)
        return self.value

    def call(self, fn: RuntimeValue, arg: RuntimeValue) -> RuntimeValue:
        return self.machine.call(fn, arg)
