"""Call-by-value evaluator for translated terms, with delimited control.

A `Machine` is one run of a term, with its name supply, code backend
and final value.  It is defunctionalized: the continuation is an
explicit stack of frames, so a prompt is a frame, marked by its scope
object, and capturing up to it is a slice.  Let insertion (shift0)
removes the segment above the delimiter and re-installs it in place,
over a frame that builds the inserted let; nothing leaves the stack, so
a capture inside the resumed segment still reaches prompts below it.
Generated code runs like any other entry, on a fresh stack from an empty
environment: a let insertion there reaches only a prompt that the running
code installed itself.

The control is a pair: `(term, env)` evaluates a term, and `(None,
value)` returns a value to the frame on top of the stack.  The loop runs
an application or an addition itself, any other term by the step that
`_STEP` maps its class to, and a combinator by the step that one table,
`_COMB`, maps its name to.  A frame is a tuple whose first item is the
function that resumes it with a value.  Frames replace recursion, so a
deep program costs stack entries, not Python frames.  An atomic operand
(a variable, a literal, a `fun` or a persisted value) takes no frame:
whatever runs its form evaluates it in place, and an integer literal
addend is never boxed.  Binding is copy-and-store: `env.copy()`, then
one store.  Pair components evaluate right to left, mirroring the host
language; every other position is left to right.

Code is built here too.  A node combinator (`add`, `app`, `pair`,
`cons`, `rset_`, `ref_`, `rget`) builds its node from its operands'
trees, and `int` of an integer literal, or `str` of a string literal,
is that literal; the backend lifts any other value.  `lam`, the scope
builders and `genletfun` apply their function on this stack, so
captures may cross them.

Values are records, immutable by convention, except `VRefCell.contents`
(`rset`) and `VScope.memo` (written once, by `genletfun`): dataclass
generates only their `__init__`, and `__repr__`, `__eq__` and `__hash__` are shared.
`render_value` prints them through the one layout printer,
`diagnostics.render_layout`, so a value of any depth prints.
"""

from __future__ import annotations

import itertools
import re
from typing import Optional

from . import syntax as S
from .diagnostics import Diagnostic, Kind, check_print_size, render_layout, type_error, unbound_var
from .parser import _TOKEN, _int_limit, _kind
from .records import record
from .syntax import UNIT_BINDER, WILDCARD, binds, int_text, quote_string, unescape


# --- runtime values --------------------------------------------------------


class RuntimeValue:
    __slots__ = ()

    def __str__(self) -> str:
        return render_value(self)


@record
class VInt(RuntimeValue):
    value: int


@record
class VStr(RuntimeValue):
    value: str


@record
class VUnit(RuntimeValue):
    pass


@record
class VList(RuntimeValue):
    items: tuple[RuntimeValue, ...]


@record
class VPair(RuntimeValue):
    first: RuntimeValue
    second: RuntimeValue


@record(eq=False)
class VRefCell(RuntimeValue):
    """Identity is observable: separately created cells are distinct."""

    contents: RuntimeValue


@record(eq=False)
class VClosure(RuntimeValue):
    param: str
    body: S.Expr
    env: dict[str, RuntimeValue]


@record(eq=False)
class VCode(RuntimeValue):
    code: object  # a tree; a finished quote or string run wraps it


@record(eq=False)
class VScope(RuntimeValue):
    """A scope, whose identity is its prompt's; a funscope (`fun`) also
    keeps, written once, the function binding it has inserted."""

    fun: bool = False
    memo: Optional[VCode] = None


# The tag each value class shows in run-time errors.
_TAGS = {
    **{VInt: "int", VStr: "string", VUnit: "unit", VList: "list", VPair: "pair"},
    **{VRefCell: "ref", VClosure: "function", VCode: "code"},
}


def runtime_tag(v: RuntimeValue) -> str:
    return _TAGS.get(type(v)) or type(v).__name__


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
    """Ground literal for a CLI argument: (), [], one string token as the
    parser reads it, or an int as Python's `int` reads it (a sign and `_`
    separators allowed)."""
    text = text.strip()
    if text == "()":
        return VUnit()
    if text == "[]":
        return VList(())
    if _kind(text) == "string" and _TOKEN.fullmatch(text):
        return VStr(unescape(text[1:-1]))
    if not re.fullmatch(r"[+-]?\d+(?:_\d+)*", text):
        raise type_error(f"cannot parse literal argument {text!r}")
    try:
        return VInt(int(text))
    except ValueError:  # Python's integer-string limit, left in force
        raise type_error(_int_limit()) from None


def render_value(v: RuntimeValue) -> str:
    check_print_size("value", v, _value_parts)
    return render_layout("value", v, 0, _VALUE_LAYOUT)


def _value_parts(v: RuntimeValue) -> tuple:
    cls = type(v)
    if cls is VPair:
        return (v.first, v.second)
    return v.items if cls is VList else (v.contents,) if cls is VRefCell else ()


# Each class's layout, in `render_layout`'s form; values need no parentheses.
_VALUE_LAYOUT = {
    VInt: lambda v: int_text(v.value),
    VStr: lambda v: quote_string(v.value),
    VUnit: lambda v: "()",
    VList: lambda v: (0, ("[", *[p for item in v.items for p in ("; ", (item, 0))][1:], "]")),
    VPair: lambda v: (0, ("(", (v.first, 0), ", ", (v.second, 0), ")")),
    VRefCell: lambda v: (0, ("{contents = ", (v.contents, 0), "}")),
    VClosure: lambda v: "<fun>",
    VCode: lambda v: "<code>",
    VScope: lambda v: "<scope>",
}


# --- the machine -------------------------------------------------------------
#
# Step functions take (machine, term, env, stack) and resumers take
# (machine, frame, value, stack); both return the next control.


def _apply(fn: RuntimeValue, arg: RuntimeValue):
    if type(fn) is VClosure:
        param, env = fn.param, fn.env
        if param != UNIT_BINDER and param != WILDCARD:
            env = env.copy()
            env[param] = arg
        elif param == UNIT_BINDER and type(arg) is not VUnit:
            raise type_error("unit-pattern function applied to a non-unit value")
        return fn.body, env
    raise type_error(f"cannot apply a {runtime_tag(fn)} value")


def _as_code(v: RuntimeValue) -> VCode:
    if not isinstance(v, VCode):
        raise type_error(f"expected a code value, got {runtime_tag(v)}")
    return v


def _var(t, env):
    try:
        return env[t.name]
    except KeyError:
        raise unbound_var(t.name) from None


def _int_lit(t, env):
    return VInt(t.value)


# Atomic operands: evaluated in place, by (term, env) -> value, by the step
# or resumer whose next operand they are.
_ATOM = {
    S.Var: _var,
    S.IntLit: _int_lit,
    S.StrLit: lambda t, env: VStr(t.value),
    S.Unit: lambda t, env: VUnit(),
    S.Nil: lambda t, env: VList(()),
    S.CspValue: lambda t, env: t.value,
    S.Fun: lambda t, env: VClosure(t.param, t.body, env),
}


def _then(m, e, env, frame, stack):
    """Evaluate e and resume frame with its value: in place if e is atomic."""
    atom = _ATOM.get(type(e))
    if atom is None:
        stack.append(frame)
        return e, env
    return frame[0](m, frame, atom(e, env), stack)


_STEP = {
    **{cls: lambda m, t, env, stack, atom=atom: (None, atom(t, env)) for cls, atom in _ATOM.items()},
    S.Let: lambda m, t, env, stack: _then(m, t.rhs, env, (_k_let, t, env), stack),
    S.Cons: lambda m, t, env, stack: _then(m, t.head, env, (_k_second, t.tail, env, _k_cons), stack),
    S.Pair: lambda m, t, env, stack: _then(m, t.second, env, (_k_second, t.first, env, _k_pair), stack),
    S.RefNew: lambda m, t, env, stack: _then(m, t.init, env, (_k_ref_new,), stack),
    S.RefGet: lambda m, t, env, stack: _then(m, t.ref, env, (_k_ref_get,), stack),
    S.Rset: lambda m, t, env, stack: _then(m, t.ref, env, (_k_second, t.value, env, _k_rset), stack),
    S.Comb: lambda m, t, env, stack: _COMB[t.name](m, t, env, stack),
}


def _k_second(m, f, v, stack):
    """A binary form's first operand is v: evaluate the second, then let
    the form's own resumer combine the two."""
    _, second, env, combine = f
    return _then(m, second, env, (combine, v), stack)


def _k_call(m, f, v, stack):
    return _apply(f[1], v)


def _k_let(m, f, v, stack):
    _, t, env = f
    if binds(t.name):
        env = env.copy()
        env[t.name] = v
    return t.body, env


def add_ints(left: RuntimeValue, right: RuntimeValue) -> VInt:
    if not (isinstance(left, VInt) and isinstance(right, VInt)):
        raise type_error("addition of non-integers")
    return VInt(left.value + right.value)


def _k_add(m, f, v, stack):
    return None, add_ints(f[1], v)


def _k_cons(m, f, v, stack):
    if not isinstance(v, VList):
        raise type_error("cons onto a non-list")
    return None, VList((f[1],) + v.items)


def _k_pair(m, f, v, stack):
    return None, VPair(v, f[1])


def _k_ref_new(m, f, v, stack):
    return None, VRefCell(v)


def _k_ref_get(m, f, v, stack):
    if not isinstance(v, VRefCell):
        raise type_error("dereference of a non-cell")
    return None, v.contents


def _k_rset(m, f, v, stack):
    return None, rset_runtime(f[1], v)


def _k_prompt(m, f, v, stack):
    return None, v


def _k_let_code(m, f, v, stack):
    return None, VCode(S.Let(f[1], f[2], _code_tree(m, v)))


# --- combinators ---------------------------------------------------------------


def _backend(m):
    if m.backend is None:
        raise type_error("code combinator encountered in plain evaluation")
    return m.backend


def _code_tree(m, v: RuntimeValue) -> S.Expr:
    label = _backend(m).label
    if type(v) is not VCode:
        raise type_error(f"{label} backend got a non-code operand ({runtime_tag(v)})")
    return v.code


_NODE_OF = {name: cls for cls, name in S.COMB_OF.items()}
_OWN_CODE = {"int": S.IntLit, "str": S.StrLit}  # a literal is its own code


def _comb_node2(m, t, env, stack):
    # `_then`, inlined here and in `_k_node_first`: most code is built this way.
    node = _NODE_OF[t.name]
    first, last = t.args[::-1] if node is S.Pair else t.args
    atom = _ATOM.get(type(first))
    if atom is None:
        stack.append((_k_node_first, node, last, env))
        return first, env
    return _k_node_first(m, (None, node, last, env), atom(first, env), stack)


def _k_node_first(m, f, v, stack):
    _, node, e, env = f
    atom = _ATOM.get(type(e))
    if atom is None:
        stack.append((_k_node_last, node, v))
        return e, env
    return _k_node_last(m, (None, node, v), atom(e, env), stack)


def _k_node_last(m, f, v, stack):
    _, node, u = f
    a, b = (v, u) if node is S.Pair else (u, v)
    if type(a) is VCode and type(b) is VCode and m.backend is not None:
        return None, VCode(node(a.code, b.code))
    return None, VCode(node(_code_tree(m, a), _code_tree(m, b)))


def _comb_unary(m, t, env, stack):
    e = t.args[0]
    if type(e) is _OWN_CODE.get(t.name) and m.backend is not None:
        return None, VCode(e)
    return _then(m, e, env, (_k_unary, _NODE_OF.get(t.name)), stack)


def _k_unary(m, f, v, stack):
    node = f[1]  # None: a lift
    return None, VCode(_backend(m).lift(v) if node is None else node(_code_tree(m, v)))


def _k_open(m, f, v, stack):
    """Apply v to what `lam`, `new_scope` or `new_funscope` (f[1]) opens, a
    fresh binder's code or a new scope, over the frame that closes it."""
    backend = _backend(m)
    if f[1] == "lam":
        binder = m.gensym(backend.binder_prefix)
        stack.append((_k_lam, binder))
        return _apply(v, VCode(S.Var(binder)))
    scope = VScope(f[1] == "new_funscope")
    stack.append((_k_prompt, scope))
    return _apply(v, scope)


def _k_lam(m, f, v, stack):
    return None, VCode(S.Fun(f[1], _as_code(v).code))


def _k_genlet(m, f, v, stack):
    # shift0: remove up to and including the delimiter, let the backend
    # decide what the resumption sees and what binding, if any, to insert
    # around the delimited result, then re-install the segment in place.
    # Keeping one stack lets a later capture reach prompts below this one.
    scope = f[1]
    _backend(m)
    if not isinstance(scope, VScope):
        raise type_error("genlet expects a scope")
    code = _as_code(v)
    for i in range(len(stack) - 1, -1, -1):
        if stack[i][0] is _k_prompt and stack[i][1] is scope:
            break
    else:
        raise Diagnostic(Kind.SCOPE_EXTRUSION, "prompt not active: scope already closed")
    captured = stack[i + 1 :]
    del stack[i:]
    resume_value, binding = m.backend.genlet_parts(m, code)
    if binding is not None:
        stack.append((_k_let_code, *binding))
    stack.append((_k_prompt, scope))
    stack.extend(captured)
    return None, resume_value


def _k_genletfun(m, f, v, stack):
    scope = f[1]
    _backend(m)
    if not (isinstance(scope, VScope) and scope.fun):
        raise type_error("genletfun expects a funscope")
    if scope.memo is not None:
        return None, scope.memo
    stack.append((_k_genlet_after, scope))
    return _k_open(m, (_k_open, "lam"), v, stack)


def _k_genlet_after(m, f, v, stack):
    # genletfun's function code is v: insert it, and keep what its uses see.
    assert f[1].memo is None, "funscope memo overwritten"
    f[1].memo = (control := _k_genlet(m, f, v, stack))[1]
    return control


_COMB = {
    **{name: _comb_node2 for name in _NODE_OF if S.COMB_ARITY[name] == 2},
    **dict.fromkeys(("int", "str", "csp", "ref_", "rget"), _comb_unary),
    **dict.fromkeys(
        ("lam", "new_scope", "new_funscope"), lambda m, t, env, stack: _then(m, t.args[0], env, (_k_open, t.name), stack)
    ),
    "nil": lambda m, t, env, stack: (None, VCode(_backend(m) and S.Nil())),
    "genlet": lambda m, t, env, stack: _then(m, t.args[0], env, (_k_second, t.args[1], env, _k_genlet), stack),
    "genletfun": lambda m, t, env, stack: _then(m, t.args[0], env, (_k_second, t.args[1], env, _k_genletfun), stack),
}


class Machine:
    """One run, and its result: `backends.evaluate` returns the machine,
    with the final `value`, so that an eval-backend tree can be run
    (`force`), and the functions it makes applied (`call`), afterwards."""

    def __init__(self, backend=None, name_start: int = 1):
        self.backend = backend
        self.value = None  # the final value, set by `backends.evaluate`
        self._name_start = name_start
        self._names: dict[str, itertools.count] = {}

    def gensym(self, prefix: str) -> str:
        counter = self._names.setdefault(prefix, itertools.count(self._name_start))
        return f"{prefix}_{next(counter)}"

    def execute(self, term: S.Expr, env: dict[str, RuntimeValue] | None = None) -> RuntimeValue:
        return self._loop((term, env or {}), [])

    def force(self) -> RuntimeValue:
        """The final value; an eval-backend tree (a bare one) is run to a
        result, again on each call."""
        if isinstance(self.value, VCode) and isinstance(self.value.code, S.Expr):
            return self.execute(self.value.code)
        return self.value

    def call(self, fn: RuntimeValue, arg: RuntimeValue) -> RuntimeValue:
        """Apply a function value to an argument on a fresh stack: a call of
        a run's result after the run."""
        return self._loop(_apply(fn, arg), [])

    def _loop(self, control, stack: list[tuple]) -> RuntimeValue:
        # App and Add, the hot path, run here: an atomic operand is read in
        # place (a variable from env, an integer literal addend unboxed, any
        # other through `_ATOM`), a compound one pushes its frame.  A popped
        # `_k_call` frame ends like an App, below: a closure by copy-and-store.
        step, get, App, Add, k_call, int_lit = _STEP, _ATOM.get, S.App, S.Add, _k_call, _int_lit
        t, x = control
        while True:
            if t is None:
                if not stack:
                    return x
                frame = stack.pop()
                if frame[0] is not k_call:
                    t, x = frame[0](self, frame, x, stack)
                    continue
                fn, arg = frame[1], x
            elif (cls := type(t)) is App:
                e = t.fn
                atom = get(type(e))
                if atom is None:
                    stack.append((_k_second, t.arg, x, k_call))
                    t = e
                    continue
                fn = x[e.name] if atom is _var and e.name in x else atom(e, x)
                e = t.arg
                atom = get(type(e))
                if atom is None:
                    stack.append((k_call, fn))
                    t = e
                    continue
                arg = x[e.name] if atom is _var and e.name in x else atom(e, x)
            elif cls is Add:
                e = t.left
                atom = get(type(e))
                if atom is None:
                    stack.append((_k_second, t.right, x, _k_add))
                    t = e
                    continue
                left = x[e.name] if atom is _var and e.name in x else atom(e, x)
                e = t.right
                atom = get(type(e))
                if atom is None:
                    stack.append((_k_add, left))
                    t = e
                    continue
                if atom is int_lit and type(left) is VInt:
                    t, x = None, VInt(left.value + e.value)
                    continue
                right = x[e.name] if atom is _var and e.name in x else atom(e, x)
                if type(left) is VInt and type(right) is VInt:
                    t, x = None, VInt(left.value + right.value)
                else:
                    t, x = None, add_ints(left, right)  # raises
                continue
            else:
                try:
                    fn = step[cls]
                except KeyError:
                    raise TypeError(f"unexpected term {t!r}") from None
                t, x = fn(self, t, x, stack)
                continue
            if type(fn) is VClosure and fn.param != UNIT_BINDER and fn.param != WILDCARD:
                t, x = fn.body, fn.env.copy()
                x[fn.param] = arg
            else:
                t, x = _apply(fn, arg)
