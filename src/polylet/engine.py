"""Call-by-value evaluator for translated terms, with let insertion by state.

A `Machine` is one run of a term, with its name supply, the name of its
code backend and its final value.  It is defunctionalized: the
continuation is an explicit stack of frames, and a scope's prompt is a
frame.  Let insertion is by state (Sumii & Kobayashi, HOSC 2001):
`genlet` adds its binding to the scope's list of lets and goes on, and
the prompt, as it pops, wraps the scope's code in them, the first
outermost.  The paper's `genlet` is shift0 to the prompt, but the
segment it captures is resumed once, at once, in place: shift0 would put
it back over a frame that builds the same let, above the frames of the
lets inserted before, so the two give the same code.  Generated code
runs like any other entry, on a fresh stack from an empty environment: a
let insertion there reaches only a prompt that the running code
installed itself.

The control is a pair: `(term, env)` evaluates a term, and `(None,
value)` returns a value to the frame on top of the stack.  The loop runs
an application or an addition itself, a combinator by the step that
`_COMB` maps its name to, and any other term by the step that `_STEP`
maps its class to.  A frame is a tuple whose first item is the
function that resumes it with a value.  Frames replace recursion, so a
deep program costs stack entries, not Python frames.  An atomic operand
(a variable, a literal, a `fun` or a persisted value) takes no frame:
it is evaluated in place through `_ATOM`, or, in the loop, by a class
test (a variable, a persisted function, or an int's literal addend,
never boxed).  Binding is copy-and-store: `env.copy()`, then one store.
Pair components evaluate right to left, mirroring the host language;
every other position is left to right.

Code is built here too, under every backend.  A node combinator (`add`,
`app`, `pair`, `cons`, `rset_`, `ref_`, `rget`) builds its node from its
operands' trees, and `int` of an integer literal, or `str` of a string
literal, is that literal, read with no frame.  `lam`, the scope builders
and `genletfun` apply their function on this stack, a literal `fun` with
no closure, so insertions may cross them.  Three steps read the backend's
name, and only eval differs: it lifts a value as itself, never rebuilt;
`lam`'s binders start `dynamic`, not `x`; and `genlet` runs its
right-hand side at once and inserts nothing.  The string backend builds
what quote builds; `backends.evaluate` prints it.

Values are records, immutable by convention, except `VRefCell.contents`
(`rset`), `VScope.lets` (`genlet`) and `VScope.memo` (written once, by
`genletfun`): `records` makes their `__init__` and shares `__repr__`,
`__eq__` and `__hash__`.  `render_value` prints them through
the one layout printer, `diagnostics.render_layout`, so a value of any
depth prints.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import field
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
    """A scope: its prompt frame is at index `depth` of the stack that
    opened it, and wraps the scope's code in `lets`, the bindings inserted
    into it, in order.  A funscope (`fun`) also keeps, written once, the
    function binding it has inserted."""

    fun: bool = False
    memo: Optional[VCode] = None
    depth: int = 0
    lets: list[tuple[str, S.Expr]] = field(default_factory=list)


# The tag each value class shows in run-time errors.
_TAGS = {
    **{VInt: "int", VStr: "string", VUnit: "unit", VList: "list", VPair: "pair"},
    **{VRefCell: "ref", VClosure: "function", VCode: "code", VScope: "scope"},
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


# Atomic operands: evaluated in place, by (term, env) -> value, by the step
# or resumer whose next operand they are.
_ATOM = {
    S.Var: _var,
    S.IntLit: lambda t, env: VInt(t.value),
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
    # Close the scope f[1]: wrap its code v in its lets, the first outermost.
    if f[1].lets:
        tree = _code_tree(m, v)
        for name, rhs in reversed(f[1].lets):
            tree = S.Let(name, rhs, tree)
        v = VCode(tree)
    return None, v


# --- combinators ---------------------------------------------------------------


def _backend(m):
    if m.backend is None:
        raise type_error("code combinator encountered in plain evaluation")
    return m.backend


def _code_tree(m, v: RuntimeValue) -> S.Expr:
    backend = _backend(m)
    if type(v) is not VCode:
        raise type_error(f"{backend} backend got a non-code operand ({runtime_tag(v)})")
    return v.code


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


_NODE_OF = {name: cls for cls, name in S.COMB_OF.items()}
_OWN_CODE = {"int": S.IntLit, "str": S.StrLit}  # a literal is its own code


def _own_code(m, e) -> Optional[VCode]:
    """e's code, read with no frame, if e is `int` or `str` of its literal: that literal."""
    if type(e) is S.Comb and e.name in _OWN_CODE and type(e.args[0]) is _OWN_CODE[e.name] and m.backend is not None:
        return VCode(e.args[0])
    return None


def _comb_node2(m, t, env, stack):
    # `_then`, inlined here and in `_k_node_first`: most code is built this way.
    node = _NODE_OF[t.name]
    first, last = t.args[::-1] if node is S.Pair else t.args
    v = atom(first, env) if (atom := _ATOM.get(type(first))) else _own_code(m, first)
    if v is None:
        stack.append((_k_node_first, node, last, env))
        return first, env
    return _k_node_first(m, (None, node, last, env), v, stack)


def _k_node_first(m, f, v, stack):
    _, node, e, env = f
    u = atom(e, env) if (atom := _ATOM.get(type(e))) else _own_code(m, e)
    if u is None:
        stack.append((_k_node_last, node, v))
        return e, env
    return _k_node_last(m, (None, node, v), u, stack)


def _k_node_last(m, f, v, stack):
    _, node, u = f
    a, b = (v, u) if node is S.Pair else (u, v)
    if type(a) is VCode and type(b) is VCode and m.backend is not None:
        return None, VCode(node(a.code, b.code))
    return None, VCode(node(_code_tree(m, a), _code_tree(m, b)))


def _comb_unary(m, t, env, stack):
    code = _own_code(m, t)
    if code is not None:
        return None, code
    return _then(m, t.args[0], env, (_k_unary, _NODE_OF.get(t.name)), stack)


def _k_unary(m, f, v, stack):
    node = f[1]  # None: a lift, which eval shares and the others rebuild if ground
    if node is not None:
        return None, VCode(node(_code_tree(m, v)))
    return None, VCode(S.CspValue(v) if _backend(m) == "eval" else value_to_literal(v) or S.CspValue(v))


def _comb_open(m, t, env, stack):
    e, frame = t.args[0], (_k_open, t.name, env)
    return _k_open(m, frame, e, stack) if type(e) is S.Fun else _then(m, e, env, frame, stack)


def _k_open(m, f, v, stack):
    """Apply v to what `lam`, `new_scope` or `new_funscope` (f[1]) opens, a
    fresh binder's code or a new scope, over the frame that closes it.  v is
    a closure, or a literal `fun` in the environment f[2], run with none."""
    _, what, env = f
    backend = _backend(m)
    if what == "lam":
        binder = m.gensym("dynamic" if backend == "eval" else "x")
        stack.append((_k_lam, binder))
        arg = VCode(S.Var(binder))
    else:
        arg = VScope(what == "new_funscope", None, len(stack))
        stack.append((_k_prompt, arg))
    if type(v) is S.Fun and (p := v.param) != UNIT_BINDER and p != WILDCARD:
        env = env.copy()
        env[p] = arg
        return v.body, env
    return _apply(VClosure(v.param, v.body, env) if type(v) is S.Fun else v, arg)


def _k_lam(m, f, v, stack):
    return None, VCode(S.Fun(f[1], _as_code(v).code))


def _k_genlet(m, f, v, stack):
    # Let insertion by state: the binding joins the scope's lets, and the
    # continuation goes on in place (see the module docstring).  Eval runs
    # the right-hand side now, on a fresh stack, inserts nothing, and goes on
    # with its value.  The prompt must be on this stack, an O(1) test by its
    # index.
    scope = f[1]
    backend = _backend(m)
    if not isinstance(scope, VScope):
        raise type_error("genlet expects a scope")
    code = _as_code(v).code
    i = scope.depth
    if not (i < len(stack) and stack[i][0] is _k_prompt and stack[i][1] is scope):
        raise Diagnostic(Kind.SCOPE_EXTRUSION, "prompt not active: scope already closed")
    if backend == "eval":
        return None, VCode(S.CspValue(m.execute(code)))
    name = m.gensym("t")
    scope.lets.append((name, code))
    return None, VCode(S.Var(name))


def _k_genletfun(m, f, v, stack):
    scope = f[1]
    _backend(m)
    if not (isinstance(scope, VScope) and scope.fun):
        raise type_error("genletfun expects a funscope")
    if scope.memo is not None:
        return None, scope.memo
    stack.append((_k_genlet_after, scope))
    return _k_open(m, (_k_open, "lam", None), v, stack)


def _k_genlet_after(m, f, v, stack):
    # genletfun's function code is v: insert it, and keep what its uses see.
    assert f[1].memo is None, "funscope memo overwritten"
    f[1].memo = (control := _k_genlet(m, f, v, stack))[1]
    return control


_COMB = {
    **{name: _comb_node2 for name in _NODE_OF if S.COMB_ARITY[name] == 2},
    **dict.fromkeys(("int", "str", "csp", "ref_", "rget"), _comb_unary),
    **dict.fromkeys(("lam", "new_scope", "new_funscope"), _comb_open),
    "nil": lambda m, t, env, stack: (None, VCode(_backend(m) and S.Nil())),
    "genlet": lambda m, t, env, stack: _then(m, t.args[0], env, (_k_second, t.args[1], env, _k_genlet), stack),
    "genletfun": lambda m, t, env, stack: _then(m, t.args[0], env, (_k_second, t.args[1], env, _k_genletfun), stack),
}


class Machine:
    """One run under the backend its name gives (None: a plain
    evaluation), and its result: `backends.evaluate` returns the machine,
    with the final `value`, so that an eval-backend tree can be run
    (`force`), and the functions it makes applied (`call`), afterwards."""

    def __init__(self, backend: str | None = None, name_start: int = 1):
        if backend not in (None, "quote", "string", "eval"):
            raise ValueError(f"unknown backend {backend!r}")
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
        """The final value; under eval, a code value's tree is run to a
        result, again on each call."""
        if self.backend == "eval" and isinstance(self.value, VCode):
            return self.execute(self.value.code)
        return self.value

    def call(self, fn: RuntimeValue, arg: RuntimeValue) -> RuntimeValue:
        """Apply a function value to an argument on a fresh stack: a call of
        a run's result after the run."""
        return self._loop(_apply(fn, arg), [])

    def _loop(self, control, stack: list[tuple]) -> RuntimeValue:
        # App and Add, the hot path, run here.  An atomic operand is read in
        # place: a variable, a persisted function and an int's literal addend
        # (unboxed) by a class test, any other through `_ATOM`.  A compound one
        # pushes its frame.  A popped `_k_call` frame ends like an App, below.
        step, comb, get, k_call = _STEP, _COMB, _ATOM.get, _k_call
        App, Add, Comb, Var, IntLit, CspValue = S.App, S.Add, S.Comb, S.Var, S.IntLit, S.CspValue
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
                if (c := type(e)) is Var:
                    try:
                        fn = x[e.name]
                    except KeyError:
                        raise unbound_var(e.name) from None
                elif c is CspValue:
                    fn = e.value
                elif (atom := get(c)) is not None:
                    fn = atom(e, x)
                else:
                    stack.append((_k_second, t.arg, x, k_call))
                    t = e
                    continue
                e = t.arg
                if type(e) is Var:
                    try:
                        arg = x[e.name]
                    except KeyError:
                        raise unbound_var(e.name) from None
                elif (atom := get(type(e))) is not None:
                    arg = atom(e, x)
                else:
                    stack.append((k_call, fn))
                    t = e
                    continue
            elif cls is Add:
                e = t.left
                if type(e) is Var:
                    try:
                        left = x[e.name]
                    except KeyError:
                        raise unbound_var(e.name) from None
                elif (atom := get(type(e))) is not None:
                    left = atom(e, x)
                else:
                    stack.append((_k_second, t.right, x, _k_add))
                    t = e
                    continue
                e = t.right
                if (c := type(e)) is IntLit and type(left) is VInt:
                    t, x = None, VInt(left.value + e.value)
                    continue
                if c is Var:
                    try:
                        right = x[e.name]
                    except KeyError:
                        raise unbound_var(e.name) from None
                elif (atom := get(c)) is not None:
                    right = atom(e, x)
                else:
                    stack.append((_k_add, left))
                    t = e
                    continue
                if type(left) is VInt and type(right) is VInt:
                    t, x = None, VInt(left.value + right.value)
                else:
                    t, x = None, add_ints(left, right)  # raises
                continue
            else:
                try:
                    fn = comb[t.name] if cls is Comb else step[cls]
                except KeyError:
                    raise TypeError(f"unexpected term {t!r}") from None
                t, x = fn(self, t, x, stack)
                continue
            if type(fn) is VClosure and (p := fn.param) != UNIT_BINDER and p != WILDCARD:
                t, x = fn.body, fn.env.copy()
                x[p] = arg
            else:
                t, x = _apply(fn, arg)
