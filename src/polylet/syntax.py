"""Abstract syntax: one node family for every tree the pipeline handles.

Source programs use the plain forms plus the staging forms (`Bracket`,
`Escape`, `Csp`); the unstaging translation's image uses the plain forms
plus `Comb`, saturated applications of code-combinator constants; code
rebuilt by the quoting backend uses the plain forms plus `CspValue`, a
persisted run-time value.  Expressions carry at most one level of
quotation: brackets never nest, and escapes only occur inside a bracket.

Traversals go through one generic pair: `children(e)` lists the
subexpressions in field order, and `rebuild(e, kids)` makes the same
node over new children.  The explicit-stack walkers `scan` and
`is_plain` skip leaves through a per-class getter table, which gives
`is_plain` the children of every plain node through C getters too.
Nodes, like types and values, are records, immutable by convention:
`records` makes their `__init__`, and `__repr__`, `__eq__` and `__hash__`
are the ones it shares.  `pretty` prints, as types and
values print, through the one layout printer,
`diagnostics.render_layout`, from a table of each class's layout.
"""

from __future__ import annotations

import re
import sys
from operator import attrgetter, is_
from typing import Sequence

from .diagnostics import PRINT_LIMIT, Kind, Diagnostic, check_print_size, render_layout
from .records import record

# Binder names are ordinary identifiers, or one of two special forms that
# bind nothing: "()" (unit pattern) and "_" (wildcard).
UNIT_BINDER = "()"
WILDCARD = "_"

# The code-combinator constants, by their number of arguments.
COMB_ARITY = {
    "nil": 0,
    **dict.fromkeys(("int", "str", "lam", "ref_", "rget", "csp", "new_scope", "new_funscope"), 1),
    **dict.fromkeys(("add", "app", "pair", "cons", "rset_", "genlet", "genletfun"), 2),
}


class Expr:
    __slots__ = ()


@record
class Var(Expr):
    name: str


@record
class IntLit(Expr):
    value: int


@record
class StrLit(Expr):
    value: str


@record
class Nil(Expr):
    pass


@record
class Unit(Expr):
    pass


@record
class Add(Expr):
    left: Expr
    right: Expr


@record
class Pair(Expr):
    first: Expr
    second: Expr


@record
class Cons(Expr):
    head: Expr
    tail: Expr


@record
class RefNew(Expr):
    init: Expr


@record
class RefGet(Expr):
    ref: Expr


@record
class Rset(Expr):
    ref: Expr
    value: Expr


@record
class App(Expr):
    fn: Expr
    arg: Expr


@record
class Fun(Expr):
    param: str
    body: Expr


@record
class Let(Expr):
    name: str
    rhs: Expr
    body: Expr


@record
class Bracket(Expr):
    body: Expr


@record
class Escape(Expr):
    body: Expr


@record
class Csp(Expr):
    body: Expr


@record(eq=False)
class CspValue(Expr):
    """A run-time value persisted into rebuilt code, or embedded in a
    hand-built term.

    Only non-literal values appear this way; ground values are rebuilt as
    ordinary literals.  Not produced by the parser.
    """

    value: object


@record
class Comb(Expr):
    """Saturated application of a code-combinator constant."""

    name: str
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        arity = COMB_ARITY.get(self.name)
        if arity is None:
            raise ValueError(f"unknown combinator {self.name}")
        if len(self.args) != arity:
            raise ValueError(f"combinator {self.name} takes {arity} arguments, given {len(self.args)}")


# The combinator that builds each compound plain form, its arguments being
# the form's children in field order.
COMB_OF = {
    Add: "add",
    Pair: "pair",
    Cons: "cons",
    RefNew: "ref_",
    RefGet: "rget",
    Rset: "rset_",
    App: "app",
}


def comb(name: str, *args: Expr) -> Comb:
    return Comb(name, tuple(args))


def binds(name: str) -> bool:
    return name not in (UNIT_BINDER, WILDCARD)


# --- generic traversal -------------------------------------------------------


# Each class's children: none for a leaf, else their fields in field order.
# The staging forms' one child is `body`, and `Comb`'s children are `args`.
_LEAVES = frozenset((Var, IntLit, StrLit, Nil, Unit, CspValue))
_STAGING = (Bracket, Escape, Csp)
ONE_CHILD = {RefNew: "init", RefGet: "ref", Fun: "body"}
TWO_CHILDREN = {Add: ("left", "right"), Pair: ("first", "second"), Cons: ("head", "tail"),
                Rset: ("ref", "value"), App: ("fn", "arg"), Let: ("rhs", "body")}  # fmt: skip


def _no_children(e: Expr) -> tuple[Expr, ...]:
    return ()


def _one_child(field: str):
    get = attrgetter(field)
    return lambda e: (get(e),)


_CHILDREN = {
    **dict.fromkeys(_LEAVES, _no_children),
    **{cls: _one_child(field) for cls, field in ONE_CHILD.items()},
    **dict.fromkeys(_STAGING, _one_child("body")),
    **{cls: attrgetter(*fields) for cls, fields in TWO_CHILDREN.items()},
    Comb: attrgetter("args"),
}

# How an explicit-stack walker pushes a plain node's children, with no
# Python call, so that they pop in field order: a leaf's `()` pushes none,
# one child is appended, and two are extended in reverse field order.
_PUSH = {
    **dict.fromkeys(_LEAVES, ()),
    **{cls: (list.append, attrgetter(field)) for cls, field in ONE_CHILD.items()},
    **{cls: (list.extend, attrgetter(*fields[::-1])) for cls, fields in TWO_CHILDREN.items()},
}


def children(e: Expr) -> tuple[Expr, ...]:
    """The immediate subexpressions, in field order."""
    try:
        get = _CHILDREN[type(e)]
    except KeyError:
        raise TypeError(f"unexpected expression {e!r}") from None
    return get(e)


def rebuild(e: Expr, kids: Sequence[Expr]) -> Expr:
    """The node `e` over new children; `e` itself when every child is the
    same object, so a pass that changes nothing shares the whole tree."""
    old = children(e)
    if len(kids) == len(old) and all(map(is_, kids, old)):
        return e
    if isinstance(e, Fun):
        return Fun(e.param, *kids)
    if isinstance(e, Let):
        return Let(e.name, *kids)
    if isinstance(e, Comb):
        return Comb(e.name, tuple(kids))
    return type(e)(*kids)


def scan(e: Expr) -> tuple[set[str], list[object]]:
    """The variables not bound by any enclosing Fun or Let, and the values
    the tree's `CspValue` nodes persist: one walk, on an explicit stack,
    so any depth of tree is fine.  The walk goes over shared code as a
    tree, so it is bounded: at its `PRINT_LIMIT`th step it counts the
    tree once, by `check_print_size`, which raises if it is larger."""
    free: set[str] = set()
    persisted: list[object] = []
    bound: dict[str, int] = {}
    stack: list = [e]
    root, steps = e, 0
    while stack:
        e = stack.pop()
        steps += 1
        if steps == PRINT_LIMIT:
            check_print_size("code value", root, children)
        cls = type(e)
        if cls is Var:
            if e.name not in bound:
                free.add(e.name)
        elif cls is tuple:  # entering (+1) or leaving (-1) a binder's scope
            name, step = e
            count = bound.get(name, 0) + step
            if count:
                bound[name] = count
            else:
                del bound[name]
        elif cls is CspValue:
            persisted.append(e.value)
        elif cls is Fun or cls is Let:
            if cls is Let:
                stack.append(e.rhs)  # outside the binder's scope
            name = e.name if cls is Let else e.param
            if binds(name):
                stack += ((name, -1), e.body, (name, 1))
            else:
                stack.append(e.body)
        elif cls not in _LEAVES:
            stack += _CHILDREN[cls](e)
    return free, persisted


def free_vars(e: Expr) -> set[str]:
    """Variables not bound by any enclosing Fun or Let."""
    return scan(e)[0]


def csp_values_equal(a: object, b: object) -> bool:
    """Value comparison used when matching persisted CSP values.

    Mutable cells are compared by current contents rather than identity,
    since two independently generated code values can never share a cell.
    """
    if type(a) is not type(b):
        return False
    ca = getattr(a, "contents", None)
    cb = getattr(b, "contents", None)
    if ca is not None or cb is not None:
        return csp_values_equal(ca, cb)
    return a == b


def alpha_equal(a: Expr, b: Expr) -> bool:
    """True iff a and b differ only in the names of bound variables.
    Compares on an explicit stack, so any depth of tree is fine: each name
    maps to a stack of partners, pushed at its binder and popped by the
    binder's exit marker."""
    l2r: dict[str, list[str]] = {}
    r2l: dict[str, list[str]] = {}
    stack: list = [(a, b)]
    while stack:
        a, b = stack.pop()
        cls = type(a)
        if cls is str:  # leaving the scope of binders a (left) and b (right)
            l2r[a].pop()
            r2l[b].pop()
        elif cls is not type(b):
            return False
        elif cls is Var:  # a free name is its own partner
            left = l2r.get(a.name) or (a.name,)
            right = r2l.get(b.name) or (b.name,)
            if left[-1] != b.name or right[-1] != a.name:
                return False
        elif cls is IntLit or cls is StrLit or cls is CspValue:
            if not csp_values_equal(a.value, b.value):
                return False
        elif cls is Fun or cls is Let:
            if cls is Let:
                stack.append((a.rhs, b.rhs))  # outside the binder's scope
                x, y = a.name, b.name
            else:
                x, y = a.param, b.param
            l2r.setdefault(x, []).append(y)
            r2l.setdefault(y, []).append(x)
            stack += ((x, y), (a.body, b.body))
        else:
            ca, cb = children(a), children(b)
            if len(ca) != len(cb) or cls is Comb and a.name != b.name:
                return False
            stack += zip(ca, cb)
    return True


_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def quote_string(s: str) -> str:
    """A string literal's concrete syntax; `unescape` reads it back."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def int_text(n: int) -> str:
    """An integer's decimal digits.  Past Python's integer-string limit,
    which is left in force, a ResourceLimit diagnostic names the limit."""
    try:
        return str(n)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise Diagnostic(
            Kind.RESOURCE_LIMIT, f"integer has more than {limit} digits, too many to print"
        ) from None


def unescape(body: str) -> str:
    """A string literal's value from the text between its quotes: `\\n`,
    `\\t`, `\\"` and `\\\\` are escapes, and a backslash before any other
    character stands for that character."""
    return _ESCAPE_RE.sub(lambda m: _ESCAPES.get(m.group(1), m.group(1)), body)


# Precedence levels for printing.  Binary arithmetic/cons forms always
# print their own parentheses, so only fun/let vs. operand positions and
# application chains need levels.
_EXPR, _OPER, _APP, _ATOM = 0, 1, 3, 4


def _comb_layout(e: Comb):
    if not e.args:
        return e.name
    parts: list = [e.name]
    for a in e.args:
        parts += (" ", (a, _ATOM))
    return _APP, parts


# Each class's layout, in `render_layout`'s form.
_LAYOUT = {
    Var: lambda e: e.name,
    IntLit: lambda e: int_text(e.value),
    StrLit: lambda e: quote_string(e.value),
    Nil: lambda e: "[]",
    Unit: lambda e: "()",
    # Display-only: a persisted value has no source syntax.
    CspValue: lambda e: f"%<{e.value}>",
    Bracket: lambda e: (_ATOM, (".<", (e.body, _EXPR), ">.")),
    Add: lambda e: (_ATOM, ("(", (e.left, _OPER), " + ", (e.right, _OPER), ")")),
    Cons: lambda e: (_ATOM, ("(", (e.head, _OPER), " :: ", (e.tail, _OPER), ")")),
    Pair: lambda e: (_ATOM, ("(", (e.first, _EXPR), ", ", (e.second, _EXPR), ")")),
    App: lambda e: (_APP, ((e.fn, _APP), " ", (e.arg, _ATOM))),
    RefNew: lambda e: (_APP, ("ref ", (e.init, _ATOM))),
    RefGet: lambda e: (_APP, ("!", (e.ref, _ATOM))),
    Rset: lambda e: (_APP, ("rset ", (e.ref, _ATOM), " ", (e.value, _ATOM))),
    Escape: lambda e: (_APP, (".~", (e.body, _ATOM))),
    Csp: lambda e: (_APP, ("%", (e.body, _ATOM))),
    Comb: _comb_layout,
    Fun: lambda e: (_EXPR, ("fun ", e.param, " -> ", (e.body, _EXPR))),
    Let: lambda e: (_EXPR, ("let ", e.name, " = ", (e.rhs, _EXPR), " in ", (e.body, _EXPR))),
}


def pretty(e: Expr) -> str:
    """Concrete syntax, which `parse_source` (`parse_term` for a term) reads
    back, laid out by `render_layout`, so any depth of tree is fine."""
    return render_layout("expression", e, _EXPR, _LAYOUT)


def is_plain(e: Expr) -> bool:
    """No Bracket, Escape or Csp anywhere in the tree: one walk in field
    order on an explicit stack, so any depth is fine, that stops at the
    first staging form; `children` raises on a node of no known class."""
    stack = [e]
    while stack:
        e = stack.pop()
        cls = type(e)
        step = _PUSH.get(cls)
        if step:
            push, get = step
            push(stack, get(e))
        elif step is None:  # a staging form, a `Comb`, or no known class
            if cls is Bracket or cls is Escape or cls is Csp:
                return False
            stack += children(e)[::-1]
    return True
