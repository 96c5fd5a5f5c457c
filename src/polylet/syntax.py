"""Abstract syntax: one node family for every tree the pipeline handles.

Source programs use the plain forms plus the staging forms (`Bracket`,
`Escape`, `Csp`); the unstaging translation's image uses the plain forms
plus `Comb`, saturated applications of code-combinator constants; code
rebuilt by the quoting backend uses the plain forms plus `CspValue`, a
persisted run-time value.  Expressions carry at most one level of
quotation: brackets never nest, and escapes only occur inside a bracket.

Traversals go through one generic pair: `children(e)` lists the
subexpressions in field order, and `rebuild(e, kids)` makes the same
node over new children.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter, is_
from typing import Sequence

from .diagnostics import Kind, Diagnostic

# Binder names are ordinary identifiers, or one of two special forms that
# bind nothing: "()" (unit pattern) and "_" (wildcard).
UNIT_BINDER = "()"
WILDCARD = "_"

COMB_NAMES = frozenset(
    {
        "int",
        "str",
        "add",
        "lam",
        "app",
        "pair",
        "nil",
        "cons",
        "ref_",
        "rget",
        "rset",
        "csp",
        "new_scope",
        "genlet",
        "new_funscope",
        "genletfun",
    }
)


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class StrLit(Expr):
    value: str


@dataclass(frozen=True)
class Nil(Expr):
    pass


@dataclass(frozen=True)
class Unit(Expr):
    pass


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pair(Expr):
    first: Expr
    second: Expr


@dataclass(frozen=True)
class Cons(Expr):
    head: Expr
    tail: Expr


@dataclass(frozen=True)
class RefNew(Expr):
    init: Expr


@dataclass(frozen=True)
class RefGet(Expr):
    ref: Expr


@dataclass(frozen=True)
class Rset(Expr):
    ref: Expr
    value: Expr


@dataclass(frozen=True)
class App(Expr):
    fn: Expr
    arg: Expr


@dataclass(frozen=True)
class Fun(Expr):
    param: str
    body: Expr


@dataclass(frozen=True)
class Let(Expr):
    name: str
    rhs: Expr
    body: Expr


@dataclass(frozen=True)
class Bracket(Expr):
    body: Expr


@dataclass(frozen=True)
class Escape(Expr):
    body: Expr


@dataclass(frozen=True)
class Csp(Expr):
    body: Expr


@dataclass(frozen=True, eq=False)
class CspValue(Expr):
    """A run-time value persisted into rebuilt code, or embedded in a
    hand-built term.

    Only non-literal values appear this way; ground values are rebuilt as
    ordinary literals.  Not produced by the parser.
    """

    value: object


@dataclass(frozen=True)
class Comb(Expr):
    """Saturated application of a code-combinator constant."""

    name: str
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.name not in COMB_NAMES:
            raise ValueError(f"unknown combinator {self.name}")


def comb(name: str, *args: Expr) -> Comb:
    return Comb(name, tuple(args))


def binds(name: str) -> bool:
    return name not in (UNIT_BINDER, WILDCARD)


# --- generic traversal -------------------------------------------------------


def _no_children(e: Expr) -> tuple[Expr, ...]:
    return ()


def _one_child(field: str):
    get = attrgetter(field)
    return lambda e: (get(e),)


_CHILDREN = {
    Var: _no_children,
    IntLit: _no_children,
    StrLit: _no_children,
    Nil: _no_children,
    Unit: _no_children,
    CspValue: _no_children,
    Add: attrgetter("left", "right"),
    Pair: attrgetter("first", "second"),
    Cons: attrgetter("head", "tail"),
    RefNew: _one_child("init"),
    RefGet: _one_child("ref"),
    Rset: attrgetter("ref", "value"),
    App: attrgetter("fn", "arg"),
    Fun: _one_child("body"),
    Let: attrgetter("rhs", "body"),
    Bracket: _one_child("body"),
    Escape: _one_child("body"),
    Csp: _one_child("body"),
    Comb: attrgetter("args"),
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


def free_vars(e: Expr) -> set[str]:
    """Variables not bound by any enclosing Fun or Let."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Fun):
        inner = free_vars(e.body)
        return inner - {e.param} if binds(e.param) else inner
    if isinstance(e, Let):
        body = free_vars(e.body)
        if binds(e.name):
            body = body - {e.name}
        return free_vars(e.rhs) | body
    out: set[str] = set()
    for child in children(e):
        out |= free_vars(child)
    return out


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
    """True iff a and b differ only in the names of bound variables."""
    return _alpha(a, b, {}, {})


def _alpha(a: Expr, b: Expr, l2r: dict[str, str], r2l: dict[str, str]) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Var):
        assert isinstance(b, Var)
        if a.name in l2r or b.name in r2l:
            return l2r.get(a.name) == b.name and r2l.get(b.name) == a.name
        return a.name == b.name
    if isinstance(a, (IntLit, StrLit)):
        return a.value == b.value  # type: ignore[attr-defined]
    if isinstance(a, CspValue):
        assert isinstance(b, CspValue)
        return csp_values_equal(a.value, b.value)
    if isinstance(a, Fun):
        assert isinstance(b, Fun)
        return _alpha(a.body, b.body, l2r | {a.param: b.param}, r2l | {b.param: a.param})
    if isinstance(a, Let):
        assert isinstance(b, Let)
        return _alpha(a.rhs, b.rhs, l2r, r2l) and _alpha(
            a.body, b.body, l2r | {a.name: b.name}, r2l | {b.name: a.name}
        )
    if isinstance(a, Comb) and a.name != b.name:  # type: ignore[attr-defined]
        return False
    ca, cb = children(a), children(b)
    return len(ca) == len(cb) and all(_alpha(x, y, l2r, r2l) for x, y in zip(ca, cb))


_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def quote_string(s: str) -> str:
    """A string literal's concrete syntax; `unescape` reads it back."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def unescape(body: str) -> str:
    """A string literal's value from the text between its quotes: `\\n`,
    `\\t`, `\\"` and `\\\\` are escapes, and a backslash before any other
    character stands for that character."""
    return _ESCAPE_RE.sub(lambda m: _ESCAPES.get(m.group(1), m.group(1)), body)


# Precedence levels for printing.  Binary arithmetic/cons forms always
# print their own parentheses, so only fun/let vs. operand positions and
# application chains need levels.
_EXPR, _OPER, _APP, _ATOM = 0, 1, 3, 4


def pretty(e: Expr) -> str:
    """Concrete syntax; a combinator-free tree re-parses to an alpha-equal
    tree."""
    return _render(e, _EXPR)


def _render(e: Expr, min_level: int) -> str:
    text, level = _render1(e)
    if level < min_level:
        return f"({text})"
    return text


def _render1(e: Expr) -> tuple[str, int]:
    if isinstance(e, Var):
        return e.name, _ATOM
    if isinstance(e, IntLit):
        return str(e.value), _ATOM
    if isinstance(e, StrLit):
        return quote_string(e.value), _ATOM
    if isinstance(e, Nil):
        return "[]", _ATOM
    if isinstance(e, Unit):
        return "()", _ATOM
    if isinstance(e, CspValue):
        # Display-only: a persisted value has no source syntax.
        return f"%<{e.value}>", _ATOM
    if isinstance(e, Bracket):
        return f".<{_render(e.body, _EXPR)}>.", _ATOM
    if isinstance(e, Add):
        return f"({_render(e.left, _OPER)} + {_render(e.right, _OPER)})", _ATOM
    if isinstance(e, Cons):
        return f"({_render(e.head, _OPER)} :: {_render(e.tail, _OPER)})", _ATOM
    if isinstance(e, Pair):
        return f"({_render(e.first, _EXPR)}, {_render(e.second, _EXPR)})", _ATOM
    if isinstance(e, App):
        return f"{_render(e.fn, _APP)} {_render(e.arg, _ATOM)}", _APP
    if isinstance(e, RefNew):
        return f"ref {_render(e.init, _ATOM)}", _APP
    if isinstance(e, RefGet):
        return f"!{_render(e.ref, _ATOM)}", _APP
    if isinstance(e, Rset):
        return f"rset {_render(e.ref, _ATOM)} {_render(e.value, _ATOM)}", _APP
    if isinstance(e, Escape):
        return f".~{_render(e.body, _ATOM)}", _APP
    if isinstance(e, Csp):
        return f"%{_render(e.body, _ATOM)}", _APP
    if isinstance(e, Comb):
        if not e.args:
            return e.name, _ATOM
        return e.name + " " + " ".join(_render(a, _ATOM) for a in e.args), _APP
    if isinstance(e, Fun):
        return f"fun {e.param} -> {_render(e.body, _EXPR)}", _EXPR
    if isinstance(e, Let):
        return f"let {e.name} = {_render(e.rhs, _EXPR)} in {_render(e.body, _EXPR)}", _EXPR
    raise TypeError(f"unexpected expression {e!r}")


def check_staging(e: Expr, level: int = 0) -> None:
    """Enforce the two-level discipline; raises a ParseError diagnostic.

    Inside a bracket no further bracket may occur except within an escape
    (which returns to level 0).  Escapes occur only at level 1.  The CSP
    marker is legal at level 1 (persistence) and at level 0 (lifting a
    present-stage value into code).
    """
    if isinstance(e, Bracket):
        if level > 0:
            raise Diagnostic(Kind.PARSE_ERROR, "nested bracket")
        level = 1
    elif isinstance(e, Escape):
        if level == 0:
            raise Diagnostic(Kind.PARSE_ERROR, "escape at level 0")
        level = 0
    elif isinstance(e, Csp):
        level = 0
    elif isinstance(e, (Fun, Let)):
        name = e.param if isinstance(e, Fun) else e.name
        if not name:
            raise Diagnostic(Kind.PARSE_ERROR, "empty binder name")
    for child in children(e):
        check_staging(child, level)


def is_plain(e: Expr) -> bool:
    """No staging forms anywhere in the tree."""
    if isinstance(e, (Bracket, Escape, Csp)):
        return False
    return all(is_plain(c) for c in children(e))
