"""Types, schemes, environments, unification, and variance.

Unification works on mutable type-variable cells with an occurs check and
path compression, so each inference run owns its substitution implicitly.

Generalization is linear in the program, by ranks on type variables
(Remy's levels).  A `TypeEnv` is a chain of bindings whose `depth` counts
them.  The rank invariant: an unbound variable that the binding at depth
k can reach has rank at most k.  A variable enters a let's right-hand side
fresh, by instantiation, or through the environment, so the variables of
its type ranked deeper than the environment are exactly those the
environment cannot reach, and `generalize` need not look at the
environment at all.  Ranks are only ever lowered, in two places:

- `TypeEnv.bind` lowers the free, non-quantified variables of the bound
  scheme to the new depth (a lambda parameter, and a let whose variables
  the value restriction left ungeneralized);
- `unify`, binding a variable v, lowers every variable of the other side
  to v's rank during the occurs check, so whatever v could reach stays
  reachable at the same rank.

A fresh variable starts at `UNBOUNDED_RANK`: nothing can reach it yet.
The rank is a position in the environment; it is unrelated to the stage
`level` of a `Binding`.
"""

from __future__ import annotations

import enum
import itertools
import sys
from dataclasses import dataclass

from .diagnostics import type_error

_var_ids = itertools.count(1)

UNBOUNDED_RANK = sys.maxsize


class Type:
    pass


class TVar(Type):
    __slots__ = ("id", "instance", "rank")

    def __init__(self) -> None:
        self.id = next(_var_ids)
        self.instance: Type | None = None
        self.rank = UNBOUNDED_RANK

    def __repr__(self) -> str:
        return f"'t{self.id}"


@dataclass(frozen=True)
class TInt(Type):
    pass


@dataclass(frozen=True)
class TStr(Type):
    pass


@dataclass(frozen=True)
class TUnit(Type):
    pass


@dataclass(frozen=True)
class TList(Type):
    item: Type


@dataclass(frozen=True)
class TPair(Type):
    first: Type
    second: Type


@dataclass(frozen=True)
class TArrow(Type):
    arg: Type
    result: Type


@dataclass(frozen=True)
class TRef(Type):
    item: Type


@dataclass(frozen=True)
class TCode(Type):
    item: Type


@dataclass(frozen=True)
class TScope(Type):
    answer: Type


@dataclass(frozen=True)
class TFunScope(Type):
    answer: Type


INT = TInt()
STR = TStr()
UNIT = TUnit()


def resolve(t: Type) -> Type:
    """Chase variable bindings, compressing paths."""
    if isinstance(t, TVar) and t.instance is not None:
        root = resolve(t.instance)
        t.instance = root
        return root
    return t


def _parts(t: Type) -> tuple[Type, ...]:
    if isinstance(t, (TList, TRef, TCode)):
        return (t.item,)
    if isinstance(t, (TScope, TFunScope)):
        return (t.answer,)
    if isinstance(t, TPair):
        return (t.first, t.second)
    if isinstance(t, TArrow):
        return (t.arg, t.result)
    return ()


def occurs(v: TVar, t: Type) -> bool:
    """Whether v occurs in t; lowers the rank of t's other variables to
    v's on the way, as binding v to t makes them reachable wherever v is."""
    t = resolve(t)
    if t is v:
        return True
    if isinstance(t, TVar):
        if t.rank > v.rank:
            t.rank = v.rank
        return False
    for p in _parts(t):
        if occurs(v, p):
            return True
    return False


def unify(a: Type, b: Type) -> None:
    a, b = resolve(a), resolve(b)
    if a is b:
        return
    if isinstance(a, TVar):
        if occurs(a, b):
            raise type_error(f"occurs check: cannot construct infinite type {a} = {render(b)}")
        a.instance = b
        return
    if isinstance(b, TVar):
        unify(b, a)
        return
    if type(a) is not type(b):
        raise type_error(f"cannot unify {render(a)} with {render(b)}")
    pa, pb = _parts(a), _parts(b)
    assert len(pa) == len(pb)
    for x, y in zip(pa, pb):
        unify(x, y)


def free_type_vars(t: Type) -> list[TVar]:
    """Unbound variables, in first-occurrence order."""
    out: dict[TVar, None] = {}
    _collect_vars(t, out)
    return list(out)


def _collect_vars(t: Type, out: dict[TVar, None]) -> None:
    t = resolve(t)
    if isinstance(t, TVar):
        out[t] = None
        return
    for p in _parts(t):
        _collect_vars(p, out)


class Variance(enum.Enum):
    COVARIANT = "covariant"
    CONTRAVARIANT = "contravariant"
    INVARIANT = "invariant"
    UNUSED = "unused"


def _flip(v: Variance) -> Variance:
    if v is Variance.COVARIANT:
        return Variance.CONTRAVARIANT
    if v is Variance.CONTRAVARIANT:
        return Variance.COVARIANT
    return v


def _join(a: Variance, b: Variance) -> Variance:
    if a is Variance.UNUSED:
        return b
    if b is Variance.UNUSED:
        return a
    if a is b:
        return a
    return Variance.INVARIANT


def variance_of(v: TVar, t: Type) -> Variance:
    """How v occurs in t: the join over all occurrences.

    list, code, and both pair positions are covariant; the arrow is
    contravariant in its argument; ref, scope, and funscope are invariant.
    """
    t = resolve(t)
    if t is v:
        return Variance.COVARIANT
    if isinstance(t, TVar) or not _parts(t):
        return Variance.UNUSED
    if isinstance(t, (TList, TCode)):
        return variance_of(v, t.item)
    if isinstance(t, TPair):
        return _join(variance_of(v, t.first), variance_of(v, t.second))
    if isinstance(t, TArrow):
        return _join(_flip(variance_of(v, t.arg)), variance_of(v, t.result))
    if isinstance(t, TRef):
        inner = variance_of(v, t.item)
        return Variance.UNUSED if inner is Variance.UNUSED else Variance.INVARIANT
    if isinstance(t, (TScope, TFunScope)):
        inner = variance_of(v, t.answer)
        return Variance.UNUSED if inner is Variance.UNUSED else Variance.INVARIANT
    raise TypeError(f"unexpected type {t!r}")


@dataclass(frozen=True)
class Scheme:
    quantified: tuple[TVar, ...]
    body: Type

    def instantiate(self) -> Type:
        mapping = {v: TVar() for v in self.quantified}
        return _subst(self.body, mapping)


def monotype(t: Type) -> Scheme:
    return Scheme((), t)


def _subst(t: Type, mapping: dict[TVar, Type]) -> Type:
    t = resolve(t)
    if isinstance(t, TVar):
        return mapping.get(t, t)
    if isinstance(t, TList):
        return TList(_subst(t.item, mapping))
    if isinstance(t, TRef):
        return TRef(_subst(t.item, mapping))
    if isinstance(t, TCode):
        return TCode(_subst(t.item, mapping))
    if isinstance(t, TScope):
        return TScope(_subst(t.answer, mapping))
    if isinstance(t, TFunScope):
        return TFunScope(_subst(t.answer, mapping))
    if isinstance(t, TPair):
        return TPair(_subst(t.first, mapping), _subst(t.second, mapping))
    if isinstance(t, TArrow):
        return TArrow(_subst(t.arg, mapping), _subst(t.result, mapping))
    return t


@dataclass(frozen=True)
class Binding:
    """A variable's scheme and the stage level (0 or 1) it is bound at."""

    name: str
    level: int
    scheme: Scheme


class TypeEnv:
    """An immutable chain of bindings, innermost first; lookup respects
    shadowing.  `TypeEnv()` is the empty environment, of depth 0."""

    __slots__ = ("binding", "parent", "depth")

    def __init__(self) -> None:
        self.binding: Binding | None = None
        self.parent: TypeEnv | None = None
        self.depth = 0

    def bind(self, name: str, level: int, scheme: Scheme) -> TypeEnv:
        """Extend by one binding, lowering the scheme's free variables to
        the new depth (the rank invariant in the module docstring)."""
        env = TypeEnv()
        env.binding = Binding(name, level, scheme)
        env.parent = self
        env.depth = depth = self.depth + 1
        for v in free_type_vars(scheme.body):
            if v.rank > depth and v not in scheme.quantified:
                v.rank = depth
        return env

    def lookup(self, name: str) -> Binding | None:
        env: TypeEnv | None = self
        while env is not None and env.binding is not None:
            if env.binding.name == name:
                return env.binding
            env = env.parent
        return None


# Rendering: arrow < pair < postfix constructor application.
_ARROW, _PAIR, _POST = 0, 1, 2


def render(t: Type, code_word: str = "code", names: dict[TVar, str] | None = None) -> str:
    if names is None:
        names = {}
    return _render(t, _ARROW, code_word, names)


def render_scheme(s: Scheme, code_word: str = "code") -> str:
    names = {v: _var_name(i) for i, v in enumerate(s.quantified)}
    return _render(s.body, _ARROW, code_word, names)


def _var_name(i: int) -> str:
    name = ""
    i += 1
    while i > 0:
        i, rem = divmod(i - 1, 26)
        name = chr(ord("a") + rem) + name
    return "'" + name


def _render(t: Type, level: int, code_word: str, names: dict[TVar, str]) -> str:
    t = resolve(t)
    text, mine = _render1(t, code_word, names)
    if mine < level:
        return f"({text})"
    return text


def _render1(t: Type, code_word: str, names: dict[TVar, str]) -> tuple[str, int]:
    if isinstance(t, TVar):
        return names.get(t, f"'_{t.id}"), _POST
    if isinstance(t, TInt):
        return "int", _POST
    if isinstance(t, TStr):
        return "string", _POST
    if isinstance(t, TUnit):
        return "unit", _POST
    if isinstance(t, TList):
        return f"{_render(t.item, _POST, code_word, names)} list", _POST
    if isinstance(t, TRef):
        return f"{_render(t.item, _POST, code_word, names)} ref", _POST
    if isinstance(t, TCode):
        return f"{_render(t.item, _POST, code_word, names)} {code_word}", _POST
    if isinstance(t, TScope):
        return f"{_render(t.answer, _POST, code_word, names)} scope", _POST
    if isinstance(t, TFunScope):
        return f"{_render(t.answer, _POST, code_word, names)} funscope", _POST
    if isinstance(t, TPair):
        left = _render(t.first, _POST, code_word, names)
        right = _render(t.second, _POST, code_word, names)
        return f"{left} * {right}", _PAIR
    if isinstance(t, TArrow):
        left = _render(t.arg, _PAIR, code_word, names)
        right = _render(t.result, _ARROW, code_word, names)
        return f"{left} -> {right}", _ARROW
    raise TypeError(f"unexpected type {t!r}")


def canonical_key(s: Scheme) -> object:
    """Hashable shape of a scheme, quantified variables numbered by first
    occurrence; schemes are equal up to renaming iff their keys are equal."""
    order: dict[TVar, int] = {}

    def walk(t: Type) -> object:
        t = resolve(t)
        if isinstance(t, TVar):
            if t in s.quantified:
                if t not in order:
                    order[t] = len(order)
                return ("q", order[t])
            return ("free", t.id)
        return (type(t).__name__,) + tuple(walk(p) for p in _parts(t))

    return walk(s.body)


def schemes_equal(a: Scheme, b: Scheme) -> bool:
    return canonical_key(a) == canonical_key(b)
