"""Types, schemes, environments, unification, and variance.

Unification works on mutable type-variable cells with an occurs check and
path compression, so each inference run owns its substitution implicitly.
Every other type is a record, immutable by convention: `records` makes its
`__init__` and shares `__repr__`, `__eq__` and `__hash__`.

Let-bound sharing makes a type a DAG whose tree can be exponential.  The
walkers (`resolve`, `occurs`, `unify`, `free_type_vars`, `_subst`) are
loops, not recursion, that enter a shared pair or arrow once, by id, in the
left-to-right, depth-first order of a walk of the tree.

Generalization walks the type, never the environment, by ranks on type
variables (Remy's levels).  A `TypeEnv` is a scoped table: each name maps
to a stack of its bindings, and `depth` counts the bindings in scope.  The
rank invariant: an unbound variable that the binding at depth k can
reach has rank at most k.  A variable enters a let's right-hand side
fresh, by instantiation, or through the environment, so the variables of
its type ranked deeper than the environment are exactly those the
environment cannot reach, and `generalize` need not look at the
environment at all.  Ranks are only ever lowered, in two places:

- `TypeEnv.bind` lowers the free, non-quantified variables of the bound
  scheme to the new depth (a lambda parameter, and a let whose variables
  the value restriction left ungeneralized);
- `unify`, binding a variable v, lowers every variable of the other side
  to v's rank during the occurs check, so whatever v could reach stays
  reachable at the same rank.  Entering a shared node once changes none
  of this: a second visit would lower nothing further.

A fresh variable starts at `UNBOUNDED_RANK`: nothing can reach it yet.
The rank is a position in the environment; it is unrelated to the stage
`level` a `TypeEnv` binding holds its variable at.

Types print, as code and values do, through the one layout printer,
`diagnostics.render_layout`.
"""

from __future__ import annotations

import itertools
import sys
from collections import defaultdict
from operator import attrgetter

from .diagnostics import check_print_size, render_layout, type_error
from .records import record

_var_ids = itertools.count(1)

UNBOUNDED_RANK = sys.maxsize


class Type:
    __slots__ = ()


class TVar(Type):
    __slots__ = ("id", "instance", "rank")

    def __init__(self) -> None:
        self.id = next(_var_ids)
        self.instance: Type | None = None
        self.rank = UNBOUNDED_RANK

    def __repr__(self) -> str:
        return f"'t{self.id}"


@record
class TInt(Type):
    pass


@record
class TStr(Type):
    pass


@record
class TUnit(Type):
    pass


@record
class TList(Type):
    item: Type


@record
class TPair(Type):
    first: Type
    second: Type


@record
class TArrow(Type):
    arg: Type
    result: Type


@record
class TRef(Type):
    item: Type


@record
class TCode(Type):
    item: Type


@record
class TScope(Type):
    item: Type


@record
class TFunScope(Type):
    item: Type


INT = TInt()
STR = TStr()
UNIT = TUnit()


def resolve(t: Type) -> Type:
    """Chase variable bindings, compressing paths."""
    if type(t) is not TVar or t.instance is None:
        return t
    root = t.instance
    while type(root) is TVar and root.instance is not None:
        root = root.instance
    while t is not root:
        t.instance, t = root, t.instance
    return root


# The classes of one part, `item`, and those that make it invariant.
_ONE_PART = frozenset((TList, TRef, TCode, TScope, TFunScope))
_INVARIANT = frozenset((TRef, TScope, TFunScope))

# Each class's component types, in field order, for the cold walkers; the
# hot ones read the fields directly.
_PARTS = {
    **dict.fromkeys((TVar, TInt, TStr, TUnit), lambda t: ()),
    **dict.fromkeys(_ONE_PART, lambda t: (t.item,)),
    TPair: attrgetter("first", "second"),
    TArrow: attrgetter("arg", "result"),
}


def occurs(v: TVar, t: Type) -> bool:
    """Whether v occurs in t; lowers the rank of t's other variables to
    v's on the way, as binding v to t makes them reachable wherever v is."""
    stack = seen = None
    while True:
        if type(t) is TVar and t.instance is not None:
            t = resolve(t)
        cls = type(t)
        if cls is TVar:
            if t is v:
                return True
            if t.rank > v.rank:
                t.rank = v.rank
        elif cls in _ONE_PART:
            t = t.item
            continue
        elif cls is TArrow or cls is TPair:
            if seen is None:
                stack, seen = [], set()
            if id(t) not in seen:
                seen.add(id(t))
                stack.append(t.result if cls is TArrow else t.second)
                t = t.arg if cls is TArrow else t.first
                continue
        if not stack:
            return False
        t = stack.pop()


def unify(a: Type, b: Type) -> None:
    stack = seen = None
    while True:
        if type(a) is TVar and a.instance is not None:
            a = resolve(a)
        if type(b) is TVar and b.instance is not None:
            b = resolve(b)
        cls = type(a)
        if a is b:
            pass
        elif cls is TVar or type(b) is TVar:
            if cls is not TVar:
                a, b = b, a
            if occurs(a, b):
                raise _mismatch("occurs check: cannot construct infinite type {} = {}", a, b)
            a.instance = b
        elif cls is not type(b):
            raise _mismatch("cannot unify {} with {}", a, b)
        elif cls in _ONE_PART:
            a, b = a.item, b.item
            continue
        elif cls is TArrow or cls is TPair:
            if seen is None:
                stack, seen = [], set()
            if (id(a), id(b)) not in seen:
                seen.add((id(a), id(b)))
                stack.append((a.result, b.result) if cls is TArrow else (a.second, b.second))
                a, b = (a.arg, b.arg) if cls is TArrow else (a.first, b.first)
                continue
        if not stack:
            return
        a, b = stack.pop()


def _mismatch(template: str, a: Type, b: Type):
    """A unification error rendering both sides from one name table, so the
    variables read '_1, '_2, ... by first appearance, whatever their ids."""
    names = {v: f"'_{i}" for i, v in enumerate(free_type_vars(TPair(a, b)), 1)}
    return type_error(template.format(*(_render(t, "code", names) for t in (a, b))))


def free_type_vars(t: Type) -> dict[TVar, bool]:
    """Unbound variables, in first-occurrence order, each mapped to whether
    it has an occurrence that is not covariant.  The sign is 1 at the root;
    an arrow's argument negates it, and ref, scope, and funscope make it 0
    (invariant)."""
    out: dict[TVar, bool] = {}
    sign, stack, seen = 1, None, None
    while True:
        if type(t) is TVar and t.instance is not None:
            t = resolve(t)
        cls = type(t)
        if cls is TVar:
            if sign != 1:
                out[t] = True
            elif t not in out:
                out[t] = False
        elif cls in _ONE_PART:
            t, sign = t.item, 0 if cls in _INVARIANT else sign
            continue
        elif cls is TArrow or cls is TPair:
            if seen is None:
                stack, seen = [], set()
            if (id(t), sign) not in seen:
                seen.add((id(t), sign))
                stack.append((t.result if cls is TArrow else t.second, sign))
                t, sign = (t.arg, -sign) if cls is TArrow else (t.first, sign)
                continue
        if not stack:
            return out
        t, sign = stack.pop()


@record(eq=False)
class Scheme:
    quantified: tuple[TVar, ...]
    body: Type

    def instantiate(self) -> Type:
        """A fresh instance: `body` itself when nothing is quantified, as
        only variable cells are ever mutated."""
        if not self.quantified:
            return self.body
        mapping = {v: TVar() for v in self.quantified}
        return _subst(self.body, mapping)


def monotype(t: Type) -> Scheme:
    return Scheme((), t)


def _subst(t: Type, mapping: dict[TVar, Type]) -> Type:
    """t with mapping's variables replaced.  Each node is copied once, so
    the copy shares as t does, and a node with none of them is itself."""
    memo: dict[int, Type] = {}
    frames: list[tuple[Type, Type]] = []  # (node, its first part's copy, or node)
    while True:
        while True:  # down first parts, to a leaf or a node copied already
            if type(t) is TVar and t.instance is not None:
                t = resolve(t)
            cls = type(t)
            if cls is TVar:
                t = mapping.get(t, t)
            elif cls in _BASE or id(t) in memo:
                t = memo.get(id(t), t)
            else:
                frames.append((t, t))
                t = t.item if cls in _ONE_PART else t.arg if cls is TArrow else t.first
                continue
            break
        while frames:  # up, copying each node whose parts are copied
            node, first = frames.pop()
            cls = type(node)
            if cls in _ONE_PART:
                t = node if t is node.item else cls(t)
            elif first is node:
                frames.append((node, t))
                t = node.result if cls is TArrow else node.second
                break
            else:
                parts = (node.arg, node.result) if cls is TArrow else (node.first, node.second)
                t = node if first is parts[0] and t is parts[1] else cls(first, t)
            memo[id(node)] = t
        else:
            return t


class TypeEnv:
    """The bindings in scope, as a table from each name to a stack of its
    `(level, scheme)` bindings, innermost last: the stage `level` (0 or 1)
    the variable is bound at, and its `scheme`.  Inference walks the tree
    depth-first, so it `bind`s a name on entering its scope and `unbind`s
    it on leaving.  `TypeEnv()` is the empty environment, of depth 0.
    `verdicts` is one run's `is_nonexpansive` verdicts, by id of the term."""

    __slots__ = ("table", "depth", "verdicts")

    def __init__(self) -> None:
        self.table: defaultdict[str, list[tuple[int, Scheme]]] = defaultdict(list)
        self.depth = 0
        self.verdicts: dict[int, bool] = {}

    def bind(self, name: str, level: int, scheme: Scheme) -> None:
        """Push one binding, lowering the scheme's free variables to the
        new depth (the rank invariant in the module docstring)."""
        self.depth = depth = self.depth + 1
        quantified = set(scheme.quantified) if scheme.quantified else ()
        for v in free_type_vars(scheme.body):
            if v.rank > depth and v not in quantified:
                v.rank = depth
        self.table[name].append((level, scheme))

    def unbind(self, name: str) -> None:
        """Pop the innermost binding of name."""
        self.table[name].pop()
        self.depth -= 1

    def lookup(self, name: str) -> tuple[int, Scheme] | None:
        """The innermost binding of name, or None."""
        stack = self.table.get(name)
        return stack[-1] if stack else None

    def copy(self) -> TypeEnv:
        """The same bindings, in a table of their own."""
        env = TypeEnv()
        env.table.update((name, stack[:]) for name, stack in self.table.items() if stack)
        env.depth = self.depth
        return env


# Rendering: arrow < pair < postfix constructor application.
_ARROW, _PAIR, _POST = 0, 1, 2

# The base types' names.
_BASE = {TInt: "int", TStr: "string", TUnit: "unit"}


def render_scheme(s: Scheme, code_word: str = "code") -> str:
    """Quantified variables print as 'a, 'b, ...; weak ones as '_1, '_2,
    ... by first appearance, whatever their ids."""
    names = {v: _var_name(i) for i, v in enumerate(s.quantified)}
    weak = [v for v in free_type_vars(s.body) if v not in names]
    names.update((v, f"'_{i}") for i, v in enumerate(weak, 1))
    return _render(s.body, code_word, names)


def _var_name(i: int) -> str:
    name = ""
    i += 1
    while i > 0:
        i, rem = divmod(i - 1, 26)
        name = chr(ord("a") + rem) + name
    return "'" + name


def _render(t: Type, code_word: str, names: dict[TVar, str]) -> str:
    """t laid out by `render_layout`, from a table that closes over names
    and code_word; each layout holds its children resolved."""
    t = resolve(t)
    check_print_size("type", t, lambda t: [resolve(p) for p in _PARTS[type(t)](t)])
    words = {TList: " list", TRef: " ref", TCode: " " + code_word, TScope: " scope", TFunScope: " funscope"}
    layouts = {
        **{cls: lambda t, word=word: (_POST, ((resolve(t.item), _POST), word)) for cls, word in words.items()},
        **{cls: lambda t, name=name: name for cls, name in _BASE.items()},
        TVar: names.__getitem__,
        TPair: lambda t: (_PAIR, ((resolve(t.first), _POST), " * ", (resolve(t.second), _POST))),
        TArrow: lambda t: (_ARROW, ((resolve(t.arg), _PAIR), " -> ", (resolve(t.result), _ARROW))),
    }
    return render_layout("type", t, _ARROW, layouts)
