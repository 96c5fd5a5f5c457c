"""Hindley-Milner inference over the one node family.

`infer_staged` implements the level-indexed system over staged source
programs, from level 0.  `infer_host` is the same function, named for
its use on the translation's image, where each combinator constant
carries its library scheme; host terms bind and use every variable at
level 0, so the level check never fires there.  A combinator
application is typed along its type's arrow spine: each argument is
unified with the next parameter, and no variable is made for a result.
Both share the generalization policies: the strict value restriction,
the non-expansive extension, and the relaxed rule that also generalizes
the type variables of an expansive right-hand side that occur only
covariantly.

Inference is one table, `_INFER`, from node class to rule(env, e, level,
policy), like the machine's `_STEP`.  A rule types each child through the
table, one Python frame per tree level; a binder's rule binds its name in
the scoped `TypeEnv` for its body and unbinds it after.
"""

from __future__ import annotations

import enum

from . import syntax as S
from .diagnostics import type_error, unbound_var
from .typesys import (
    INT,
    STR,
    UNIT,
    Scheme,
    TArrow,
    TCode,
    TFunScope,
    TList,
    TPair,
    TRef,
    TScope,
    TVar,
    Type,
    TypeEnv,
    free_type_vars,
    monotype,
    resolve,
    unify,
)


class GenPolicy(enum.Enum):
    STRICT_VALUE = "value"
    NON_EXPANSIVE = "nonexpansive"
    RELAXED = "relaxed"


# Named once: before Python 3.12, naming an enum member is a slow lookup.
_STRICT, _RELAXED = GenPolicy.STRICT_VALUE, GenPolicy.RELAXED

# The classes that are values (non-expansive) outright, and those that are
# when every child is; an unapplied combinator constant is a value too.
_VALUE_LEAVES = frozenset((S.Var, S.IntLit, S.StrLit, S.Nil, S.Unit, S.Fun, S.CspValue))
_VALUE_NODES = frozenset((S.Pair, S.Cons))
_NONEXPANSIVE_LEAVES = _VALUE_LEAVES | {S.Bracket}
_NONEXPANSIVE_NODES = _VALUE_NODES | {S.Csp, S.Let}


def is_syntactic_value(e: S.Expr) -> bool:
    """The strict value class: literals, variables, functions, pair/cons
    cells of values, and combinator constants (zero-arity combinators)."""
    return is_nonexpansive(e, _VALUE_LEAVES, _VALUE_NODES)


def is_nonexpansive(e: S.Expr, leaves=_NONEXPANSIVE_LEAVES, nodes=_NONEXPANSIVE_NODES, seen=None) -> bool:
    """Expressions whose evaluation visibly contributes no effect.

    Values, brackets, CSP of non-expansive operands, and let-expressions
    over non-expansive parts qualify; applications, reference operations,
    escapes, and applied combinators do not.  Whether e is a leaf, or a
    node whose children all are, recursively: past the root, on an
    explicit stack, so any depth is fine.  A walk keeps its verdict in `seen`
    by id of e, and reads a let's right-hand side's from there if it is kept.
    """
    cls = type(e)
    if cls in leaves:
        return True
    if cls not in nodes:
        return cls is S.Comb and not e.args
    seen, stack = {} if seen is None else seen, [e]
    while stack:
        x = stack.pop()
        cls = type(x)
        if cls in nodes:
            if cls is not S.Let or id(x.rhs) not in seen:
                stack += S.children(x)
            elif seen[id(x.rhs)]:
                stack.append(x.body)
            else:
                seen[id(e)] = False
                return False
        elif cls not in leaves and (cls is not S.Comb or x.args):
            seen[id(e)] = False
            return False
    seen[id(e)] = True
    return True


def generalize(t: Type, env: TypeEnv, rhs_nonexpansive: bool, policy: GenPolicy) -> Scheme:
    """Quantify the free variables of t that env cannot reach, as the policy
    and the right-hand side's syntactic class allow.  By the rank invariant
    (see typesys) those are the variables ranked deeper than env: all of
    them for a non-expansive right-hand side; for an expansive one, none,
    or under the relaxed policy those that occur only covariantly."""
    t = resolve(t)
    free = free_type_vars(t) if rhs_nonexpansive or policy is _RELAXED else None
    if not free:
        return monotype(t)
    quantified = [v for v in free if v.rank > env.depth and (rhs_nonexpansive or not free[v])]
    return Scheme(tuple(quantified), t)


def infer_staged(env: TypeEnv, e: S.Expr, policy: GenPolicy = GenPolicy.RELAXED) -> Scheme:
    env = env.copy()  # so that the caller's is as it was, also when a rule raises
    t = _INFER[type(e)](env, e, 0, policy)
    flag = is_syntactic_value(e) if policy is _STRICT else is_nonexpansive(e, seen=env.verdicts)
    return generalize(t, env, flag, policy)


infer_host = infer_staged


def _infer_var(env, e, level, policy):
    bound = env.lookup(e.name)
    if bound is None:
        raise unbound_var(e.name)
    if bound[0] != level:
        raise type_error(f"variable {e.name} is bound at level {bound[0]} but used at level {level}")
    return bound[1].instantiate()


def _infer_comb(env, e, level, policy):
    ty = _COMB_TYPES[e.name]
    if callable(ty):
        ty = ty(TVar(), TVar(), TVar())
    for arg in e.args:
        arg_ty = _INFER[type(arg)](env, arg, level, policy)
        if type(ty) is not TArrow:  # over-applied: raises a type error
            unify(ty, TArrow(arg_ty, TVar()))
        unify(ty.arg, arg_ty)
        ty = ty.result
    return ty


def _infer_add(env, e, level, policy):
    unify(_INFER[type(e.left)](env, e.left, level, policy), INT)
    unify(_INFER[type(e.right)](env, e.right, level, policy), INT)
    return INT


def _infer_cons(env, e, level, policy):
    head = _INFER[type(e.head)](env, e.head, level, policy)
    unify(_INFER[type(e.tail)](env, e.tail, level, policy), TList(head))
    return TList(head)


def _infer_ref_get(env, e, level, policy):
    item = TVar()
    unify(_INFER[type(e.ref)](env, e.ref, level, policy), TRef(item))
    return item


def _infer_rset(env, e, level, policy):
    item = TVar()
    unify(_INFER[type(e.ref)](env, e.ref, level, policy), TRef(TList(item)))
    unify(_INFER[type(e.value)](env, e.value, level, policy), item)
    return TList(item)


def _infer_app(env, e, level, policy):
    fn = _INFER[type(e.fn)](env, e.fn, level, policy)
    arg = _INFER[type(e.arg)](env, e.arg, level, policy)
    result = TVar()
    unify(fn, TArrow(arg, result))
    return result


def _infer_fun(env, e, level, policy):
    param = UNIT if e.param == S.UNIT_BINDER else TVar()
    if not S.binds(e.param):
        return TArrow(param, _INFER[type(e.body)](env, e.body, level, policy))
    env.bind(e.param, level, monotype(param))
    result = _INFER[type(e.body)](env, e.body, level, policy)
    env.unbind(e.param)
    return TArrow(param, result)


def _infer_let(env, e, level, policy):
    name, rhs, body = e.name, e.rhs, e.body
    rhs_ty = _INFER[type(rhs)](env, rhs, level, policy)
    if not S.binds(name):
        if name == S.UNIT_BINDER:
            unify(rhs_ty, UNIT)
        return _INFER[type(body)](env, body, level, policy)
    flag = is_syntactic_value(rhs) if policy is _STRICT else is_nonexpansive(rhs, seen=env.verdicts)
    env.bind(name, level, generalize(rhs_ty, env, flag, policy))
    result = _INFER[type(body)](env, body, level, policy)
    env.unbind(name)
    return result


def _infer_bracket(env, e, level, policy):
    if level != 0:
        raise type_error("nested bracket")
    return TCode(_INFER[type(e.body)](env, e.body, 1, policy))


def _infer_escape(env, e, level, policy):
    if level != 1:
        raise type_error("escape at level 0")
    code = _INFER[type(e.body)](env, e.body, 0, policy)
    item = TVar()
    unify(code, TCode(item))
    return item


def _infer_csp(env, e, level, policy):
    # A level-0 judgment: at level 1 the value persists at its own type; at
    # level 0 the marker lifts the value into code.
    t = _INFER[type(e.body)](env, e.body, 0, policy)
    return t if level == 1 else TCode(t)


_INFER = {
    S.Var: _infer_var,
    S.Comb: _infer_comb,
    S.IntLit: lambda env, e, level, policy: INT,
    S.StrLit: lambda env, e, level, policy: STR,
    S.Unit: lambda env, e, level, policy: UNIT,
    S.Nil: lambda env, e, level, policy: TList(TVar()),
    S.CspValue: lambda env, e, level, policy: TVar(),
    S.Add: _infer_add,
    S.Pair: lambda env, e, level, policy: TPair(
        _INFER[type(e.first)](env, e.first, level, policy), _INFER[type(e.second)](env, e.second, level, policy)
    ),
    S.Cons: _infer_cons,
    S.RefNew: lambda env, e, level, policy: TRef(_INFER[type(e.init)](env, e.init, level, policy)),
    S.RefGet: _infer_ref_get,
    S.Rset: _infer_rset,
    S.App: _infer_app,
    S.Fun: _infer_fun,
    S.Let: _infer_let,
    S.Bracket: _infer_bracket,
    S.Escape: _infer_escape,
    S.Csp: _infer_csp,
}


# Each combinator constant's library type.  A ground type is one shared
# object, as only variable cells are ever mutated; a polymorphic one is
# built per use over fresh variables: a and b for code types, w for a
# scope's answer type.
_COMB_TYPES = {
    "int": TArrow(INT, TCode(INT)),
    "str": TArrow(STR, TCode(STR)),
    "add": TArrow(TCode(INT), TArrow(TCode(INT), TCode(INT))),
    "lam": lambda a, b, w: TArrow(TArrow(TCode(a), TCode(b)), TCode(TArrow(a, b))),
    "app": lambda a, b, w: TArrow(TCode(TArrow(a, b)), TArrow(TCode(a), TCode(b))),
    "pair": lambda a, b, w: TArrow(TCode(a), TArrow(TCode(b), TCode(TPair(a, b)))),
    "nil": lambda a, b, w: TCode(TList(a)),
    "cons": lambda a, b, w: TArrow(TCode(a), TArrow(TCode(TList(a)), TCode(TList(a)))),
    "ref_": lambda a, b, w: TArrow(TCode(a), TCode(TRef(a))),
    "rget": lambda a, b, w: TArrow(TCode(TRef(a)), TCode(a)),
    "rset_": lambda a, b, w: TArrow(TCode(TRef(TList(a))), TArrow(TCode(a), TCode(TList(a)))),
    "csp": lambda a, b, w: TArrow(a, TCode(a)),
    "new_scope": lambda a, b, w: TArrow(TArrow(TScope(w), TCode(w)), TCode(w)),
    "genlet": lambda a, b, w: TArrow(TScope(w), TArrow(TCode(a), TCode(a))),
    "new_funscope": lambda a, b, w: TArrow(TArrow(TFunScope(w), TCode(w)), TCode(w)),
    "genletfun": lambda a, b, w: TArrow(
        TFunScope(w), TArrow(TArrow(TCode(a), TCode(b)), TCode(TArrow(a, b)))
    ),
}
