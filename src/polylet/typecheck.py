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


def is_syntactic_value(e: S.Expr) -> bool:
    """The strict value class: literals, variables, functions, pair/cons
    cells of values, and combinator constants (zero-arity combinators)."""
    if isinstance(e, (S.Var, S.IntLit, S.StrLit, S.Nil, S.Unit, S.Fun, S.CspValue)):
        return True
    if isinstance(e, (S.Pair, S.Cons)):
        return all(is_syntactic_value(c) for c in S.children(e))
    return isinstance(e, S.Comb) and not e.args


def is_nonexpansive(e: S.Expr) -> bool:
    """Expressions whose evaluation visibly contributes no effect.

    Values, brackets, CSP of non-expansive operands, and let-expressions
    over non-expansive parts qualify; applications, reference operations,
    escapes, and applied combinators do not.
    """
    if is_syntactic_value(e) or isinstance(e, S.Bracket):
        return True
    if isinstance(e, (S.Csp, S.Pair, S.Cons, S.Let)):
        return all(is_nonexpansive(c) for c in S.children(e))
    return False


def generalize(t: Type, env: TypeEnv, rhs_nonexpansive: bool, policy: GenPolicy) -> Scheme:
    """Quantify the free variables of t that env cannot reach, as the policy
    and the right-hand side's syntactic class allow.  By the rank invariant
    (see typesys) those are the variables ranked deeper than env: all of
    them for a non-expansive right-hand side; for an expansive one, none,
    or under the relaxed policy those that occur only covariantly."""
    t = resolve(t)
    if not rhs_nonexpansive and policy is not GenPolicy.RELAXED:
        return monotype(t)
    free = free_type_vars(t)
    quantified = [v for v in free if v.rank > env.depth and (rhs_nonexpansive or not free[v])]
    return Scheme(tuple(quantified), t)


def _gen_flag(e: S.Expr, policy: GenPolicy) -> bool:
    if policy is GenPolicy.STRICT_VALUE:
        return is_syntactic_value(e)
    return is_nonexpansive(e)


def infer_staged(env: TypeEnv, e: S.Expr, policy: GenPolicy = GenPolicy.RELAXED) -> Scheme:
    t = _infer(env, e, 0, policy)
    return generalize(t, env, _gen_flag(e, policy), policy)


infer_host = infer_staged


def _infer(env: TypeEnv, e: S.Expr, level: int, policy: GenPolicy) -> Type:
    if isinstance(e, S.Var):
        node = env.lookup(e.name)
        if node is None:
            raise unbound_var(e.name)
        if node.level != level:
            raise type_error(
                f"variable {e.name} is bound at level {node.level} "
                f"but used at level {level}"
            )
        return node.scheme.instantiate()
    if isinstance(e, S.Comb):
        ty = _COMB_TYPES[e.name]
        if callable(ty):
            ty = ty(TVar(), TVar(), TVar())
        for arg in e.args:
            arg_ty = _infer(env, arg, level, policy)
            if type(ty) is not TArrow:  # over-applied: raises a type error
                unify(ty, TArrow(arg_ty, TVar()))
            unify(ty.arg, arg_ty)
            ty = ty.result
        return ty
    if isinstance(e, S.IntLit):
        return INT
    if isinstance(e, S.StrLit):
        return STR
    if isinstance(e, S.Nil):
        return TList(TVar())
    if isinstance(e, S.Unit):
        return UNIT
    if isinstance(e, S.CspValue):
        return TVar()
    if isinstance(e, S.Add):
        unify(_infer(env, e.left, level, policy), INT)
        unify(_infer(env, e.right, level, policy), INT)
        return INT
    if isinstance(e, S.Pair):
        return TPair(_infer(env, e.first, level, policy), _infer(env, e.second, level, policy))
    if isinstance(e, S.Cons):
        head = _infer(env, e.head, level, policy)
        unify(_infer(env, e.tail, level, policy), TList(head))
        return TList(head)
    if isinstance(e, S.RefNew):
        return TRef(_infer(env, e.init, level, policy))
    if isinstance(e, S.RefGet):
        item = TVar()
        unify(_infer(env, e.ref, level, policy), TRef(item))
        return item
    if isinstance(e, S.Rset):
        item = TVar()
        unify(_infer(env, e.ref, level, policy), TRef(TList(item)))
        unify(_infer(env, e.value, level, policy), item)
        return TList(item)
    if isinstance(e, S.App):
        fn = _infer(env, e.fn, level, policy)
        arg = _infer(env, e.arg, level, policy)
        result = TVar()
        unify(fn, TArrow(arg, result))
        return result
    if isinstance(e, S.Fun):
        param: Type = UNIT if e.param == S.UNIT_BINDER else TVar()
        inner = env.bind(e.param, level, monotype(param)) if S.binds(e.param) else env
        return TArrow(param, _infer(inner, e.body, level, policy))
    if isinstance(e, S.Let):
        rhs = _infer(env, e.rhs, level, policy)
        if S.binds(e.name):
            scheme = generalize(rhs, env, _gen_flag(e.rhs, policy), policy)
            inner = env.bind(e.name, level, scheme)
        else:
            if e.name == S.UNIT_BINDER:
                unify(rhs, UNIT)
            inner = env
        return _infer(inner, e.body, level, policy)
    if isinstance(e, S.Bracket):
        if level != 0:
            raise type_error("nested bracket")
        return TCode(_infer(env, e.body, 1, policy))
    if isinstance(e, S.Escape):
        if level != 1:
            raise type_error("escape at level 0")
        code = _infer(env, e.body, 0, policy)
        item = TVar()
        unify(code, TCode(item))
        return item
    if isinstance(e, S.Csp):
        # A level-0 judgment: at level 1 the value persists at its own
        # type; at level 0 the marker lifts the value into code.
        t = _infer(env, e.body, 0, policy)
        return t if level == 1 else TCode(t)
    raise TypeError(f"unexpected expression {e!r}")


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
