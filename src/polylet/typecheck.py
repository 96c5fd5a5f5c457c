"""Hindley-Milner inference with two frontends.

`infer_staged` implements the level-indexed system over staged source
programs; `infer_host` is plain single-level inference over combinator
terms, where each combinator constant carries its library scheme.  Both
share the generalization policies: the strict value restriction, the
non-expansive extension, and the relaxed rule that also generalizes
covariant (or unused) type variables of expansive right-hand sides.
"""

from __future__ import annotations

import enum

from . import syntax as S
from . import target as T
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
    Variance,
    _parts,
    free_type_vars,
    monotype,
    resolve,
    unify,
    variance_of,
)


class GenPolicy(enum.Enum):
    STRICT_VALUE = "value"
    NON_EXPANSIVE = "nonexpansive"
    RELAXED = "relaxed"


def is_syntactic_value(e: S.Expr | T.Term) -> bool:
    """The strict value class: literals, variables, functions, and
    pair/cons cells of values."""
    if isinstance(e, (S.Var, S.IntLit, S.StrLit, S.Nil, S.Unit, S.Fun, S.CspValue)):
        return True
    if isinstance(e, (T.Var, T.IntLit, T.StrLit, T.NilLit, T.UnitLit, T.Fun, T.ValueLit)):
        return True
    if isinstance(e, S.Pair):
        return is_syntactic_value(e.first) and is_syntactic_value(e.second)
    if isinstance(e, T.Pair):
        return is_syntactic_value(e.first) and is_syntactic_value(e.second)
    if isinstance(e, S.Cons):
        return is_syntactic_value(e.head) and is_syntactic_value(e.tail)
    if isinstance(e, T.Cons):
        return is_syntactic_value(e.head) and is_syntactic_value(e.tail)
    if isinstance(e, T.Comb):
        # A zero-arity combinator is a library constant, not an application.
        return not e.args
    return False


def is_nonexpansive(e: S.Expr | T.Term) -> bool:
    """Expressions whose evaluation visibly contributes no effect.

    Values, brackets, CSP of non-expansive operands, and let-expressions
    over non-expansive parts qualify; applications, reference operations,
    escapes, and applied combinators do not.
    """
    if is_syntactic_value(e):
        return True
    if isinstance(e, S.Bracket):
        return True
    if isinstance(e, S.Csp):
        return is_nonexpansive(e.body)
    if isinstance(e, S.Pair):
        return is_nonexpansive(e.first) and is_nonexpansive(e.second)
    if isinstance(e, T.Pair):
        return is_nonexpansive(e.first) and is_nonexpansive(e.second)
    if isinstance(e, S.Cons):
        return is_nonexpansive(e.head) and is_nonexpansive(e.tail)
    if isinstance(e, T.Cons):
        return is_nonexpansive(e.head) and is_nonexpansive(e.tail)
    if isinstance(e, S.Let):
        return is_nonexpansive(e.rhs) and is_nonexpansive(e.body)
    if isinstance(e, T.Let):
        return is_nonexpansive(e.rhs) and is_nonexpansive(e.body)
    return False


def generalize(t: Type, env: TypeEnv, rhs_nonexpansive: bool, policy: GenPolicy) -> Scheme:
    """Quantify the free variables of t that env cannot reach, as the policy
    and the right-hand side's syntactic class allow.  By the rank invariant
    (see typesys) those are the variables ranked deeper than env."""
    t = resolve(t)
    candidates = [v for v in free_type_vars(t) if v.rank > env.depth]
    if rhs_nonexpansive:
        quantified = candidates
    elif policy is GenPolicy.RELAXED:
        quantified = [
            v
            for v in candidates
            if variance_of(v, t) in (Variance.COVARIANT, Variance.UNUSED)
        ]
    else:
        quantified = []
    return Scheme(tuple(quantified), t)


def _gen_flag(e: S.Expr | T.Term, policy: GenPolicy) -> bool:
    if policy is GenPolicy.STRICT_VALUE:
        return is_syntactic_value(e)
    return is_nonexpansive(e)


Record = dict[int, Type]


def _note(record: Record | None, node: object, t: Type) -> Type:
    if record is not None:
        record[id(node)] = t
    return t


# --- staged frontend -----------------------------------------------------


def infer_staged(
    env: TypeEnv,
    e: S.Expr,
    level: int = 0,
    policy: GenPolicy = GenPolicy.RELAXED,
    record: Record | None = None,
) -> Scheme:
    t = _staged(env, e, level, policy, record)
    return generalize(t, env, _gen_flag(e, policy), policy)


def _staged(env: TypeEnv, e: S.Expr, level: int, policy: GenPolicy, record: Record | None) -> Type:
    t = _staged1(env, e, level, policy, record)
    return _note(record, e, t)


def _staged1(env: TypeEnv, e: S.Expr, level: int, policy: GenPolicy, record: Record | None) -> Type:
    if isinstance(e, S.Var):
        binding = env.lookup(e.name)
        if binding is None:
            raise unbound_var(e.name)
        if binding.level != level:
            raise type_error(
                f"variable {e.name} is bound at level {binding.level} "
                f"but used at level {level}"
            )
        return binding.scheme.instantiate()
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
        unify(_staged(env, e.left, level, policy, record), INT)
        unify(_staged(env, e.right, level, policy, record), INT)
        return INT
    if isinstance(e, S.Pair):
        return TPair(
            _staged(env, e.first, level, policy, record),
            _staged(env, e.second, level, policy, record),
        )
    if isinstance(e, S.Cons):
        head = _staged(env, e.head, level, policy, record)
        unify(_staged(env, e.tail, level, policy, record), TList(head))
        return TList(head)
    if isinstance(e, S.RefNew):
        return TRef(_staged(env, e.init, level, policy, record))
    if isinstance(e, S.RefGet):
        item = TVar()
        unify(_staged(env, e.ref, level, policy, record), TRef(item))
        return item
    if isinstance(e, S.Rset):
        item = TVar()
        unify(_staged(env, e.ref, level, policy, record), TRef(TList(item)))
        unify(_staged(env, e.value, level, policy, record), item)
        return TList(item)
    if isinstance(e, S.App):
        fn = _staged(env, e.fn, level, policy, record)
        arg = _staged(env, e.arg, level, policy, record)
        result = TVar()
        unify(fn, TArrow(arg, result))
        return result
    if isinstance(e, S.Fun):
        param: Type = UNIT if e.param == S.UNIT_BINDER else TVar()
        inner = env.bind(e.param, level, monotype(param)) if S.binds(e.param) else env
        body = _staged(inner, e.body, level, policy, record)
        return TArrow(param, body)
    if isinstance(e, S.Let):
        rhs = _staged(env, e.rhs, level, policy, record)
        if S.binds(e.name):
            scheme = generalize(rhs, env, _gen_flag(e.rhs, policy), policy)
            inner = env.bind(e.name, level, scheme)
        else:
            if e.name == S.UNIT_BINDER:
                unify(rhs, UNIT)
            inner = env
        return _staged(inner, e.body, level, policy, record)
    if isinstance(e, S.Bracket):
        if level != 0:
            raise type_error("nested bracket")
        return TCode(_staged(env, e.body, 1, policy, record))
    if isinstance(e, S.Escape):
        if level != 1:
            raise type_error("escape at level 0")
        code = _staged(env, e.body, 0, policy, record)
        item = TVar()
        unify(code, TCode(item))
        return item
    if isinstance(e, S.Csp):
        # A level-0 judgment: at level 1 the value persists at its own
        # type; at level 0 the marker lifts the value into code.
        t = _staged(env, e.body, 0, policy, record)
        return t if level == 1 else TCode(t)
    raise TypeError(f"unexpected expression {e!r}")


# --- host frontend -------------------------------------------------------


def _cod(t: Type) -> Type:
    return TCode(t)


def comb_scheme_type(name: str) -> Type:
    """A fresh instance of the combinator constant's library type."""
    if name == "int":
        return TArrow(INT, _cod(INT))
    if name == "str":
        return TArrow(STR, _cod(STR))
    if name == "add":
        return TArrow(_cod(INT), TArrow(_cod(INT), _cod(INT)))
    if name == "lam":
        a, b = TVar(), TVar()
        return TArrow(TArrow(_cod(a), _cod(b)), _cod(TArrow(a, b)))
    if name == "app":
        a, b = TVar(), TVar()
        return TArrow(_cod(TArrow(a, b)), TArrow(_cod(a), _cod(b)))
    if name == "pair":
        a, b = TVar(), TVar()
        return TArrow(_cod(a), TArrow(_cod(b), _cod(TPair(a, b))))
    if name == "nil":
        return _cod(TList(TVar()))
    if name == "cons":
        a = TVar()
        return TArrow(_cod(a), TArrow(_cod(TList(a)), _cod(TList(a))))
    if name == "ref_":
        a = TVar()
        return TArrow(_cod(a), _cod(TRef(a)))
    if name == "rget":
        a = TVar()
        return TArrow(_cod(TRef(a)), _cod(a))
    if name == "rset":
        a = TVar()
        return TArrow(_cod(TRef(TList(a))), TArrow(_cod(a), _cod(TList(a))))
    if name == "csp":
        a = TVar()
        return TArrow(a, _cod(a))
    if name == "new_scope":
        w = TVar()
        return TArrow(TArrow(TScope(w), _cod(w)), _cod(w))
    if name == "genlet":
        w, a = TVar(), TVar()
        return TArrow(TScope(w), TArrow(_cod(a), _cod(a)))
    if name == "new_funscope":
        w = TVar()
        return TArrow(TArrow(TFunScope(w), _cod(w)), _cod(w))
    if name == "genletfun":
        w, a, b = TVar(), TVar(), TVar()
        return TArrow(TFunScope(w), TArrow(TArrow(_cod(a), _cod(b)), _cod(TArrow(a, b))))
    raise ValueError(f"unknown combinator {name}")


def infer_host(
    env: TypeEnv,
    t: T.Term,
    policy: GenPolicy = GenPolicy.RELAXED,
    record: Record | None = None,
) -> Scheme:
    ty = _host(env, t, policy, record)
    return generalize(ty, env, _gen_flag(t, policy), policy)


def _host(env: TypeEnv, t: T.Term, policy: GenPolicy, record: Record | None) -> Type:
    ty = _host1(env, t, policy, record)
    return _note(record, t, ty)


def _host1(env: TypeEnv, t: T.Term, policy: GenPolicy, record: Record | None) -> Type:
    if isinstance(t, T.Var):
        binding = env.lookup(t.name)
        if binding is None:
            raise unbound_var(t.name)
        return binding.scheme.instantiate()
    if isinstance(t, T.IntLit):
        return INT
    if isinstance(t, T.StrLit):
        return STR
    if isinstance(t, T.UnitLit):
        return UNIT
    if isinstance(t, T.NilLit):
        return TList(TVar())
    if isinstance(t, T.ValueLit):
        return TVar()
    if isinstance(t, T.Add):
        unify(_host(env, t.left, policy, record), INT)
        unify(_host(env, t.right, policy, record), INT)
        return INT
    if isinstance(t, T.Pair):
        return TPair(_host(env, t.first, policy, record), _host(env, t.second, policy, record))
    if isinstance(t, T.Cons):
        head = _host(env, t.head, policy, record)
        unify(_host(env, t.tail, policy, record), TList(head))
        return TList(head)
    if isinstance(t, T.RefNew):
        return TRef(_host(env, t.init, policy, record))
    if isinstance(t, T.RefGet):
        item = TVar()
        unify(_host(env, t.ref, policy, record), TRef(item))
        return item
    if isinstance(t, T.Rset):
        item = TVar()
        unify(_host(env, t.ref, policy, record), TRef(TList(item)))
        unify(_host(env, t.value, policy, record), item)
        return TList(item)
    if isinstance(t, T.App):
        fn = _host(env, t.fn, policy, record)
        arg = _host(env, t.arg, policy, record)
        result = TVar()
        unify(fn, TArrow(arg, result))
        return result
    if isinstance(t, T.Fun):
        param: Type = UNIT if t.param == S.UNIT_BINDER else TVar()
        inner = env.bind(t.param, 0, monotype(param)) if S.binds(t.param) else env
        body = _host(inner, t.body, policy, record)
        return TArrow(param, body)
    if isinstance(t, T.Let):
        rhs = _host(env, t.rhs, policy, record)
        if S.binds(t.name):
            scheme = generalize(rhs, env, _gen_flag(t.rhs, policy), policy)
            inner = env.bind(t.name, 0, scheme)
        else:
            if t.name == S.UNIT_BINDER:
                unify(rhs, UNIT)
            inner = env
        return _host(inner, t.body, policy, record)
    if isinstance(t, T.Comb):
        ty = comb_scheme_type(t.name)
        for arg in t.args:
            arg_ty = _host(env, arg, policy, record)
            result = TVar()
            unify(ty, TArrow(arg_ty, result))
            ty = result
        return ty
    raise TypeError(f"unexpected term {t!r}")


# --- replay validation ---------------------------------------------------


def _types_agree(a: Type, b: Type) -> bool:
    a, b = resolve(a), resolve(b)
    if isinstance(a, TVar) or isinstance(b, TVar):
        return a is b
    if type(a) is not type(b):
        return False
    return all(_types_agree(x, y) for x, y in zip(_parts(a), _parts(b)))


def validate_recorded(e: S.Expr, record: Record) -> list[str]:
    """Replay structural typing constraints over recorded node types.

    Returns complaints; empty means the recorded derivation is locally
    consistent under the final substitution.
    """
    problems: list[str] = []

    def get(node: S.Expr) -> Type | None:
        t = record.get(id(node))
        if t is None:
            problems.append(f"no recorded type for {type(node).__name__}")
        return t

    def walk(node: S.Expr) -> None:
        t = get(node)
        if t is None:
            return
        t = resolve(t)
        if isinstance(node, S.IntLit) and not isinstance(t, type(INT)):
            problems.append("int literal not typed int")
        if isinstance(node, S.Add):
            for side in (node.left, node.right):
                st = record.get(id(side))
                if st is not None and not _types_agree(st, INT):
                    problems.append("addition operand not int")
        if isinstance(node, S.App):
            fn_t = record.get(id(node.fn))
            arg_t = record.get(id(node.arg))
            if fn_t is not None and arg_t is not None:
                fn_t = resolve(fn_t)
                if not isinstance(fn_t, TArrow):
                    problems.append("application head not a function type")
                elif not (_types_agree(fn_t.arg, arg_t) and _types_agree(fn_t.result, t)):
                    problems.append("application types inconsistent")
        if isinstance(node, S.Fun):
            ft = resolve(t)
            body_t = record.get(id(node.body))
            if not isinstance(ft, TArrow):
                problems.append("function not typed as arrow")
            elif body_t is not None and not _types_agree(ft.result, body_t):
                problems.append("function body type inconsistent")
        if isinstance(node, S.Let):
            body_t = record.get(id(node.body))
            if body_t is not None and not _types_agree(t, body_t):
                problems.append("let type differs from body type")
        if isinstance(node, S.Bracket):
            body_t = record.get(id(node.body))
            if body_t is not None and not _types_agree(t, TCode(body_t)):
                problems.append("bracket type is not code of body type")
        if isinstance(node, S.Escape):
            body_t = record.get(id(node.body))
            if body_t is not None and not _types_agree(TCode(t), body_t):
                problems.append("escape type inconsistent with operand code type")
        for child in S._children(node):
            walk(child)

    walk(e)
    return problems
