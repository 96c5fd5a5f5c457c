"""Hindley-Milner inference over the one node family.

`infer_staged` implements the level-indexed system over staged source
programs, from level 0.  `infer_host` is the same function, named for
its use on the translation's image, where each combinator constant
has its library type; host terms bind and use every variable at level 0,
so the level check never fires there.  A combinator's rule, in
`_COMB_RULES`, types its application as that type's instance would: it
reads an argument whose type has the parameter's constructor already,
unifies any other with the parameter type, so that diagnostics read the
same, and builds only what the result uses.  Both share the
generalization policies: the strict value restriction, the non-expansive
extension, and the relaxed rule that also generalizes the type variables
of an expansive right-hand side that occur only covariantly.

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
    if len(e.args) != S.COMB_ARITY[e.name]:
        raise type_error(f"combinator {e.name} takes {S.COMB_ARITY[e.name]} arguments, given {len(e.args)}")
    return _COMB_RULES[e.name](env, e.args, level, policy)


def _infer_add(env, e, level, policy):
    unify(_INFER[type(e.left)](env, e.left, level, policy), INT)
    unify(_INFER[type(e.right)](env, e.right, level, policy), INT)
    return INT


def _infer_cons(env, e, level, policy):
    head = _INFER[type(e.head)](env, e.head, level, policy)
    unify(_INFER[type(e.tail)](env, e.tail, level, policy), TList(head))
    return TList(head)


def _infer_ref_get(env, e, level, policy):
    unify(_INFER[type(e.ref)](env, e.ref, level, policy), TRef(item := TVar()))
    return item


def _infer_rset(env, e, level, policy):
    unify(_INFER[type(e.ref)](env, e.ref, level, policy), TRef(TList(item := TVar())))
    unify(_INFER[type(e.value)](env, e.value, level, policy), item)
    return TList(item)


def _infer_app(env, e, level, policy):
    fn = _INFER[type(e.fn)](env, e.fn, level, policy)
    unify(fn, TArrow(_INFER[type(e.arg)](env, e.arg, level, policy), result := TVar()))
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
    unify(_INFER[type(e.body)](env, e.body, 0, policy), TCode(item := TVar()))
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


def _code_item(t):
    """The item of t, a code type, or else a fresh variable unified with it."""
    if type(t) is TCode:
        return t.item
    unify(TCode(item := TVar()), t)
    return item


def _ground(params, result):
    """The rule of int, str and add, whose types are ground and shared."""
    def rule(env, args, level, policy):
        for param, arg in zip(params, args):
            if (t := _INFER[type(arg)](env, arg, level, policy)) is not param:
                unify(param, t)
        return result
    return rule


def _comb_pair(env, args, level, policy):
    first = _code_item(_INFER[type(args[0])](env, args[0], level, policy))
    return TCode(TPair(first, _code_item(_INFER[type(args[1])](env, args[1], level, policy))))


def _comb_app(env, args, level, policy):
    t = _INFER[type(args[0])](env, args[0], level, policy)
    if type(t) is not TCode or type(arrow := t.item) is not TArrow:
        unify(TCode(arrow := TArrow(TVar(), TVar())), t)
    unify(TCode(arrow.arg), _INFER[type(args[1])](env, args[1], level, policy))
    return TCode(arrow.result)


def _comb_cons(env, args, level, policy):
    code = TCode(TList(_code_item(_INFER[type(args[0])](env, args[0], level, policy))))
    unify(code, _INFER[type(args[1])](env, args[1], level, policy))
    return code


def _comb_rget(env, args, level, policy):
    unify(TCode(TRef(item := TVar())), _INFER[type(args[0])](env, args[0], level, policy))
    return TCode(item)


def _comb_rset(env, args, level, policy):
    unify(TCode(TRef(cell := TList(TVar()))), _INFER[type(args[0])](env, args[0], level, policy))
    unify(TCode(cell.item), _INFER[type(args[1])](env, args[1], level, policy))
    return TCode(cell)


def _comb_genlet(env, args, level, policy):
    if type(t := _INFER[type(args[0])](env, args[0], level, policy)) is not TScope:
        unify(TScope(TVar()), t)
    t = _INFER[type(args[1])](env, args[1], level, policy)
    return t if type(t) is TCode else TCode(_code_item(t))


def _binder(scope):
    """The rule of new_scope and new_funscope (scope is their scope's class)
    or else of lam and genletfun: it types a `fun` argument's body in its own
    frame, its parameter bound at the parameter type, as `_infer_fun` binds a
    quoted one, and unifies any other argument with the whole type."""
    def rule(env, args, level, policy):
        if len(args) == 2 and type(t := _INFER[type(args[0])](env, args[0], level, policy)) is not TFunScope:
            unify(TFunScope(TVar()), t)
        fn, a = args[-1], TVar()
        param, body = (scope or TCode)(a), TCode(a if scope else TVar())
        if type(fn) is S.Fun and S.binds(fn.param):
            env.bind(fn.param, level, monotype(param))
            unify(body, _INFER[type(fn.body)](env, fn.body, level, policy))
            env.unbind(fn.param)
        else:
            unify(TArrow(param, body), _INFER[type(fn)](env, fn, level, policy))
        return body if scope else TCode(TArrow(a, body.item))
    return rule


_CODE_INT = TCode(INT)
_COMB_RULES = {
    "int": _ground((INT,), _CODE_INT),
    "str": _ground((STR,), TCode(STR)),
    "add": _ground((_CODE_INT, _CODE_INT), _CODE_INT),
    "lam": _binder(None),
    "app": _comb_app,
    "pair": _comb_pair,
    "nil": lambda env, args, level, policy: TCode(TList(TVar())),
    "cons": _comb_cons,
    "ref_": lambda env, args, level, policy: TCode(
        TRef(_code_item(_INFER[type(args[0])](env, args[0], level, policy)))
    ),
    "rget": _comb_rget,
    "rset_": _comb_rset,
    "csp": lambda env, args, level, policy: TCode(_INFER[type(args[0])](env, args[0], level, policy)),
    "new_scope": _binder(TScope),
    "genlet": _comb_genlet,
    "new_funscope": _binder(TFunScope),
    "genletfun": _binder(None),
}
