"""The unstaging translation: syntax-directed, type-oblivious.

Present-stage expressions map to themselves: a tree without staging forms
is found by one explicit-stack walk, at any depth, and returned unrebuilt.
A bracket switches to the future-stage rules, one table, `_LEVEL1`, from
node class to rule: each rule rebuilds its node as code combinator
applications and translates each child through the table, one Python
frame per tree level.  Quoted lets become host lets: the general form
wraps the right-hand side in `genlet` under a fresh `new_scope`, and a
quoted `let f = fun z -> ...` instead binds a memoizing `genletfun` thunk,
with every use of f in the body replaced by the application `f ()`.
"""

from __future__ import annotations

from operator import attrgetter

from . import syntax as S

def translate(e: S.Expr) -> S.Expr:
    """Translate a well-formed source expression; total, no typing needed."""
    return e if S.is_plain(e) else _Translator().level0(e)


def _host_param(name: str) -> str:
    # A quoted unit-pattern binder becomes a wildcard: the host binding
    # receives a code value, never the unit itself.
    return S.WILDCARD if name == S.UNIT_BINDER else name


class _Translator:
    def __init__(self) -> None:
        self._scopes = 0
        # The names the tree binds or uses, as far as the walk has come; a
        # scope binder, named after its body is translated, skips them.
        self._names: set[str] = set()
        # For each name some binder in scope rebinds: whether the innermost
        # such binder is a genletfun, whose uses become `name ()`.
        self._thunked: dict[str, bool] = {}

    def _scope_name(self, number: int) -> str:
        """`p_number`, or a fresh number's name if the walk has seen that."""
        name = f"p_{number}"
        while name in self._names:
            self._scopes += 1
            name = f"p_{self._scopes}"
        return name

    def _scoped(self, name: str, body: S.Expr, rule, thunk: bool = False) -> S.Expr:
        """Translate `body` by `rule` in the scope of binder `name`: a
        genletfun binder (`thunk`) makes its uses thunk calls, any other
        binder of the name shadows that."""
        self._names.add(name)
        thunked = self._thunked
        if not (thunk or name in thunked):
            return rule(self, body)
        saved = thunked.get(name)
        thunked[name] = thunk and S.binds(name)
        out = rule(self, body)
        if saved is None:
            del thunked[name]
        else:
            thunked[name] = saved
        return out

    def _var(self, e: S.Var) -> S.Expr:
        self._names.add(e.name)
        return S.App(e, S.Unit()) if self._thunked.get(e.name) else e

    def level0(self, e: S.Expr) -> S.Expr:
        if isinstance(e, S.Bracket):
            return _LEVEL1[type(e.body)](self, e.body)
        if isinstance(e, S.Csp):
            # Present-stage CSP lifts the value into code.
            return S.comb("csp", self.level0(e.body))
        if isinstance(e, S.Escape):
            raise ValueError(f"escape at level 0: {e!r}")
        if isinstance(e, S.Var):
            return self._var(e)
        if isinstance(e, S.Fun):
            return S.rebuild(e, (self._scoped(e.param, e.body, _Translator.level0),))
        if isinstance(e, S.Let):
            rhs = self.level0(e.rhs)
            return S.rebuild(e, (rhs, self._scoped(e.name, e.body, _Translator.level0)))
        kids = S.children(e)
        return S.rebuild(e, list(map(self.level0, kids))) if kids else e

    def _fun(self, e: S.Fun) -> S.Fun:
        return S.Fun(_host_param(e.param), self._scoped(e.param, e.body, _LEVEL1[type(e.body)]))

    def _let(self, e: S.Let) -> S.Expr:
        self._scopes += 1
        number = self._scopes
        if isinstance(e.rhs, S.Fun):
            fn = self._fun(e.rhs)
            body = self._scoped(e.name, e.body, _LEVEL1[type(e.body)], thunk=True)
            scope = self._scope_name(number)
            thunk = S.Fun(S.UNIT_BINDER, S.comb("genletfun", S.Var(scope), fn))
            return S.comb("new_funscope", S.Fun(scope, S.Let(e.name, thunk, body)))
        # The host let binds the inserted code, so a unit pattern becomes
        # a wildcard, as in the fun rules.
        code = _LEVEL1[type(e.rhs)](self, e.rhs)
        body = self._scoped(e.name, e.body, _LEVEL1[type(e.body)])
        scope = self._scope_name(number)
        rhs = S.comb("genlet", S.Var(scope), code)
        return S.comb("new_scope", S.Fun(scope, S.Let(_host_param(e.name), rhs, body)))


def _node_rule(cls: type):
    """A node combinator's rule: a `Comb` of the children, each by its rule."""
    name = S.COMB_OF[cls]
    if cls in S.ONE_CHILD:
        get = attrgetter(S.ONE_CHILD[cls])
        return lambda t, e: S.Comb(name, (_LEVEL1[type(kid := get(e))](t, kid),))
    first, second = map(attrgetter, S.TWO_CHILDREN[cls])
    return lambda t, e: S.Comb(name, (_LEVEL1[type(a := first(e))](t, a), _LEVEL1[type(b := second(e))](t, b)))


def _refuse(t, e):
    if type(e) is S.Bracket:
        raise ValueError("nested bracket survived parsing")
    raise TypeError(f"unexpected expression {e!r}")


class _Rules(dict):
    def __missing__(self, cls):  # a miss adds nothing to the table
        return _refuse


# rule(translator, e) by class; no quoted tree holds a `Bracket` or a `Comb`.
_LEVEL1 = _Rules({
    **{cls: _node_rule(cls) for cls in S.COMB_OF},
    S.Var: _Translator._var,
    S.IntLit: lambda t, e: S.Comb("int", (e,)),
    S.StrLit: lambda t, e: S.Comb("str", (e,)),
    S.Nil: lambda t, e: S.Comb("nil", ()),
    **dict.fromkeys((S.Unit, S.CspValue), lambda t, e: S.Comb("csp", (e,))),
    S.Fun: lambda t, e: S.Comb("lam", (t._fun(e),)),
    S.Escape: lambda t, e: t.level0(e.body),
    S.Csp: lambda t, e: S.Comb("csp", (t.level0(e.body),)),
    S.Let: _Translator._let,
})
