"""The translation's image and its scope discipline.

Translated terms are ordinary `syntax.Expr` trees without staging forms,
over `Comb` code-combinator constants: quoted bindings have become host
`fun` and `let` bindings.  `Term` names that subset.
"""

from __future__ import annotations

from .syntax import Comb, Expr, Fun, Let, Var, children

Term = Expr


def lint_scopes(t: Term) -> list[str]:
    """Check the discipline relating genlet/genletfun to their scope binders.

    Every genlet/genletfun must name a variable bound by an enclosing
    new_scope/new_funscope body-function, and the path from the use back to
    that binder must cross no generated-code `lam`.
    Returns a list of complaints (empty when clean).
    """
    problems: list[str] = []
    _lint(t, {}, problems)
    return problems


def _lint(t: Term, scopes: dict[str, int], problems: list[str]) -> None:
    if isinstance(t, Comb):
        if t.name in ("new_scope", "new_funscope"):
            (body,) = t.args
            if isinstance(body, Fun):
                _lint(body.body, {**scopes, body.param: 0}, problems)
            else:
                _lint(body, scopes, problems)
            return
        if t.name == "lam":
            (body,) = t.args
            if isinstance(body, Fun):
                bumped = {k: v + 1 for k, v in scopes.items()}
                bumped.pop(body.param, None)
                _lint(body.body, bumped, problems)
            else:
                _lint(body, scopes, problems)
            return
        if t.name in ("genlet", "genletfun"):
            first = t.args[0] if t.args else None
            if not isinstance(first, Var) or first.name not in scopes:
                problems.append(f"{t.name} scope argument is not a bound scope variable")
            elif scopes[first.name] > 0:
                problems.append(f"{t.name} for {first.name} is separated from its scope by a lam")
            if t.name == "genletfun" and len(t.args) == 2 and isinstance(t.args[1], Fun):
                body = t.args[1]
                bumped = {k: v + 1 for k, v in scopes.items()}
                bumped.pop(body.param, None)
                _lint(body.body, bumped, problems)
            else:
                for arg in t.args[1:]:
                    _lint(arg, scopes, problems)
            return
    if isinstance(t, Fun):
        scopes = {k: v for k, v in scopes.items() if k != t.param}
        _lint(t.body, scopes, problems)
        return
    if isinstance(t, Let):
        _lint(t.rhs, scopes, problems)
        _lint(t.body, {k: v for k, v in scopes.items() if k != t.name}, problems)
        return
    for child in children(t):
        _lint(child, scopes, problems)
