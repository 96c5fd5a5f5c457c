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
    Returns a list of complaints (empty when clean).  Walks an explicit
    stack, so any depth of term is fine, in time linear in its size.
    """
    problems: list[str] = []
    # `scopes` maps a name to the number of generated functions (`lam` and
    # `genletfun` bodies) entered where a scope binder bound it, or to None
    # where a `fun` or `let` hides it.  The stack holds terms, each with that
    # number at it, and (name, entry) markers that set a name at scope ends.
    scopes: dict[str, int | None] = {}
    stack: list[tuple] = [(t, 0)]
    while stack:
        t, lams = stack.pop()
        if type(t) is str:
            scopes[t] = lams
            continue
        if type(t) is Fun:
            stack += ((t.param, scopes.get(t.param)), (t.body, lams), (t.param, None))
            continue
        if type(t) is Let:  # its rhs outside the binder's scope
            stack += ((t.name, scopes.get(t.name)), (t.body, lams), (t.name, None), (t.rhs, lams))
            continue
        parts = list(children(t))
        if type(t) is Comb:
            if t.name in ("genlet", "genletfun"):
                first = parts.pop(0) if parts else None
                if not isinstance(first, Var) or scopes.get(first.name) is None:
                    problems.append(f"{t.name} scope argument is not a bound scope variable")
                elif scopes[first.name] < lams:
                    problems.append(f"{t.name} for {first.name} is separated from its scope by a lam")
            if parts and type(parts[-1]) is Fun:
                if t.name in ("new_scope", "new_funscope"):
                    body = parts.pop()
                    stack += ((body.param, scopes.get(body.param)), (body.body, lams), (body.param, lams))
                elif t.name in ("lam", "genletfun"):
                    stack.append((parts.pop(), lams + 1))
        stack += [(part, lams) for part in reversed(parts)]
    return problems
