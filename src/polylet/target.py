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
    stack, so any depth of term is fine.
    """
    problems: list[str] = []
    # Each entry: a term, the scope variables in reach, each mapped to the
    # number of generated functions (`lam` and `genletfun` bodies) entered
    # where it was bound, and that number at the term.
    stack: list[tuple[Term, dict[str, int], int]] = [(t, {}, 0)]
    while stack:
        t, scopes, lams = stack.pop()
        if type(t) is Fun:
            stack.append((t.body, {k: v for k, v in scopes.items() if k != t.param}, lams))
            continue
        if type(t) is Let:
            stack.append((t.body, {k: v for k, v in scopes.items() if k != t.name}, lams))
            stack.append((t.rhs, scopes, lams))
            continue
        parts = list(children(t))
        if type(t) is Comb:
            if t.name in ("genlet", "genletfun"):
                first = parts.pop(0) if parts else None
                if not isinstance(first, Var) or first.name not in scopes:
                    problems.append(f"{t.name} scope argument is not a bound scope variable")
                elif scopes[first.name] < lams:
                    problems.append(f"{t.name} for {first.name} is separated from its scope by a lam")
            if parts and type(parts[-1]) is Fun:
                if t.name in ("new_scope", "new_funscope"):
                    body = parts.pop()
                    stack.append((body.body, {**scopes, body.param: lams}, lams))
                elif t.name in ("lam", "genletfun"):
                    stack.append((parts.pop(), scopes, lams + 1))
        stack += [(part, scopes, lams) for part in reversed(parts)]
    return problems

