"""Seeded benchmark programs and their reference results.

Every workload is a list of `Program`s: `.pml` source text, the type the
staged checker must infer, the arguments the result is applied to, and
the results expected.  The expected results are computed here, from the
generator's own knowledge of the program (closed forms for the scaling
families, a small reference evaluator for the random programs), never by
polylet.

Types and values use the benchmark's own representation:

* types are tuples: ("int",), ("str",), ("unit",), ("list", t),
  ("pair", a, b), ("arrow", a, b), ("ref", t), ("code", t);
* values are Python ints and strs, None for unit, lists, 2-tuples for
  pairs, `Ref` cells and Python callables for functions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

INT = ("int",)
STR = ("str",)
UNIT = ("unit",)


def code(t: tuple) -> tuple:
    return ("code", t)


@dataclass(frozen=True)
class Program:
    """One generated program and what running it must give.

    `args` empty: the program's code value itself must evaluate to
    `expected[0]`.  Otherwise the code value is a function, applied to
    each argument in turn (on the same function value, so state in cells
    it closes over carries from one call to the next), and call i must
    give `expected[i]`.
    """

    name: str
    source: str
    staged_type: tuple
    args: tuple = ()
    expected: tuple = ()


# --- letchain --------------------------------------------------------------

LETCHAIN_SIZES = (32, 64, 128, 256)


def letchain(rng: random.Random, n: int) -> Program:
    """`.<let x0 = c0 in let x1 = x0 + c1 in ... in x(n-1)>.`; one
    generalization and one genlet insertion per `let`."""
    consts = [rng.randint(1, 999) for _ in range(n)]
    parts = [f"let x0 = {consts[0]} in "]
    parts += [f"let x{k} = x{k - 1} + {consts[k]} in " for k in range(1, n)]
    source = ".< " + "".join(parts) + f"x{n - 1} >."
    return Program(f"letchain/{n}", source, code(INT), expected=(sum(consts),))


# --- wide ------------------------------------------------------------------

# Fixed type shape, so every seed builds trees of the same node count and
# only the literals vary: (int * int list) * (int list * (int * int)).
_WIDE_SHAPE = ("pair", ("pair", INT, ("list", INT)), ("pair", ("list", INT), ("pair", INT, INT)))
WIDE_DEPTHS = (7, 8, 9, 10)


def _wide(rng: random.Random, ty: tuple, depth: int) -> tuple[str, object]:
    """Balanced tree of type `ty`: `+` below ints, `::` below lists and
    pairs below pairs, every child `depth - 1` deep."""
    if ty == INT:
        if depth <= 0:
            n = rng.randint(0, 999)
            return str(n), n
        (a, va), (b, vb) = _wide(rng, INT, depth - 1), _wide(rng, INT, depth - 1)
        return f"({a} + {b})", va + vb
    if ty[0] == "list":
        if depth <= 0:
            return "[]", []
        (h, vh), (t, vt) = _wide(rng, ty[1], depth - 1), _wide(rng, ty, depth - 1)
        return f"({h} :: {t})", [vh] + vt
    (a, va), (b, vb) = _wide(rng, ty[1], depth - 1), _wide(rng, ty[2], depth - 1)
    return f"({a}, {b})", (va, vb)


def wide(rng: random.Random, depth: int) -> Program:
    text, value = _wide(rng, _WIDE_SHAPE, depth)
    return Program(f"wide/{depth}", f".< {text} >.", code(_WIDE_SHAPE), expected=(value,))


# --- genfun ----------------------------------------------------------------

GENFUN_DEPTHS = (6, 8, 10)
# Several short chains per depth, not one long-running one: each timed
# operation stays short, so a run holds many samples of it.
GENFUN_CHAINS = 4
GENFUN_CALLS = 4
RSET_CALLS = 400


def genfun(rng: random.Random, depth: int, calls: int, chain: int = 0) -> Program:
    """`.<let f0 = fun z -> z + c in let f1 = fun z -> f0 (f0 z) in ...
    in fun x -> fN x>.`: each `fK` is a memoized genletfun binding, and
    fK x = x + c * 2^K, so one call runs 2^N additions."""
    c = rng.randint(1, 999)
    parts = [f"let f0 = fun z -> z + {c} in "]
    parts += [f"let f{k} = fun z -> f{k - 1} (f{k - 1} z) in " for k in range(1, depth + 1)]
    source = ".< " + "".join(parts) + f"fun x -> f{depth} x >."
    args = tuple(rng.randint(0, 10**6) for _ in range(calls))
    return Program(
        f"genfun/{depth}.{chain}",
        source,
        code(("arrow", INT, INT)),
        args=args,
        expected=tuple(x + c * 2**depth for x in args),
    )


def rset_history(rng: random.Random, calls: int) -> Program:
    """`.<let c = ref [] in fun x -> rset c x>.`: one cell shared by every
    call, so call i returns the first i arguments, newest first."""
    args = tuple(rng.randint(0, 10**6) for _ in range(calls))
    history = [list(reversed(args[: i + 1])) for i in range(calls)]
    return Program(
        "genfun/rset",
        ".< let c = ref [] in fun x -> rset c x >.",
        code(("arrow", INT, ("list", INT))),
        args=args,
        expected=tuple(history),
    )


# --- small: random programs and their reference evaluator --------------------

SMALL_NODES = 6_000
SMALL_MAX_NODES = 40


class Ref:
    """A reference cell of the reference evaluator."""

    __slots__ = ("contents",)

    def __init__(self, contents: object):
        self.contents = contents


# Program nodes are tuples whose first item names the kind:
#   ("int", n) ("str", s) ("unit",) ("nil",) ("var", x) ("add", a, b)
#   ("pair", a, b) ("cons", h, t) ("ref", e) ("get", e) ("rset", r, v)
#   ("app", f, a) ("fun", x, body) ("let", x, rhs, body)
#   ("csp", e)  -- `% e`, e a closed present-stage ground expression
#   ("esc", e)  -- `.~(.< e >.)`, a splice of quoted code


def render(e: tuple) -> str:
    """Fully parenthesized `.pml` text of a future-stage expression."""
    kind = e[0]
    if kind == "int":
        return str(e[1])
    if kind == "str":
        return f'"{e[1]}"'
    if kind == "unit":
        return "()"
    if kind == "nil":
        return "[]"
    if kind == "var":
        return e[1]
    if kind == "add":
        return f"({render(e[1])} + {render(e[2])})"
    if kind == "pair":
        return f"({render(e[1])}, {render(e[2])})"
    if kind == "cons":
        return f"({render(e[1])} :: {render(e[2])})"
    if kind == "ref":
        return f"(ref {render(e[1])})"
    if kind == "get":
        return f"(!{render(e[1])})"
    if kind == "rset":
        return f"(rset {render(e[1])} {render(e[2])})"
    if kind == "app":
        return f"({render(e[1])} {render(e[2])})"
    if kind == "fun":
        return f"(fun {e[1]} -> {render(e[2])})"
    if kind == "let":
        return f"(let {e[1]} = {render(e[2])} in {render(e[3])})"
    if kind == "csp":
        return f"(%{render(e[1])})"
    if kind == "esc":
        return f"(.~(.< {render(e[1])} >.))"
    raise ValueError(f"unknown node {kind!r}")


def node_count(e: tuple) -> int:
    """Source nodes, as the parser builds them (an escape is two)."""
    kind = e[0]
    if kind in ("int", "str", "unit", "nil", "var"):
        return 1
    if kind == "fun":
        return 1 + node_count(e[2])
    if kind == "let":
        return 1 + node_count(e[2]) + node_count(e[3])
    if kind == "esc":
        return 2 + node_count(e[1])
    return 1 + sum(node_count(c) for c in e[1:])


def run(e: tuple, env: dict | None = None) -> object:
    """Reference semantics of a future-stage expression.

    Evaluation order is the language's: left to right, except that a
    pair evaluates its second component first.
    """
    env = env or {}
    kind = e[0]
    if kind in ("int", "str"):
        return e[1]
    if kind == "unit":
        return None
    if kind == "nil":
        return []
    if kind == "var":
        return env[e[1]]
    if kind == "add":
        left = run(e[1], env)
        return left + run(e[2], env)
    if kind == "pair":
        second = run(e[2], env)
        return (run(e[1], env), second)
    if kind == "cons":
        head = run(e[1], env)
        return [head] + run(e[2], env)
    if kind == "ref":
        return Ref(run(e[1], env))
    if kind == "get":
        return run(e[1], env).contents
    if kind == "rset":
        cell = run(e[1], env)
        cell.contents = [run(e[2], env)] + cell.contents
        return cell.contents
    if kind == "app":
        fn = run(e[1], env)
        return fn(run(e[2], env))
    if kind == "fun":
        param, body = e[1], e[2]
        return lambda arg: run(body, {**env, param: arg})
    if kind == "let":
        return run(e[3], {**env, e[1]: run(e[2], env)})
    if kind == "csp":
        return run(e[1], {})
    if kind == "esc":
        return run(e[1], env)
    raise ValueError(f"unknown node {kind!r}")


_STRINGS = ("a", "b", "hi", "ok")


def _ground_type(rng: random.Random, depth: int) -> tuple:
    if depth <= 0 or rng.random() < 0.5:
        return rng.choice((INT, INT, STR, UNIT))
    if rng.random() < 0.5:
        return ("list", _ground_type(rng, depth - 1))
    return ("pair", _ground_type(rng, depth - 1), _ground_type(rng, depth - 1))


def _ground_literal(rng: random.Random, ty: tuple) -> tuple:
    """A closed present-stage expression of a ground type."""
    if ty == INT:
        if rng.random() < 0.3:
            return ("add", ("int", rng.randint(0, 99)), ("int", rng.randint(0, 99)))
        return ("int", rng.randint(0, 99))
    if ty == STR:
        return ("str", rng.choice(_STRINGS))
    if ty == UNIT:
        return ("unit",)
    if ty[0] == "list":
        if rng.random() < 0.5:
            return ("nil",)
        return ("cons", _ground_literal(rng, ty[1]), ("nil",))
    return ("pair", _ground_literal(rng, ty[1]), _ground_literal(rng, ty[2]))


def ground_value(rng: random.Random, ty: tuple) -> object:
    """An argument value of a ground type."""
    return run(_ground_literal(rng, ty))


class _SmallGen:
    """Type-directed generator of future-stage bodies.

    Every variable keeps one monomorphic type, so each program is well
    typed.  Covered: quoted lets (also under quoted lambdas and with
    function right-hand sides, i.e. genletfun), ground CSP, refs with `!`
    and `rset`, escapes of quoted code, and functions applied twice.
    """

    def __init__(self, rng: random.Random, fuel: int):
        self.rng = rng
        self.fuel = fuel
        self.names = 0

    def fresh(self) -> str:
        self.names += 1
        return f"v{self.names}"

    def leaf(self, ty: tuple, env: list) -> tuple:
        self.fuel -= 1
        matching = [n for n, t in env if t == ty]
        if matching and self.rng.random() < 0.6:
            return ("var", self.rng.choice(matching))
        if ty == INT:
            return ("int", self.rng.randint(0, 99))
        if ty == STR:
            return ("str", self.rng.choice(_STRINGS))
        if ty == UNIT:
            return ("unit",)
        if ty[0] == "list":
            return ("nil",)
        if ty[0] == "pair":
            return ("pair", self.leaf(ty[1], env), self.leaf(ty[2], env))
        if ty[0] == "ref":
            return ("ref", ("nil",))
        name = self.fresh()
        return ("fun", name, self.leaf(ty[2], env + [(name, ty[1])]))

    def gen(self, ty: tuple, env: list) -> tuple:
        if self.fuel <= 1:
            return self.leaf(ty, env)
        self.fuel -= 1
        rng = self.rng
        choices = ["leaf", "let", "let"]
        cells = [n for n, t in env if t == ("ref", ty)]
        if ty == INT:
            choices += ["add", "add", "csp"]
        elif ty in (STR, UNIT):
            choices += ["csp"]
        elif ty[0] == "list":
            choices += ["cons", "csp"] + ["rset", "get"] * bool(cells)
        elif ty[0] == "pair":
            choices += ["pair", "pair"]
        elif ty[0] == "arrow":
            choices += ["fun", "fun"]
        elif ty[0] == "ref":
            choices += ["ref"]
        fns = [(n, t) for n, t in env if t[0] == "arrow" and t[2] == ty]
        if fns:
            choices += ["call", "call"]
        if ty[0] != "ref":
            choices += ["beta", "esc"]
        pick = rng.choice(choices)
        if pick == "leaf":
            return self.leaf(ty, env)
        if pick == "add":
            return ("add", self.gen(INT, env), self.gen(INT, env))
        if pick == "csp":
            return ("csp", _ground_literal(rng, ty))
        if pick == "cons":
            return ("cons", self.gen(ty[1], env), self.gen(ty, env))
        if pick == "rset":
            return ("rset", ("var", rng.choice(cells)), self.gen(ty[1], env))
        if pick == "get":
            return ("get", ("var", rng.choice(cells)))
        if pick == "pair":
            return ("pair", self.gen(ty[1], env), self.gen(ty[2], env))
        if pick == "fun":
            name = self.fresh()
            return ("fun", name, self.gen(ty[2], env + [(name, ty[1])]))
        if pick == "ref":
            return ("ref", self.gen(ty[1], env))
        if pick == "call":
            fn, fn_ty = rng.choice(fns)
            arg = self.gen(fn_ty[1], env)
            if fn_ty[1] == fn_ty[2] and rng.random() < 0.5:
                arg = ("app", ("var", fn), arg)  # the same function, twice
            return ("app", ("var", fn), arg)
        if pick == "beta":
            arg_ty = _ground_type(rng, 1)
            name = self.fresh()
            fn = ("fun", name, self.gen(ty, env + [(name, arg_ty)]))
            return ("app", fn, self.gen(arg_ty, env))
        if pick == "esc":
            return ("esc", self.gen(ty, env))
        return self._let(ty, env)

    def _let(self, ty: tuple, env: list) -> tuple:
        rng = self.rng
        roll = rng.random()
        if roll < 0.3:
            elem = _ground_type(rng, 0)
            rhs_ty = ("ref", ("list", elem))
        elif roll < 0.55:
            arg_ty = _ground_type(rng, 0)
            rhs_ty = ("arrow", arg_ty, rng.choice((arg_ty, _ground_type(rng, 1))))
        else:
            rhs_ty = _ground_type(rng, 1)
        name = self.fresh()
        rhs = self.gen(rhs_ty, env)
        return ("let", name, rhs, self.gen(ty, env + [(name, rhs_ty)]))


def small_program(rng: random.Random, index: int) -> tuple[Program, int]:
    """One random bracket program of at most SMALL_MAX_NODES nodes, and
    its node count.  Even-numbered programs are functions of a ground
    argument, applied twice to one function value; the others have a
    ground result."""
    while True:
        if index % 2 == 0:
            top = ("arrow", _ground_type(rng, 1), _ground_type(rng, 1))
        else:
            top = _ground_type(rng, 2)
        body = _SmallGen(rng, rng.randint(8, 30)).gen(top, [])
        nodes = node_count(body) + 1
        if nodes <= SMALL_MAX_NODES:
            break
    value = run(body)
    if top[0] == "arrow":
        args = (ground_value(rng, top[1]), ground_value(rng, top[1]))
        expected = tuple(value(a) for a in args)
    else:
        args, expected = (), (value,)
    return Program(f"small/{index}", f".< {render(body)} >.", code(top), args, expected), nodes


def small(rng: random.Random) -> list[Program]:
    """Random programs up to SMALL_NODES source nodes in all, so that every
    seed hands the pipeline the same amount of source."""
    programs, total = [], 0
    while total < SMALL_NODES:
        program, nodes = small_program(rng, len(programs))
        programs.append(program)
        total += nodes
    return programs


# --- workloads ---------------------------------------------------------------

WORKLOADS = ("letchain", "wide", "genfun", "small")


def build(workload: str, seed: int) -> list[Program]:
    """The programs of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "letchain":
        return [letchain(rng, n) for n in LETCHAIN_SIZES]
    if workload == "wide":
        return [wide(rng, d) for d in WIDE_DEPTHS]
    if workload == "genfun":
        programs = [genfun(rng, d, GENFUN_CALLS, k) for d in GENFUN_DEPTHS for k in range(GENFUN_CHAINS)]
        return programs + [rset_history(rng, RSET_CALLS)]
    if workload == "small":
        return small(rng)
    raise ValueError(f"unknown workload {workload!r}")
