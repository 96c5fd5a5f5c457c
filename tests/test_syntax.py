import dataclasses
import gc
import random
import sys

import pytest

from polylet import syntax as S
from polylet.difftest import random_bracket_program
from polylet.engine import VInt, VList, VRefCell
from polylet.parser import parse_plain, parse_source, parse_term
from polylet.unstage import translate


def test_free_vars_closed_fun():
    assert S.free_vars(parse_source("fun x -> x")) == set()


def test_free_vars_open_let():
    e = parse_source("let y = x + 2 in fun x -> x + y")
    assert S.free_vars(e) == {"x"}


def test_free_vars_pair_of_conses():
    e = parse_source('(2 :: x, "3" :: x)')
    assert S.free_vars(e) == {"x"}


def test_free_vars_unit_binder_binds_nothing():
    e = S.Fun(S.UNIT_BINDER, S.Var("z"))
    assert S.free_vars(e) == {"z"}


def test_alpha_equal_renamed_binders():
    a = parse_source("fun x_1 -> fun x_2 -> x_1")
    b = parse_source("fun y_3 -> fun x_4 -> y_3")
    assert S.alpha_equal(a, b)


def test_alpha_equal_reflexive():
    e = parse_source('.<let x = [] in (2 :: x, "3" :: x)>.')
    assert S.alpha_equal(e, e)


def test_alpha_distinct_binding_structure():
    a = parse_source("fun x -> fun y -> x")
    b = parse_source("fun x -> fun y -> y")
    assert not S.alpha_equal(a, b)


def test_alpha_shadowing():
    a = parse_source("fun x -> fun x -> x")
    b = parse_source("fun a -> fun b -> b")
    assert S.alpha_equal(a, b)
    c = parse_source("fun a -> fun b -> a")
    assert not S.alpha_equal(a, c)


def test_alpha_free_variables_must_match():
    assert not S.alpha_equal(S.Var("x"), S.Var("y"))
    assert S.alpha_equal(S.Var("x"), S.Var("x"))


def test_alpha_unused_binders_interchangeable():
    a = S.Fun(S.UNIT_BINDER, S.RefNew(S.Nil()))
    b = S.Fun("z", S.RefNew(S.Nil()))
    assert S.alpha_equal(a, b)


def test_alpha_let_rhs_is_outside_the_binder():
    a = parse_source("let x = x in x")
    assert S.alpha_equal(a, parse_source("let y = x in y"))
    assert not S.alpha_equal(a, parse_source("let y = y in y"))
    assert not S.alpha_equal(parse_source("fun x -> y"), parse_source("fun y -> y"))


def _cell():
    return S.CspValue(VRefCell(VList(())))


# Pairs the round-trip and golden oracles must tell apart, then pairs that
# differ only in bound names, which they must not.
@pytest.mark.parametrize(
    "a, b, equal",
    [
        (parse_plain("x"), parse_plain("1"), False),
        (parse_plain("1"), parse_plain('"1"'), False),
        (parse_term("int 1"), parse_term('str "1"'), False),
        (parse_term("nil"), parse_term("int 1"), False),
        (_cell(), S.CspValue(VInt(1)), False),
        (parse_plain("fun x -> x"), parse_plain("fun y -> y"), True),
        (parse_plain("let x = 1 in x"), parse_plain("let y = 1 in y"), True),
        (parse_term("lam (fun x -> x)"), parse_term("lam (fun y -> y)"), True),
        (_cell(), _cell(), True),
    ],
    ids=[
        "var-vs-int", "int-vs-string", "int-vs-str-combinator", "nil-vs-int-combinator",
        "cell-vs-int", "renamed-fun", "renamed-let", "renamed-lam", "equal-cells",
    ],
)  # fmt: skip
def test_alpha_equal_table(a, b, equal):
    assert S.alpha_equal(a, b) is equal
    assert S.alpha_equal(b, a) is equal


def _let_chain(n, prefix, changed=None):
    """let {prefix}0 = 0 in let {prefix}1 = {prefix}0 + 1 in ... {prefix}{n-1},
    built bottom-up; the literal of let number `changed` reads 7."""
    e = S.Var(f"{prefix}{n - 1}")
    for k in reversed(range(n)):
        step = S.IntLit(7 if k == changed else 1)
        rhs = S.Add(S.Var(f"{prefix}{k - 1}"), step) if k else S.IntLit(0)
        e = S.Let(f"{prefix}{k}", rhs, e)
    return e


def test_alpha_equal_on_long_chains_at_the_default_recursion_limit():
    n = 100_000
    a, b = _let_chain(n, "a"), _let_chain(n, "b")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        renamed = S.alpha_equal(a, b)
        changed = S.alpha_equal(a, _let_chain(n, "b", changed=n // 2))
    finally:
        sys.setrecursionlimit(limit)
    assert renamed and not changed  # booleans only: the trees are too deep to print


def test_alpha_is_symmetric_and_transitive_on_samples():
    samples = [
        parse_source("fun x -> fun y -> x"),
        parse_source("fun a -> fun b -> a"),
        parse_source("fun p -> fun q -> q"),
    ]
    for a in samples:
        for b in samples:
            assert S.alpha_equal(a, b) == S.alpha_equal(b, a)
    assert S.alpha_equal(samples[0], samples[1])
    assert not S.alpha_equal(samples[1], samples[2])


def test_pretty_fun_parenthesizes_addition():
    e = S.Fun("x", S.Add(S.Var("x"), S.IntLit(1)))
    assert S.pretty(e) == "fun x -> (x + 1)"


def test_pretty_bracket():
    e = S.Bracket(S.Add(S.IntLit(1), S.IntLit(2)))
    assert S.pretty(e) == ".<(1 + 2)>."


def test_pretty_let_is_bare_at_top():
    e = S.Let("t_1", S.Add(S.IntLit(1), S.IntLit(2)), S.Var("t_1"))
    assert S.pretty(e) == "let t_1 = (1 + 2) in t_1"


def test_pretty_round_trip_specific():
    texts = [
        ".<let x = [] in (2 :: x, \"3\" :: x)>.",
        "fun x -> .<fun y -> (y + 1) :: .~x>.",
        "let r = ref [] in .<rset %r 0>.",
        ".<fun x -> .~(%(1 + 2)) + x>.",
        "rset (ref (1 :: [])) 2",
        "!(ref ())",
        "fun f -> f 1 2",
    ]
    for text in texts:
        e = parse_source(text)
        again = parse_source(S.pretty(e))
        assert S.alpha_equal(e, again), text


def test_pretty_round_trip_random():
    rng = random.Random(7)
    for _ in range(60):
        e = random_bracket_program(rng)
        again = parse_source(S.pretty(e))
        assert S.alpha_equal(e, again)
        assert S.free_vars(again) == S.free_vars(e)


def test_is_plain():
    assert S.is_plain(parse_plain("let x = 1 in x + 1"))
    assert not S.is_plain(parse_source(".<1>."))


# --- the node family's one traversal -------------------------------------------


def _node_classes():
    gc.collect()  # a slotted dataclass's replaced class lingers until collected
    out, todo = [], [S.Expr]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        # On Python 3.10 the replaced class outlives `gc.collect`: the slotted
        # class keeps its `__weakref__` descriptor.
        if cls is not S.Expr and getattr(S, cls.__name__, None) is cls:
            out.append(cls)
    return out


def _instance(cls):
    """One node of the class, its subexpressions distinct variables."""
    kids = (S.Var(f"k{i}") for i in range(1, 10))
    fill = {"str": lambda: "x", "int": lambda: 1, "object": lambda: 1}
    fill["Expr"] = lambda: next(kids)
    fill["tuple[Expr, ...]"] = lambda: (next(kids), next(kids))
    values = [fill[f.type]() for f in dataclasses.fields(cls)]
    if cls is S.Comb:
        values[0] = "pair"
    return cls(*values)


@pytest.mark.parametrize("cls", _node_classes(), ids=lambda cls: cls.__name__)
def test_every_node_kind_walks_through_children_and_rebuild(cls):
    e = _instance(cls)
    kids = S.children(e)
    fields = [getattr(e, f.name) for f in dataclasses.fields(cls)]
    expected = [k for v in fields for k in (v if isinstance(v, tuple) else (v,))]
    assert list(kids) == [k for k in expected if isinstance(k, S.Expr)]
    assert S.rebuild(e, kids) == e
    fresh = tuple(S.IntLit(i) for i in range(len(kids)))
    assert S.children(S.rebuild(e, fresh)) == fresh
    S.pretty(e)
    if S.is_plain(e):
        assert translate(e) is e


def test_translation_shares_a_plain_parsed_tree():
    e = parse_plain('let f = fun x -> (x + 1, "s") in rset (ref (() :: [])) (f 2 :: !(ref []))')
    seen = set()

    def walk(node):
        seen.add(type(node))
        assert translate(node) is node
        for child in S.children(node):
            walk(child)

    walk(e)
    staging_only = {S.Bracket, S.Escape, S.Csp, S.CspValue, S.Comb}
    assert seen == set(_node_classes()) - staging_only
