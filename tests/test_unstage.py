import os
import random
import subprocess
import sys

import pytest

from polylet import difftest
from polylet import syntax as S
from polylet import target as T
from polylet import unstage
from polylet.backends import evaluate
from polylet.corpus import ENTRIES
from polylet.engine import VInt
from polylet.parser import parse_plain, parse_source, parse_term
from polylet.typecheck import infer_host, infer_staged
from polylet.typesys import TypeEnv, render_scheme
from polylet.unstage import translate
from test_backends import _python_calls
from test_syntax import _node_classes


def c(name, *args):
    return S.comb(name, *args)


def test_identity_outside_lam_image_inside():
    # fun x -> quoted(fun y -> (y + 1) :: spliced x)
    e = parse_source("fun x -> .<fun y -> (y + 1) :: .~x>.")
    expected = S.Fun(
        "x",
        c(
            "lam",
            S.Fun(
                "y",
                c(
                    "cons",
                    c("add", S.Var("y"), c("int", S.IntLit(1))),
                    S.Var("x"),
                ),
            ),
        ),
    )
    assert S.alpha_equal(translate(e), expected)


def test_quoted_let_becomes_scoped_genlet():
    e = parse_source('.<let x = [] in (2::x, "3"::x)>.')
    expected = c(
        "new_scope",
        S.Fun(
            "p",
            S.Let(
                "x",
                c("genlet", S.Var("p"), c("nil")),
                c(
                    "pair",
                    c("cons", c("int", S.IntLit(2)), S.Var("x")),
                    c("cons", c("str", S.StrLit("3")), S.Var("x")),
                ),
            ),
        ),
    )
    assert S.alpha_equal(translate(e), expected)


def test_quoted_function_let_becomes_memoized_thunk():
    e = parse_source('.<let f = fun x -> x in (f 2, f "3")>.')

    def call_f():
        return S.App(S.Var("f"), S.Unit())

    expected = c(
        "new_funscope",
        S.Fun(
            "p",
            S.Let(
                "f",
                S.Fun(S.UNIT_BINDER, c("genletfun", S.Var("p"), S.Fun("x", S.Var("x")))),
                c(
                    "pair",
                    c("app", call_f(), c("int", S.IntLit(2))),
                    c("app", call_f(), c("str", S.StrLit("3"))),
                ),
            ),
        ),
    )
    assert S.alpha_equal(translate(e), expected)


def test_csp_of_computation():
    e = parse_source(".<fun x -> .~(%(1 + 2)) + x>.")
    expected = c(
        "lam",
        S.Fun(
            "x",
            c("add", c("csp", S.Add(S.IntLit(1), S.IntLit(2))), S.Var("x")),
        ),
    )
    assert S.alpha_equal(translate(e), expected)


def test_unit_argument_becomes_csp_unit():
    e = parse_source(".<f ()>.")
    assert translate(e) == c("app", S.Var("f"), c("csp", S.Unit()))


def test_nested_let_rhs_translates_inside_out():
    e = parse_source('.<let f = (let r = ref [] in fun x -> rset r x) in (f 1, f "3")>.')
    t = translate(e)
    # outer scope genlets an inner new_scope; the lam sits inside the
    # inner scope, right below its genlet
    assert isinstance(t, S.Comb) and t.name == "new_scope"
    outer_let = t.args[0].body
    assert isinstance(outer_let, S.Let)
    inner = outer_let.rhs
    assert inner.name == "genlet"
    assert isinstance(inner.args[1], S.Comb) and inner.args[1].name == "new_scope"
    assert T.lint_scopes(t) == []


def test_unsound_csp_translation_shape():
    e = parse_source('.<let f = fun () -> %(ref []) in (rset (f ()) 2, rset (f ()) "3")>.')
    t = translate(e)
    assert isinstance(t, S.Comb) and t.name == "new_funscope"
    let = t.args[0].body
    thunk = let.rhs
    assert isinstance(thunk, S.Fun) and thunk.param == S.UNIT_BINDER
    gf = thunk.body
    assert gf.name == "genletfun"
    fn = gf.args[1]
    assert isinstance(fn, S.Fun) and fn.param == S.WILDCARD
    assert fn.body == c("csp", S.RefNew(S.Nil()))


def test_translation_is_deterministic_and_type_oblivious():
    # Translating an ill-typed program works, and twice gives the same term.
    e = parse_source('.<let x = ref [] in (rset x 2, rset x "3")>.')
    assert translate(e) == translate(e)


def test_no_lam_between_scope_and_genlet_in_translations():
    cases = [
        '.<let x = [] in (2::x, "3"::x)>.',
        ".<fun y -> let x = y + 1 in x + x>.",
        '.<let f = fun x -> x in (f 2, f "3")>.',
        ".<fun a -> fun b -> let p = (a, b) in (p, p)>.",
    ]
    for text in cases:
        assert T.lint_scopes(translate(parse_source(text))) == []


@pytest.mark.parametrize(
    "text, complaint",
    [
        ("new_scope (fun p -> lam (fun x -> genlet p (int 1)))",
         "genlet for p is separated from its scope by a lam"),
        ("new_scope (fun p -> lam (fun p -> genlet p (int 1)))",
         "genlet scope argument is not a bound scope variable"),
        ("new_funscope (fun p -> genletfun p (fun x -> genletfun p (fun y -> x)))",
         "genletfun for p is separated from its scope by a lam"),
    ],
)  # fmt: skip
def test_lint_scopes_complaints(text, complaint):
    assert T.lint_scopes(parse_term(text)) == [complaint]


def test_lint_scopes_any_depth_of_lam():
    # A genlet 5,000 generated functions below its scope, at the default
    # recursion limit.
    body = c("genlet", S.Var("p"), c("int", S.IntLit(1)))
    for i in range(5_000):
        body = c("lam", S.Fun(f"x{i}", body))
    term = c("new_scope", S.Fun("p", body))
    assert T.lint_scopes(term) == ["genlet for p is separated from its scope by a lam"]


# The translation of a 50,000-let quoted chain, `new_scope (fun p0 -> let x0 =
# genlet p0 (int 0) in new_scope (fun p1 -> let x1 = genlet p1 (add x0 (int
# 1)) in ...))`, built bottom-up because `translate` of it recurses.
_LINT_LET_CHAIN = """
from polylet import syntax as S
from polylet.target import lint_scopes

n = 50_000
body = S.Var(f"x{n - 1}")
for i in reversed(range(n)):
    rhs = S.comb("add", S.Var(f"x{i - 1}"), S.comb("int", S.IntLit(1))) if i else S.comb("int", S.IntLit(0))
    let = S.Let(f"x{i}", S.comb("genlet", S.Var(f"p{i}"), rhs), body)
    body = S.comb("new_scope", S.Fun(f"p{i}", let))
print(lint_scopes(body))
"""


def test_lint_scopes_is_linear_in_a_let_chain():
    # At the default recursion limit; a lint quadratic in the binders would
    # take minutes here.
    src = os.path.dirname(os.path.dirname(T.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _LINT_LET_CHAIN],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_free_vars_preserved():
    e = parse_source(".<fun y -> (y + 1) :: .~x>.")
    assert S.free_vars(e) == {"x"}
    assert S.free_vars(translate(e)) == {"x"}


def test_thunkify_respects_shadowing():
    # Uses of a quoted `let f = fun ...` become `f ()`, at both levels and
    # through escapes into nested brackets, except where a quoted fun, the
    # body of a quoted let, or a present-stage fun rebinds f; the
    # right-hand side of a quoted let still sees the outer f.
    src = (
        ".<let f = fun x -> x in"
        " (f 1, (fun f -> f, (let f = f in f, .~((fun f -> f) .<f 2>.))))>."
    )
    assert S.pretty(translate(parse_source(src))) == (
        "new_funscope (fun p_1 -> let f = fun () -> genletfun p_1 (fun x -> x) in"
        " pair (app (f ()) (int 1))"
        " (pair (lam (fun f -> f))"
        " (pair (new_scope (fun p_2 -> let f = genlet p_2 (f ()) in f))"
        " ((fun f -> f) (app (f ()) (int 2))))))"
    )


def _opcodes(f, *args):
    """How many bytecode instructions `f(*args)` executes, in all the Python
    frames it runs: a count that is the same on every run."""
    count = 0

    def trace(frame, event, _):
        nonlocal count
        frame.f_trace_opcodes = True
        count += event == "opcode"
        return trace

    # Python 3.12.1 sends no opcode event in a process's first trace unless
    # a frame has asked for them before the trace starts.
    sys._getframe().f_trace_opcodes = True
    sys.settrace(trace)
    try:
        f(*args)
    finally:
        sys.settrace(None)
    return count


def test_thunking_is_linear_in_genletfun_chain_length():
    """Uses are thunked as the body is translated, not by re-walking the
    translated body of every quoted `let f = fun ...`."""

    def work(n):
        lets = "let f0 = fun x -> x in " + "".join(
            f"let f{k} = fun x -> f{k - 1} x in " for k in range(1, n)
        )
        return _opcodes(translate, parse_source(f".<{lets}f{n - 1} 1>."))

    assert work(100) <= 5 * work(25)


def test_value_lit_round_trips_through_translation():
    from polylet.engine import VInt

    e = S.CspValue(VInt(3))
    assert translate(e) is e


def test_combinator_free_target_pretty_reparses():
    texts = [
        "let t_1 = (1 + 2) in fun x_1 -> (x_1 + t_1)",
        "rset (ref (1 :: [])) 2",
        "(fun f -> f ()) (fun () -> (1, \"a\"))",
    ]
    for text in texts:
        term = translate(parse_source(text))
        reparsed = translate(parse_source(S.pretty(term)))
        assert S.alpha_equal(term, reparsed), text


@pytest.mark.parametrize(
    "text", [".<let () = () in 1>.", ".<let x = () in let () = x in 3>."]
)
def test_quoted_unit_pattern_let_preserves_typing(text):
    # The host let binds the inserted code, not the unit itself.
    e = parse_source(text)
    assert render_scheme(infer_staged(TypeEnv(), e)) == "int code"
    assert render_scheme(infer_host(TypeEnv(), translate(e)), "cod") == "int cod"


def test_scope_binders_avoid_the_programs_names():
    # A source binder spelled like a scope binder must not be captured.
    e = parse_source(".<fun p_1 -> let y = 1 in p_1 + y>.")
    term = translate(e)
    assert render_scheme(infer_host(TypeEnv(), term), "cod") == "(int -> int) cod"
    tree = evaluate(term, "quote").value.code.tree
    assert S.alpha_equal(tree, parse_source("fun x -> let y = 1 in x + y"))
    ev = evaluate(tree, "eval")
    assert ev.call(ev.force(), VInt(4)) == VInt(5)


def test_scope_binders_avoid_names_used_at_level_0():
    # The spliced p_1 is the outer level-0 binding, not the scope binder.
    term = translate(parse_source("let p_1 = .<1>. in .<let y = 2 in .~p_1 + y>."))
    tree = evaluate(term, "quote").value.code.tree
    assert S.alpha_equal(tree, parse_source("let y = 2 in 1 + y"))


def test_translate_visits_each_node_once():
    # Scope binders are named from the names the translation itself
    # visits, with no second walk over the tree: about 75 to 90 opcodes a
    # node on Python 3.10-3.13, where a second walk by `scan` adds 70 more.
    lets = "".join(f"let x{k} = x{k - 1} + 1 in " for k in range(1, 100))
    e = parse_source(f".<let x0 = 1 in {lets}x99>.")
    assert _opcodes(translate, e) <= 100 * difftest.size(e)


def test_translate_makes_three_calls_a_quoted_node():
    # The rule of each node builds its `Comb` itself, and each child is
    # translated by its rule, found in the table with no call.
    def calls_and_nodes(depth):
        e = S.IntLit(1)
        for _ in range(depth):
            e = S.Add(e, e)
        return _python_calls(translate, S.Bracket(e)), difftest.size(S.Bracket(e))

    (small, small_nodes), (large, large_nodes) = calls_and_nodes(5), calls_and_nodes(7)
    assert (small_nodes, large_nodes) == (64, 256)
    assert small <= 3.1 * small_nodes and large <= 3.1 * large_nodes, (small, large)
    assert large <= 4.2 * small, (small, large)


def test_quoted_sum_chain_translates_at_the_default_recursion_limit():
    # One Python frame per tree level: a left-nested quoted `+` chain of 900.
    e = S.IntLit(0)
    for k in range(1, 901):
        e = S.Add(e, S.IntLit(k))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        out = translate(S.Bracket(e))
    finally:
        sys.setrecursionlimit(limit)
    for k in range(900, 0, -1):
        assert out.name == "add" and out.args[1] == c("int", S.IntLit(k))
        out = out.args[0]
    assert out == c("int", S.IntLit(0))


def _count_level0(monkeypatch):
    """Every `_Translator.level0` call from now on, recursive ones too."""
    calls = []
    level0 = unstage._Translator.level0

    def counting(self, e):
        calls.append(e)
        return level0(self, e)

    monkeypatch.setattr(unstage._Translator, "level0", counting)
    return calls


def test_emitted_code_translates_without_a_translator(monkeypatch):
    # Running emitted code goes through translate again; the code has no
    # staging forms left, so it comes back as is and no translator runs.
    lets = "".join(f"let x{k} = x{k - 1} + 1 in " for k in range(1, 256))
    source = parse_source(f".<let x0 = 1 in {lets}x255>.")
    term = translate(source)
    tree = evaluate(term, "quote").value.code.tree
    reread = parse_plain(evaluate(term, "string").value.code.text)
    calls = _count_level0(monkeypatch)
    assert translate(tree) is tree
    assert translate(reread) is reread
    assert calls == []
    translate(source)
    assert calls == [source]


@pytest.mark.parametrize("kind", ["let", "fun"])
def test_plain_chains_translate_at_the_default_recursion_limit(monkeypatch, kind):
    e = S.Var("x0")
    for k in range(100_000):
        e = S.Let(f"x{k}", S.IntLit(k), e) if kind == "let" else S.Fun(f"x{k}", e)
    calls = _count_level0(monkeypatch)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        out = translate(e)
    finally:
        sys.setrecursionlimit(limit)
    assert out is e and calls == []


@pytest.mark.parametrize(
    "tree, message",
    [
        (S.Add(S.IntLit(1), 5), "unexpected expression 5"),
        (S.Fun("x", S.Pair(S.Var("x"), "junk")), "unexpected expression 'junk'"),
        (S.Bracket(S.Add(S.IntLit(1), 5)), "unexpected expression 5"),
        (S.Bracket(S.Escape(S.Bracket(S.Add(S.IntLit(1), 5)))), "unexpected expression 5"),
    ],
)
def test_malformed_tree_names_the_stray_value(tree, message):
    # Inside a bracket, the rule table's miss raises; it adds no rule.
    assert set(unstage._LEVEL1) == set(_node_classes()) - {S.Bracket, S.Comb}
    with pytest.raises(TypeError) as exc:
        translate(tree)
    assert str(exc.value) == message
    assert set(unstage._LEVEL1) == set(_node_classes()) - {S.Bracket, S.Comb}


def test_nested_bracket_is_refused():
    with pytest.raises(ValueError, match="nested bracket survived parsing"):
        translate(S.Bracket(S.Pair(S.IntLit(1), S.Bracket(S.IntLit(2)))))


def _nodes(e):
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        stack += S.children(e)


def test_is_plain_marks_exactly_the_trees_the_translator_shares():
    trees = [parse_source(entry.source) for entry in ENTRIES if entry.source]
    rng = random.Random(0)
    for _ in range(2_000):
        term = translate(difftest.random_bracket_program(rng))
        trees.append(evaluate(term, "quote").value.code.tree)
        trees.append(parse_plain(evaluate(term, "string").value.code.text))
    staging = (S.Bracket, S.Escape, S.Csp)
    plain = 0
    for tree in trees:
        for sub in _nodes(tree):
            if S.is_plain(sub):
                plain += 1
                assert unstage._Translator().level0(sub) is sub
            else:
                assert any(isinstance(n, staging) for n in _nodes(sub))
    assert plain > 10_000
