import sys

import pytest

from polylet import engine
from polylet import syntax as S
from polylet.backends import evaluate
from polylet.diagnostics import Diagnostic, Kind
from polylet.engine import (
    Machine,
    VCode,
    VInt,
    VList,
    VPair,
    VRefCell,
    VStr,
    VUnit,
    parse_value_literal,
    render_value,
    rset_runtime,
)
from polylet.parser import parse_plain, parse_source, parse_term, tokenize
from polylet.unstage import translate
from test_syntax import _node_classes


def run_plain(text):
    return evaluate(translate(parse_plain(text)), None).value


def test_arithmetic_and_lists():
    assert run_plain("1 + 2 + 3") == VInt(6)
    assert run_plain("1 :: 2 :: []") == VList((VInt(1), VInt(2)))
    assert run_plain("!(ref 5)") == VInt(5)
    assert run_plain("(fun x -> x + 1) 4") == VInt(5)
    assert run_plain("let x = 2 in x + x") == VInt(4)
    assert run_plain("(fun _ -> 5) (1 + 1)") == VInt(5)


def test_pair_components_evaluate_right_to_left():
    value = run_plain("let x = ref (1 :: []) in (rset x 2, rset x 3)")
    assert render_value(value) == "([2; 3; 1], [3; 1])"


def test_application_argument_order_left_to_right():
    # f's side effect lands before the argument's
    value = run_plain(
        "let c = ref [] in ((fun u -> fun v -> !c) (rset c 1) (rset c 2))"
    )
    assert render_value(value) == "[2; 1]"


def test_unbound_variable_is_diagnosed():
    for term in (S.Var("ghost"), S.Add(S.Var("ghost"), S.IntLit(7))):
        with pytest.raises(Diagnostic) as exc:
            evaluate(term, None)
        assert exc.value.kind is Kind.UNBOUND_VAR
        assert exc.value.message == "unbound variable ghost"


def test_binding_never_changes_an_environment_held_elsewhere():
    # Closure entry and `let` extend a copy of the environment: a closure
    # whose body shadows its parameter gives the same answers on every call,
    # and a closure made before a shadowing `let` still sees the outer one.
    ev = evaluate(translate(parse_plain("let a = 5 in fun x -> let x = x + a in x + x")), None)
    fn = ev.value
    held = dict(fn.env)
    assert [ev.call(fn, VInt(n)) for n in (1, 10, 1)] == [VInt(12), VInt(30), VInt(12)]
    assert fn.env == held
    assert run_plain("let y = 1 in let g = fun z -> y + z in let y = 100 in g 0 + y") == VInt(101)


# --- the step table -------------------------------------------------------------

# One case per evaluable node kind, the case's root of that kind, with the
# rendering of its value; `x` is bound to 7.  Comb runs under the quote
# backend and gives the pretty-printed code it builds.
_NODE_CASES = {
    S.Var: (S.Var("x"), "7"),
    S.IntLit: (S.IntLit(1), "1"),
    S.StrLit: (S.StrLit("s"), '"s"'),
    S.Unit: (S.Unit(), "()"),
    S.Nil: (S.Nil(), "[]"),
    S.CspValue: (S.CspValue(VInt(5)), "5"),
    S.Fun: (S.Fun("y", S.Var("y")), "<fun>"),
    S.App: (S.App(S.Fun("y", S.Add(S.Var("y"), S.Var("x"))), S.IntLit(1)), "8"),
    S.Let: (S.Let("y", S.IntLit(2), S.Add(S.Var("y"), S.Var("x"))), "9"),
    S.Add: (S.Add(S.Var("x"), S.IntLit(1)), "8"),
    S.Cons: (S.Cons(S.IntLit(1), S.Nil()), "[1]"),
    S.Pair: (S.Pair(S.IntLit(1), S.StrLit("s")), '(1, "s")'),
    S.RefNew: (S.RefNew(S.IntLit(4)), "{contents = 4}"),
    S.RefGet: (S.RefGet(S.RefNew(S.IntLit(4))), "4"),
    S.Rset: (S.Rset(S.RefNew(S.Nil()), S.IntLit(2)), "[2]"),
    S.Comb: (S.comb("pair", S.comb("int", S.IntLit(1)), S.comb("str", S.StrLit("s"))), '(1, "s")'),
}
_STAGING_FORMS = (S.Bracket, S.Escape, S.Csp)
_LOOP_FORMS = (S.App, S.Add, S.Comb)  # run by the machine's loop itself


@pytest.mark.parametrize("cls", list(_NODE_CASES), ids=lambda cls: cls.__name__)
def test_every_evaluable_node_kind_steps_to_its_value(cls):
    term, expected = _NODE_CASES[cls]
    assert type(term) is cls
    if cls is S.Comb:
        assert S.pretty(evaluate(term, "quote").value.code.tree) == expected
    else:
        assert render_value(Machine().execute(term, {"x": VInt(7)})) == expected


def test_step_table_covers_every_node_kind_but_staging_forms():
    # Each kind is run by the loop or by a step function, never by both.
    assert not set(engine._STEP) & set(_LOOP_FORMS)
    assert set(engine._STEP) | set(_LOOP_FORMS) == set(_NODE_CASES)
    assert set(_NODE_CASES) == set(_node_classes()) - set(_STAGING_FORMS)
    for cls in _STAGING_FORMS:
        with pytest.raises(TypeError, match="unexpected term"):
            Machine().execute(cls(S.IntLit(1)))


def test_deep_terms_run_without_python_recursion():
    nest = S.IntLit(0)
    code_nest = S.comb("int", S.IntLit(0))
    one = S.comb("int", S.IntLit(1))
    opens, closes = [], []
    for i in range(50_000):
        if i % 2:
            nest = S.Add(nest, S.IntLit(1))
            code_nest = S.comb("add", code_nest, one)
            opens.append("(")
            closes.append(" + 1)")
        else:
            nest = S.Add(S.IntLit(1), nest)
            code_nest = S.comb("add", one, code_nest)
            opens.append("(1 + ")
            closes.append(")")
    text = "".join(reversed(opens)) + "0" + "".join(closes)
    chain = S.IntLit(0)
    for _ in range(20_000):
        chain = S.App(S.Fun("x", S.Add(S.Var("x"), chain)), S.IntLit(1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        assert evaluate(nest, None).value == VInt(50_000)
        assert evaluate(chain, None).value == VInt(20_000)
        assert S.pretty(nest) == text
        tree = evaluate(code_nest, "quote").value.code.tree
        assert S.pretty(tree) == text
        assert evaluate(code_nest, "string").value.code.text == text
    finally:
        sys.setrecursionlimit(limit)


def _genfun_lets(depth):
    lets = ["let f0 = fun z -> z + 7 in "]
    return lets + [f"let f{k} = fun z -> f{k - 1} (f{k - 1} z) in " for k in range(1, depth + 1)]


def _genfun_chain(depth, quoted=False):
    source = "".join(_genfun_lets(depth)) + f"fun x -> f{depth} x"
    return translate(parse_source(f".<{source}>.") if quoted else parse_plain(source))


def _generated_function(depth, backend):
    """The quoted depth-n chain's generated function, and the machine to call
    it on: the quote tree run plainly, or the eval backend's forced value."""
    run = evaluate(_genfun_chain(depth, quoted=True), backend)
    if backend == "eval":
        return run, run.force()
    run = evaluate(run.value.code.tree, None)
    return run, run.value


class _CountingStack(list):
    """A machine stack that counts the frames pushed onto it."""

    pushed = 0

    def append(self, frame):
        self.pushed += 1
        super().append(frame)


def _frames_per_call(depth):
    run = evaluate(_genfun_chain(depth), None)
    stack = _CountingStack()
    assert run._loop(engine._apply(run.value, VInt(1)), stack) == VInt(1 + 7 * 2**depth)
    return stack.pushed


def test_atomic_operands_take_no_steps():
    # A call of fK is `fK-1 (fK-1 z)`: the inner application's operands are
    # atomic, so it pushes nothing, and the outer one pushes one frame, the
    # call waiting for its argument; f0's `z + 7` pushes none.  One call of
    # the depth-n chain is therefore 2**n - 1 frames; an operand that took a
    # frame of its own would push at least one more per call of each fK.
    assert _frames_per_call(6) == 2**6 - 1
    assert _frames_per_call(8) == 2**8 - 1


def test_a_literal_addend_is_not_boxed():
    # Generated code of a depth-6 genfun chain: one call runs 2**6 additions
    # `z + 7`, and each allocates only its sum, not a box for the 7.
    run, fn = _generated_function(6, "quote")
    arg, calls = VInt(1), []

    def count(frame, event, _):
        if event == "call" and frame.f_code is VInt.__init__.__code__:
            calls.append(event)

    sys.setprofile(count)
    try:
        result = run.call(fn, arg)
    finally:
        sys.setprofile(None)
    assert result == VInt(1 + 7 * 2**6)
    assert len(calls) == 2**6


def _calls_of_one_call(run, fn):
    """The Python calls and the C calls that `run.call(fn, 1)` makes."""
    calls = {"call": 0, "c_call": 0}

    def count(frame, event, _):
        if event in calls:
            calls[event] += 1

    sys.setprofile(count)
    try:
        run.call(fn, VInt(1))
    finally:
        sys.setprofile(None)
    return calls["call"], calls["c_call"]


@pytest.mark.parametrize("depth", [6, 8])
def test_atomic_operands_are_read_by_a_class_test(depth):
    # One call of the depth-n chain's generated code enters 2**(n + 1)
    # closures.  Its variables are read by one env lookup each, with no
    # table lookup, so a closure call costs the env copy, the push and pop
    # of the call waiting for its argument and that argument's table
    # lookup: 2.5 C calls, where a lookup per atomic operand made 5.
    run, fn = _generated_function(depth, "quote")
    python_calls, c_calls = _calls_of_one_call(run, fn)
    assert c_calls <= 2.6 * 2 ** (depth + 1)
    # Eval's code calls each inserted function through its persisted value
    # (`CspValue`), which the loop reads in place, as the quote tree reads
    # the variable bound to the function: no Python call per closure call.
    assert _calls_of_one_call(*_generated_function(depth, "eval"))[0] == python_calls


_NOPE = S.Var("nope")
_BAD_ADD = S.Add(S.IntLit(1), S.StrLit("a"))


# An atomic operand meets a failing compound one: the one due first wins.
@pytest.mark.parametrize(
    "backend, term, kind, message",
    [
        (None, S.Pair(_NOPE, _BAD_ADD), Kind.TYPE_ERROR, "addition of non-integers"),
        (None, S.App(_NOPE, _BAD_ADD), Kind.UNBOUND_VAR, "unbound variable nope"),
        (None, S.Add(_BAD_ADD, _NOPE), Kind.TYPE_ERROR, "addition of non-integers"),
        (None, S.Add(_NOPE, _BAD_ADD), Kind.UNBOUND_VAR, "unbound variable nope"),
        (None, S.Cons(_BAD_ADD, _NOPE), Kind.TYPE_ERROR, "addition of non-integers"),
        (None, S.Rset(_NOPE, _BAD_ADD), Kind.UNBOUND_VAR, "unbound variable nope"),
        (None, S.Rset(S.RefNew(_BAD_ADD), _NOPE), Kind.TYPE_ERROR, "addition of non-integers"),
        (None, S.Let("y", _NOPE, _BAD_ADD), Kind.UNBOUND_VAR, "unbound variable nope"),
        (None, S.Let("y", _BAD_ADD, _NOPE), Kind.TYPE_ERROR, "addition of non-integers"),
        (
            "quote",
            S.comb("pair", _NOPE, S.comb("add", S.IntLit(1), S.comb("int", S.IntLit(2)))),
            Kind.TYPE_ERROR,
            "quote backend got a non-code operand (int)",
        ),
        (
            "quote",
            S.comb("add", _NOPE, S.comb("add", S.IntLit(1), S.comb("int", S.IntLit(2)))),
            Kind.UNBOUND_VAR,
            "unbound variable nope",
        ),
        (None, S.Add(S.IntLit(1), _NOPE), Kind.UNBOUND_VAR, "unbound variable nope"),
        (None, S.App(S.CspValue(VInt(1)), _BAD_ADD), Kind.TYPE_ERROR, "addition of non-integers"),
    ],
)
def test_operand_order_decides_which_diagnostic_wins(backend, term, kind, message):
    with pytest.raises(Diagnostic) as exc:
        evaluate(term, backend)
    assert exc.value.kind is kind
    assert exc.value.message == message


@pytest.mark.parametrize(
    "body",
    [S.App(_NOPE, S.Var("z")), S.App(S.Var("z"), _NOPE), S.Add(_NOPE, S.Var("z")), S.Add(S.Var("z"), _NOPE)],
)
def test_an_unbound_name_in_a_called_closure_is_named(body):
    # The loop reads each operand of an App or an Add by one env lookup; a
    # miss names the variable before the operation can fail on the other.
    run = evaluate(S.Fun("z", body), None)
    with pytest.raises(Diagnostic) as exc:
        run.call(run.value, VStr("a"))
    assert exc.value.kind is Kind.UNBOUND_VAR
    assert exc.value.message == "unbound variable nope"


# --- run-time guards -----------------------------------------------------------

# Programs the type checker would reject, each stopped by one run-time check
# of the machine or a backend.  A mode names the parser and the backend.
_MODES = {
    "plain": (parse_plain, None),
    "term": (parse_term, None),
    "quote": (parse_term, "quote"),
    "eval": (parse_term, "eval"),
}


# Guards that the quote and eval backends share; `{}` is the backend's name.
# A node combinator checks its operands in field order, after evaluating
# them all (a pair's right to left).
_CODE_GUARDS = [
    ('pair 1 "a"', "{} backend got a non-code operand (int)"),
    ('pair (int 1) "a"', "{} backend got a non-code operand (string)"),
    ("app (int 1) 2", "{} backend got a non-code operand (int)"),
    ("cons 1 nil", "{} backend got a non-code operand (int)"),
    ("rset_ (int 1) ()", "{} backend got a non-code operand (unit)"),
    ("ref_ 1", "{} backend got a non-code operand (int)"),
    ('rget "a"', "{} backend got a non-code operand (string)"),
    ("new_scope 1", "cannot apply a int value"),
    ("lam 1", "cannot apply a int value"),
    ("new_scope (fun p -> genlet p 1)", "expected a code value, got int"),
    # A literal `fun` is bound in place, a closure through `_apply`: both
    # keep the unit pattern's rule, and both name a scope `scope`.
    ("new_scope (fun () -> nil)", "unit-pattern function applied to a non-unit value"),
    ("new_scope ((fun f -> f) (fun () -> nil))", "unit-pattern function applied to a non-unit value"),
    ("lam (fun x -> new_scope (fun p -> p))", "expected a code value, got scope"),
    ("new_scope (fun p -> p 1)", "cannot apply a scope value"),
]


@pytest.mark.parametrize(
    "mode, text, message",
    [
        *[(mode, text, message.format(mode)) for mode in ("quote", "eval") for text, message in _CODE_GUARDS],
        ("plain", "1 2", "cannot apply a int value"),
        ("plain", "(fun x -> x) (ref 1) 2", "cannot apply a ref value"),
        ("plain", '1 + "a"', "addition of non-integers"),
        ("plain", '"a" + 7', "addition of non-integers"),
        ("plain", "1 :: 2", "cons onto a non-list"),
        ("plain", "!1", "dereference of a non-cell"),
        ("plain", "rset 1 2", "rset expects a reference cell, got int"),
        ("plain", "rset (ref 1) 2", "rset expects a cell holding a list, got int"),
        ("plain", "(fun () -> 1) 2", "unit-pattern function applied to a non-unit value"),
        ("plain", "(fun () -> 1) (1 + 1)", "unit-pattern function applied to a non-unit value"),
        ("plain", "(1 + 1) 2", "cannot apply a int value"),
        ("plain", "1 + (1 :: [])", "addition of non-integers"),
        ("term", "int 1", "code combinator encountered in plain evaluation"),
        ("term", "add (1 2) (int 1)", "cannot apply a int value"),  # operands first
        ("quote", "genlet (int 1) (int 2)", "genlet expects a scope"),
        ("quote", "new_scope (fun p -> genletfun p (fun x -> x))", "genletfun expects a funscope"),
        ("quote", "add 1 (int 2)", "quote backend got a non-code operand (int)"),
        ("quote", "lam (fun x -> 1)", "expected a code value, got int"),
        ("eval", "add 1 (int 2)", "eval backend got a non-code operand (int)"),
        ("eval", "rget (csp 1)", "dereference of a non-cell"),
    ],
)
def test_run_time_guards_raise_type_errors(mode, text, message):
    parse, backend = _MODES[mode]
    with pytest.raises(Diagnostic) as exc:
        evaluate(parse(text), backend).force()
    assert exc.value.kind is Kind.TYPE_ERROR
    assert exc.value.message == message


# --- rset tag check -----------------------------------------------------------


def test_rset_prepends_and_stores():
    cell = VRefCell(VList((VInt(1),)))
    out = rset_runtime(cell, VInt(2))
    assert out == VList((VInt(2), VInt(1)))
    assert cell.contents == out


def test_rset_empty_list_accepts_any_tag():
    cell = VRefCell(VList(()))
    assert rset_runtime(cell, VStr("3")) == VList((VStr("3"),))


def test_rset_heterogeneous_prepend_is_violation():
    cell = VRefCell(VList((VStr("3"),)))
    with pytest.raises(Diagnostic) as exc:
        rset_runtime(cell, VInt(2))
    assert exc.value.kind is Kind.SOUNDNESS_VIOLATION


# --- generated functions -----------------------------------------------------


def test_eval_backend_lam_binds_dynamically_per_application():
    ev = evaluate(translate(parse_source(".<fun y -> y + 1>.")), "eval")
    fn = ev.force()
    assert ev.call(fn, VInt(4)) == VInt(5)
    assert ev.call(fn, VInt(10)) == VInt(11)


def test_eval_backend_nested_generated_functions_keep_their_own_bindings():
    ev = evaluate(translate(parse_source(".<fun x -> fun y -> (x, y)>.")), "eval")
    f = ev.force()
    g1, g2 = ev.call(f, VInt(1)), ev.call(f, VInt(2))
    assert ev.call(g1, VInt(10)) == VPair(VInt(1), VInt(10))
    assert ev.call(g2, VInt(20)) == VPair(VInt(2), VInt(20))
    assert ev.call(g1, VInt(30)) == VPair(VInt(1), VInt(30))


# --- let insertion -------------------------------------------------------------


def test_genlet_on_a_closed_scope_is_diagnosed():
    # The persisted function escapes its scope; calling it after the scope
    # has returned finds no prompt to insert at.
    genlet = S.comb("genlet", S.Var("p"), S.comb("int", S.IntLit(1)))
    term = S.comb("new_scope", S.Fun("p", S.comb("csp", S.Fun("u", genlet))))
    ev = evaluate(term, "eval")
    k = ev.force()
    with pytest.raises(Diagnostic) as exc:
        ev.call(k, VUnit())
    assert exc.value.kind is Kind.SCOPE_EXTRUSION
    assert "prompt not active" in exc.value.message


def test_insertion_reinstalls_delimiter():
    # Two insertions under one scope: the prompt stays in place after the
    # first, and wraps the code in both lets, the first made outermost.
    term = S.comb(
        "new_scope",
        S.Fun(
            "p",
            S.comb(
                "pair",
                S.comb("genlet", S.Var("p"), S.comb("int", S.IntLit(1))),
                S.comb("genlet", S.Var("p"), S.comb("int", S.IntLit(2))),
            ),
        ),
    )
    got = evaluate(term, "quote").value.code.tree
    expected = parse_plain("let a = 2 in let b = 1 in (b, a)")
    assert S.alpha_equal(got, expected)


def test_determinism_across_fresh_sessions():
    term = translate(parse_source('.<let f = fun x -> x in (f 2, f "3")>.'))
    a = evaluate(term, "quote").value
    b = evaluate(term, "quote").value
    assert isinstance(a, VCode) and isinstance(b, VCode)
    assert S.alpha_equal(a.code.tree, b.code.tree)
    sa = evaluate(term, "string").value.code.text
    sb = evaluate(term, "string").value.code.text
    assert sa == sb  # fixed session numbering means byte-stable output


def test_gensym_start_override():
    term = translate(parse_source(".<let y = 1 + 2 in fun x -> x + y>."))
    text = evaluate(term, "string", name_start=7).value.code.text
    assert "t_7" in text and "x_7" in text


def test_parse_value_literal():
    assert parse_value_literal("5") == VInt(5)
    assert parse_value_literal(" -12 ") == VInt(-12)
    assert parse_value_literal("+7") == VInt(7)
    assert parse_value_literal("1_000") == VInt(1000)
    assert parse_value_literal('"hi"') == VStr("hi")
    # Strings unescape exactly as string literals in source do.
    for literal in ('"a\\"b"', '"tab\\there"', '"line\\n"', '"back\\\\slash"', '"\\q"'):
        (_kind, _text, value, _offset), _eof = tokenize(literal)
        assert parse_value_literal(literal) == VStr(value)
    assert parse_value_literal('"a\\"b"') == VStr('a"b')
    assert parse_value_literal('"x\\ny"') == VStr("x\ny")
    assert parse_value_literal("()") == VUnit()
    assert parse_value_literal("[]") == VList(())
    # Rejected: text that is not one literal token, such as two strings, a
    # string and a stray quote, or a string whose closing quote is escaped.
    for bad in ("wat", '"a" "b"', '"""', '"a\\"'):
        with pytest.raises(Diagnostic, match="cannot parse literal argument"):
            parse_value_literal(bad)


def test_render_value():
    v = VPair(VList((VInt(2), VInt(1))), VStr("a"))
    assert render_value(v) == '([2; 1], "a")'


def test_render_value_at_any_depth_at_the_default_recursion_limit():
    v, n = VInt(0), 100_000
    for i in range(n):
        v = (VPair(v, VUnit()), VRefCell(v), VList((v,)))[i % 3]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        text = render_value(v)
    finally:
        sys.setrecursionlimit(limit)
    opens = "([{contents = " * (n // 3) + "("
    assert text == opens + "0, ())" + "}], ())" * (n // 3)
