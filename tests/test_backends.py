import sys

import pytest

from polylet import syntax as S
from polylet.backends import QuoteCode, StringCode, check_scope, evaluate
from polylet.corpus import ENTRIES, by_name
from polylet.diagnostics import Diagnostic, Kind
from polylet.engine import VCode, VInt, VList, VPair, VRefCell, VStr, VUnit, render_value, value_to_literal
from polylet.parser import parse_plain, parse_source, parse_term
from polylet.unstage import translate


def c(name, *args):
    return S.comb(name, *args)


def string_of(term):
    v = evaluate(term, "string").value
    assert isinstance(v, VCode) and isinstance(v.code, StringCode)
    return v.code.text


def quote_of(term):
    v = evaluate(term, "quote").value
    assert isinstance(v, VCode) and isinstance(v.code, QuoteCode)
    return v.code.tree


def test_string_add_parenthesizes():
    assert string_of(c("add", c("int", S.IntLit(1)), c("int", S.IntLit(2)))) == "(1 + 2)"


def test_string_combinators_emit_reparseable_text():
    term = c(
        "pair",
        c("cons", c("int", S.IntLit(2)), c("nil")),
        c("rset_", c("ref_", c("nil")), c("str", S.StrLit("3"))),
    )
    text = string_of(term)
    parse_plain(text)  # must not raise


def test_quote_lam_builds_fresh_binder():
    tree = quote_of(c("lam", S.Fun("x", S.Var("x"))))
    assert S.alpha_equal(tree, parse_plain("fun q -> q"))


def test_quote_lam_and_scope_of_a_wildcard_bind_nothing():
    assert S.pretty(quote_of(parse_term("lam (fun _ -> int 1)"))) == "fun x_1 -> 1"
    assert S.pretty(quote_of(parse_term("lam ((fun f -> f) (fun _ -> int 1))"))) == "fun x_1 -> 1"
    assert S.pretty(quote_of(parse_term("new_scope (fun _ -> int 1)"))) == "1"


def test_eval_beta():
    term = c(
        "app",
        c("lam", S.Fun("x", c("add", S.Var("x"), c("int", S.IntLit(1))))),
        c("int", S.IntLit(4)),
    )
    ev = evaluate(term, "eval")
    assert ev.force() == VInt(5)


def test_genlet_inserts_binding_above_lam():
    term = c(
        "new_scope",
        S.Fun(
            "p",
            c(
                "lam",
                S.Fun(
                    "x",
                    c(
                        "add",
                        S.Var("x"),
                        c("genlet", S.Var("p"), c("add", c("int", S.IntLit(1)), c("int", S.IntLit(2)))),
                    ),
                ),
            ),
        ),
    )
    assert S.alpha_equal(quote_of(term), parse_plain("let t = (1 + 2) in fun x -> (x + t)"))


def test_quoted_let_round_trip_rematerializes():
    term = translate(parse_source('.<let x = [] in (2::x, "3"::x)>.'))
    assert S.alpha_equal(quote_of(term), parse_plain('let x = [] in (2 :: x, "3" :: x)'))


def test_scope_without_genlet_inlines():
    tree = quote_of(parse_term(by_name("scope_no_genlet").target))
    assert S.alpha_equal(tree, parse_plain('(2 :: [], "3" :: [])'))


def test_genletfun_memoizes_one_binding():
    term = translate(parse_source('.<let f = fun x -> x in (f 2, f "3")>.'))
    text = string_of(term)
    assert text.count("fun") == 1
    tree = quote_of(term)
    assert S.alpha_equal(tree, parse_plain('let t = (fun x -> x) in (t 2, t "3")'))


def test_genletfun_behind_plain_genlet_duplicates():
    text = string_of(parse_term(by_name("thunked_genlet_two_lets").target))
    assert text.count("fun") == 2
    assert text.count("let") == 2


def test_string_csp_serializes_ground_values():
    values = [
        VInt(3),
        VStr('a"b\\c'),
        VUnit(),
        VList((VInt(1), VInt(2))),
        VPair(VInt(1), VStr("b")),
    ]
    for v in values:
        text = string_of(translate(S.Bracket(S.Csp(S.CspValue(v)))))
        assert text == S.pretty(value_to_literal(v))


def test_string_csp_rejects_cells():
    term = translate(parse_source("let r = ref [] in .<rset %r 0>."))
    with pytest.raises(Diagnostic) as exc:
        evaluate(term, "string")
    assert exc.value.kind is Kind.CSP_SERIALIZATION


def test_string_csp_cell_outside_the_emitted_code_is_fine():
    # The cell is persisted into code that the result does not contain.
    term = translate(parse_source("let r = ref [] in let c = .<%r>. in .<1>."))
    assert string_of(term) == "1"


def test_quote_csp_ground_becomes_literal():
    assert value_to_literal(VList((VInt(1),))) == S.Cons(S.IntLit(1), S.Nil())
    term = translate(parse_source("let y = 1 + 2 in .<%y>."))
    assert quote_of(term) == S.IntLit(3)


def test_lifting_shares_what_the_value_shares():
    # A value used twice is rebuilt once, so a lifted tree is no larger
    # than the value; a tree that copied it would double per nesting.
    v = VPair(VInt(1), VStr("s"))
    tree = value_to_literal(VPair(v, v))
    assert tree == S.Pair(S.Pair(S.IntLit(1), S.StrLit("s")), S.Pair(S.IntLit(1), S.StrLit("s")))
    assert tree.first is tree.second


@pytest.mark.parametrize("source", [".<%((fun x -> x) :: [])>.", ".<%((fun x -> x), 1)>."])
def test_persisted_list_or_pair_holding_a_function(source):
    # A function has no literal, so neither has a list or pair holding one:
    # the quote backend persists the whole value, the string backend refuses.
    term = translate(parse_source(source))
    tree = quote_of(term)
    assert isinstance(tree, S.CspValue)
    assert check_scope(QuoteCode(tree)) == [tree.value]
    with pytest.raises(Diagnostic) as exc:
        evaluate(term, "string")
    assert exc.value.kind is Kind.CSP_SERIALIZATION


def test_quote_csp_cell_is_embedded_value():
    term = translate(parse_source("let r = ref [] in .<rset %r 0>."))
    tree = quote_of(term)
    assert isinstance(tree, S.Rset)
    assert isinstance(tree.ref, S.CspValue)
    assert isinstance(tree.ref.value, VRefCell)


def test_eval_csp_shares_the_cell():
    term = translate(parse_source("let r = ref [] in .<rset %r 0>."))
    ev = evaluate(term, "eval")
    assert render_value(ev.force()) == "[0]"
    assert render_value(ev.force()) == "[0; 0]"  # same cell, mutated again


def test_check_scope_flags_open_code():
    with pytest.raises(Diagnostic) as exc:
        check_scope(QuoteCode(S.Add(S.Var("x_1"), S.IntLit(2))))
    assert exc.value.kind is Kind.SCOPE_EXTRUSION
    check_scope(QuoteCode(S.IntLit(1)))  # closed code passes


def test_extrusion_detected_on_final_result():
    for backend in ("quote", "string"):
        with pytest.raises(Diagnostic) as exc:
            evaluate(parse_term(by_name("extrusion_open_code").target), backend)
        assert exc.value.kind is Kind.SCOPE_EXTRUSION


def test_unsound_program_trips_tag_check_not_silence():
    term = translate(
        parse_source('.<let f = fun () -> %(ref []) in (rset (f ()) 2, rset (f ()) "3")>.')
    )
    ev = evaluate(term, "eval")
    with pytest.raises(Diagnostic) as exc:
        ev.force()
    assert exc.value.kind is Kind.SOUNDNESS_VIOLATION


def test_all_corpus_string_outputs_reparse():
    for entry in ENTRIES:
        if entry.source is None or entry.staged == "reject":
            continue
        term = translate(parse_source(entry.source))
        try:
            value = evaluate(term, "string").value
        except Diagnostic as diag:
            assert diag.kind is Kind.CSP_SERIALIZATION
            continue
        if isinstance(value, VCode) and isinstance(value.code, StringCode):
            parse_plain(value.code.text)


def test_no_let_insertion_while_running_generated_code():
    # A persisted closure whose body reaches for a scope at force time: that
    # scope's prompt closed with the run that built the code.
    term = c(
        "new_scope",
        S.Fun(
            "p",
            c(
                "app",
                c("csp", S.Fun("u", c("genlet", S.Var("p"), c("int", S.IntLit(1))))),
                c("int", S.IntLit(0)),
            ),
        ),
    )
    ev = evaluate(term, "eval")
    with pytest.raises(Diagnostic) as exc:
        ev.force()
    assert exc.value.kind is Kind.SCOPE_EXTRUSION
    assert exc.value.message == "prompt not active: scope already closed"


def test_no_let_insertion_from_a_right_hand_side_run_at_insertion_time():
    # Eval runs an inserted right-hand side on a fresh stack, where the
    # scope's prompt is not: the persisted closure's genlet is refused,
    # though the scope is still open.  Quote runs nothing at insertion.
    term = parse_term("new_scope (fun p -> let y = genlet p (app (csp (fun u -> genlet p (int 1))) (int 0)) in y)")
    with pytest.raises(Diagnostic) as exc:
        evaluate(term, "eval")
    assert exc.value.kind is Kind.SCOPE_EXTRUSION
    assert exc.value.message == "prompt not active: scope already closed"
    assert S.pretty(quote_of(term)) == "let t_1 = %<<fun>> 0 in t_1"


def test_generated_function_called_after_the_run_may_build_code():
    # A generated function applied after the run calls a persisted code
    # generator, which inserts a let under a prompt of its own; the code it
    # returns runs.  The same generator, itself the run's result, builds
    # code too.
    gen = "%(fun u -> .<let z = 1 in z>.)"
    ev = evaluate(translate(parse_source(f".<fun y -> {gen} y>.")), "eval")
    code = ev.call(ev.force(), VInt(0))
    assert isinstance(code, VCode)
    assert ev.execute(code.code) == VInt(1)
    ev = evaluate(translate(parse_source(f".<{gen}>.")), "eval")
    assert isinstance(ev.call(ev.force(), VInt(0)), VCode)


def test_inserted_right_hand_side_runs_as_generated_code():
    # The eval backend runs an inserted let's right-hand side at insertion
    # time; the persisted code generator it calls inserts a let of its own.
    term = translate(parse_source(".<let y = %(fun u -> .<let z = 1 in z>.) 0 in y>."))
    ev = evaluate(term, "eval")
    code = ev.force()
    assert isinstance(code, VCode)
    assert ev.execute(code.code) == VInt(1)


def test_insertion_time_forcing_limit_for_lam_dependent_lets():
    # A quoted let whose RHS mentions the enclosing quoted binder: the
    # inserted binding is forced at insertion time, when the binder's
    # dynamic variable is not yet bound.  The printing backends are
    # unaffected and still agree.
    term = translate(parse_source(".<fun x -> let y = x :: [] in y>."))
    with pytest.raises(Diagnostic) as exc:
        evaluate(term, "eval")
    assert exc.value.kind is Kind.UNBOUND_VAR
    assert "dynamic" in exc.value.message
    expected = parse_plain("fun x -> let y = (x :: []) in y")
    assert S.alpha_equal(quote_of(term), expected)
    assert S.alpha_equal(parse_plain(string_of(term)), expected)


def test_insertion_time_forcing_limit_for_a_called_generator():
    # The same limit inside a code generator that generated code calls: its
    # let reads the function's parameter, which is not yet bound when the
    # inserted binding is forced.
    gen = "%(fun u -> .<fun w -> let z = w + 1 in z + z>.)"
    ev = evaluate(translate(parse_source(f".<fun y -> {gen} y>.")), "eval")
    with pytest.raises(Diagnostic) as exc:
        ev.call(ev.force(), VInt(0))
    assert exc.value.kind is Kind.UNBOUND_VAR
    assert "dynamic" in exc.value.message


def _python_calls(f, *args):
    """How many Python function calls `f(*args)` makes, itself included."""
    calls = 0

    def count(frame, event, _):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        f(*args)
    finally:
        sys.setprofile(None)
    return calls


def _balanced_text(depth):
    """A balanced `+` tree of the given depth, `2 ** depth - 1` nodes."""
    text = "1"
    for _ in range(depth):
        text = f"({text} + {text})"
    return text


def _balanced_sum(depth):
    """The translation of a quoted balanced `+` tree of the given depth."""
    return translate(parse_source(f".<{_balanced_text(depth)}>."))


def _quote_calls_and_nodes(depth):
    """Python calls made by quote codegen of a balanced `+` tree of the
    given depth, and the `Comb` nodes of its translation."""
    term = _balanced_sum(depth)
    nodes, stack = 0, [term]
    while stack:
        e = stack.pop()
        nodes += type(e) is S.Comb
        stack += [kid for kid in S.children(e) if isinstance(kid, S.Expr)]
    return _python_calls(evaluate, term, "quote"), nodes


def test_quote_codegen_builds_each_combinator_node_in_a_few_calls():
    # The machine builds a node combinator's node itself, and an `int 1`
    # operand is the literal it is applied to, read with no frame: about 4
    # calls a node, and linear in the tree.
    small, small_nodes = _quote_calls_and_nodes(5)
    large, large_nodes = _quote_calls_and_nodes(7)
    assert (small_nodes, large_nodes) == (63, 255)
    assert small <= 4.3 * small_nodes and large <= 4.3 * large_nodes, (small, large)
    assert large <= 4.2 * small, (small, large)


@pytest.mark.parametrize("n", [25, 100])
def test_quote_codegen_inserts_each_quoted_let_in_a_few_calls(n):
    # Each quoted let opens a scope on a literal `fun` and inserts one let,
    # which joins the scope's list: no capture, and about 33 calls a let.
    lets = "".join(f"let x{i} = x{i - 1} + 1 in " for i in range(1, n))
    term = translate(parse_source(f".<let x0 = 1 in {lets}x{n - 1}>."))
    calls = _python_calls(evaluate, term, "quote")
    assert calls <= 34 * n, calls


def test_translate_reads_emitted_code_back_with_no_call_per_node():
    # `translate` proves an emitted tree plain through C getters, and
    # skips its 32 or 128 literal leaves without a call.
    small, large = (_python_calls(translate, quote_of(_balanced_sum(d))) for d in (5, 7))
    assert small == large <= 3, (small, large)


def test_scope_check_of_emitted_code_makes_no_call_per_node():
    small, large = (_python_calls(check_scope, QuoteCode(quote_of(_balanced_sum(d)))) for d in (5, 7))
    assert small == large <= 3, (small, large)


def test_fresh_cells_per_force_for_generated_thunks():
    term = translate(
        parse_source('.<let f = fun () -> ref [] in (rset (f ()) 2, rset (f ()) "3")>.')
    )
    ev = evaluate(term, "eval")
    assert render_value(ev.force()) == '([2], ["3"])'
