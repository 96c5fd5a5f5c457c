import sys

import pytest

from polylet import parser
from polylet import syntax as S
from polylet.diagnostics import Diagnostic, Kind, location
from polylet.parser import parse_plain, parse_source, parse_term, tokenize
from polylet.unstage import translate
from test_backends import _balanced_text, _python_calls


def test_bracketed_addition():
    assert parse_source(".<1 + 2>.") == S.Bracket(S.Add(S.IntLit(1), S.IntLit(2)))


def test_toplevel_escape_is_rejected():
    with pytest.raises(Diagnostic) as exc:
        parse_source(".~x")
    assert exc.value.kind is Kind.PARSE_ERROR
    assert "level 0" in exc.value.message


def test_quoted_polymorphic_let_structure():
    e = parse_source('.<let x = [] in (2::x,"3"::x)>.')
    assert e == S.Bracket(
        S.Let(
            "x",
            S.Nil(),
            S.Pair(
                S.Cons(S.IntLit(2), S.Var("x")),
                S.Cons(S.StrLit("3"), S.Var("x")),
            ),
        )
    )


def test_nested_bracket_rejected():
    with pytest.raises(Diagnostic) as exc:
        parse_source(".< .<1>. >.")
    assert "nested bracket" in exc.value.message


def test_bracket_inside_escape_accepted():
    e = parse_source(".<fun x -> .~(let body = .<x>. in .<fun x -> .~body>.)>.")
    inner = S.Let("body", S.Bracket(S.Var("x")), S.Bracket(S.Fun("x", S.Escape(S.Var("body")))))
    assert e == S.Bracket(S.Fun("x", S.Escape(inner)))


def test_precedence_application_cons_add():
    # application > :: > +
    e = parse_plain("f 1 :: g 2 + 3")
    # (f 1) :: ((g 2) + 3)  -- wait: :: binds tighter than +, so this is
    # ((f 1) :: (g 2)) + 3; spell the expectation out explicitly.
    assert e == S.Add(
        S.Cons(S.App(S.Var("f"), S.IntLit(1)), S.App(S.Var("g"), S.IntLit(2))),
        S.IntLit(3),
    )


def test_cons_right_associative():
    e = parse_plain("1 :: 2 :: []")
    assert e == S.Cons(S.IntLit(1), S.Cons(S.IntLit(2), S.Nil()))


def test_add_left_associative():
    e = parse_plain("1 + 2 + 3")
    assert e == S.Add(S.Add(S.IntLit(1), S.IntLit(2)), S.IntLit(3))


def test_plain_let_fun_round():
    e = parse_plain("let t_1 = (1 + 2) in fun x_1 -> (x_1 + t_1)")
    assert isinstance(e, S.Let)
    assert isinstance(e.body, S.Fun)


def test_plain_rejects_staging_forms():
    for text in (".<1>.", "fun x -> .~x", "%r"):
        with pytest.raises(Diagnostic) as exc:
            parse_plain(text)
        assert exc.value.kind is Kind.PARSE_ERROR


def test_term_reads_back_the_readme_translation():
    text = (
        "new_scope (fun p_1 -> let y = genlet p_1 (add (int 1) (int 2)) in "
        "lam (fun x -> add x y))"
    )
    assert parse_term(text) == translate(parse_source(".<let y = 1 + 2 in fun x -> x + y>."))


def test_term_rejects_staging_forms_as_plain_input_does():
    for text in (".<1>.", "fun x -> .~x", "%r"):
        with pytest.raises(Diagnostic) as plain:
            parse_plain(text)
        with pytest.raises(Diagnostic) as term:
            parse_term(text)
        assert term.value.kind is Kind.PARSE_ERROR
        assert (term.value.message, term.value.location) == (
            plain.value.message,
            plain.value.location,
        )


def test_term_combinator_needs_its_arguments():
    one = S.Comb("int", (S.IntLit(1),))
    assert parse_term("add (int 1)") == S.App(S.Var("add"), one)
    assert parse_term("int") == S.Var("int")
    assert parse_term("f nil") == S.App(S.Var("f"), S.Comb("nil", ()))
    # Further arguments apply to the combinator, as `pretty` prints them.
    over = S.App(S.Comb("csp", (S.Var("f"),)), S.IntLit(1))
    assert S.pretty(over) == "csp f 1"
    assert parse_term("csp f 1") == over


def test_plain_parses_inlined_identity_output():
    e = parse_plain('((fun x_2 -> x_2) 1, (fun x_1 -> x_1) "3")')
    assert isinstance(e, S.Pair)
    assert isinstance(e.first, S.App)
    assert isinstance(e.second, S.App)
    assert isinstance(e.first.fn, S.Fun)


def test_unit_binder_and_unit_literal():
    e = parse_source("let f = fun () -> ref [] in f ()")
    assert isinstance(e, S.Let)
    assert isinstance(e.rhs, S.Fun)
    assert e.rhs.param == S.UNIT_BINDER
    assert e.body == S.App(S.Var("f"), S.Unit())


def test_csp_marker_levels():
    staged = parse_source(".<rset %r 0>.")
    assert isinstance(staged.body, S.Rset)
    assert isinstance(staged.body.ref, S.Csp)
    lifted = parse_source("%(ref [])")  # present-stage lift into code
    assert lifted == S.Csp(S.RefNew(S.Nil()))


def test_comments_nest():
    e = parse_source("(* one (* two *) still comment *) 1 + 1")
    assert e == S.Add(S.IntLit(1), S.IntLit(1))


def test_string_escapes():
    e = parse_plain('"a\\"b\\\\c"')
    assert e == S.StrLit('a"b\\c')


def test_diagnostics_carry_locations_inside_input():
    bad_inputs = ["let x = in x", "(1, 2", '.<let x = >.', "1 + + 2", "fun -> x"]
    for text in bad_inputs:
        with pytest.raises(Diagnostic) as exc:
            parse_source(text)
        loc = exc.value.location
        assert loc is not None, text
        assert 0 <= loc.offset <= len(text)
        assert loc.line >= 1 and loc.column >= 1
        assert exc.value.render("f.pml").startswith("f.pml:")


def test_trailing_input_rejected():
    with pytest.raises(Diagnostic) as exc:
        parse_source("1 + 2 )")
    assert exc.value.kind is Kind.PARSE_ERROR
    assert "trailing" in exc.value.message


def test_tokenizer_positions():
    text = "let x =\n  1"
    toks = tokenize(text)
    first, last = location(text, toks[0][3]), location(text, toks[-2][3])
    assert first.line == 1 and first.column == 1
    assert last.line == 2 and last.column == 3


def test_escape_binds_tightly():
    e = parse_source(".<.~f 1>.")
    assert e.body == S.App(S.Escape(S.Var("f")), S.IntLit(1))


@pytest.mark.parametrize(
    "text, expected",
    [("٣", S.IntLit(3)), ("é", S.Var("é")), ("x²", S.Var("x²")), ("1 + ٣٤", S.Add(S.IntLit(1), S.IntLit(34)))],
)
def test_unicode_digits_and_letters(text, expected):
    assert parse_source(text) == expected


@pytest.mark.parametrize(
    "text, char, where",
    [("²", "²", "1:1"), ("1²", "²", "1:2"), (".<1 + ²>.", "²", "1:7"), ("x\n ½", "½", "2:2")],
)
def test_numerals_that_are_not_decimal_digits_are_rejected(text, char, where):
    # `²` is `isdigit()` but not a decimal digit, and `½` is neither.
    with pytest.raises(Diagnostic) as exc:
        parse_source(text)
    assert exc.value.kind is Kind.PARSE_ERROR
    assert exc.value.message == f"unexpected character {char!r}"
    assert str(exc.value.location) == where


@pytest.mark.parametrize(
    "text, expected",
    [
        ('(* c *) "a\\\\b"', S.StrLit("a\\b")),
        ('"(*"', S.StrLit("(*")),
        ('fun x "a\\"b"', "1:7: expected '->', found '\"a\"b\"'"),
        (") ²", "1:3: unexpected character '²'"),  # a lexical error beats an earlier syntax error
        ("(" * 2000 + "²", "1:2001: unexpected character '²'"),  # and a too deep nesting
        ("9" * 5000 + " )", f"1:1: integer literal has more than {sys.get_int_max_str_digits()} digits"),
        ('(* "*) *) 1', "1:8: unexpected character '*'"),  # comments ignore string quotes
    ],
    ids=["comment-then-backslash", "string-holding-(*", "found-string", "lexical-first", "lexical-before-depth",
         "integer-limit", "quote-in-comment"],
)  # fmt: skip
def test_parse_outcomes_at_the_default_recursion_limit(text, expected):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        e = parse_source(text)
    except Diagnostic as diag:
        assert diag.kind is Kind.PARSE_ERROR
        e = f"{diag.location}: {diag.message}"
    finally:
        sys.setrecursionlimit(limit)
    assert e == expected


def _chain_length(e, cls, child):
    """How many `cls` nodes lead from `e` along the field `child`, and the
    node after them; a loop, so depth costs no recursion."""
    n = 0
    while isinstance(e, cls):
        e, n = getattr(e, child), n + 1
    return n, e


def test_long_chains_parse_at_the_default_recursion_limit():
    n = 100_000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        lets = parse_source("let x = 1 in " * n + "x")
        funs = parse_source(".<" + "fun x -> " * n + "x>.").body
        conses = parse_plain("1 :: " * n + "[]")
    finally:
        sys.setrecursionlimit(limit)
    assert _chain_length(lets, S.Let, "body") == (n, S.Var("x"))
    assert _chain_length(funs, S.Fun, "body") == (n, S.Var("x"))
    assert _chain_length(conses, S.Cons, "tail") == (n, S.Nil())


@pytest.mark.parametrize("parse", [parse_source, parse_plain])
def test_deep_nesting_parses_at_the_default_recursion_limit(parse):
    # A level of parenthesised nesting takes one frame, `expr`.
    n = 900
    texts = ["(1 + " * n + "1" + ")" * n, "(" * n + "1" + ")" * n, "(1, " * n + "1" + ")" * n]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        sums, parens, pairs = map(parse, texts)
    finally:
        sys.setrecursionlimit(limit)
    assert _chain_length(sums, S.Add, "right") == (n, S.IntLit(1))
    assert parens == S.IntLit(1)
    assert _chain_length(pairs, S.Pair, "second") == (n, S.IntLit(1))


def test_parser_makes_a_few_calls_per_node():
    # A parenthesised `+` node costs the inner `expr` and the `Add` and
    # `IntLit` records; a quoted let, its right-hand side's `expr` and
    # `expect('=')`, and its four records.
    for depth in (5, 7):
        calls = _python_calls(parse_plain, _balanced_text(depth))
        assert calls <= 3.2 * (2**depth - 1), (depth, calls)
    for n in (25, 100):
        lets = "".join(f"let x{i} = x{i - 1} + 1 in " for i in range(1, n))
        calls = _python_calls(parse_source, f".<let x0 = 1 in {lets}x{n - 1}>.")
        assert calls <= 7 * n, (n, calls)


def test_too_deep_nesting_is_a_resource_limit_at_the_default_recursion_limit():
    lets = "".join(f"let x{i} = {f'x{i - 1} + 1' if i else '1'} in " for i in range(300))
    term_text = S.pretty(translate(parse_source(f".<{lets}x299>.")))
    cases = [(parse_term, term_text), (parse_source, "(1 + " * 1_000 + "1" + ")" * 1_000)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for parse, text in cases:
            with pytest.raises(Diagnostic) as exc:
                parse(text)
            assert exc.value.kind is Kind.RESOURCE_LIMIT
            assert exc.value.message == "nesting exceeds the recursion limit (1000)"
            # The parse stopped at a token inside the nesting.
            assert exc.value.location.line == 1 and 1 < exc.value.location.column < len(text)
    finally:
        sys.setrecursionlimit(limit)


def test_locations_are_built_only_for_diagnostics(monkeypatch):
    built = []

    def counting(text, offset):
        built.append(offset)
        return location(text, offset)

    monkeypatch.setattr(parser, "location", counting)
    parse_source('(* a (* nested *) comment *)\n.<let f = fun () -> ref [] in\n  (rset (f ()) 2, "s\\n")>.')
    assert built == []
    for text in ("let x = in x", "(1 + ²)", "(* open", '"open'):
        with pytest.raises(Diagnostic):
            parse_source(text)
        assert len(built) == 1, text
        built.clear()
