import gc
import os
import random
import subprocess
import sys

import pytest

from polylet import syntax as S
from polylet import typecheck, typesys
from polylet.corpus import ENTRIES, by_name
from polylet.difftest import random_bracket_program
from polylet.diagnostics import Diagnostic, Kind
from polylet.parser import parse_source, parse_term
from polylet.typecheck import (
    GenPolicy,
    generalize,
    infer_host,
    infer_staged,
    is_nonexpansive,
    is_syntactic_value,
)
from polylet.typesys import (
    INT,
    STR,
    TPair,
    TArrow,
    TCode,
    TList,
    TFunScope,
    TRef,
    TScope,
    TVar,
    TypeEnv,
    free_type_vars,
    monotype,
    render_scheme,
)
from polylet.unstage import translate
from test_backends import _balanced_sum, _python_calls


def staged_scheme(text, policy=GenPolicy.RELAXED):
    return infer_staged(TypeEnv(), parse_source(text), policy=policy)


def staged_rejects(text, policy=GenPolicy.RELAXED):
    with pytest.raises(Diagnostic) as exc:
        staged_scheme(text, policy)
    assert exc.value.kind in (Kind.TYPE_ERROR, Kind.UNBOUND_VAR)
    return exc.value


# --- variance ---------------------------------------------------------------


def test_variance_list_covariant():
    v = TVar()
    assert free_type_vars(TList(v)) == {v: False}


def test_variance_ref_invariant():
    v = TVar()
    assert free_type_vars(TRef(v)) == {v: True}


def test_variance_code_of_endo_arrow_invariant():
    v = TVar()
    assert free_type_vars(TCode(TArrow(v, v))) == {v: True}


def test_variance_absent_unused():
    v = TVar()
    assert v not in free_type_vars(INT)


def test_variance_arrow_argument_contravariant():
    v = TVar()
    assert free_type_vars(TArrow(v, INT)) == {v: True}
    assert free_type_vars(TArrow(TArrow(v, INT), INT)) == {v: False}


# --- syntactic classes -------------------------------------------------------


def test_nonexpansive_thunk():
    assert is_nonexpansive(parse_source("fun () -> ref []"))


def test_ref_alloc_expansive():
    assert not is_nonexpansive(parse_source("ref []"))


def test_pair_of_literals_nonexpansive():
    assert is_nonexpansive(parse_source("(1, [])"))
    assert is_syntactic_value(parse_source("(1, [])"))


def test_bracket_nonexpansive_but_not_strict_value():
    e = parse_source(".<1 + 2>.")
    assert is_nonexpansive(e)
    assert not is_syntactic_value(e)


# --- generalization policies --------------------------------------------------


def test_generalize_value_list():
    v = TVar()
    s = generalize(TList(v), TypeEnv(), True, GenPolicy.STRICT_VALUE)
    assert len(s.quantified) == 1


def test_generalize_relaxed_covariant_code():
    v = TVar()
    s = generalize(TCode(TList(v)), TypeEnv(), False, GenPolicy.RELAXED)
    assert len(s.quantified) == 1


def test_generalize_relaxed_rejects_invariant_ref():
    v = TVar()
    s = generalize(TCode(TRef(TList(v))), TypeEnv(), False, GenPolicy.RELAXED)
    assert s.quantified == ()


def test_generalize_relaxed_rejects_endo_arrow():
    v = TVar()
    s = generalize(TCode(TArrow(v, v)), TypeEnv(), False, GenPolicy.RELAXED)
    assert s.quantified == ()


def test_generalize_env_vars_excluded():
    v = TVar()
    env = TypeEnv()
    env.bind("y", 0, monotype(TList(v)))
    s = generalize(TList(v), env, True, GenPolicy.RELAXED)
    assert s.quantified == ()


def test_value_tests_walk_deep_trees_without_python_recursion():
    values = S.Nil()
    for i in range(100_000):
        values = S.Cons(S.IntLit(i), values)
    lets = S.Let("x", S.Csp(values), S.Var("x"))
    for i in range(100_000):
        lets = S.Let(f"x{i}", S.Pair(S.Var("x"), S.Comb("nil", ())), lets)
    assert is_syntactic_value(values) and is_nonexpansive(lets)
    assert not is_nonexpansive(S.Let("y", S.App(S.Var("f"), S.Unit()), lets))
    assert not is_nonexpansive(S.Let("y", S.IntLit(1), S.Pair(lets, S.RefNew(S.Unit()))))


# --- the environment ----------------------------------------------------------


def _scope(env):
    return env.depth, {name: list(stack) for name, stack in env.table.items() if stack}


def test_shadowing_then_unbind_restores_the_outer_binding():
    env = TypeEnv()
    outer, inner = monotype(INT), monotype(STR)
    env.bind("x", 0, outer)
    env.bind("y", 0, inner)
    env.bind("x", 1, inner)
    assert env.lookup("x") == (1, inner)
    assert env.depth == 3
    env.unbind("x")
    assert env.lookup("x") == (0, outer)
    assert env.depth == 2
    env.unbind("y")
    env.unbind("x")
    assert env.lookup("x") is None
    assert _scope(env) == (0, {})


@pytest.mark.parametrize(
    "text",
    [
        "fun y -> let x = y in let f = fun x -> x in f x",
        "fun y -> let x = y in let f = fun x -> x x in f",
        "let x = 1 in fun y -> .<let z = 2 in z + nope>.",
        "let x = 1 in fun y -> .<let z = 2 in z + x>.",
    ],
)
def test_inference_leaves_the_callers_environment_as_it_was(text):
    # Each program binds names in scopes of its own, and the last three
    # raise inside them.
    e = parse_source(text)
    for infer, tree in ((infer_staged, e), (infer_host, translate(e))):
        env = TypeEnv()
        env.bind("x", 0, monotype(STR))
        env.bind("w", 0, monotype(TVar()))
        before = _scope(env)
        try:
            infer(env, tree)
        except Diagnostic:
            pass
        assert _scope(env) == before


def _node_classes():
    gc.collect()  # `dataclass(slots=True)` leaves the class it replaced
    out, todo = set(), [S.Expr]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        out.add(cls)
    return out - {S.Expr}


def test_rule_table_covers_every_node_kind():
    assert set(typecheck._INFER) == _node_classes()


# --- staged inference ---------------------------------------------------------


def test_quoted_add_scheme():
    assert render_scheme(staged_scheme(".<1 + 2>.")) == "int code"


def test_quoted_ref_let_rejected():
    staged_rejects('.<let x = ref [] in (rset x 2, rset x "3")>.')


def test_hand_built_nested_bracket_rejected():
    # The parser refuses this tree; one built by hand must still not type.
    e = S.Bracket(S.Bracket(S.IntLit(1)))
    with pytest.raises(Diagnostic) as exc:
        infer_staged(TypeEnv(), e)
    assert exc.value.kind is Kind.TYPE_ERROR
    assert "nested bracket" in exc.value.message


def test_thunked_ref_accepted_with_scheme():
    s = staged_scheme('.<let f = fun () -> ref [] in (rset (f ()) 2, rset (f ()) "3")>.')
    assert render_scheme(s) == "(int list * string list) code"


def test_unsound_csp_ref_accepted_with_same_scheme():
    s = staged_scheme('.<let f = fun () -> %(ref []) in (rset (f ()) 2, rset (f ()) "3")>.')
    assert render_scheme(s) == "(int list * string list) code"


def test_unbound_variable_diag():
    with pytest.raises(Diagnostic) as exc:
        staged_scheme(".<nope>.")
    assert exc.value.kind is Kind.UNBOUND_VAR


def test_level_mismatch_present_var_in_quote():
    diag = staged_rejects("let y = 1 in .<y>.")
    assert "level" in diag.message


def test_level_mismatch_future_var_escaped():
    diag = staged_rejects(".<fun z -> .~z>.")
    assert "level" in diag.message


def test_csp_lifts_level_zero_values():
    s = staged_scheme("let y = 1 in .<%y>.")
    assert render_scheme(s) == "int code"
    lifted = staged_scheme("%(ref [])")
    # lift at the present stage: 'a list ref code with 'a not generalizable
    assert render_scheme(lifted).endswith("list ref code")


def test_polymorphic_identity_generalizes():
    s = staged_scheme("fun x -> x")
    assert render_scheme(s) == "'a -> 'a"
    assert len(s.quantified) == 1


# --- host inference -------------------------------------------------------------


def host_scheme(term):
    return infer_host(TypeEnv(), term)


def test_host_accepts_genlet_nil_translation():
    term = translate(parse_source('.<let x = [] in (2::x, "3"::x)>.'))
    assert render_scheme(host_scheme(term), "cod") == "(int list * string list) cod"


def test_host_rejects_genlet_ref_translation():
    term = translate(parse_source('.<let x = ref [] in (rset x 2, rset x "3")>.'))
    with pytest.raises(Diagnostic):
        host_scheme(term)


def test_host_rejects_plain_genlet_of_function():
    entry = by_name("genlet_id_monomorphic")
    with pytest.raises(Diagnostic):
        host_scheme(parse_term(entry.target))


def test_host_accepts_memoized_function_translation():
    term = translate(parse_source('.<let f = fun x -> x in (f 2, f "3")>.'))
    assert render_scheme(host_scheme(term), "cod") == "(int * string) cod"


def test_host_accepts_unsound_csp_translation():
    term = translate(
        parse_source('.<let f = fun () -> %(ref []) in (rset (f ()) 2, rset (f ()) "3")>.')
    )
    assert render_scheme(host_scheme(term), "cod") == "(int list * string list) cod"


def test_host_rejects_villain_translation():
    term = translate(
        parse_source('.<let f = (let r = ref [] in fun x -> rset r x) in (f 1, f "3")>.')
    )
    with pytest.raises(Diagnostic):
        host_scheme(term)


def test_host_genlet_less_scope_accepts():
    # A zero-arity combinator is a constant, hence generalizable.
    term = parse_term(by_name("scope_no_genlet").target)
    assert render_scheme(host_scheme(term), "cod") == "(int list * string list) cod"


def test_weak_variables_print_by_first_appearance():
    # The names must not depend on how many variables the process made.
    term = translate(parse_source(".<fun x -> fun y -> x>."))
    renders = [render_scheme(host_scheme(term), "cod") for _ in range(3)]
    assert renders == ["('_1 -> '_2 -> '_1) cod"] * 3


def test_unification_messages_name_variables_by_first_appearance():
    # Both sides share one name table, and the names must not depend on
    # what the process inferred before.
    staged_scheme('let f = fun x -> x in (f 1, f "a")')
    err = staged_rejects("fun x -> x x")
    assert err.message == "occurs check: cannot construct infinite type '_1 = '_1 -> '_2"
    err = staged_rejects("fun x -> fun y -> (x y, y x)")
    assert err.message == "occurs check: cannot construct infinite type '_1 = ('_1 -> '_2) -> '_3"
    err = staged_rejects("(fun x -> x) :: (1 :: [])")
    assert err.message == "cannot unify int with '_1 -> '_1"


def test_host_rejects_over_applied_combinator():
    with pytest.raises(Diagnostic) as exc:
        host_scheme(S.Comb("int", (S.IntLit(1), S.IntLit(2))))
    assert exc.value.kind is Kind.TYPE_ERROR


# An ill-typed host term for each argument position that can be one (a
# `csp` takes any argument), and for each binder's result, with the message
# unifying the argument with its parameter type gives.
HOST_DIAGNOSTICS = [
    ('int "a"', "cannot unify int with string"),
    ("str 1", "cannot unify string with int"),
    ('add (str "a") (int 1)', "cannot unify int with string"),
    ('add (int 1) (str "a")', "cannot unify int with string"),
    ("lam (int 1)", "cannot unify '_1 code -> '_2 code with int code"),
    ("lam (fun x -> 1)", "cannot unify '_1 code with int"),
    ("app (int 1) (int 2)", "cannot unify '_1 -> '_2 with int"),
    ("app (lam (fun x -> x)) 1", "cannot unify '_1 code with int"),
    ("pair 1 (int 2)", "cannot unify '_1 code with int"),
    ("pair (int 1) 2", "cannot unify '_1 code with int"),
    ("cons 1 nil", "cannot unify '_1 code with int"),
    ("cons (int 1) (int 2)", "cannot unify int list with int"),
    ('cons (int 1) (cons (str "a") nil)', "cannot unify int with string"),
    ("ref_ 1", "cannot unify '_1 code with int"),
    ("rget (int 1)", "cannot unify '_1 ref with int"),
    ("rget 1", "cannot unify '_1 ref code with int"),
    ("rset_ (int 1) (int 2)", "cannot unify '_1 list ref with int"),
    ("rset_ (ref_ (int 1)) (int 2)", "cannot unify '_1 list with int"),
    ("rset_ (ref_ nil) 1", "cannot unify '_1 code with int"),
    ('rset_ (ref_ (cons (int 1) nil)) (str "a")', "cannot unify int with string"),
    ("new_scope (int 1)", "cannot unify '_1 scope -> '_1 code with int code"),
    ("new_scope (fun p -> 1)", "cannot unify '_1 code with int"),
    ("genlet (int 1) (int 2)", "cannot unify '_1 scope with int code"),
    ("new_scope (fun p -> genlet p 1)", "cannot unify '_1 code with int"),
    ("genlet (new_funscope (fun p -> p)) (int 2)", "cannot unify '_1 code with '_1 funscope"),
    ("new_funscope (int 1)", "cannot unify '_1 funscope -> '_1 code with int code"),
    ("new_funscope (fun p -> 1)", "cannot unify '_1 code with int"),
    ("genletfun (int 1) (fun x -> x)", "cannot unify '_1 funscope with int code"),
    ("new_funscope (fun p -> genletfun p (int 1))", "cannot unify '_1 code -> '_2 code with int code"),
    ("new_funscope (fun p -> genletfun p (fun x -> 1))", "cannot unify '_1 code with int"),
    # A scope's answer type is its body's: neither can hold the scope.
    ("new_scope (fun p -> csp (fun u -> p))", "occurs check: cannot construct infinite type '_1 = '_2 -> '_1 scope"),
    ("new_funscope (fun p -> csp (fun u -> p))", "occurs check: cannot construct infinite type '_1 = '_2 -> '_1 funscope"),
]


@pytest.mark.parametrize("text, message", HOST_DIAGNOSTICS, ids=[text for text, _ in HOST_DIAGNOSTICS])
def test_host_diagnostic_of_an_ill_typed_combinator_argument(text, message):
    with pytest.raises(Diagnostic) as exc:
        host_scheme(parse_term(text))
    assert (exc.value.kind, exc.value.message) == (Kind.TYPE_ERROR, message)


# Each combinator's arity and library type, as the host scheme of
# `fun x1 -> ... -> comb x1 ... xn`.
COMB_TYPES = {
    "int": (1, "int -> int cod"),
    "str": (1, "string -> string cod"),
    "add": (2, "int cod -> int cod -> int cod"),
    "lam": (1, "('a cod -> 'b cod) -> ('a -> 'b) cod"),
    "app": (2, "('a -> 'b) cod -> 'a cod -> 'b cod"),
    "pair": (2, "'a cod -> 'b cod -> ('a * 'b) cod"),
    "nil": (0, "'a list cod"),
    "cons": (2, "'a cod -> 'a list cod -> 'a list cod"),
    "ref_": (1, "'a cod -> 'a ref cod"),
    "rget": (1, "'a ref cod -> 'a cod"),
    "rset_": (2, "'a list ref cod -> 'a cod -> 'a list cod"),
    "csp": (1, "'a -> 'a cod"),
    "new_scope": (1, "('a scope -> 'a cod) -> 'a cod"),
    "genlet": (2, "'a scope -> 'b cod -> 'b cod"),
    "new_funscope": (1, "('a funscope -> 'a cod) -> 'a cod"),
    "genletfun": (2, "'a funscope -> ('b cod -> 'c cod) -> ('b -> 'c) cod"),
}


# The library types, built per use over fresh variables: a and b for code
# types, w for a scope's answer type.  Typed along its arrow spine, each is
# the reference that the checker's combinator rules are held to.
LIBRARY_TYPES = {
    "int": lambda a, b, w: TArrow(INT, TCode(INT)),
    "str": lambda a, b, w: TArrow(STR, TCode(STR)),
    "add": lambda a, b, w: TArrow(TCode(INT), TArrow(TCode(INT), TCode(INT))),
    "lam": lambda a, b, w: TArrow(TArrow(TCode(a), TCode(b)), TCode(TArrow(a, b))),
    "app": lambda a, b, w: TArrow(TCode(TArrow(a, b)), TArrow(TCode(a), TCode(b))),
    "pair": lambda a, b, w: TArrow(TCode(a), TArrow(TCode(b), TCode(TPair(a, b)))),
    "nil": lambda a, b, w: TCode(TList(a)),
    "cons": lambda a, b, w: TArrow(TCode(a), TArrow(TCode(TList(a)), TCode(TList(a)))),
    "ref_": lambda a, b, w: TArrow(TCode(a), TCode(TRef(a))),
    "rget": lambda a, b, w: TArrow(TCode(TRef(a)), TCode(a)),
    "rset_": lambda a, b, w: TArrow(TCode(TRef(TList(a))), TArrow(TCode(a), TCode(TList(a)))),
    "csp": lambda a, b, w: TArrow(a, TCode(a)),
    "new_scope": lambda a, b, w: TArrow(TArrow(TScope(w), TCode(w)), TCode(w)),
    "genlet": lambda a, b, w: TArrow(TScope(w), TArrow(TCode(a), TCode(a))),
    "new_funscope": lambda a, b, w: TArrow(TArrow(TFunScope(w), TCode(w)), TCode(w)),
    "genletfun": lambda a, b, w: TArrow(TFunScope(w), TArrow(TArrow(TCode(a), TCode(b)), TCode(TArrow(a, b)))),
}


def _reference_comb(env, e, level, policy):
    """A combinator application typed along its library type's arrow spine:
    each argument is unified with the next parameter of a fresh instance."""
    ty = LIBRARY_TYPES[e.name](TVar(), TVar(), TVar())
    for arg in e.args:
        arg_ty = typecheck._INFER[type(arg)](env, arg, level, policy)
        if type(ty) is not TArrow:  # over-applied: raises a type error
            typesys.unify(ty, TArrow(arg_ty, TVar()))
        typesys.unify(ty.arg, arg_ty)
        ty = ty.result
    return ty


def test_combinator_table_covers_every_combinator():
    # The parser's arity table, this table, the reference's library types
    # and the checker's rules agree: the same names, and one arrow on a
    # library type's spine per argument.
    assert {name: arity for name, (arity, _) in COMB_TYPES.items()} == S.COMB_ARITY
    assert typecheck._COMB_RULES.keys() == LIBRARY_TYPES.keys() == S.COMB_ARITY.keys()
    for name, arity in S.COMB_ARITY.items():
        ty = LIBRARY_TYPES[name](TVar(), TVar(), TVar())
        arrows = 0
        while isinstance(ty, TArrow):
            arrows, ty = arrows + 1, ty.result
        assert arrows == arity, name


@pytest.mark.parametrize("name", sorted(COMB_TYPES))
def test_combinator_library_type(name):
    arity, expected = COMB_TYPES[name]
    params = [f"x{i}" for i in range(1, arity + 1)]
    term = S.comb(name, *map(S.Var, params))
    for p in reversed(params):
        term = S.Fun(p, term)
    assert render_scheme(host_scheme(term), "cod") == expected


def _subterms(e):
    out, stack = [], [e]
    while stack:
        out.append(x := stack.pop())
        stack += S.children(x)
    return out


def _replace(e, old, new):
    """e with the subterm `old` (by identity) replaced by `new`."""
    if e is old:
        return new
    kids = S.children(e)
    return S.rebuild(e, [_replace(kid, old, new) for kid in kids]) if kids else e


def _host_outcomes(terms):
    """For each term and policy, the rendered host scheme, or the kind of
    the diagnostic that rejects it."""
    out = []
    for term in terms:
        for policy in GenPolicy:
            try:
                out.append(render_scheme(infer_host(TypeEnv(), term, policy), "cod"))
            except Diagnostic as d:
                out.append(d.kind)
    return out


def test_combinator_rules_type_as_the_library_types_do(monkeypatch):
    # The translations of the corpus and of random programs, and each with
    # one subterm put in another's place, which makes about a quarter of
    # them ill-typed: the rules give the spine walk's verdict, scheme and
    # kind.
    rng = random.Random(0)
    terms = [translate(parse_source(e.source)) for e in ENTRIES if e.source is not None]
    terms += [parse_term(e.target) for e in ENTRIES if e.target is not None]
    terms += [translate(random_bracket_program(rng)) for _ in range(1000)]
    for term in terms[:]:
        subterms = _subterms(term)
        terms.append(_replace(term, rng.choice(subterms), rng.choice(subterms)))
    assert len(terms) >= 2000
    rules = _host_outcomes(terms)
    monkeypatch.setitem(typecheck._INFER, S.Comb, _reference_comb)
    assert rules == _host_outcomes(terms)
    kinds = {o: rules.count(o) for o in (Kind.TYPE_ERROR, Kind.UNBOUND_VAR)}
    assert min(kinds.values()) >= 100 and sum(kinds.values()) >= len(rules) // 8, kinds


def test_host_rejects_under_applied_combinator():
    with pytest.raises(Diagnostic) as exc:
        host_scheme(S.Comb("add", (S.comb("int", S.IntLit(1)),)))
    assert (exc.value.kind, exc.value.message) == (Kind.TYPE_ERROR, "combinator add takes 2 arguments, given 1")


def test_host_inference_makes_a_few_calls_per_quoted_let_and_per_node():
    # Each combinator is typed by its own rule, and an argument whose type
    # has the parameter's constructor is read without unifying: 65 calls a
    # let and 200 and 776 calls for the sums under the spine walk.
    assert _python_calls(host_scheme, translate(parse_source(_let_chain(100)))) <= 45 * 100
    assert _python_calls(host_scheme, _balanced_sum(5)) <= 200
    assert _python_calls(host_scheme, _balanced_sum(7)) <= 776


# --- policy ordering and stability ---------------------------------------------


MONOTONE_SAMPLES = [
    "let x = [] in (2 :: x, \"3\" :: x)",
    "let x = (let note = \"prepared\" in []) in (2 :: x, \"3\" :: x)",
    "let x = (let r = ref [] in !r) in (2 :: x, \"3\" :: x)",
    ".<let f = fun x -> x in (f 2, f \"3\")>.",
    "let x = ref [] in (rset x 2, rset x \"3\")",
]


def _accepts(text, policy):
    try:
        staged_scheme(text, policy)
        return True
    except Diagnostic:
        return False


def test_policy_monotonicity():
    order = (GenPolicy.STRICT_VALUE, GenPolicy.NON_EXPANSIVE, GenPolicy.RELAXED)
    for text in MONOTONE_SAMPLES:
        verdicts = [_accepts(text, p) for p in order]
        for weaker, stronger in zip(verdicts, verdicts[1:]):
            assert not weaker or stronger, (text, verdicts)


def test_policies_differ_where_expected():
    relaxed_only = 'let x = (let r = ref [] in !r) in (2 :: x, "3" :: x)'
    assert not _accepts(relaxed_only, GenPolicy.STRICT_VALUE)
    assert not _accepts(relaxed_only, GenPolicy.NON_EXPANSIVE)
    assert _accepts(relaxed_only, GenPolicy.RELAXED)
    nonexpansive_up = 'let x = (let note = "p" in []) in (2 :: x, "3" :: x)'
    assert not _accepts(nonexpansive_up, GenPolicy.STRICT_VALUE)
    assert _accepts(nonexpansive_up, GenPolicy.NON_EXPANSIVE)


def test_inferred_scheme_stable_under_renaming():
    a = staged_scheme('.<let f = fun x -> x in (f 2, f "3")>.')
    b = staged_scheme('.<let g = fun q -> q in (g 2, g "3")>.')
    assert render_scheme(a) == render_scheme(b) == "(int * string) code"


def test_occurs_check_rejects_self_application():
    diag = staged_rejects("fun x -> x x")
    assert "occurs" in diag.message or "infinite" in diag.message


def test_scheme_instantiation_is_fresh():
    s = staged_scheme("fun x -> x")
    t1, t2 = s.instantiate(), s.instantiate()
    from polylet.typesys import unify

    unify(t1, TArrow(INT, INT))  # pinning one instance
    assert render_scheme(s) == "'a -> 'a"  # scheme unchanged
    u = TVar()
    unify(t2, TArrow(u, u))  # the other instance still flexible


# --- ranks: generalization without scanning the environment -------------------

# Each program is rejected because a let would wrongly generalize a variable
# the environment reaches; its twin differs only in that the variable is
# fresh, so the same let generalizes it and the program is accepted.
RANK_CASES = {
    "value_restricted_ref_stays_monomorphic": (
        'let r = ref [] in let f = fun y -> r in (rset (f 1) 2, rset (f 2) "s")',
        'let r = ref [] in let f = fun y -> ref [] in (rset (f 1) 2, rset (f 2) "s")',
    ),
    "lambda_bound_variable_through_let": (
        'fun x -> let y = x in (y 1, y "s")',
        'fun x -> let y = fun v -> v in (y 1, y "s")',
    ),
    "unified_with_environment_variable": (
        'fun x -> let f = fun z -> z :: x in (f 1, f "s")',
        'fun x -> let f = fun z -> z :: [] in (f 1, f "s")',
    ),
}


def _both_frontends(text):
    """The program's staged and host verdicts, for the plain text and
    for the text quoted."""
    verdicts = []
    for source in (text, ".<" + text + ">."):
        e = parse_source(source)
        for infer in (
            lambda: infer_staged(TypeEnv(), e),
            lambda: infer_host(TypeEnv(), translate(e)),
        ):
            try:
                infer()
                verdicts.append("accept")
            except Diagnostic as diag:
                assert diag.kind is Kind.TYPE_ERROR, diag
                verdicts.append("reject")
    return verdicts


@pytest.mark.parametrize("case", sorted(RANK_CASES))
def test_rank_keeps_environment_variables_monomorphic(case):
    rejected, accepted = RANK_CASES[case]
    assert _both_frontends(rejected) == ["reject"] * 4
    assert _both_frontends(accepted) == ["accept"] * 4


def test_bind_lowers_only_unquantified_variables():
    a, b = TVar(), TVar()
    scheme = typesys.Scheme((a,), TPair(a, b))
    env = TypeEnv()
    env.bind("p", 0, scheme)
    assert env.depth == 1
    assert b.rank == 1
    assert a.rank == typesys.UNBOUNDED_RANK


def test_unify_lowers_the_other_side_to_the_bound_variable():
    outer, inner = TVar(), TVar()
    TypeEnv().bind("o", 0, typesys.monotype(outer))
    typesys.unify(outer, TList(inner))
    assert inner.rank == 1


def _let_chain(n):
    lets = "".join(f"let x{i} = x{i - 1} + 1 in " for i in range(1, n))
    return f".<let x0 = 1 in {lets}x{n - 1}>."


def _type_nodes(t):
    t = typesys.resolve(t)
    return 1 + sum(_type_nodes(p) for p in typesys._PARTS[type(t)](t))


@pytest.mark.parametrize("frontend", ["staged", "host"])
def test_generalization_work_linear_in_let_chain(monkeypatch, frontend):
    visited = []
    original = typesys.free_type_vars

    def counting(t):
        visited.append(_type_nodes(t))
        return original(t)

    monkeypatch.setattr(typesys, "free_type_vars", counting)
    monkeypatch.setattr(typecheck, "free_type_vars", counting)

    def nodes(n):
        e = parse_source(_let_chain(n))
        term = translate(e)
        visited.clear()
        if frontend == "staged":
            infer_staged(TypeEnv(), e)
        else:
            infer_host(TypeEnv(), term)
        return sum(visited)

    small, large = nodes(25), nodes(100)
    assert small >= 25  # at least one type node per let
    assert large <= 5 * small, (small, large)


def _nested_let_chain(n):
    # let x0 = let x1 = ... let x(n-1) = 1 in (x(n-1), 1) ... in (x0, 1)
    lets = "".join(f"let x{i} = " for i in range(n))
    return lets + "1" + "".join(f" in (x{i}, 1)" for i in reversed(range(n)))


@pytest.mark.parametrize("policy", [GenPolicy.NON_EXPANSIVE, GenPolicy.RELAXED])
def test_nonexpansive_work_linear_in_nested_let_chain(monkeypatch, policy):
    # Each let's right-hand side holds every let nested in it: its verdict
    # must reuse theirs, not walk them again.  The pair bodies give each
    # verdict one node to open, so the count grows with the lets.
    calls = [0]
    original = S.children

    def counting(e):
        calls[0] += 1
        return original(e)

    monkeypatch.setattr(S, "children", counting)

    def walks(n):
        e = parse_source(_nested_let_chain(n))
        calls[0] = 0
        assert render_scheme(infer_staged(TypeEnv(), e, policy)).endswith(" * int")
        return calls[0]

    small, large = walks(25), walks(100)
    assert small >= 25  # at least one node opened per let
    assert large <= 5 * small, (small, large)


def _wide_expansive_let(n):
    lists = "[]"
    for _ in range(n - 1):
        lists = f"([], {lists})"
    return f"let p = (let r = ref 0 in {lists}) in p"


def _dag_nodes(t):
    """How many distinct nodes, by id, t reaches."""
    seen, stack = set(), [t]
    while stack:
        t = typesys.resolve(stack.pop())
        if id(t) not in seen:
            seen.add(id(t))
            stack += typesys._PARTS[type(t)](t)
    return len(seen)


def _free_type_vars_nodes(monkeypatch, text, **kwargs):
    """The distinct nodes handed to each `free_type_vars` call while the
    staged system types text, summed over the calls."""
    visited = []
    original = typesys.free_type_vars

    def counting(t):
        visited.append(_dag_nodes(t))
        return original(t)

    monkeypatch.setattr(typesys, "free_type_vars", counting)
    monkeypatch.setattr(typecheck, "free_type_vars", counting)
    scheme = infer_staged(TypeEnv(), parse_source(text), **kwargs)
    return scheme, sum(visited)


def test_relaxed_variance_work_linear_in_type_size(monkeypatch):
    # An expansive right-hand side whose type holds n variables: relaxed
    # generalization must find every variable's variance in one pass.
    def nodes(n):
        scheme, count = _free_type_vars_nodes(monkeypatch, _wide_expansive_let(n), policy=GenPolicy.RELAXED)
        assert len(scheme.quantified) == n  # every list item type is covariant
        return count

    small, large = nodes(25), nodes(100)
    assert small >= 25 * 3  # n pairs and n lists, at least
    assert large <= 5 * small, (small, large)


def _pairs(n, tail=None, x="x"):
    # let x0 = 1 in let x1 = (x0, x0) in ... in x(n-1): a type of n nodes
    # as a DAG, but of 2^n - 1 as a tree.
    lets = "".join(f"let {x}{i} = ({x}{i - 1}, {x}{i - 1}) in " for i in range(1, n))
    return f"let {x}0 = 1 in {lets}{tail or f'{x}{n - 1}'}"


def test_generalization_work_quadratic_in_pairs(monkeypatch):
    # Each walk enters a shared node once, so the work is polynomial, not
    # 2^n.  It is still quadratic: each let's generalization walks the whole
    # DAG again.  Linear time needs ranks on compound types, so that a walk
    # skips what holds no variable deeper than the environment (ROADMAP
    # item 12).
    small = _free_type_vars_nodes(monkeypatch, f".<{_pairs(25)}>.")[1]
    large = _free_type_vars_nodes(monkeypatch, f".<{_pairs(100)}>.")[1]
    assert small >= 25
    assert large <= 20 * small, (small, large)


# Each program hangs when a walker goes through a shared type as a tree.
# It is typed in both systems, in a fresh interpreter at the default
# recursion limit; the interpreter prints the distinct nodes of each type.
SHARED_TYPE_CASES = {
    "pairs_plain": (_pairs(900), 900),
    "pairs_quoted": (f".<{_pairs(300)}>.", 301),
    "occurs": (_pairs(300, "(fun p -> p) x299"), 300),
    "unify": (_pairs(300, _pairs(300, "x299 :: y299 :: []", "y")), 301),  # chains built apart
    "instantiate": (_pairs(300, 'let f = fun y -> (x299, y) in (f 1, f "a")'), 304),
}

_TYPE_BOTH_SYSTEMS = """
import sys
from polylet import infer_host, infer_staged, parse_source, translate
from polylet.typesys import _PARTS, TypeEnv, resolve

e = parse_source(sys.stdin.read())
for scheme in (infer_staged(TypeEnv(), e), infer_host(TypeEnv(), translate(e))):
    seen, stack = set(), [scheme.body]
    while stack:
        t = resolve(stack.pop())
        if id(t) not in seen:
            seen.add(id(t))
            stack += _PARTS[type(t)](t)
    print(len(seen))
"""


@pytest.mark.parametrize("case", sorted(SHARED_TYPE_CASES))
def test_shared_types_type_in_polynomial_time(case):
    text, nodes = SHARED_TYPE_CASES[case]
    src = os.path.dirname(os.path.dirname(typesys.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _TYPE_BOTH_SYSTEMS],
        input=text,
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{nodes}\n{nodes}\n"


def test_instance_shares_as_its_scheme_does():
    v = TVar()
    shared = TArrow(v, TList(v))
    a, b = TVar(), TVar()
    fixed = TArrow(a, b)
    inst = typesys.Scheme((v,), TPair(shared, TPair(shared, fixed))).instantiate()
    assert inst.first is inst.second.first
    assert inst.first is not shared
    assert inst.second.second is fixed  # no quantified variable: itself
    assert free_type_vars(inst) == {inst.first.arg: True, a: True, b: False}


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    yield
    sys.setrecursionlimit(limit)


def _deep_list(n, leaf):
    for _ in range(n):
        leaf = TList(leaf)
    return leaf


DEEP = 100_000


def _unify_deep(a, b, deep_a, deep_b):
    typesys.unify(deep_a, deep_b)
    assert typesys.resolve(a) is typesys.resolve(b)


def _instantiate_deep(a, b, deep_a, deep_b):
    inst = typesys.Scheme((a,), deep_a).instantiate()
    for _ in range(DEEP):
        assert type(inst) is TList
        inst = inst.item
    assert type(inst) is TVar and inst is not a


def _occurs_deep(a, b, deep_a, deep_b):
    assert typesys.occurs(a, deep_a)


def _free_type_vars_deep(a, b, deep_a, deep_b):
    assert free_type_vars(deep_b) == {b: False}


DEEP_WALKS = {
    "unify": _unify_deep,
    "occurs": _occurs_deep,
    "free_type_vars": _free_type_vars_deep,
    "instantiate": _instantiate_deep,
}


@pytest.mark.parametrize("walk", sorted(DEEP_WALKS))
def test_walkers_are_depth_safe(default_recursion_limit, walk):
    # Each walk is 100,000 types deep, at the interpreter's default limit.
    a, b = TVar(), TVar()
    DEEP_WALKS[walk](a, b, _deep_list(DEEP, a), _deep_list(DEEP, b))


def test_resolve_of_a_long_variable_chain(default_recursion_limit):
    chain = [TVar() for _ in range(DEEP)]
    for v, w in zip(chain, chain[1:]):
        v.instance = w
    chain[-1].instance = INT
    assert typesys.resolve(chain[0]) is INT
    assert all(v.instance is INT for v in chain)  # paths compressed


@pytest.mark.parametrize("cls", [TArrow, TPair])
def test_mismatch_after_the_first_part_binds(cls):
    # The first part is unified first, so the message shows its binding.
    a, b = TVar(), TVar()
    with pytest.raises(Diagnostic) as exc:
        typesys.unify(cls(a, TList(TPair(a, b))), cls(INT, TList(STR)))
    assert exc.value.message == "cannot unify int * '_1 with string"


def _vars_made(thunk):
    """How many type variables `thunk` creates."""
    before = next(typesys._var_ids)
    thunk()
    return next(typesys._var_ids) - before - 1


def test_host_ground_combinators_make_no_variables(monkeypatch):
    # A combinator's rule reads an argument that has its parameter's type,
    # and ground code types are shared: no variable and no occurs check.
    calls = [0]
    original = typesys.occurs

    def counting(v, t):
        calls[0] += 1
        return original(v, t)

    monkeypatch.setattr(typesys, "occurs", counting)
    term = translate(parse_source(".<" + " + ".join(map(str, range(100))) + ">."))
    assert _vars_made(lambda: host_scheme(term)) == 0
    assert calls[0] == 0


def test_host_let_chain_variables_per_let():
    term = translate(parse_source(_let_chain(100)))
    assert _vars_made(lambda: host_scheme(term)) <= 7 * 100
