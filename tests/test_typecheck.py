import pytest

from polylet import typecheck, typesys
from polylet.corpus import by_name
from polylet.diagnostics import Diagnostic, Kind
from polylet.parser import parse_source
from polylet.typecheck import (
    GenPolicy,
    generalize,
    infer_host,
    infer_staged,
    is_nonexpansive,
    is_syntactic_value,
    validate_recorded,
)
from polylet.typesys import (
    INT,
    TPair,
    TArrow,
    TCode,
    TList,
    TRef,
    TVar,
    TypeEnv,
    Variance,
    render_scheme,
    schemes_equal,
    variance_of,
)
from polylet.unstage import translate


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
    assert variance_of(v, TList(v)) is Variance.COVARIANT


def test_variance_ref_invariant():
    v = TVar()
    assert variance_of(v, TRef(v)) is Variance.INVARIANT


def test_variance_code_of_endo_arrow_invariant():
    v = TVar()
    assert variance_of(v, TCode(TArrow(v, v))) is Variance.INVARIANT


def test_variance_absent_unused():
    v = TVar()
    assert variance_of(v, INT) is Variance.UNUSED


def test_variance_arrow_argument_contravariant():
    v = TVar()
    assert variance_of(v, TArrow(v, INT)) is Variance.CONTRAVARIANT
    assert variance_of(v, TArrow(TArrow(v, INT), INT)) is Variance.COVARIANT


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
    from polylet.typesys import monotype

    env = TypeEnv().bind("y", 0, monotype(TList(v)))
    s = generalize(TList(v), env, True, GenPolicy.RELAXED)
    assert s.quantified == ()


# --- staged inference ---------------------------------------------------------


def test_quoted_add_scheme():
    assert render_scheme(staged_scheme(".<1 + 2>.")) == "int code"


def test_quoted_ref_let_rejected():
    staged_rejects('.<let x = ref [] in (rset x 2, rset x "3")>.')


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
        host_scheme(entry.build_target())


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
    assert render_scheme(host_scheme(by_name("scope_no_genlet").build_target()), "cod") == (
        "(int list * string list) cod"
    )


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
    assert schemes_equal(a, b)


def test_replay_validator_clean():
    for text in (
        ".<let x = [] in (2::x, \"3\"::x)>.",
        "fun x -> .<fun y -> (y + 1) :: .~x>.",
        "let c = .<1 + 2>. in .<fun x -> .~c + x>.",
    ):
        record = {}
        e = parse_source(text)
        infer_staged(TypeEnv(), e, record=record)
        assert validate_recorded(e, record) == []


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
    env = TypeEnv().bind("p", 0, scheme)
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
    return 1 + sum(_type_nodes(p) for p in typesys._parts(typesys.resolve(t)))


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
