"""End-to-end acceptance checks.

Each test exercises one gate of the pipeline and prints a PASS line when
its assertions hold (run with `pytest -s` to see every line).
"""

import pytest

from polylet import difftest
from polylet import syntax as S
from polylet.backends import QuoteCode, StringCode, evaluate
from polylet.corpus import ENTRIES, by_name
from polylet.diagnostics import Diagnostic, Kind
from polylet.engine import VCode, VList, render_value
from polylet.parser import parse_plain, parse_source, parse_term
from polylet.typecheck import infer_host, infer_staged
from polylet.typesys import TypeEnv, render_scheme
from polylet.unstage import translate


def _staged_verdict(text):
    try:
        return "accept", infer_staged(TypeEnv(), parse_source(text))
    except Diagnostic:
        return "reject", None


def _host_verdict(term):
    try:
        infer_host(TypeEnv(), term)
        return "accept"
    except Diagnostic:
        return "reject"


def _entry_source(name):
    entry = by_name(name)
    assert entry.source is not None
    return entry.source


def _checks(entry, prefix):
    return [r for r in difftest.check_entry(entry) if r.name.startswith(prefix)]


def _string_code(term):
    value = evaluate(term, "string").value
    assert isinstance(value, VCode) and isinstance(value.code, StringCode)
    return value.code.text


def _quote_tree(term):
    value = evaluate(term, "quote").value
    assert isinstance(value, VCode) and isinstance(value.code, QuoteCode)
    return value.code.tree


def test_criterion_1_staged_typing_matrix():
    expectations = [
        ("poly_nil_pair_plain", "accept", "int list * string list"),
        ("benign_seq_nil", "accept", "int list * string list"),
        ("relaxed_deref_nil", "accept", "int list * string list"),
        ("ref_poly_reject", "reject", None),
        ("staged_poly_nil", "accept", "(int list * string list) code"),
        ("staged_poly_id", "accept", "(int * string) code"),
        ("staged_ref_reject", "reject", None),
        ("thunked_ref_cells", "accept", "(int list * string list) code"),
        ("csp_ref_unsound", "accept", "(int list * string list) code"),
        ("ref_let_villain", "reject", None),
    ]
    for name, want, want_scheme in expectations:
        verdict, scheme = _staged_verdict(_entry_source(name))
        assert verdict == want, name
        if want_scheme is not None:
            assert render_scheme(scheme) == want_scheme, name
    print("ACCEPTANCE 1 PASS: staged typing matrix (accept/reject and schemes)")


def test_criterion_2_host_typing_matrix():
    accepts = ["staged_poly_nil", "staged_poly_id", "csp_ref_unsound"]
    rejects = ["staged_ref_reject", "ref_let_villain"]
    for name in accepts:
        term = translate(parse_source(_entry_source(name)))
        assert _host_verdict(term) == "accept", name
    for name in rejects:
        term = translate(parse_source(_entry_source(name)))
        assert _host_verdict(term) == "reject", name
    assert _host_verdict(parse_term(by_name("genlet_id_monomorphic").target)) == "reject"
    print("ACCEPTANCE 2 PASS: host typing matrix over translations")


def test_criterion_3_translation_fidelity():
    c = S.comb
    image = translate(parse_source(_entry_source("splice_cons_fun")))
    expected = S.Fun(
        "x",
        c("lam", S.Fun("y", c("cons", c("add", S.Var("y"), c("int", S.IntLit(1))), S.Var("x")))),
    )
    assert S.alpha_equal(image, expected)

    nil_image = translate(parse_source(_entry_source("staged_poly_nil")))
    nil_expected = c(
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
    assert S.alpha_equal(nil_image, nil_expected)

    id_image = translate(parse_source(_entry_source("staged_poly_id")))

    def call():
        return S.App(S.Var("f"), S.Unit())

    id_expected = c(
        "new_funscope",
        S.Fun(
            "p",
            S.Let(
                "f",
                S.Fun(S.UNIT_BINDER, c("genletfun", S.Var("p"), S.Fun("z", S.Var("z")))),
                c(
                    "pair",
                    c("app", call(), c("int", S.IntLit(2))),
                    c("app", call(), c("str", S.StrLit("3"))),
                ),
            ),
        ),
    )
    assert S.alpha_equal(id_image, id_expected)
    print("ACCEPTANCE 3 PASS: translation fidelity, including the thunk substitution")


def _function_lets(tree):
    """(binding, use-count) pairs for lets binding a function."""
    out = []

    def uses(name, e):
        if isinstance(e, S.Var):
            return 1 if e.name == name else 0
        if isinstance(e, (S.Fun, S.Let)):
            binder = e.param if isinstance(e, S.Fun) else e.name
            if binder == name:
                if isinstance(e, S.Let):
                    return uses(name, e.rhs)
                return 0
        return sum(uses(name, child) for child in S.children(e))

    def walk(e):
        if isinstance(e, S.Let) and isinstance(e.rhs, S.Fun):
            out.append((e.name, uses(e.name, e.body)))
        for child in S.children(e):
            walk(child)

    walk(tree)
    return out


def test_criterion_4_string_backend_goldens():
    add_text = _string_code(translate(parse_source(_entry_source("genlet_shared_add"))))
    assert S.alpha_equal(
        parse_plain(add_text), parse_plain("let t = (1 + 2) in fun x -> (x + t)")
    )

    two = parse_plain(_string_code(parse_term(by_name("thunked_genlet_two_lets").target)))
    lets = _function_lets(two)
    assert len(lets) == 2, lets

    one = parse_plain(_string_code(translate(parse_source(_entry_source("staged_poly_id")))))
    lets = _function_lets(one)
    assert len(lets) == 1 and lets[0][1] == 2, lets
    print("ACCEPTANCE 4 PASS: generated-code goldens (shared add; two lets; one memoized let)")


def test_criterion_5_round_trip():
    checked = 0
    for entry in ENTRIES:
        for result in _checks(entry, "round-trip/"):
            assert result.status == "pass", (entry.name, result.detail)
            checked += 1
    assert checked >= 12
    random_results = difftest.run_random(seed=0, count=100)
    assert all(r.status == "pass" for r in random_results)
    print(
        f"ACCEPTANCE 5 PASS: round trip on {checked} corpus programs "
        "and 100 random programs"
    )


def test_criterion_6_observational_agreement():
    saw_skip = False
    for entry in ENTRIES:
        for result in _checks(entry, "observation/"):
            assert result.status in ("pass", "skip"), (result.name, result.detail)
            if result.status == "skip":
                saw_skip = True
                assert entry.observe.mutable_csp
                assert "[string]" in result.name
    assert saw_skip, "the mutable-CSP entry must skip its string leg"
    print("ACCEPTANCE 6 PASS: backends agree on first-order results; "
          "mutable-CSP string leg skipped")


def test_criterion_7_sharing_semantics():
    shared = evaluate(translate(parse_source(_entry_source("rset_shared_cell"))), None)
    assert render_value(shared.value) == "([2; 3; 1], [3; 1])"
    fresh = evaluate(translate(parse_source(_entry_source("rset_fresh_cells"))), None)
    assert render_value(fresh.value) == "([2; 1], [3; 1])"

    counter = translate(parse_source(_entry_source("csp_counter_cell")))
    ev = evaluate(counter, "eval")
    ev.force()
    second = ev.force()
    assert isinstance(second, VList) and len(second.items) == 2
    assert render_value(second) == "[0; 0]"
    print("ACCEPTANCE 7 PASS: rset sharing traces and double-run CSP mutation")


def test_criterion_8_unsoundness_reproduction():
    source = _entry_source("csp_ref_unsound")
    verdict, _ = _staged_verdict(source)
    assert verdict == "accept"
    term = translate(parse_source(source))
    assert _host_verdict(term) == "accept"
    ev = evaluate(term, "eval")
    with pytest.raises(Diagnostic) as exc:
        ev.force()
    assert exc.value.kind is Kind.SOUNDNESS_VIOLATION
    print("ACCEPTANCE 8 PASS: unsound program typechecks twice and fails loudly at run time")


def test_criterion_9_hygiene():
    first = _quote_tree(translate(parse_source(_entry_source("hygiene_shadowed_binder"))))
    second = _quote_tree(translate(parse_source(_entry_source("hygiene_distinct_binder"))))
    assert S.alpha_equal(first, second)
    assert S.alpha_equal(first, parse_plain("fun a -> fun b -> a"))
    print("ACCEPTANCE 9 PASS: hygienic quotation under binder renaming")


def test_criterion_10_scope_extrusion():
    with pytest.raises(Diagnostic) as exc:
        evaluate(parse_term(by_name("extrusion_open_code").target), "quote")
    assert exc.value.kind is Kind.SCOPE_EXTRUSION

    for entry in ENTRIES:
        if entry.source is None:
            continue
        term = translate(parse_source(entry.source))
        try:
            evaluate(term, "quote")
        except Diagnostic as diag:
            assert diag.kind is not Kind.SCOPE_EXTRUSION, entry.name
    print("ACCEPTANCE 10 PASS: extrusion detected for open code, never for translations")
