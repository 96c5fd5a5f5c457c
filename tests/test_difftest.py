import random

from polylet import difftest
from polylet import syntax as S
from polylet.corpus import ENTRIES, KNOWN_DIVERGENCES
from polylet.backends import evaluate
from polylet.parser import parse_plain, parse_source
from polylet.typecheck import infer_staged
from polylet.typesys import TypeEnv
from polylet.unstage import translate


def test_corpus_names_unique():
    names = [e.name for e in ENTRIES]
    assert len(names) == len(set(names))


def test_known_divergence_manifest_names_exist():
    names = {e.name for e in ENTRIES}
    assert KNOWN_DIVERGENCES <= names


def test_full_run_is_green():
    results = difftest.run_all(seed=3, count=25)
    fails = [r for r in results if r.status == "fail"]
    assert fails == [], fails


def test_divergence_reported_as_known():
    entry = next(e for e in ENTRIES if e.name in KNOWN_DIVERGENCES)
    result = difftest.check_typing_preservation(entry)
    assert result is not None and result.status == "known-divergence"


def test_preservation_vacuous_on_staged_reject():
    from polylet.corpus import by_name

    result = difftest.check_typing_preservation(by_name("ref_poly_reject"))
    assert result is not None and result.status == "pass"
    assert "vacuous" in result.detail


def test_tap_rendering():
    results = difftest.run_all(seed=5, count=3)
    tap = difftest.render_tap(results)
    lines = tap.splitlines()
    assert lines[0] == "TAP version 13"
    assert lines[1] == f"1..{len(results)}"
    assert any("# TODO known divergence" in line for line in lines)
    assert difftest.failed_count(results) == 0


def test_random_programs_well_formed_and_bounded():
    rng = random.Random(11)
    for _ in range(50):
        program = difftest.random_bracket_program(rng)
        S.check_staging(program)
        assert isinstance(program, S.Bracket)
        assert difftest.size(program) <= 40
        infer_staged(TypeEnv(), program)  # the generator is type-directed


def test_random_seed_reproducible():
    a = difftest.random_bracket_program(random.Random(42))
    b = difftest.random_bracket_program(random.Random(42))
    assert a == b


def test_code_equal_reorders_independent_lets():
    a = parse_plain("let u = (fun a -> a) in let v = (fun b -> b) in (v 1, u 2)")
    b = parse_plain("let v = (fun b -> b) in let u = (fun a -> a) in (v 1, u 2)")
    assert difftest.code_equal(a, b)


def test_code_equal_keeps_dependent_lets_in_order():
    a = parse_plain("let u = 1 in let v = u + 1 in v")
    b = parse_plain("let v = 1 in let u = v + 1 in u")
    # dependent chains are only alpha-comparable, never reordered
    assert difftest.code_equal(a, b)
    c = parse_plain("let u = 2 in let v = u + 1 in v")
    assert not difftest.code_equal(a, c)


def test_canonical_binders_alpha_invariant_key():
    a = parse_plain("fun x -> fun y -> x")
    b = parse_plain("fun p -> fun q -> p")
    assert S.pretty(difftest.canonical_binders(a)) == S.pretty(difftest.canonical_binders(b))


def test_normalize_lets_key_work_linear_in_chain_length(monkeypatch):
    """Each binding's reorder key is computed once per chain, not at every
    comparison of the bubble pass."""
    calls = {"rank": 0, "pretty": 0}
    first_use_rank, pretty = difftest._first_use_rank, S.pretty

    def counting_rank(*args):
        calls["rank"] += 1
        return first_use_rank(*args)

    def counting_pretty(e):
        calls["pretty"] += 1
        return pretty(e)

    monkeypatch.setattr(difftest, "_first_use_rank", counting_rank)
    monkeypatch.setattr(S, "pretty", counting_pretty)

    def work(n):
        lets = "".join(f"let x{k} = {k} in " for k in range(n))
        tree = evaluate(translate(parse_source(f".<{lets}x0>.")), "quote").value.code.tree
        calls.update(rank=0, pretty=0)
        assert difftest.code_equal(tree, tree)
        return dict(calls)

    small, large = work(32), work(128)
    assert large["rank"] <= 5 * small["rank"]
    assert large["pretty"] <= 5 * small["pretty"]
