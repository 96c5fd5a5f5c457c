import collections
import dataclasses
import random
import sys

import pytest

from polylet import difftest
from polylet import syntax as S
from polylet.corpus import ENTRIES, KNOWN_DIVERGENCES, by_name
from polylet.backends import evaluate
from polylet.parser import parse_source
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


def checks(entry, prefix):
    """The results of `check_entry` whose names start with `prefix`."""
    return [r for r in difftest.check_entry(entry) if r.name.startswith(prefix)]


def test_divergence_reported_as_known():
    entry = next(e for e in ENTRIES if e.name in KNOWN_DIVERGENCES)
    [result] = checks(entry, "preservation/")
    assert result.status == "known-divergence"


def test_let_unit_poly_divergence_is_known_never_a_pass():
    # Staged accept, host reject: a preservation failure the corpus keeps
    # visible as a known divergence.
    entry = by_name("let_unit_poly_divergence")
    results = {r.name.split("/")[0]: r for r in difftest.check_entry(entry)}
    assert results["staged-typing"].status == "pass"
    assert results["host-typing"].status == "pass"
    preservation = results["preservation"]
    assert (preservation.status, preservation.detail) == (
        "known-divergence",
        "cannot unify int with string",
    )


def test_preservation_vacuous_on_staged_reject():
    [result] = checks(by_name("ref_poly_reject"), "preservation/")
    assert result.status == "pass"
    assert "vacuous" in result.detail


def test_each_source_entry_is_parsed_once_and_typed_twice(monkeypatch):
    # One parse of the source, one staged verdict and one host verdict,
    # whatever the entry's checks.
    calls = {"parse_source": 0, "infer_staged": 0}
    for name in calls:
        original = getattr(difftest, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(difftest, name, counting)
    for entry in ENTRIES:
        if entry.source is None:
            continue
        for name in calls:
            calls[name] = 0
        difftest.check_entry(entry)
        assert calls == {"parse_source": 1, "infer_staged": 2}, entry.name


def test_each_backend_evaluates_each_corpus_term_at_most_once(monkeypatch):
    # The round trip, the observation legs, the string golden and the
    # diagnostic checks all read one evaluation per backend.  Runs of
    # printed code as plain programs (backend None) are not counted.
    calls = collections.Counter()
    original = difftest.evaluate

    def counting(term, backend="quote", *args, **kwargs):
        calls[backend] += 1
        return original(term, backend, *args, **kwargs)

    monkeypatch.setattr(difftest, "evaluate", counting)
    for entry in ENTRIES:
        calls.clear()
        difftest.check_entry(entry)
        counts = {backend: n for backend, n in calls.items() if backend is not None}
        assert all(n == 1 for n in counts.values()), (entry.name, counts)


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
        assert isinstance(program, S.Bracket)
        # well formed: the parser, which enforces staging, reads it back
        assert S.alpha_equal(parse_source(S.pretty(program)), program)
        assert difftest.size(program) <= 40
        infer_staged(TypeEnv(), program)  # the generator is type-directed


def test_size_counts_a_deep_chain_without_recursion():
    chain = S.Nil()
    for i in range(100_000):
        chain = S.Cons(S.IntLit(i), chain)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        assert difftest.size(chain) == 200_001
    finally:
        sys.setrecursionlimit(limit)
    assert difftest.size(S.Let("x", S.IntLit(1), S.Pair(S.Var("x"), S.Unit()))) == 5


def test_random_seed_reproducible():
    a = difftest.random_bracket_program(random.Random(42))
    b = difftest.random_bracket_program(random.Random(42))
    assert a == b


@pytest.mark.parametrize(
    "source",
    [
        ".<let f = fun x -> x in let g = fun y -> y in (f 1, g 2)>.",
        ".<let f = fun x -> x + 1 in let g = fun z -> z in let y = f 1 in g y>.",
        ".<let f = fun x -> x + 1 in let g = fun y -> f y in g 2>.",
        ".<let a = 1 + 2 in let f = fun x -> x + a in let g = fun y -> f y in g 1>.",
    ],
)
def test_lets_forced_out_of_order_round_trip_in_source_order(source):
    # Each genletfun is forced at its first use, not where it is bound,
    # but a scope's prompt encloses exactly its let's body, so the
    # bindings land in source order: plain alpha-equality holds.
    e = parse_source(source)
    tree = evaluate(translate(e), "quote").value.code.tree
    assert S.alpha_equal(tree, e.body), S.pretty(tree)


def test_golden_with_swapped_lets_fails():
    entry = by_name("thunked_genlet_two_lets")
    [golden] = checks(entry, "golden-")
    assert golden.status == "pass"
    swapped = dataclasses.replace(
        entry,
        string_golden='(let v = (fun b -> b) in (let u = (fun a -> a) in ((v 1), (u "3"))))',
    )
    [golden] = checks(swapped, "golden-")
    assert golden.status == "fail"
