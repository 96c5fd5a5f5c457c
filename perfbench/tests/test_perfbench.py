"""Tests of the benchmark's own pieces: generators, references and checks.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import programs as P  # noqa: E402
from pipeline import NOMINAL_CALIBRATION_S, Api, BenchmarkError, NullTracer, Runner, SpeedGauge, type_matches, walk  # noqa: E402
from run import in_worker_thread  # noqa: E402


@pytest.mark.parametrize("workload", P.WORKLOADS)
def test_same_seed_gives_byte_identical_sources(workload):
    def text(seed):
        return "\n".join(p.source for p in P.build(workload, seed)).encode()

    assert text(7) == text(7)
    assert text(7) != text(8)


def test_every_generated_program_is_accepted_by_infer_staged():
    api = Api()

    def check():
        for workload in P.WORKLOADS:
            for seed in (1, 2):
                for p in P.build(workload, seed):
                    e = api.parse_source(p.source)
                    scheme = api.infer_staged(api.TypeEnv(), e)
                    assert type_matches(p.staged_type, api.type_tuple(scheme.body)), p.name
                    if workload == "small":
                        assert sum(1 for _ in walk(e, api.nodes)) <= P.SMALL_MAX_NODES, p.name

    in_worker_thread(check)


def _v(name):
    return ("var", name)


SHARED_CELL = ("fun", "u", ("let", "r", ("ref", ("nil",)), ("rset", _v("r"), ("int", 1))))


@pytest.mark.parametrize(
    "expr, expected",
    [
        (("add", ("int", 2), ("add", ("int", 3), ("int", 4))), 9),
        (("cons", ("str", "a"), ("cons", ("str", "b"), ("nil",))), ["a", "b"]),
        (("pair", ("unit",), ("csp", ("add", ("int", 1), ("int", 2)))), (None, 3)),
        (("esc", ("let", "x", ("int", 5), ("add", _v("x"), _v("x")))), 10),
        (("app", ("fun", "x", ("pair", _v("x"), _v("x"))), ("int", 4)), (4, 4)),
        # The second component of a pair runs first: rset r 2, then rset r 1.
        (
            ("let", "r", ("ref", ("nil",)), ("pair", ("rset", _v("r"), ("int", 1)), ("rset", _v("r"), ("int", 2)))),
            ([1, 2], [2]),
        ),
        (
            ("let", "r", ("ref", ("cons", ("int", 7), ("nil",))), ("get", _v("r"))),
            [7],
        ),
        # A let-bound function applied twice.
        (
            ("let", "f", ("fun", "z", ("add", _v("z"), ("int", 10))), ("app", _v("f"), ("app", _v("f"), ("int", 1)))),
            21,
        ),
    ],
)
def test_reference_evaluator_matches_hand_computed_results(expr, expected):
    assert P.run(expr) == expected


def test_reference_evaluator_gives_each_call_a_fresh_cell():
    f = P.run(SHARED_CELL)
    assert (f(0), f(0)) == ([1], [1])
    g = P.run(("let", "c", ("ref", ("nil",)), ("fun", "x", ("rset", _v("c"), _v("x")))))
    assert (g(1), g(2)) == ([1], [2, 1])


def test_closed_forms_match_the_reference_evaluator():
    rng = random.Random(0)
    p = P.genfun(rng, 3, 2)
    c = int(p.source.split("z + ")[1].split(" ")[0])
    f = ("fun", "z", ("add", _v("z"), ("int", c)))
    chain = ("fun", "x", ("app", _v("f3"), _v("x")))
    for k in (3, 2, 1):
        chain = ("let", f"f{k}", ("fun", "z", ("app", _v(f"f{k-1}"), ("app", _v(f"f{k-1}"), _v("z")))), chain)
    fn = P.run(("let", "f0", f, chain))
    assert tuple(fn(a) for a in p.args) == p.expected


def _round(progs, rounds=2):
    runner = Runner(Api(), progs)

    def go():
        for _ in range(rounds):
            runner.round(NullTracer())

    in_worker_thread(go)
    return runner


def test_scaling_families_pass_every_path_with_exact_counts():
    rng = random.Random(5)
    progs = [P.letchain(rng, 30), P.wide(rng, 4), P.genfun(rng, 3, 4), P.rset_history(rng, 5)]
    runner = _round(progs)
    assert runner.failed == 0, dict(runner.failures)
    assert runner.attempted == len(progs) * 6  # each operation once, however many rounds
    # one let per quoted let: 30 in the chain, f0..f3, and the cell
    assert runner.let_insertions() == 30 + 4 + 1
    assert runner.code_chars() > 0


def test_shared_cell_program_applied_twice_is_flagged_as_a_mismatch():
    """The eval backend forces an inserted `let` once, at insertion time,
    so both calls share one cell: [1] then [1; 1], where the program means
    [1] both times (ROADMAP item 1).  The printed code agrees."""
    f = P.run(SHARED_CELL)
    prog = P.Program(
        "shared-cell",
        f".< {P.render(SHARED_CELL)} >.",
        P.code(("arrow", P.INT, ("list", P.INT))),
        args=(0, 0),
        expected=(f(0), f(0)),
    )
    runner = _round([prog], rounds=1)
    assert dict(runner.failures) == {("run", "Mismatch"): 1}
    assert "[[1], [1, 1]]" in runner.examples[("run", "Mismatch")]


def test_output_that_changes_between_rounds_fails_loudly():
    runner = Runner(Api(), [P.genfun(random.Random(1), 2, 1)])
    real, starts = runner.api.evaluate, iter(range(1, 100))
    runner.api.evaluate = lambda term, backend, name_start=1: real(term, backend, next(starts))
    runner.round(NullTracer())
    with pytest.raises(BenchmarkError, match="non-deterministic"):
        runner.round(NullTracer())


def test_failures_that_change_between_rounds_fail_loudly():
    runner = Runner(Api(), [P.genfun(random.Random(1), 2, 1)])
    real, calls = runner.api.infer_host, iter(range(100))

    def flaky(env, term):
        if next(calls) == 1:
            raise RuntimeError("fails in the second round only")
        return real(env, term)

    runner.api.infer_host = flaky
    runner.round(NullTracer())
    assert (runner.attempted, runner.failed) == (6, 0)
    with pytest.raises(BenchmarkError, match="non-deterministic failures"):
        runner.round(NullTracer())


def test_times_are_median_ratios_to_the_calibration_loop_at_nominal_speed():
    gauge = SpeedGauge()
    first = gauge.current()
    assert first > 0 and gauge.samples == [first]
    assert SpeedGauge.seconds([1.0, 3.0, 100.0]) == 3.0 * NOMINAL_CALIBRATION_S
    runner = _round([P.genfun(random.Random(1), 2, 1)], rounds=3)
    assert all(len(ratios) == 3 for per_path in runner.ratios.values() for ratios in per_path)
    assert runner.path_seconds("run") == SpeedGauge.seconds(runner.ratios["run"][0])
