"""A record of polylet's outputs: what each command prints for a fixed set of
programs, so that "outputs unchanged" is a check.

    python tests/outcomes.py           # compare with tests/outcomes.txt
    python tests/outcomes.py --update  # rewrite tests/outcomes.txt

The programs are the corpus sources, random bracket programs at seeds 0 and
1, the perfbench programs at seed 1 (read, never changed): every
`letchain`, `wide` and `genfun` program, and seeded samples of the random
and `small` ones, two programs whose code shares what a tree copies: a
chain of spliced pairs and a lifted chain of pairs, each a tree of
2^12 - 1 nodes, three programs whose generated code calls a persisted
code generator, and one whose function lets are inserted into an outer
scope.  Each runs, through `polylet.cli.main` in this process,
`typecheck` under both systems and each policy, `translate`, `codegen`
with each printing backend, `run`, and `run --arg` with a literal of the
argument type when the staged type is a function's code.  Seeded one-token
mutations of the corpus sources and the seed-0 random programs, each of
which deletes, inserts or replaces one token, run `typecheck` under both
systems, so that the parser's diagnostics and the host system's on
ill-typed sources are pinned too.  The record also holds the
`polylet difftest` TAPs at the default count, at `--count 1000` and at
`--seed 1 --count 1000`.

One line per program and command: name, command, exit status and output
(stdout, then stderr), tab-separated.  Corpus, generator, insertion and
mutation outputs are kept in full, as a JSON string; every other output as
the first 12 hex digits of its sha256.  Generated names start at 1:
POLYLET_SEED is ignored.  A `RecursionError` lands where the stack depth
says, so record and compare by the same command.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import programs as perfbench_programs  # noqa: E402
from polylet import cli, corpus, difftest, typesys  # noqa: E402
from polylet import syntax as S  # noqa: E402
from polylet.diagnostics import Diagnostic  # noqa: E402
from polylet.parser import parse_source, tokenize  # noqa: E402
from polylet.typecheck import GenPolicy, infer_staged  # noqa: E402

RECORD = ROOT / "tests" / "outcomes.txt"
RANDOM_COUNT = 80  # random programs per seed
SMALL_COUNT = 100  # of the perfbench `small` programs
MUTATION_COUNT = 300
SHARED_DEPTH = 12  # lets in each shared program
DIFFTESTS = (["difftest"], ["difftest", "--count", "1000"], ["difftest", "--seed", "1", "--count", "1000"])

# Generated code that calls a persisted code generator: the generator's let
# reads nothing, reads the generated function's parameter, or is inserted
# into the caller's scope, so that it runs when the right-hand side does.
GENERATORS = (
    ("generator/closed", ".<fun y -> %(fun u -> .<let z = 1 in z>.) y>."),
    ("generator/parameter", ".<fun y -> %(fun u -> .<fun w -> let z = w + 1 in z + z>.) y>."),
    ("generator/inserted", ".<let y = %(fun u -> .<let z = 1 in z>.) 0 in y>."),
)

# Quoted function lets inserted into the outer funscope from under `lam` and
# an inner scope, which pins where each let lands and in what order.
INSERTIONS = (
    (
        "insertion/funscope",
        ".< let f = fun z -> z + 1 in let g = fun z -> f (f z) in"
        " fun x -> let a = x + 2 in let b = g a in f (g b) >.",
    ),
)

# What a mutation inserts, or puts in a token's place: every punctuation
# mark and keyword, an atom of each kind, and the starts of three lexical
# errors (a comment and a string left open, and a bad character).
_MUTANTS = (
    "::", "->", ".<", ">.", ".~", "(", ")", "[", "]", "+", ",", "=", "!", "%",
    "let", "in", "fun", "ref", "rset", "x", "0", '"s"', "(*", '"', "?",
)  # fmt: skip

# A literal of each argument type that has one.
_LITERALS = {typesys.TInt: "2", typesys.TStr: '"a"', typesys.TUnit: "()", typesys.TList: "[]", typesys.TVar: "0"}


def sources() -> list[tuple[str, str, bool]]:
    """(name, source text, whether the output is kept in full)."""
    out = [(f"corpus/{e.name}", e.source, True) for e in corpus.ENTRIES if e.source is not None]
    for seed in (0, 1):
        rng = random.Random(seed)
        for i in range(RANDOM_COUNT):
            out.append((f"random/{seed}/{i}", S.pretty(difftest.random_bracket_program(rng)), False))
    for workload in perfbench_programs.WORKLOADS:
        programs = perfbench_programs.build(workload, 1)
        if workload == "small":
            picked = sorted(random.Random(0).sample(range(len(programs)), SMALL_COUNT))
            programs = [programs[i] for i in picked]
        out += [(p.name, p.source, False) for p in programs]
    return out + shared(SHARED_DEPTH) + [(name, text, True) for name, text in GENERATORS + INSERTIONS]


def shared(n: int) -> list[tuple[str, str, bool]]:
    """The splice chain `let c0 = .<1>. in let c1 = .<(.~c0, .~c0)>. in ...`
    and the lift of `let x0 = 1 in let x1 = (x0, x0) in ...`: n lets, and
    code of 2^n - 1 nodes as a tree."""
    splices = "".join(f"let c{i} = .<(.~c{i - 1}, .~c{i - 1})>. in " for i in range(1, n))
    pairs = "".join(f"let x{i} = (x{i - 1}, x{i - 1}) in " for i in range(1, n))
    return [
        (f"shared/splice/{n}", f"let c0 = .<1>. in {splices}c{n - 1}", False),
        (f"shared/lift/{n}", f"let x0 = 1 in {pairs}.<%x{n - 1}>.", False),
    ]


def mutations(bases: list[str]) -> list[tuple[str, str, bool]]:
    """(name, source text, kept in full) of seeded one-token edits of
    `bases`.  No base has a backslash, so a token's text is its source."""
    rng = random.Random(0)
    out = []
    for i in range(MUTATION_COUNT):
        text = rng.choice(bases)
        spans = [(offset, offset + len(t)) for _, t, _, offset in tokenize(text)]
        start, end = spans[rng.randrange(len(spans))]  # the last is the end of input
        edit = rng.choice(("delete", "insert", "replace"))
        if edit == "insert":
            end = start
        new = "" if edit == "delete" else f" {rng.choice(_MUTANTS)} "
        out.append((f"mutation/{i}", text[:start] + new + text[end:], True))
    return out


def commands(text: str) -> list[list[str]]:
    out = [
        ["typecheck", "--system", system, "--gen-policy", policy]
        for system in ("staged", "host")
        for policy in [p.value for p in GenPolicy]
    ]
    out += [["translate"], ["codegen", "--backend", "quote"], ["codegen", "--backend", "string"], ["run"]]
    try:
        body = typesys.resolve(infer_staged(typesys.TypeEnv(), parse_source(text)).body)
    except (Diagnostic, RecursionError):
        return out
    if type(body) is typesys.TCode and type(arg := typesys.resolve(body.item)) is typesys.TArrow:
        literal = _LITERALS.get(type(typesys.resolve(arg.arg)))
        if literal is not None:
            out.append(["run", "--arg", literal])
    return out


def _main(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue() + err.getvalue()


def _line(name: str, command: list[str], status: int, output: str, full: bool) -> str:
    shown = json.dumps(output) if full else hashlib.sha256(output.encode()).hexdigest()[:12]
    return "\t".join((name, " ".join(command), str(status), shown))


def outcomes() -> tuple[list[str], dict[int, str]]:
    """The record's lines, and each line's output in full, by line index."""
    lines: list[str] = []
    outputs: dict[int, str] = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # so that diagnostics name the file `program.pml`
        programs = sources()
        bases = [text for name, text, _ in programs if name.startswith(("corpus/", "random/0/"))]
        runs = [(program, commands(program[1])) for program in programs]
        runs += [(program, [["typecheck"], ["typecheck", "--system", "host"]]) for program in mutations(bases)]
        try:
            for (name, text, full), todo in runs:
                Path("program.pml").write_text(text, encoding="utf-8")
                for command in todo:
                    status, output = _main([command[0], "program.pml", *command[1:]])
                    outputs[len(lines)] = output
                    lines.append(_line(name, command, status, output, full))
        finally:
            os.chdir(cwd)
    for command in DIFFTESTS:
        status, output = _main(command)
        outputs[len(lines)] = output
        lines.append(_line("difftest", command, status, output, False))
    return lines, outputs


def main(argv: list[str]) -> int:
    os.environ.pop("POLYLET_SEED", None)
    lines, outputs = outcomes()
    if argv == ["--update"]:
        RECORD.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {len(lines)} outcomes to {RECORD.name}")
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    old = RECORD.read_text(encoding="utf-8").splitlines()
    differing = [i for i in range(max(len(old), len(lines))) if old[i : i + 1] != lines[i : i + 1]]
    for i in differing[:5]:
        print(f"line {i + 1}:")
        print("  old: " + (old[i] if i < len(old) else "(none)"))
        print("  new: " + (lines[i] if i < len(lines) else "(none)"))
        if i in outputs:
            print("  new output: " + json.dumps(outputs[i])[:2000])
    if differing:
        print(f"{len(differing)} of {len(lines)} outcomes differ from {RECORD.name}")
        return 1
    print(f"{len(lines)} outcomes match {RECORD.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
