"""Fuzzing: mutated corpus sources and deep or wide generated programs must
get an answer or a diagnostic from the CLI, never a Python traceback, and
so must mutated combinator terms from `parse_term` and the backends."""

import functools
import random

import pytest

from polylet import cli
from polylet import syntax as S
from polylet.backends import evaluate
from polylet.corpus import ENTRIES
from polylet.diagnostics import Diagnostic
from polylet.parser import parse_source, parse_term
from polylet.typecheck import infer_host
from polylet.typesys import TypeEnv
from polylet.unstage import translate

# Pieces inserted or substituted: punctuation, keywords, string and
# comment delimiters, newlines, and non-ASCII characters that test the
# tokenizer's Unicode classes (a superscript digit, an Arabic-Indic
# digit, a letter and a no-break space), and a numeral longer than
# Python's integer-string conversion limit.
ALPHABET = (
    "(", ")", "[", "]", "+", ",", "=", "!", "%", "::", "->", ".<", ">.", ".~",
    "(*", "*)", "let", "in", "fun", "ref", "rset", '"', "\\", "\n", "²", "٣", "é", "\u00a0",
    "9" * 5000,
)  # fmt: skip

COMMANDS = (
    ["typecheck"],
    ["typecheck", "--system", "host"],
    ["typecheck", "--gen-policy", "value"],
    ["typecheck", "--system", "host", "--gen-policy", "nonexpansive"],
    ["translate"],
    ["codegen", "--backend", "quote"],
    ["codegen", "--backend", "string"],
    ["run"],
)


SOURCES = [e.source for e in ENTRIES if e.source is not None]


def mutants(texts: list[str], seed: int, count: int, alphabet=ALPHABET) -> list[str]:
    """`count` of the texts, each with one to three characters deleted, or
    pieces of the alphabet inserted or substituted for one."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            piece = rng.choice(alphabet)
            op = rng.randrange(3)
            if op == 0:
                text = text[:i] + text[i + 1 :]
            elif op == 1:
                text = text[:i] + piece + text[i:]
            else:
                text = text[:i] + piece + text[i + 1 :]
        out.append(text)
    return out


def test_mutated_corpus_never_escapes_the_cli(tmp_path, capsys, monkeypatch):
    # Building the argparse parser costs more than the pipeline on these
    # small programs; one parser serves every call.
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    path = tmp_path / "mutant.pml"
    for text in mutants(SOURCES, seed=6, count=300):
        path.write_text(text, encoding="utf-8")
        for command in COMMANDS:
            status = cli.main([*command, str(path)])
            assert status in (0, 1, 2), (command, text)
        capsys.readouterr()


def test_mutated_terms_never_escape_the_pipeline():
    # The corpus targets and the printed translations of its sources, with
    # combinator names among the pieces; a mutant the host checker accepts
    # runs under every backend.
    texts = [e.target for e in ENTRIES if e.target is not None]
    texts += [S.pretty(translate(parse_source(text))) for text in SOURCES]
    for text in mutants(texts, seed=11, count=5000, alphabet=ALPHABET + tuple(S.COMB_ARITY)):
        try:
            term = parse_term(text)
            infer_host(TypeEnv(), term)
        except Diagnostic:
            continue
        for backend in ("quote", "string", "eval"):
            try:
                ev = evaluate(term, backend)
                if backend == "eval":
                    ev.force()
            except Diagnostic:
                pass
            except Exception as err:
                pytest.fail(f"{backend} backend on {text!r}: {err!r}")


def _let_chain(n: int) -> str:
    lets = "".join(f"let x{i} = {f'x{i - 1} + 1' if i else '1'} in " for i in range(n))
    return f".<{lets}x{n - 1}>."


# Deep or wide programs, run at the default recursion limit.  Every
# command passes `plus`, whose nesting the parser reads at one frame a
# level.  `quoted-plus` passes all but the two host `typecheck`s, and
# `translate` prints `arguments` back; each other run ends in a
# `ResourceLimit` diagnostic.
DEEP = {
    "let-chain": _let_chain(1_000),
    "parens": "(" * 2_000 + "1" + ")" * 2_000,
    "plus": "(1 + " * 600 + "1" + ")" * 600,
    "quoted-plus": ".<" + "(1 + " * 600 + "1" + ")" * 600 + ">.",
    "fun-chain": ".<" + "".join(f"fun x{i} -> " for i in range(3_000)) + "x0>.",
    "cons-chain": ".<" + "1 :: " * 5_000 + "[]>.",
    "arguments": "(fun x -> x)" + " 1" * 2_000,
    "derefs": "!" * 3_000 + "(ref 1)",
}


@pytest.mark.parametrize("name", DEEP)
def test_deep_programs_never_escape_the_cli(name, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    path = tmp_path / f"{name}.pml"
    path.write_text(DEEP[name], encoding="utf-8")
    for command in COMMANDS:
        status = cli.main([*command, str(path)])
        out, err = capsys.readouterr()
        assert status in ((0,) if name == "plus" else (0, 1, 2)), (command, err)
        assert "Traceback" not in out + err, command
