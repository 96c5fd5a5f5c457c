"""CLI fuzzing: mutated corpus sources must get an answer or a diagnostic,
never a Python traceback."""

import functools
import random

from polylet import cli
from polylet.corpus import ENTRIES

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


def mutants(seed: int, count: int) -> list[str]:
    """`count` corpus sources, each with one to three characters deleted,
    inserted or replaced."""
    rng = random.Random(seed)
    sources = [e.source for e in ENTRIES if e.source is not None]
    out = []
    for _ in range(count):
        text = rng.choice(sources)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            piece = rng.choice(ALPHABET)
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
    for text in mutants(seed=6, count=300):
        path.write_text(text, encoding="utf-8")
        for command in COMMANDS:
            status = cli.main([*command, str(path)])
            assert status in (0, 1, 2), (command, text)
        capsys.readouterr()
