"""Command-line front door: typecheck, translate, codegen, run, difftest."""

from __future__ import annotations

import argparse
import os
import sys

from . import syntax as S
from .backends import StringCode, evaluate
from .diagnostics import Diagnostic, location, parse_error, recursion_limit, type_error
from .engine import VCode, VClosure, parse_value_literal, render_value
from .parser import parse_source
from .typecheck import GenPolicy, infer_host, infer_staged
from .typesys import TypeEnv, render_scheme
from .unstage import translate

_POLICIES = {p.value: p for p in GenPolicy}


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as err:  # decoded in one piece: offsets are the file's
            text = err.object[: err.start].decode("utf-8")
            message = f"source is not UTF-8 at byte offset {err.start}: {err.reason}"
            raise parse_error(message, location(text, len(text))) from None


def _cmd_typecheck(args: argparse.Namespace) -> int:
    expr = parse_source(_read(args.file))
    policy = _POLICIES[args.gen_policy]
    if args.system == "staged":
        scheme = infer_staged(TypeEnv(), expr, policy)
        print(render_scheme(scheme, code_word="code"))
    else:
        scheme = infer_host(TypeEnv(), translate(expr), policy)
        print(render_scheme(scheme, code_word="cod"))
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    expr = parse_source(_read(args.file))
    print(S.pretty(translate(expr)))
    return 0


def _cmd_codegen(args: argparse.Namespace) -> int:
    expr = parse_source(_read(args.file))
    infer_staged(TypeEnv(), expr)  # reject ill-typed generators up front
    ev = evaluate(translate(expr), args.backend, name_start=args.name_start)
    value = ev.value
    if not isinstance(value, VCode):
        print(render_value(value))
    elif isinstance(value.code, StringCode):
        print(value.code.text)
    else:  # a QuoteCode
        print(S.pretty(value.code.tree))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    expr = parse_source(_read(args.file))
    infer_staged(TypeEnv(), expr)
    ev = evaluate(translate(expr), "eval", name_start=args.name_start)
    value = ev.force()
    if args.arg is not None:
        if not isinstance(value, VClosure):
            raise type_error("--arg given but the program result is not a function")
        value = ev.call(value, parse_value_literal(args.arg))
    print(render_value(value))
    return 0


def _cmd_difftest(args: argparse.Namespace) -> int:
    from . import difftest  # only this command needs the corpus and generator
    results = difftest.run_all(seed=args.seed, count=args.count)
    print(difftest.render_tap(results))
    return 0 if difftest.failed_count(results) == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polylet",
        description="Two-stage mini-ML: staged typechecking, unstaging to "
        "code combinators, and three code-generation backends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_type = sub.add_parser("typecheck", help="infer the type scheme of a program")
    p_type.add_argument("file")
    p_type.add_argument("--system", choices=("staged", "host"), default="staged")
    p_type.add_argument(
        "--gen-policy", dest="gen_policy", choices=tuple(_POLICIES), default="relaxed"
    )
    p_type.set_defaults(fn=_cmd_typecheck)

    p_tr = sub.add_parser("translate", help="print the unstaged combinator term")
    p_tr.add_argument("file")
    p_tr.set_defaults(fn=_cmd_translate)

    p_cg = sub.add_parser("codegen", help="generate code with a printing backend")
    p_cg.add_argument("file")
    p_cg.add_argument("--backend", choices=("string", "quote"), required=True)
    p_cg.set_defaults(fn=_cmd_codegen)

    p_run = sub.add_parser("run", help="generate code with the eval backend and run it")
    p_run.add_argument("file")
    p_run.add_argument("--arg", default=None, help="literal to apply a function result to")
    p_run.set_defaults(fn=_cmd_run)

    p_dt = sub.add_parser("difftest", help="run the differential check suite")
    p_dt.add_argument("--seed", type=int, default=0)
    p_dt.add_argument("--count", type=int, default=100)
    p_dt.set_defaults(fn=_cmd_difftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Generated names are `x_N`: only a plain number keeps them re-parseable.
    seed = os.environ.get("POLYLET_SEED", "1")
    try:
        if not (seed.isascii() and seed.isdecimal()):
            raise ValueError
        args.name_start = int(seed)  # raises past Python's integer-string limit
    except ValueError:
        parser.error(f"POLYLET_SEED must be a non-negative decimal integer, not {seed!r}")
    if getattr(args, "count", 0) < 0:
        parser.error(f"--count must be non-negative, not {args.count}")
    filename = getattr(args, "file", "<input>")
    try:
        return args.fn(args)
    except Diagnostic as diag:
        print(diag.render(filename), file=sys.stderr)
        return 1
    except RecursionError:
        print(recursion_limit().render(filename), file=sys.stderr)
        return 1
    except OSError as err:
        print(err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
