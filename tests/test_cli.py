import os
import re
import shutil
import subprocess
import sys

import pytest

import polylet
from polylet import typesys
from polylet.cli import main
from polylet.parser import parse_source, parse_term
from polylet.unstage import translate


@pytest.fixture
def write(tmp_path):
    def _write(text, name="prog.pml"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


def test_typecheck_staged(write, capsys):
    path = write('.<let f = fun () -> ref [] in (rset (f ()) 2, rset (f ()) "3")>.')
    assert main(["typecheck", path]) == 0
    assert capsys.readouterr().out.strip() == "(int list * string list) code"


def test_typecheck_reject_exits_one(write, capsys):
    path = write('.<let x = ref [] in (rset x 2, rset x "3")>.')
    assert main(["typecheck", path]) == 1
    err = capsys.readouterr().err
    assert "TypeError" in err
    assert path in err


def test_typecheck_host_system(write, capsys):
    path = write(".<let y = 1 + 2 in fun x -> x + y>.")
    assert main(["typecheck", "--system", "host", path]) == 0
    assert capsys.readouterr().out.strip() == "(int -> int) cod"


def test_typecheck_plain_program_defaults_to_staged(write, capsys):
    path = write("fun x -> x")
    assert main(["typecheck", path]) == 0
    assert capsys.readouterr().out.strip() == "'a -> 'a"


def _fun_chain(write, n):
    return write("".join(f"fun x{i} -> " for i in range(n)) + "x0")


def _cli(*args):
    """Run the CLI in a fresh interpreter, at the default recursion limit."""
    src = os.path.dirname(os.path.dirname(polylet.__file__))
    return subprocess.run(
        [sys.executable, "-m", "polylet.cli", *args],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )


def _arrows(n):
    return " -> ".join([typesys._var_name(i) for i in range(n)] + ["'a"]) + "\n"


def test_typecheck_long_plain_fun_chain(write):
    # A plain program goes to the staged system like any other, and its
    # type prints at the default recursion limit however long the arrows.
    n = 900
    proc = _cli("typecheck", _fun_chain(write, n))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _arrows(n)


def test_translate_and_host_typecheck_long_plain_fun_chain(write):
    # A plain program is its own translation, found without recursion.
    n = 900
    path = _fun_chain(write, n)
    proc = _cli("typecheck", "--system", "host", path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _arrows(n)
    proc = _cli("translate", path)
    assert proc.returncode == 0, proc.stderr
    with open(path, encoding="utf-8") as handle:
        assert proc.stdout == handle.read() + "\n"


def test_typecheck_long_plain_literal_let_chain(write):
    # Whether a let may generalize is decided without recursion, so a long
    # chain of lets costs one Python frame per let, like any other chain.
    n = 900
    path = write("".join(f"let x{i} = {i} in " for i in range(n)) + "1")
    proc = _cli("typecheck", path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "int\n"


def test_host_typecheck_of_a_long_quoted_let_chain(write):
    # Host inference spends three Python frames on each quoted let: the
    # combinator dispatch, `new_scope`'s rule, which types its `fun`'s body
    # itself, and the let's.
    n = 300
    lets = "".join(f"let x{i} = x{i - 1} + 1 in " for i in range(1, n))
    proc = _cli("typecheck", "--system", "host", write(f".<let x0 = 1 in {lets}x{n - 1}>."))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "int cod\n"


def _pairs(n, tail=None):
    # let x0 = 1 in let x1 = (x0, x0) in ...: n nodes as a DAG, 2^n - 1 as a tree.
    lets = "".join(f"let x{i} = (x{i - 1}, x{i - 1}) in " for i in range(1, n))
    return f"let x0 = 1 in {lets}{tail or f'x{n - 1}'}"


def _splices(n):
    # let c0 = .<1>. in let c1 = .<(.~c0, .~c0)>. in ...: code of 2^n - 1 nodes as a tree.
    lets = "".join(f"let c{i} = .<(.~c{i - 1}, .~c{i - 1})>. in " for i in range(1, n))
    return f"let c0 = .<1>. in {lets}c{n - 1}"


@pytest.mark.parametrize(
    "args, text, message",
    [
        (["typecheck"], f".<{_pairs(40)}>.", "a type of 1099511627776 nodes"),
        (["typecheck", "--system", "host"], f".<{_pairs(40)}>.", "a type of 1099511627776 nodes"),
        (["run"], _pairs(40), "a value of 1099511627775 nodes"),
        (["typecheck"], _pairs(40, "x39 + 1"), "a type of 1099511627775 nodes"),
        # A persisted cell, behind a thunk the value restriction lets
        # through, is made to hold itself: its tree has no end.
        (["run"], ".<let f = fun () -> %(ref []) in rset (f ()) (f ())>.", "a value of more than 1000000 nodes"),
        # Spliced and lifted code shares as the program does, and the scope
        # check, which walks it as a tree, stops at the same limit.
        *[
            (["codegen", "--backend", backend], text, "a code value of 4194303 nodes")
            for backend in ("quote", "string")
            for text in (_splices(22), _pairs(22, ".<%x21>."))
        ],
    ],
    ids=["staged", "host", "run", "mismatch", "cyclic-run", "quote-splice", "quote-lift", "string-splice", "string-lift"],
)
def test_printing_too_large_a_type_or_value_is_a_resource_limit(write, args, text, message):
    # Inference and evaluation share what the program shares; printing
    # cannot, so its size is counted first and stops at a named limit.
    proc = _cli(*args, write(text))
    assert proc.returncode == 1, proc.stdout[:200]
    assert proc.stdout == ""
    assert proc.stderr.endswith(f": ResourceLimit: {message} exceeds the print limit (1000000)\n"), proc.stderr


def test_run_of_a_long_chain_of_generated_calls(write):
    # Generated code runs on the machine's stack: 300 generated functions,
    # each calling the one before, run at the default recursion limit.
    n = 300
    lets = "".join(f"let f{i} = fun x -> f{i - 1} x + 1 in " for i in range(1, n))
    proc = _cli("run", "--arg", "0", write(f".<let f0 = fun x -> x + 1 in {lets}f{n - 1}>."))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{n}\n"


def test_run_shares_a_persisted_value_without_rebuilding_it(write):
    # x39 is a DAG of 40 nodes but a tree of 2^40: the eval backend
    # persists it as it is, where rebuilding it as a literal would not end.
    proc = _cli("run", write(_pairs(40, ".<let y = %x39 in 7>.")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "7\n"


def test_gen_policy_flag(write, capsys):
    relaxed_only = 'let x = (let r = ref [] in !r) in (2 :: x, "3" :: x)'
    path = write(relaxed_only)
    assert main(["typecheck", "--system", "staged", path]) == 0
    capsys.readouterr()
    assert main(["typecheck", "--system", "staged", "--gen-policy", "value", path]) == 1


def test_translate(write, capsys):
    path = write('.<let x = [] in (2::x, "3"::x)>.')
    assert main(["translate", path]) == 0
    out = capsys.readouterr().out
    assert "new_scope" in out and "genlet" in out


def test_translation_of_quoted_rset_reads_back(write, capsys):
    # The combinator prints as `rset_`, which no reader takes for the
    # plain `rset`.
    text = ".<let x = ref [] in rset x 1>."
    assert main(["translate", write(text)]) == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith(" rset_ x (int 1))")
    assert parse_term(out) == translate(parse_source(text))


def test_codegen_string(write, capsys):
    path = write(".<let y = 1 + 2 in fun x -> x + y>.")
    assert main(["codegen", "--backend", "string", path]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "let t_1 = (1 + 2) in fun x_1 -> (x_1 + t_1)"


def test_codegen_quote(write, capsys):
    path = write(".<let y = 1 + 2 in fun x -> x + y>.")
    assert main(["codegen", "--backend", "quote", path]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "let t_1 = (1 + 2) in fun x_1 -> (x_1 + t_1)"


def test_codegen_rejects_ill_typed_generator(write, capsys):
    path = write('.<let x = ref [] in (rset x 2, rset x "3")>.')
    assert main(["codegen", "--backend", "string", path]) == 1
    assert "TypeError" in capsys.readouterr().err


def test_run_function_with_arg(write, capsys):
    path = write("let c = .<1 + 2>. in .<fun x -> .~c + x>.")
    assert main(["run", path, "--arg", "2"]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_run_first_order(write, capsys):
    path = write('.<let x = [] in (2::x, "3"::x)>.')
    assert main(["run", path]) == 0
    assert capsys.readouterr().out.strip() == '([2], ["3"])'


def test_run_unsound_program_reports_violation(write, capsys):
    path = write('.<let f = fun () -> %(ref []) in (rset (f ()) 2, rset (f ()) "3")>.')
    assert main(["run", path]) == 1
    assert "SoundnessViolation" in capsys.readouterr().err


def test_run_arg_on_a_non_function_result(write, capsys):
    path = write(".<1 + 2>.")
    assert main(["run", path, "--arg", "1"]) == 1
    message = ": TypeError: --arg given but the program result is not a function\n"
    assert capsys.readouterr().err == path + message


def test_run_result_holding_code(write, capsys):
    # The cell keeps the code of a quoted lambda's variable, so the result
    # is a list of code values, which print as `<code>`.
    path = write("let r = ref [] in let c = .<fun x -> .~(let _ = rset r .<x>. in .<x>.)>. in !r")
    assert main(["run", path]) == 0
    assert capsys.readouterr().out == "[<code>]\n"


def test_run_plain_program(write, capsys):
    path = write("let x = ref (1 :: []) in (rset x 2, rset x 3)")
    assert main(["run", path]) == 0
    assert capsys.readouterr().out.strip() == "([2; 3; 1], [3; 1])"


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_examples(write, capsys, monkeypatch):
    # README's example session, and its two type-printing examples, print
    # exactly what README shows.
    monkeypatch.delenv("POLYLET_SEED", raising=False)
    with open(README, encoding="utf-8") as handle:
        readme = handle.read()
    program, session = re.search(r"containing\n`([^`]*)`:\n\n```\n(.*?)```", readme, re.S).groups()
    path = write(program)
    runs = re.findall(r"^\$ polylet (.*)\n((?:[^$].*\n)*)", session, re.M)
    commands = [command.split()[0] for command, _ in runs]
    assert commands == ["typecheck", "translate", "codegen", "run"]
    for command, shown in runs:
        assert main([path if word == "prog.pml" else word for word in command.split()]) == 0
        assert capsys.readouterr().out == shown
    prose = " ".join(readme.split())
    example = r"`polylet (typecheck [^`]*)` of `([^`]*)` prints `([^`]*)`"
    command, program, shown = re.search(example, prose).groups()
    assert main([*command.split(), write(program)]) == 0
    assert capsys.readouterr().out == shown + "\n"
    program, shown = re.search(r"way: `([^`]*)` gives `([^`]*)`", prose).groups()
    path = write(program)
    assert main(["typecheck", path]) == 1
    assert capsys.readouterr().err == f"{path}: TypeError: {shown}\n"


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["codegen", "--backend", "nope", "x.pml"])
    assert exc.value.code == 2


def test_missing_file_errors(capsys):
    assert main(["typecheck", "/nonexistent/prog.pml"]) == 1


# Line 2 holds a two-byte character before the bad byte: the offset counts
# bytes, the column characters.
NOT_UTF8 = b'1 +\n  "\xc3\xa9" \xff\xfe'


@pytest.mark.parametrize(
    "command",
    [["typecheck"], ["translate"], ["codegen", "--backend", "string"], ["run"]],
    ids=lambda command: command[0],
)
def test_source_that_is_not_utf8_gets_a_diagnostic(tmp_path, capsys, command):
    path = tmp_path / "prog.pml"
    path.write_bytes(NOT_UTF8)
    assert main([*command, str(path)]) == 1
    message = "ParseError: source is not UTF-8 at byte offset 11: invalid start byte"
    assert capsys.readouterr().err == f"{path}:2:7: {message}\n"


def test_importing_the_cli_leaves_difftest_unloaded():
    src = os.path.dirname(os.path.dirname(polylet.__file__))
    probe = "import sys, polylet.cli; print(*(m for m in sys.modules if m.startswith('polylet')))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "polylet.cli" in loaded
    assert "polylet.difftest" not in loaded and "polylet.corpus" not in loaded


def test_difftest_subcommand(capsys):
    assert main(["difftest", "--seed", "1", "--count", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("TAP version 13")
    assert "not ok" not in out


def test_negative_difftest_count_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["difftest", "--count", "-5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--count" in captured.err and captured.out == ""


@pytest.mark.skipif(shutil.which("polylet") is None, reason="entry point not installed")
def test_console_entry_point(write):
    path = write(".<1 + 2>.")
    proc = subprocess.run(
        ["polylet", "typecheck", path], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "int code"


def test_module_entry_point(write):
    path = write(".<1 + 2>.")
    src = os.path.dirname(os.path.dirname(polylet.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "polylet", "typecheck", path],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "int code\n"


def test_seed_env_controls_gensym(write, capsys, monkeypatch):
    path = write(".<let y = 1 + 2 in fun x -> x + y>.")
    monkeypatch.setenv("POLYLET_SEED", "5")
    assert main(["codegen", "--backend", "string", path]) == 0
    out = capsys.readouterr().out
    assert "t_5" in out and "x_5" in out


@pytest.mark.parametrize("seed", ["-1", "abc"])
def test_bad_seed_env_is_a_usage_error(write, capsys, monkeypatch, seed):
    path = write(".<let y = 1 + 2 in fun x -> x + y>.")
    monkeypatch.setenv("POLYLET_SEED", seed)
    with pytest.raises(SystemExit) as exc:
        main(["codegen", "--backend", "string", path])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "POLYLET_SEED" in captured.err and captured.out == ""


def test_deep_nesting_reports_resource_limit(write):
    path = write("(1 + " * 1_000 + "1" + ")" * 1_000)
    src = os.path.dirname(os.path.dirname(polylet.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "polylet.cli", "typecheck", path],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert re.fullmatch(
        re.escape(path) + r":1:\d+: ResourceLimit: nesting exceeds the recursion limit \(\d+\)\n",
        proc.stderr,
    )


# Python refuses to convert integers of more digits than this between int
# and str; polylet leaves the limit in force and names it in a diagnostic.
DIGITS = sys.get_int_max_str_digits()
HUGE = "9" * DIGITS
DOUBLED = f"let a0 = {HUGE} in " + "".join(f"let a{i} = a{i - 1} + a{i - 1} in " for i in range(1, 40))


@pytest.mark.parametrize(
    "command, text, message",
    [
        (["typecheck"], ".<" + "9" * (DIGITS + 700) + ">.",
         f":1:3: ParseError: integer literal has more than {DIGITS} digits"),
        (["codegen", "--backend", "string"], DOUBLED + ".<%a39>.",
         f": ResourceLimit: integer has more than {DIGITS} digits, too many to print"),
        (["codegen", "--backend", "quote"], DOUBLED + ".<%a39>.",
         f": ResourceLimit: integer has more than {DIGITS} digits, too many to print"),
        (["run"], f"{HUGE} + {HUGE}",
         f": ResourceLimit: integer has more than {DIGITS} digits, too many to print"),
        (["run", "--arg", HUGE + "9"], ".<fun x -> x>.",
         f": TypeError: integer literal has more than {DIGITS} digits"),
    ],
    ids=["tokenize", "pretty-string", "pretty-quote", "render_value", "run-arg"],
)  # fmt: skip
def test_integers_past_the_digit_limit_get_a_diagnostic(write, capsys, command, text, message):
    path = write(text)
    assert main([*command, path]) == 1
    assert capsys.readouterr().err == path + message + "\n"


def test_outputs_match_the_committed_record():
    # tests/outcomes.py reruns every command of tests/outcomes.txt and
    # names the first lines that differ; `--update` rewrites the record.
    script = os.path.join(os.path.dirname(__file__), "outcomes.py")
    env = {k: v for k, v in os.environ.items() if k != "POLYLET_SEED"}
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
