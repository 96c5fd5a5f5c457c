import os
import re
import shutil
import subprocess
import sys

import pytest

import polylet
from polylet.cli import main


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


def test_typecheck_plain_defaults_to_host(write, capsys):
    path = write("fun x -> x")
    assert main(["typecheck", path]) == 0
    assert capsys.readouterr().out.strip() == "'a -> 'a"


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


def test_codegen_string(write, capsys):
    path = write(".<let y = 1 + 2 in fun x -> x + y>.")
    assert main(["codegen", "--backend", "string", path]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "(let t_1 = (1 + 2) in (fun x_1 -> (x_1 + t_1)))"


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


def test_run_plain_program(write, capsys):
    path = write("let x = ref (1 :: []) in (rset x 2, rset x 3)")
    assert main(["run", path]) == 0
    assert capsys.readouterr().out.strip() == "([2; 3; 1], [3; 1])"


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["codegen", "--backend", "nope", "x.pml"])
    assert exc.value.code == 2


def test_missing_file_errors(capsys):
    assert main(["typecheck", "/nonexistent/prog.pml"]) == 1


def test_difftest_subcommand(capsys):
    assert main(["difftest", "--seed", "1", "--count", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("TAP version 13")
    assert "not ok" not in out


@pytest.mark.skipif(shutil.which("polylet") is None, reason="entry point not installed")
def test_console_entry_point(write):
    path = write(".<1 + 2>.")
    proc = subprocess.run(
        ["polylet", "typecheck", path], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "int code"


def test_seed_env_controls_gensym(write, capsys, monkeypatch):
    path = write(".<let y = 1 + 2 in fun x -> x + y>.")
    monkeypatch.setenv("POLYLET_SEED", "5")
    assert main(["codegen", "--backend", "string", path]) == 0
    out = capsys.readouterr().out
    assert "t_5" in out and "x_5" in out


def test_deep_nesting_reports_resource_limit(write):
    path = write("(1 + " * 200 + "1" + ")" * 200)
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
        re.escape(path) + r": ResourceLimit: nesting exceeds the recursion limit \(\d+\)\n",
        proc.stderr,
    )
