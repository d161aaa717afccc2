import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

from hgmp import cli
from hgmp.cli import main
from hgmp.parser import parse_term
from hgmp.syntax import int_of_text, pretty

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"


def write(tmp_path, text, name="prog.hgmp"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


### compile

def test_compile_prints_residual(tmp_path, capsys):
    path = write(tmp_path, r"(\x.x) $((\x.x) astInt(7))")
    code, out, err = run_cli(capsys, "compile", path)
    assert code == 0
    assert out.strip() == r"(\x. x) 7"
    assert err == ""


def test_compile_typed_prints_type_comment(tmp_path, capsys):
    path = write(tmp_path, "$(astInt(1)) + 2")
    code, out, err = run_cli(capsys, "compile", "--mode", "typed", path)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1 + 2"
    assert lines[1] == "-- : Int"


def test_compile_quote(tmp_path, capsys):
    path = write(tmp_path, "[| 2 + $([| 3 + 4 |]) |]")
    code, out, _ = run_cli(capsys, "compile", path)
    assert code == 0
    assert out.strip() == "astAdd(astInt(2), astAdd(astInt(3), astInt(4)))"


def test_compile_typed_failure_names_residual(tmp_path, capsys):
    path = write(tmp_path, '2 + $(astLam(astStr("x"), astVar("x")))')
    code, out, err = run_cli(capsys, "compile", "--mode", "typed", path)
    assert code == 1
    assert out == ""
    assert "error[type]" in err
    assert r"\x. x" in err


### run

def test_run_value(tmp_path, capsys):
    path = write(tmp_path, r"(\x.x)(eval((\x.x) astInt(7)))")
    code, out, err = run_cli(capsys, "run", path)
    assert (code, out.strip(), err) == (0, "7", "")


def test_run_error_goes_to_stderr(tmp_path, capsys):
    path = write(tmp_path, r"2 + (\x.x)")
    code, out, err = run_cli(capsys, "run", path)
    assert code == 1
    assert out == ""
    assert "Stuck" in err and "rt" in err


def test_run_parse_error(tmp_path, capsys):
    path = write(tmp_path, "1 +")
    code, out, err = run_cli(capsys, "run", path)
    assert code == 1
    assert out == ""
    assert "parse error" in err


def test_run_unconvertible_literals_are_parse_errors(tmp_path, capsys):
    code, out, err = run_cli(capsys, "run", write(tmp_path, "²"))
    assert (code, out) == (1, "")
    assert err.startswith("parse error at bytes 0..2:")
    assert "Traceback" not in err
    # more digits than int() converts still make a literal
    path = write(tmp_path, "1 + " + "9" * 5000)
    code, out, err = run_cli(capsys, "run", path)
    assert (code, out, err) == (0, "1" + "0" * 5000 + "\n", "")


def test_run_deeply_nested_source(tmp_path, capsys):
    for mode, text, value in [
        ("untyped", "(" * 5000 + "1" + ")" * 5000, "1"),
        ("typed", "\\x: " + "(" * 12000 + "Int" + ")" * 12000 + ". x",
         "\\x:Int. x"),
    ]:
        code, out, err = run_cli(capsys, "run", "--mode", mode,
                                 write(tmp_path, text))
        assert (code, out.strip(), err) == (0, value, ""), mode


def test_run_prints_integers_over_the_str_limit(tmp_path, capsys):
    # 2 squared 14 times has 4933 digits, over CPython's int-to-str limit.
    path = write(tmp_path, "(\\x. x * x) (" * 14 + "2" + ")" * 14)
    value = 2 ** 2 ** 14
    digits = str(Decimal(value))  # Decimal converts with no digit limit
    code, out, err = run_cli(capsys, "run", path)
    assert (code, out, err) == (0, digits + "\n", "")
    code, out, err = run_cli(capsys, "run", "--trace", "text", path)
    assert (code, out) == (0, digits + "\n")
    assert err.endswith(f"=rt=>  {digits}\n")
    code, out, err = run_cli(capsys, "run", "--trace", "json", path)
    assert (code, err) == (0, "")
    doc = json.loads(out, parse_int=int_of_text)
    assert doc["value"] == {"ctor": "int", "atom": value, "children": []}
    # the printed value is a literal that reads back
    code, out, err = run_cli(capsys, "run", write(tmp_path, digits, "v.hgmp"))
    assert (code, out, err) == (0, digits + "\n", "")


def test_run_typed_type_error_says_error_type_once(tmp_path, capsys):
    path = write(tmp_path, "1 + true")
    code, out, err = run_cli(capsys, "run", "--mode", "typed", path)
    assert (code, out) == (1, "")
    assert err.startswith("error[type]: TypeError: expected Int, found Bool")
    assert err.count("error[type]") == 1


def test_run_trace_json(tmp_path, capsys):
    path = write(tmp_path, "lift(2 + 3)")
    code, out, err = run_cli(capsys, "run", "--trace", "json", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"]["ctor"] == "ast"
    assert [s["stage"] for s in doc["stages"]] == ["ct", "rt"]
    assert err == ""


def test_run_trace_text_on_stderr(tmp_path, capsys):
    path = write(tmp_path, "1 + 2")
    code, out, err = run_cli(capsys, "run", "--trace", "text", path)
    assert code == 0
    assert out.strip() == "3"
    assert "Add" in err and "=rt=>" in err


def test_untraced_run_and_compile_encode_no_json(tmp_path, capsys,
                                                 monkeypatch):
    # Only --trace json prints the value and residual as JSON, so no other
    # run may pay for encoding them.
    def refuse(*args):
        raise AssertionError("encoded JSON that is not printed")

    monkeypatch.setattr(cli, "to_json", refuse)
    path = write(tmp_path, r"(\x.x) $((\x.x) astInt(7))")
    for command in ("run", "compile"):
        for trace in ("none", "text"):
            code, out, err = run_cli(capsys, command, "--trace", trace, path)
            assert code == 0, (command, trace)
            assert out.strip().endswith("7"), (command, trace)


### step

def test_step_each_relation(tmp_path, capsys):
    cases = [
        ("ul", "x", 'astVar("x")'),
        ("dl", 'astVar("x")', "x"),
        ("ct", "[| 2 + 3 |]", "astAdd(astInt(2), astInt(3))"),
        ("rt", "lift(2 + 3)", "astInt(5)"),
    ]
    for relation, src, expected in cases:
        path = write(tmp_path, src, f"{relation}.hgmp")
        code, out, err = run_cli(capsys, "step", "--relation", relation, path)
        assert (code, out.strip()) == (0, expected), relation


def test_step_stuck_names_relation(tmp_path, capsys):
    path = write(tmp_path, r"\x.x")
    code, out, err = run_cli(capsys, "step", "--relation", "dl", path)
    assert code == 1
    assert out == ""
    assert "error[dl]" in err and "Stuck" in err


### typecheck

def test_typecheck(tmp_path, capsys):
    path = write(tmp_path, "astInt(3)")
    code, out, err = run_cli(capsys, "typecheck", path)
    assert (code, out.strip()) == (0, "Code")
    path = write(tmp_path, r"\x. x + 1", "f.hgmp")
    code, out, err = run_cli(capsys, "typecheck", path)
    assert (code, out.strip()) == (0, "Int -> Int")


def test_typecheck_failure(tmp_path, capsys):
    path = write(tmp_path, r"2 + (\x.x)")
    code, out, err = run_cli(capsys, "typecheck", path)
    assert code == 1
    assert "error[type]" in err


### configuration

def test_fuel_flag(tmp_path, capsys):
    path = write(tmp_path, r"(\x. x x) (\x. x x)")
    code, out, err = run_cli(capsys, "run", "--fuel", "1000", path)
    assert code == 1
    assert "FuelExhausted" in err


def test_fuel_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HGMP_FUEL", "2")
    path = write(tmp_path, "1 + 2 + 3")
    code, out, err = run_cli(capsys, "run", path)
    assert code == 1
    assert "FuelExhausted" in err
    monkeypatch.setenv("HGMP_FUEL", "50")
    code, out, err = run_cli(capsys, "run", path)
    assert (code, out.strip()) == (0, "6")
    monkeypatch.setenv("HGMP_FUEL", "abc")
    code, out, err = run_cli(capsys, "run", path)
    assert (code, err.strip()) == (2, "HGMP_FUEL is not an integer: 'abc'")


def test_bad_fuel_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, "1")
    code, out, err = run_cli(capsys, "run", "--fuel", "0", path)
    assert code == 2


def test_fuel_env_below_one_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HGMP_FUEL", "0")
    path = write(tmp_path, "1")
    code, out, err = run_cli(capsys, "run", path)
    assert (code, out, err) == (2, "", "fuel must be at least 1\n")


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_file(tmp_path, capsys):
    code, out, err = run_cli(capsys, "run", str(tmp_path / "nope.hgmp"))
    assert code == 1
    assert err


def test_run_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.hgmp"
    path.write_bytes(b"\xff")
    for command in ("run", "compile", "typecheck"):
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (1, ""), command
        assert len(err.strip().splitlines()) == 1
        assert "can't decode byte 0xff" in err
    code, out, err = run_cli(capsys, "step", "--relation", "rt", str(path))
    assert (code, out) == (1, "")
    assert "can't decode byte 0xff" in err


def test_run_typed_rec_shadowing_outer_binding(tmp_path, capsys):
    path = write(tmp_path, r"(\x. rec x x. x + 1) 0 5")
    for mode in ("untyped", "typed"):
        code, out, err = run_cli(capsys, "run", "--mode", mode, path)
        assert (code, out.strip(), err) == (0, "6", ""), mode


### repl

def repl_session(monkeypatch, capsys, lines):
    feed = iter(lines)

    def fake_input(prompt=""):
        try:
            return next(feed)
        except StopIteration:
            raise EOFError

    monkeypatch.setattr("builtins.input", fake_input)
    code = main(["repl"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repl_pipeline_and_directives(monkeypatch, capsys):
    code, out, err = repl_session(monkeypatch, capsys, [
        "lift(2+3)",
        ":t astInt(3)",
        ":ul [| x |]",
        ":dl astVar(\"x\")",
        ":fuel 900",
        ":mode typed",
        "eval{Int}(astInt(3)) + 1",
        ":quit",
    ])
    assert code == 0
    assert "astInt(5)" in out
    assert "Code" in out
    assert 'astPromote(#var, astStr("x"))' in out
    assert "\nx\n" in out or out.endswith("x\n")
    assert "4" in out
    assert err == ""


def test_repl_survives_errors(monkeypatch, capsys):
    code, out, err = repl_session(monkeypatch, capsys, [
        "1 +",            # parse error
        "2 + (\\x.x)",    # stuck
        ":mode sideways",  # bad directive
        "40 + 2",
    ])
    assert code == 0
    assert "42" in out
    assert "parse error" in err
    assert "Stuck" in err


def test_repl_rejects_fuel_below_one(monkeypatch, capsys):
    code, out, err = repl_session(monkeypatch, capsys, [":fuel 0", ":quit"])
    assert (code, out, err) == (0, "", "fuel must be at least 1\n")


def test_repl_keeps_its_budget_when_fuel_is_rejected(monkeypatch, capsys):
    code, out, err = repl_session(monkeypatch, capsys, [
        ":fuel 2", ":fuel 0", "1 + 2 + 3", ":quit"])
    assert (code, out) == (0, "")
    assert err.startswith("fuel must be at least 1\nerror[ct]: FuelExhausted")


def test_repl_load(monkeypatch, capsys, tmp_path):
    path = write(tmp_path, "1 + 1")
    code, out, err = repl_session(monkeypatch, capsys, [f":load {path}"])
    assert code == 0
    assert "2" in out


def test_repl_takes_no_trace_flag(monkeypatch, capsys):
    # A session starts untraced and :trace switches it, so a --trace
    # flag would be ignored: it is a usage error instead.
    monkeypatch.setattr("builtins.input", lambda prompt="": ":quit")
    with pytest.raises(SystemExit) as exc:
        main(["repl", "--trace", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trace json" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["typecheck", "corpus"])
def test_typecheck_and_corpus_take_no_trace_flag(command, tmp_path, capsys):
    # Neither prints a derivation, so a --trace flag would be ignored:
    # it is a usage error instead. So is each option the command does not
    # read: typecheck runs nothing, so has no fuel, and each corpus case
    # names its own modes.
    target = tmp_path if command == "corpus" else write(tmp_path, "1 + 1")
    unread = {"typecheck": ["--fuel", "5"], "corpus": ["--mode", "typed"]}
    for flag in (["--trace", "json"], unread[command]):
        with pytest.raises(SystemExit) as exc:
            main([command, *flag, str(target)])
        assert exc.value.code == 2
        assert (f"unrecognized arguments: {flag[0]}"
                in capsys.readouterr().err)


def test_repl_trace(monkeypatch, capsys):
    code, out, err = repl_session(monkeypatch, capsys, [
        ":trace on", "1 + 1", ":trace off", "2 + 2"])
    assert code == 0
    assert "=rt=>" in err


REPL_HELP = """directives:
  :mode typed|untyped   switch pipeline mode
  :fuel N               set the rule budget
  :trace on|off         print text derivations to stderr
  :ct E  :dl E  :ul E  :rt E   apply one relation to E
  :t E                  infer E's type
  :load FILE            run FILE through the pipeline
  :quit                 leave
"""


def test_repl_transcript_matches_each_command(monkeypatch, capsys,
                                              tmp_path):
    # Every directive, with exact stdout and stderr: a directive that
    # runs a term prints what the command it names prints on that source,
    # and `:trace on` is `--trace text`.
    monkeypatch.delenv("HGMP_FUEL", raising=False)

    def command(*argv, src=None):
        if src is not None:
            argv = (*argv, write(tmp_path, src, name="cmd.hgmp"))
        _, out, err = run_cli(capsys, *argv)
        return out, err

    def step(relation, src, *flags):
        return command("step", "--relation", relation, *flags, src=src)

    loaded = write(tmp_path, "lift(2 + 3)", name="loaded.hgmp")
    missing = str(tmp_path / "missing.hgmp")
    relations = [
        ("ct", "$(lift(2 + 3)) + 1"),
        ("dl", 'astApp(astVar("f"), astInt(1))'),
        ("ul", r"\x. x + 1"),
        ("rt", r"(\x. x * 2) 21"),
    ]
    session = [
        ("", ("", "")),
        (":help", (REPL_HELP, "")),
        (":trace maybe", ("", ":trace takes on or off\n")),
        (":frob 1", ("", "unknown directive :frob (:help lists them)\n")),
        (":mode sideways",
         ("", "mode must be one of ('typed', 'untyped'), got 'sideways'\n")),
        (":fuel 0", ("", "fuel must be at least 1\n")),
        (":fuel x", ("", ":fuel takes an integer, got 'x'\n")),
        (":load", ("", ":load takes a file name\n")),
        (":trace on", ("", "")),
        *[(f":{relation} {src}", step(relation, src, "--trace", "text"))
          for relation, src in relations],
        (r":rt 2 + (\x. x)", step("rt", r"2 + (\x. x)", "--trace", "text")),
        ("1 + 2 * 3", command("run", "--trace", "text", src="1 + 2 * 3")),
        (":trace off", ("", "")),
        *[(f":{relation} {src}", step(relation, src))
          for relation, src in relations],
        (r":t \x. x + 1", command("typecheck", src=r"\x. x + 1")),
        (":t 1 + true", command("typecheck", src="1 + true")),
        (f":load {loaded}", command("run", loaded)),
        (f":load {missing}", command("run", missing)),
        ("40 + 2", command("run", src="40 + 2")),
        ("1 +", command("run", src="1 +")),
        (":mode typed", ("", "")),
        ("eval{Int}(astInt(3)) + 1",
         command("run", "--mode", "typed", src="eval{Int}(astInt(3)) + 1")),
        (r":t \x. x", command("typecheck", "--mode", "typed",
                              src=r"\x. x")),
        (":fuel 2", ("", "")),
        ("1 + 2 + 3", command("run", "--mode", "typed", "--fuel", "2",
                              src="1 + 2 + 3")),
        (":quit", ("", "")),
        ("7", ("", "")),  # never read
    ]
    code, out, err = repl_session(monkeypatch, capsys,
                                  [line for line, _ in session])
    assert code == 0
    assert out == "".join(want_out for _, (want_out, _) in session)
    assert err == "".join(want_err for _, (_, want_err) in session)
    # End of input leaves with a newline.
    assert repl_session(monkeypatch, capsys, ["6"]) == (0, "6\n\n", "")


### corpus

def test_repo_corpus_passes(capsys):
    code, out, err = run_cli(capsys, "corpus", str(CORPUS))
    assert code == 0, err
    assert "corpus cases passed" in out
    assert "FAIL" not in err


def test_corpus_reports_failures(tmp_path, capsys):
    write(tmp_path, "-- modes: untyped\n1 + 1\n", "bad.hgmp")
    (tmp_path / "bad.expected").write_text("3\n")
    code, out, err = run_cli(capsys, "corpus", str(tmp_path))
    assert code == 1
    assert "FAIL" in err
    assert "0/1" in out


def test_corpus_file_not_utf8(tmp_path, capsys):
    (tmp_path / "bad.hgmp").write_bytes(b"\xff")
    code, out, err = run_cli(capsys, "corpus", str(tmp_path))
    assert (code, out) == (1, "")
    assert len(err.strip().splitlines()) == 1
    assert "can't decode byte 0xff" in err
    assert "bad.hgmp" in err


def test_corpus_traces_only_golden_cases(monkeypatch, capsys):
    # Only a golden reads derivations: every other case runs untraced,
    # so its value and error expectations check rt on closures.
    from hgmp import cli
    traced = {}
    real_pipeline, real_step = cli.run_pipeline, cli._step

    def pipeline(term, mode, fuel, trace):
        traced[pretty(term), mode] = trace
        return real_pipeline(term, mode, fuel, trace=trace)

    def step(relation, term, mode, fuel, trace):
        traced[pretty(term), mode] = trace
        return real_step(relation, term, mode, fuel, trace)

    monkeypatch.setattr(cli, "run_pipeline", pipeline)
    monkeypatch.setattr(cli, "_step", step)
    code, out, err = run_cli(capsys, "corpus", str(CORPUS))
    assert code == 0, err
    want = {}
    for path in CORPUS.glob("*.hgmp"):
        text = path.read_text(encoding="utf-8")
        directives = cli._corpus_directives(text)
        for mode in directives.get("modes", "untyped").split():
            term = pretty(parse_term(text, mode))
            want[term, mode] = "golden" in directives and mode == "untyped"
    assert traced == want
    assert 0 < sum(want.values()) < len(want)


def test_corpus_missing_expected(tmp_path, capsys):
    write(tmp_path, "-- modes: untyped\n1\n", "orphan.hgmp")
    code, out, err = run_cli(capsys, "corpus", str(tmp_path))
    assert code == 1
    assert "no .expected" in err


### the installed entry point works end to end

def run_module(*argv):
    """python -m argv in a fresh process that imports hgmp from src/."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run([sys.executable, "-m", *argv], capture_output=True,
                          text=True, env=env)


def test_console_script(tmp_path):
    path = write(tmp_path, "lift(2 + 3)")
    proc = run_module("hgmp.cli", "run", path)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "astInt(5)"


def test_python_dash_m_hgmp(tmp_path):
    path = write(tmp_path, "lift(2 + 3)")
    proc = run_module("hgmp", "run", path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "astInt(5)\n",
                                                           "")


@pytest.mark.parametrize("command, source, mode, stage", [
    ("run", " + ".join(["1"] * 30_000), "untyped", "ct"),
    ("run", " + ".join(["1"] * 30_000), "typed", "ct"),
    ("run", r"\x. " * 30_000 + "1", "untyped", "ct"),
    ("run", "(rec f n. if n == 0 then 0 else 1 + f (n - 1)) 25000",
     "untyped", "rt"),
    ("typecheck", " + ".join(["1"] * 30_000), "typed", "type"),
], ids=["chain", "typed chain", "lambdas", "count 25000", "typecheck chain"])
def test_deep_inputs_exit_1_without_a_traceback(tmp_path, command, source,
                                                mode, stage):
    # nested deeper than the CLI's recursion limit allows (count 1000
    # fits it, count 25000 does not); in a fresh process, as a user
    # meets it
    path = write(tmp_path, source)
    fuel = ("--fuel", "100000000") if command == "run" else ()
    proc = run_module("hgmp", command, "--mode", mode, *fuel, path)
    limit = f"the recursion limit ({cli._RECURSION_LIMIT}) allows"
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"error[type]: term nested deeper than {limit} "
        "(residual check)\n" if stage == "type" else
        f"error[{stage}]: DepthExhausted: term or run nested deeper than "
        f"{limit}\n")


### printing: one frame a level, and a cap on the size of a printed term

DEEP_AST = "astAdd(astInt(1), " * 11_999 + "astInt(1)" + ")" * 11_999


@pytest.mark.parametrize("command", [
    ("compile",), ("run",), ("step", "--relation", "rt")],
    ids=["compile", "run", "step rt"])
def test_a_deep_ast_that_ct_and_rt_return_prints(tmp_path, capsys,
                                                 command):
    # 12,000 levels at the CLI's limit: ct, rt and printing each take one
    # frame a level
    path = write(tmp_path, DEEP_AST)
    assert run_cli(capsys, *command, path) == (0, DEEP_AST + "\n", "")


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("command", ["compile", "run"])
def test_a_json_trace_takes_one_frame_a_level(tmp_path, capsys, monkeypatch,
                                              command):
    # A 200-term chain, at a recursion limit 300 frames above this test:
    # ct, traced rt and the JSON writer each take one frame a level, where
    # two a level would need 400. (At the CLI's own limit a 12,000-term
    # chain would fit too, but its tree-format trace grows as the square
    # of its length: about 9.5 GB.)
    limit = sys.getrecursionlimit()
    monkeypatch.setattr(cli, "_RECURSION_LIMIT", _stack_depth() + 300)
    path = write(tmp_path, " + ".join(["1"] * 200))
    try:
        code, out, err = run_cli(capsys, command, "--trace", "json", path)
    finally:
        sys.setrecursionlimit(limit)
    assert (code, err) == (0, "")
    trace = json.loads(out)
    assert trace["residual"]["ctor"] == "add"
    if command == "run":
        assert trace["value"] == {"atom": 200, "children": [], "ctor": "int"}


DEPTH = ("term or run nested deeper than the recursion limit "
         f"({cli._RECURSION_LIMIT}) allows")


def test_a_print_that_overflows_is_depth_exhausted(tmp_path, capsys,
                                                   monkeypatch):
    # a value, and an error's offending term, as if either were nested
    # too deep to print
    def overflow(m):
        raise RecursionError

    monkeypatch.setattr(cli, "pretty", overflow)
    path = write(tmp_path, "1 + 1")
    assert run_cli(capsys, "run", path) == (
        1, "", f"error[print]: DepthExhausted: {DEPTH}\n")
    assert run_cli(capsys, "run", "--fuel", "1", path) == (
        1, "", "error[ct]: FuelExhausted: rule application budget "
        f"exhausted\n  at: ({DEPTH})\n")


def doubling(n):
    r"""(\d. d (d (.. (\z. z))))(\x. \k. k x x), d applied n deep: a value
    whose tree doubles with each application, in about n objects."""
    return (r"(\d. " + "d (" * n + r"\z. z" + ")" * n
            + r")(\x. \k. k x x)")


TOO_LARGE = f"more than the {cli._PRINT_CAP} that print"


def test_a_value_too_large_to_print_is_a_documented_outcome(tmp_path,
                                                            capsys):
    # 6,597,069,766,652 nodes as a tree, counted on the DAG, not printed.
    # (A residual is no such DAG: ct spends a unit on each node of what
    # it returns, read as a tree.)
    path = write(tmp_path, doubling(40))
    start = time.perf_counter()
    outcome = run_cli(capsys, "run", path)
    assert time.perf_counter() - start < 1
    assert outcome == (1, "", "error[print]: TooLarge: term of "
                       f"6597069766652 nodes, {TOO_LARGE}\n")


def test_an_offending_term_too_large_to_print_is_counted(tmp_path, capsys):
    # At fuel 110 the run stops on a term of 258 nodes, which prints; at
    # 200, on one of 402,653,180, whose count stands in its place.
    path = write(tmp_path, doubling(40))
    code, out, err = run_cli(capsys, "run", "--fuel", "110", path)
    assert (code, out) == (1, "")
    assert err.startswith("error[rt]: FuelExhausted: ") and len(err) < 1024
    assert run_cli(capsys, "run", "--fuel", "200", path) == (
        1, "", "error[rt]: FuelExhausted: rule application budget "
        f"exhausted\n  at: (term of 402653180 nodes, {TOO_LARGE})\n")


def test_repl_reports_a_value_too_large_to_print(monkeypatch, capsys):
    code, out, err = repl_session(monkeypatch, capsys,
                                  [doubling(40), "1 + 1", ":quit"])
    assert (code, out) == (0, "2\n")
    assert err == (f"error[print]: TooLarge: term of 6597069766652 nodes, "
                   f"{TOO_LARGE}\n")


def test_python_dash_m_hgmp_repl():
    # Off a terminal, input() writes each prompt to stdout.
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-m", "hgmp", "repl"],
                          input="1 + 1\n:t 1\n:quit\n", capture_output=True,
                          text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "hgmp> 2\nhgmp> Int\nhgmp> ", "")


def test_repl_help(monkeypatch, capsys):
    code, out, err = repl_session(monkeypatch, capsys, [":help", ":quit"])
    assert code == 0
    assert ":mode" in out and ":load" in out


def test_corpus_empty_directory(tmp_path, capsys):
    code, out, err = run_cli(capsys, "corpus", str(tmp_path))
    assert code == 1
    assert "no .hgmp files" in err


def test_corpus_missing_golden(tmp_path, capsys):
    (tmp_path / "c.hgmp").write_text(
        "-- modes: untyped\n-- golden: ct\n1 + 1\n")
    (tmp_path / "c.expected").write_text("2\n")
    code, out, err = run_cli(capsys, "corpus", str(tmp_path))
    assert code == 1
    assert "missing golden" in err


def test_corpus_golden_mismatch(tmp_path, capsys):
    import json as _json
    (tmp_path / "golden").mkdir()
    (tmp_path / "c.hgmp").write_text(
        "-- modes: untyped\n-- golden: ct\n1 + 1\n")
    (tmp_path / "c.expected").write_text("2\n")
    (tmp_path / "golden" / "c.json").write_text(
        _json.dumps({"relation": "ct", "derivation": {"rule": "nope"}}))
    code, out, err = run_cli(capsys, "corpus", str(tmp_path))
    assert code == 1
    assert "derivation differs" in err


def test_corpus_reports_each_kind_of_mismatch(tmp_path, capsys):
    cases = {
        "value_for_error": ("1 + 1", "error: rt"),
        "other_error": (r"2 + (\x. x)", "error: ct"),
        "error_for_value": (r"2 + (\x. x)", "3"),
        "parse_error": ("1 +", "error: parse"),
    }
    for name, (source, expected) in cases.items():
        (tmp_path / f"{name}.hgmp").write_text(source + "\n")
        (tmp_path / f"{name}.expected").write_text(expected + "\n")
    code, out, err = run_cli(capsys, "corpus", str(tmp_path))
    assert (code, out) == (1, "1/4 corpus cases passed\n")
    stuck = ("error:rt (error[rt]: Stuck: add needs integer operands\n"
             "  at: 2 + (\\x. x))\n")
    assert err == (
        f"FAIL error_for_value [untyped]: expected a value, got {stuck}"
        f"FAIL other_error [untyped]: expected error:ct, got {stuck}"
        "FAIL value_for_error [untyped]: expected error:rt, got 2\n")


def test_corpus_golden_of_a_stage_the_case_does_not_run(tmp_path, capsys):
    (tmp_path / "golden").mkdir()
    (tmp_path / "c.hgmp").write_text(
        "-- modes: untyped\n-- relation: ct\n-- golden: rt\n1 + 1\n")
    (tmp_path / "c.expected").write_text("1 + 1\n")
    (tmp_path / "golden" / "c.json").write_text('{"derivation": {}}')
    code, out, err = run_cli(capsys, "corpus", str(tmp_path))
    assert (code, err) == (1, "FAIL c [untyped]: no rt derivation recorded\n")


def test_corpus_of_a_file_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, "1")
    code, out, err = run_cli(capsys, "corpus", path)
    assert (code, out, err) == (2, "", f"not a directory: {path}\n")


def _corpus_with_a_good_case(tmp_path, source, expected):
    """A corpus holding case c (source, expected) and a passing case ok."""
    (tmp_path / "c.hgmp").write_text(source)
    (tmp_path / "c.expected").write_text(expected)
    (tmp_path / "ok.hgmp").write_text("1 + 1\n")
    (tmp_path / "ok.expected").write_text("2\n")


def test_corpus_unknown_mode_fails_its_case(tmp_path, capsys):
    _corpus_with_a_good_case(tmp_path, "-- modes: typd\n1\n", "1\n")
    code, out, err = run_cli(capsys, "corpus", str(tmp_path))
    assert (code, out, err) == (1, "1/2 corpus cases passed\n",
                                "FAIL c: -- modes: unknown mode 'typd'\n")


def test_corpus_unknown_relation_fails_its_case(tmp_path, capsys):
    _corpus_with_a_good_case(tmp_path, "-- relation: cx\n1\n", "1\n")
    code, out, err = run_cli(capsys, "corpus", str(tmp_path))
    assert (code, out, err) == (
        1, "1/2 corpus cases passed\n",
        "FAIL c [untyped]: -- relation: unknown relation 'cx'\n")


def test_corpus_unknown_directive_fails_its_case(tmp_path, capsys):
    # `mode` for `modes` would run the case untyped only. A comment whose
    # text before its colon is more than one word stays a comment.
    _corpus_with_a_good_case(
        tmp_path, "-- Runs in: both modes\n-- mode: typed\n1\n", "1\n")
    code, out, err = run_cli(capsys, "corpus", str(tmp_path))
    assert (code, out, err) == (
        1, "1/2 corpus cases passed\n",
        "FAIL c [untyped]: -- mode: unknown directive 'mode'\n")


def test_corpus_unknown_compare_fails_its_case(tmp_path, capsys):
    _corpus_with_a_good_case(tmp_path, "-- compare: residul\n1\n", "1\n")
    code, out, err = run_cli(capsys, "corpus", str(tmp_path))
    assert (code, out, err) == (
        1, "1/2 corpus cases passed\n",
        "FAIL c [untyped]: -- compare: unknown comparison 'residul'\n")


def test_corpus_empty_modes_fails_its_case(tmp_path, capsys):
    _corpus_with_a_good_case(tmp_path, "-- modes:\n1\n", "1\n")
    code, out, err = run_cli(capsys, "corpus", str(tmp_path))
    assert (code, out, err) == (1, "1/2 corpus cases passed\n",
                                "FAIL c: -- modes: names no mode\n")


def test_corpus_exact_compares_binder_annotations(tmp_path, capsys):
    # residual compares up to renaming, ignoring annotations; exact
    # compares the printed text, so an expectation that keeps \x:Int.
    # fails where quoting erased it
    source = "$([| \\x:Int. x |]) 3\n"
    for compare, want in [("residual", (0, "2/2 corpus cases passed\n", "")),
                          ("exact", (1, "1/2 corpus cases passed\n",
                                     "FAIL c [untyped]: expected "
                                     "(\\x:Int. x) 3, got (\\x. x) 3\n"))]:
        _corpus_with_a_good_case(tmp_path, f"-- compare: {compare}\n"
                                 + source, "(\\x:Int. x) 3\n")
        assert run_cli(capsys, "corpus", str(tmp_path)) == want, compare
    _corpus_with_a_good_case(tmp_path, "-- compare: exact\n" + source,
                             "(\\x. x) 3\n")
    assert run_cli(capsys, "corpus", str(tmp_path)) == (
        0, "2/2 corpus cases passed\n", "")


def test_corpus_expected_that_does_not_parse_fails_its_case(tmp_path, capsys):
    _corpus_with_a_good_case(tmp_path, "1\n", "1 +\n")
    code, out, err = run_cli(capsys, "corpus", str(tmp_path))
    assert (code, out) == (1, "1/2 corpus cases passed\n")
    assert err.startswith("FAIL c [untyped]: .expected does not parse: "
                          "parse error at bytes 3..3"), err
