"""The command-line driver: subcommands, exit statuses, determinism."""

import subprocess
import sys
from pathlib import Path as FsPath

import pytest

from evocat import cli, textio

ROOT = FsPath(__file__).resolve().parents[1]
STDLIB = ROOT / "src" / "evocat" / "stdlib.evo"

DIVERGING = """
spin {
  args { n = $n }
  mode = 1
  rules {
    #0 { lhs : loop { #0 = $X } rhs : loop { #0 = $X } }
  }
  result : loop { #0 = [args.n] }
}
"""

ECHO = """
main {
  args { }
  mode = 0
  body {
    #0 { at = [dev.stdout] to = [dev.stdin] }
    #1 { at = [dev.stdout] to = [dev.clock] }
    #2 { at = [dev.stdout] to = [dev.clock] }
    #3 { at = [result] to = 0 }
  }
  result = 0
}
"""


NESTED_FAILURE = """
inner {
  args { }
  mode = 0
  body {
    #0 { at = [x] to = 1 }
    #1 { at = [y] to = 2 }
    #2 { at = [result] to : rem { #0 = 1 #1 = 0 } }
  }
  result = 0
}
outer {
  args { }
  mode = 0
  body { #0 { at = [result] to : inner { } } }
  result = 0
}
"""


# each but k, a 0-slot template, fails in its instruction 1, after
# instruction 0 wrote x
BODY_FAILURES = """
unbound { args { } mode = 0 body { #0 { at = [x] to = 1 } #1 { at = [y] to = [nope] } } x = 0 result = 0 }
deep { args { } mode = 0 body { #0 { at = [x] to = 1 } #1 { at = [result.#3] to = 2 } } x = 0 result = 0 }
jump { args { } mode = 0 body { #0 { at = [x] to = 1 } #1 { at = [ip] to { a = 1 } } } x = 0 result = 0 }
pick { args { } mode = 0 body { #0 { at = [x] to = 1 } #1 { at = [y] to : select { #0 = 3 #1 = 1 } } } x = 0 result = 0 }
k { args { } mode = 0 body { } result = 0 }
extra { args { } mode = 0 body { #0 { at = [x] to = 1 } #1 { at = [y] to : k { #0 = 1 } } } x = 0 result = 0 }
"""


NEST = """
nest {
  args { n = $n }
  mode = 0
  body {
    #0 { at = [ip] to : if { #0 : eq { #0 = [args.n] #1 = 0 } #1 = 4 #2 = 1 } }
    #1 { at = [result] to : pair { #0 = [result] #1 = 0 } }
    #2 { at = [args.n] to : monus { #0 = [args.n] #1 = 1 } }
    #3 { at = [ip] to = 0 }
  }
  result = 0
}
"""

# 10**n, one digit at a time
BIG = """
big {
  args { n = $n }
  mode = 0
  body {
    #0 { at = [result] to = 1 }
    #1 { at = [ip] to : if { #0 : eq { #0 = [args.n] #1 = 0 } #1 = 5 #2 = 2 } }
    #2 { at = [result] to : prod { #0 = [result] #1 = 10 } }
    #3 { at = [args.n] to : monus { #0 = [args.n] #1 = 1 } }
    #4 { at = [ip] to = 1 }
  }
  result = 0
}
"""

# 10 squared fourteen times has 16 385 digits: more than str() converts by default
HUGE_REM = """
huge {
  args { }
  mode = 0
  body {
    #0 { at = [x] to = 10 }
%s
    #15 { at = [result] to : rem { #0 = [x] #1 = 0 } }
  }
  result = 0
}
""" % "\n".join(f"    #{k} {{ at = [x] to : prod {{ #0 = [x] #1 = [x] }} }}" for k in range(1, 15))

STDOUT_VAR = """
main { args { } mode = 0 body { #0 { at = [dev.stdout] to = $x } } result = 0 }
"""


def evocat(*args, stdin="", cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "evocat.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def header_command(demo: str) -> tuple[str, list[str]]:
    """The shell command in a demo's header comment, its ``\\`` line breaks
    joined: what comes before ``evocat``, and the arguments after it."""
    lines = (ROOT / "demos" / demo).read_text().splitlines()
    text = " ".join(line[2:].strip() for line in lines if line.startswith("//   "))
    before, after = text.replace("\\ ", "").split("evocat ", 1)
    return before, after.split()


class TestRun:
    def test_gcd(self):
        proc = evocat("run", str(STDLIB), "--entry", "gcd", "--arg", "arg1=12", "--arg", "arg2=8")
        assert proc.returncode == 0
        assert proc.stdout == "4\n"

    def test_fact(self):
        proc = evocat("run", str(STDLIB), "--entry", "fact", "--arg", "n=10")
        assert (proc.returncode, proc.stdout) == (0, "3628800\n")

    @pytest.mark.parametrize(
        "demo, stdin, out",
        [
            ("weekday.evo", "", "3\n"),
            # a compiled term with labelled operands that read a device
            ("console.evo", "one\ntwo\n", "one\ntwo\n3\n0\n"),
        ],
    )
    def test_a_shipped_demo_runs_as_its_header_says(self, demo, stdin, out):
        before, args = header_command(demo)
        assert before == (f"printf {stdin!r} | " if stdin else "")
        proc = evocat(*args, stdin=stdin, cwd=ROOT)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")

    def test_missing_argument_names_the_slot(self):
        proc = evocat("run", str(STDLIB), "--entry", "gcd", "--arg", "arg1=12")
        assert proc.returncode == 2
        assert "arg2" in proc.stderr

    def test_repeated_argument_label_is_an_argument_error(self):
        proc = evocat("run", str(STDLIB), "--entry", "fact", "--arg", "n=3", "--arg", "n=4")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "argument error" in proc.stderr and "'n'" in proc.stderr

    def test_a_second_in_process_run_sees_no_argument_of_the_first(self, capsys):
        # one parser serves every call in a process
        assert cli.main(["run", str(STDLIB), "--entry", "fact", "--arg", "n=3"]) == 0
        assert capsys.readouterr() == ("6\n", "")
        assert cli.main(["run", str(STDLIB), "--entry", "fact"]) == 2
        assert capsys.readouterr() == ("", "evocat: resolution error: argument slot 'n' is still empty\n")

    def test_unknown_entry(self):
        proc = evocat("run", str(STDLIB), "--entry", "nothing")
        assert proc.returncode == 2

    def test_fuel_exhaustion(self, tmp_path):
        program = tmp_path / "spin.evo"
        program.write_text(DIVERGING)
        proc = evocat("run", str(program), "--entry", "spin", "--arg", "n=1", "--fuel", "5")
        assert proc.returncode == 3
        assert "FuelExhausted" in proc.stderr

    def test_nested_failure_names_innermost_instruction(self, tmp_path, capsys):
        program = tmp_path / "nested.evo"
        program.write_text(NESTED_FAILURE)
        assert cli.main(["run", str(program), "--entry", "outer"]) == 3
        err = capsys.readouterr().err
        assert "(instruction 2)" in err and "DivisionByZero" in err

    @pytest.mark.parametrize(
        "entry, status, message",
        [
            ("unbound", 3, "runtime error (instruction 1): PathUnresolvable: no node at nope"),
            ("deep", 3, "runtime error (instruction 1): PathUnresolvable: result is not a set"),
            ("jump", 3, "runtime error (instruction 1): EvalError: frame child 'ip'"),
            ("pick", 3, "runtime error (instruction 1): NotASet: select needs a set"),
            ("extra", 3, "runtime error (instruction 1): MissingArgument: call provides 1 operands for 0 slots"),
        ],
    )
    def test_an_error_in_a_body_names_its_instruction(self, tmp_path, capsys, entry, status, message):
        program = tmp_path / "fail.evo"
        program.write_text(BODY_FAILURES)
        assert cli.main(["run", str(program), "--entry", entry]) == status
        assert capsys.readouterr().err.startswith(f"evocat: {message}")

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--entry", "jump.body"], "jump.body is not a function template"),
            (["--entry", "k", "--arg", "m=1"], "no argument slot named 'm'"),
        ],
    )
    def test_an_error_in_the_entry_or_its_slots_exits_2(self, tmp_path, capsys, args, message):
        program = tmp_path / "fail.evo"
        program.write_text(BODY_FAILURES)
        assert cli.main(["run", str(program), *args]) == 2
        assert capsys.readouterr().err == f"evocat: resolution error: {message}\n"

    def test_deep_recursion_is_a_runtime_error(self, capsys):
        assert cli.main(["run", str(STDLIB), "--entry", "fact", "--arg", "n=200"]) == 3
        err = capsys.readouterr().err
        assert "DepthExceeded" in err
        assert "Traceback" not in err

    def test_too_deep_result_is_a_runtime_error(self, tmp_path, capsys):
        program = tmp_path / "nest.evo"
        program.write_text(NEST)
        # n pairs nest n sets; the result's innermost entries sit at depth n - 1
        assert cli.main(["run", str(program), "--entry", "nest", "--arg", "n=201"]) == 0
        assert textio.parse(capsys.readouterr().out).resolve("snd").value == 0
        assert cli.main(["run", str(program), "--entry", "nest", "--arg", "n=202"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "DepthExceeded" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1

    def test_natural_too_long_to_print(self, tmp_path, capsys):
        program = tmp_path / "big.evo"
        program.write_text(BIG)
        status = cli.main(["run", str(program), "--entry", "big", "--arg", "n=4400"])
        out, err = capsys.readouterr()
        if status == 0:  # an interpreter without an int-to-text limit
            assert textio.parse(out).value == 10**4400
        else:
            assert status == 3 and out == ""
            assert err.startswith("evocat: render error: NotEncodable")
            assert len(err.splitlines()) == 1

    def test_a_huge_dividend_of_rem_by_zero_is_a_runtime_error(self, tmp_path):
        program = tmp_path / "huge.evo"
        program.write_text(HUGE_REM)
        proc = evocat("run", str(program), "--entry", "huge")
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("evocat: runtime error (instruction 15): DivisionByZero: rem(")
        assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr

    def test_an_ordinal_too_long_for_int_is_an_argument_error(self):
        proc = evocat("run", str(STDLIB), "--entry", "gcd.#" + "1" * 5000)
        assert proc.returncode == 2 and proc.stdout == ""
        limited = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000
        want = "argument error: ordinal of 5000 digits" if limited else "resolution error: no node at gcd.#"
        assert proc.stderr.startswith(f"evocat: {want}")
        assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr

    def test_a_variable_written_to_stdout_is_a_runtime_error(self, tmp_path, capsys):
        program = tmp_path / "var.evo"
        program.write_text(STDOUT_VAR)
        assert cli.main(["run", str(program), "--entry", "main"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "evocat: runtime error (instruction 0): NotEncodable: cannot encode <var $x> as text\n"

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.evo"
        bad.write_text("a = @")
        proc = evocat("run", str(bad), "--entry", "x")
        assert proc.returncode == 1

    def test_duplicate_top_level_label_across_programs(self, tmp_path):
        extra = tmp_path / "extra.evo"
        extra.write_text("gcd { x = 1 }")
        proc = evocat("run", str(STDLIB), str(extra), "--entry", "gcd")
        assert proc.returncode == 1
        assert "gcd" in proc.stderr

    def test_state_file_rejects_variables(self, tmp_path):
        state = tmp_path / "state.evo"
        state.write_text("a = $x")
        prog = tmp_path / "p.evo"
        prog.write_text("b = 1")
        proc = evocat("run", "--state", str(state), str(prog), "--entry", "b")
        assert proc.returncode == 1

    def test_string_argument(self, tmp_path):
        program = tmp_path / "hello.evo"
        program.write_text(
            """main {
                 args { who = $who }
                 mode = 0
                 body {
                   #0 { at = [result] to = [args.who] }
                 }
                 result = 0
               }"""
        )
        proc = evocat("run", str(program), "--entry", "main", "--arg", 'who="hey"')
        assert proc.returncode == 0
        assert proc.stdout == '"hey"\n'

    def test_a_reference_reads_the_value_at_the_time_of_the_read(self, tmp_path):
        # [j.args.n] is read as 5; forcing [j] then runs j in place, which
        # writes 9 into that same args.n.  A deref that handed out the
        # in-tree node instead of a copy would print fst = 9.
        program = tmp_path / "read.evo"
        program.write_text(
            "t { args { } mode = 0"
            " j { args { n = 5 } mode = 0 body { #0 { at = [args.n] to = 9 } #1 { at = [result] to = 1 } } result = 0 }"
            " body { #0 { at = [result] to : pair { #0 = [j.args.n] #1 = [j] } } } result = 0 }"
        )
        proc = evocat("run", str(program), "--entry", "t")
        assert (proc.returncode, proc.stdout) == (0, "fst = 5\nsnd = 1\n")


class TestTrace:
    def test_gcd_firings_in_order(self):
        proc = evocat("trace", str(STDLIB), "--entry", "gcd", "--arg", "arg1=12", "--arg", "arg2=8")
        lines = proc.stdout.splitlines()
        rew = [line for line in lines if " rew " in line]
        assert [int(line.split()[2]) for line in rew] == [2, 2, 1]
        assert lines[-1] == "4"

    def test_sequential_steps(self, tmp_path):
        program = tmp_path / "two.evo"
        program.write_text(
            """main {
                 args { }
                 mode = 0
                 body {
                   #0 { at = [x] to = 1 }
                   #1 { at = [result] to = [x] }
                 }
                 result = 0
               }"""
        )
        proc = evocat("trace", str(program), "--entry", "main")
        seq = [line for line in proc.stdout.splitlines() if " seq " in line]
        assert [int(line.split()[2]) for line in seq] == [0, 1]


class TestFmtCheck:
    def test_fmt_canonicalizes(self, tmp_path):
        messy = tmp_path / "messy.evo"
        messy.write_text("a=1 b{c=2}")
        proc = evocat("fmt", str(messy))
        assert proc.returncode == 0
        assert proc.stdout == "a = 1\nb {\n  c = 2\n}\n"
        # formatting the formatted text is a fixpoint
        again = tmp_path / "again.evo"
        again.write_text(proc.stdout)
        assert evocat("fmt", str(again)).stdout == proc.stdout

    def test_check_ok_and_errors(self, tmp_path):
        good = tmp_path / "good.evo"
        good.write_text("a = $x")
        assert evocat("check", str(good)).returncode == 0
        assert evocat("check", "--plain", str(good)).returncode == 1
        bad = tmp_path / "bad.evo"
        bad.write_text("{{{")
        assert evocat("check", str(bad)).returncode == 1

    @pytest.mark.parametrize(
        "command, text, message",
        [
            (["check", "--plain"], "v = $x\n", "VariablesOutsideRules: 1:5: variable $x in a plain state file"),
            (["check"], "a = @", "ParseError: 1:5: unexpected character '@'"),
            (["fmt"], "a = 1\nb =\n", "ParseError: 3:1: expected a value"),
        ],
    )
    def test_a_parse_error_names_its_file_and_class(self, tmp_path, capsys, command, text, message):
        bad = tmp_path / "bad.evo"
        bad.write_text(text)
        assert cli.main([*command, str(bad)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"evocat: {bad}: {message}\n"

    @pytest.mark.parametrize(
        "files, text, message",
        [
            (["--state", "BAD", "GOOD"], "a = 1\nb =\n", "ParseError: 3:1: expected a value"),
            ([str(STDLIB), "BAD", "GOOD"], "a = 1\nb =\n", "ParseError: 3:1: expected a value"),
            ([str(STDLIB), "GOOD", "BAD"], "gcd { x = 1 }", "DuplicateSibling: duplicate top-level label 'gcd'"),
        ],
    )
    def test_a_load_error_names_the_file_that_failed(self, tmp_path, capsys, files, text, message):
        good, bad = tmp_path / "good.evo", tmp_path / "bad.evo"
        good.write_text("main = 1\n")
        bad.write_text(text)
        named = {"GOOD": str(good), "BAD": str(bad)}
        assert cli.main(["run", *[named.get(f, f) for f in files], "--entry", "main"]) == 1
        assert capsys.readouterr().err == f"evocat: load error: {bad}: {message}\n"

class TestBadInput:
    @pytest.mark.parametrize("spec", ["abc", "5:x", "-3", "5:-10"])
    def test_scripted_clock_takes_naturals_only(self, spec, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["run", str(STDLIB), "--entry", "gcd", "--scripted-clock", spec])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("usage:") == 1 and "--scripted-clock" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "trace"])
    def test_non_utf8_program_is_a_load_error(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.evo"
        bad.write_bytes(b'a = 1\nb = "\xff"\n')
        state = ["--state", str(bad)] if command == "trace" else []
        program = str(STDLIB) if command == "trace" else str(bad)
        assert cli.main([command, *state, program, "--entry", "a"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("evocat: load error:")
        assert "byte 11" in err and str(bad) in err

    @pytest.mark.parametrize("command", ["fmt", "check"])
    def test_non_utf8_file_is_a_parse_error(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.evo"
        bad.write_bytes(b"a = 1 // \xc3\n")
        assert cli.main([command, str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"evocat: {bad}: ") and "byte 9" in err
        assert len(err.splitlines()) == 1


class TestDeterminism:
    def test_scripted_runs_byte_identical(self, tmp_path):
        program = tmp_path / "echo.evo"
        program.write_text(ECHO)
        dumps, outs = [], []
        for i in range(2):
            dump = tmp_path / f"dump{i}.evo"
            proc = evocat(
                "run", str(program),
                "--entry", "main",
                "--scripted-clock", "1000:7",
                "--dump", str(dump),
                stdin="hello\n",
            )
            assert proc.returncode == 0
            outs.append(proc.stdout)
            dumps.append(dump.read_text())
        assert outs[0] == outs[1] == "hello\n1000\n1007\n0\n"
        assert dumps[0] == dumps[1]

    def test_dump_fixpoint(self, tmp_path):
        program = tmp_path / "const.evo"
        program.write_text(
            "main { args { } mode = 0 body { #0 { at = [result] to = 7 } } result = 0 }"
        )
        dump1 = tmp_path / "d1.evo"
        proc = evocat("run", str(program), "--entry", "main", "--dump", str(dump1))
        assert proc.returncode == 0 and proc.stdout == "7\n"
        dump2 = tmp_path / "d2.evo"
        proc2 = evocat("run", str(dump1), "--entry", "main", "--dump", str(dump2))
        assert proc2.returncode == 0
        assert dump1.read_text() == dump2.read_text()
