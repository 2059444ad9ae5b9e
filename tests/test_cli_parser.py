"""``cli.main`` builds the parser of the named subcommand alone and falls
back to the full parser on a usage error, so every parse ends as the full
parser would end it: same exit code, stdout and stderr."""

import sys

import pytest

from powerdex.cli import _UsageError, build_parser, main

EXITING = [[], ["--help"], ["bogus"],
           ["psi"], ["psi", "--help"], ["psi", "--bogus", "g"],
           ["psi", "--samples", "x", "g"],
           ["ssi", "a", "b"], ["embed", "g", "--tau", "1/2", "--semiregular"],
           ["axioms", "--index", "psi_exact", "--suite", "a", "--random", "3"],
           ["table1", "--l", "x"]]


def _exit(run, argv, capsys):
    with pytest.raises(SystemExit) as exited:
        run(argv)
    captured = capsys.readouterr()
    return exited.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", EXITING, ids=" ".join)
def test_main_exits_as_the_full_parser(argv, capsys):
    full = _exit(build_parser().parse_args, argv, capsys)
    assert _exit(main, argv, capsys) == full
    assert full[0] == (0 if "--help" in argv else 2)


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    argv = ["psi", "--bogus", "g"]
    full = _exit(build_parser().parse_args, argv, capsys)
    monkeypatch.setattr(sys, "argv", ["powerdex", *argv])
    assert _exit(lambda _: main(), None, capsys) == full


@pytest.mark.parametrize("argv", [
    ["ssi", "g"], ["psi", "g", "--mc", "--samples", "5", "--with-c"],
    ["embed", "g", "--tau", "1/2"],
    ["his-apply", "g", "--box", "1,2", "--eps", "1/3"],
    ["table1", "--l", "2", "--format", "csv"], ["replay-appendix"],
    ["axioms", "--index", "psi_exact", "--suite", "a"]], ids=" ".join)
def test_one_subcommand_parser_reads_as_the_full_one(argv):
    full = build_parser().parse_args(argv)
    assert build_parser(argv[0]).parse_args(argv) == full


def test_one_subcommand_parser_holds_that_subcommand_alone():
    with pytest.raises(_UsageError):
        build_parser("psi").parse_args(["ssi", "g"])
    # a name that is no subcommand gives the full parser
    with pytest.raises(SystemExit):
        build_parser("--help").parse_args(["bogus"])
