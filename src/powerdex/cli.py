"""Command-line interface.

All subcommands read game JSON from a file (or "-" for stdin) and write a
deterministic JSON payload to stdout; tabular reports also support markdown
and csv via --format.  Exit code 0 on success, 2 on any input or validation
error, with a machine-readable diagnostic on stderr.

This module holds the index requests (``ssi``, ``psi``, ``psi-point``,
``his-build``); the handlers of every other subcommand are in ``commands``,
imported when one of them runs.  Modules that only some requests use
(``stepfun`` for step games, ``his``, ``coalitions``, ``evaluables`` and
numpy on the Monte-Carlo path) are imported when those requests run, and
the parser is built for the named subcommand alone, so a process compiles
and builds what its request runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .indices import psi_exact, psi_mc, psi_point, ssi_coalition
from .rational import format_rational, parse_rational
from .serialize import (parse_coalition_input, parse_step_game,
                        power_vector_to_json)

if TYPE_CHECKING:
    from .stepfun import StepGame, ValidationReport


class InputError(ValueError):
    pass


def __getattr__(name: str):
    """``validate``, which perfbench/layers.py rebinds, imported with
    ``stepfun`` on first use (PEP 562)."""
    if name != "validate":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .stepfun import validate

    globals()[name] = validate
    return validate


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError:
        raise InputError(f"JSON in {path} is nested too deeply") from None


def _emit(obj) -> None:
    """Print ``obj`` as one JSON line, every ``Fraction`` in it as its "p/q"
    string; any other value json cannot write raises TypeError."""
    print(json.dumps(obj, sort_keys=True, default=format_rational))


def _valid_report(g: StepGame) -> ValidationReport:
    """``validate(g)``, refused unless the game passes."""
    # through the module attribute, so that a rebinding of it takes effect
    report = sys.modules[__name__].validate(g)
    if not report.ok:
        found = report.violations
        more = ", first 5" if len(found) > 5 else ""
        raise InputError(f"invalid step game: {len(found)} violations{more}: "
                         + "; ".join(found[:5]))
    return report


def _validated_step_game(obj) -> StepGame:
    g = parse_step_game(obj)
    _valid_report(g)
    return g


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_ssi(args) -> None:
    cf = parse_coalition_input(_read_json(args.game))
    _emit(power_vector_to_json(ssi_coalition(cf), "ssi"))


def _cmd_psi(args) -> None:
    g = _validated_step_game(_read_json(args.game))
    if args.mc:
        pv = psi_mc(g, args.samples, args.seed)
        _emit(power_vector_to_json(pv, "psi", with_c=args.with_c))
    else:
        _emit(power_vector_to_json(psi_exact(g), "psi", with_c=args.with_c))


def _cmd_psi_point(args) -> None:
    g = _validated_step_game(_read_json(args.game))
    pv = psi_point(g, parse_rational(args.alpha))
    _emit(power_vector_to_json(pv, "psi-point"))


def _cmd_his_build(args) -> None:
    from . import his

    g = parse_step_game(_read_json(args.game))
    result = his.build_by_increments(g, report=_valid_report(g))
    for step in result.steps:
        _emit({"phase": step.phase, "box": [(d + 1) // 2 for d in step.box],
               "eps": step.eps, "delta": step.delta, "psi": step.psi})
    _emit({"final": True, "psi": result.psi})


# ---------------------------------------------------------------------------

class _UsageError(Exception):
    """A usage error of a parser built for one subcommand, raised instead of
    printed: that parser's top-level usage line would list only it."""


class _QuietParser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, when ``command`` names one, of
    that one alone, which raises ``_UsageError`` where the full parser
    prints a usage error and exits."""
    parser = (argparse.ArgumentParser if command is None else _QuietParser)(
        prog="powerdex",
        description="Exact power indices for committee decisions on {0,1}, "
                    "graded and interval scales.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, text: str) -> argparse.ArgumentParser | None:
        """The subparser ``name``, if this parser holds it."""
        return (sub.add_parser(name, help=text)
                if command in (None, name) else None)

    if p := add("ssi", "index of a coalition function"):
        p.add_argument("game")
        p.set_defaults(func=_cmd_ssi)

    if p := add("rollcall", "ordering-enumeration index oracle"):
        p.add_argument("game")
        p.add_argument("--model", choices=["all_yes", "uniform_half"],
                       default="all_yes")
        p.set_defaults(func="_cmd_rollcall")

    if p := add("jk-ssi", "index of a (j,k) game"):
        p.add_argument("game")
        p.add_argument("--form", choices=["pivot", "marginal"],
                       default="pivot")
        p.set_defaults(func="_cmd_jk_ssi")

    if p := add("psi", "index of a step game"):
        p.add_argument("game")
        p.add_argument("--mc", action="store_true",
                       help="Monte-Carlo estimate instead of the exact index")
        p.add_argument("--samples", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--with-c", action="store_true",
                       help="include the boundary-average table")
        p.set_defaults(func=_cmd_psi)

    if p := add("psi-point", "single-profile index variant"):
        p.add_argument("game")
        p.add_argument("--alpha", required=True)
        p.set_defaults(func=_cmd_psi_point)

    if p := add("embed", "embed a finite game as a step game"):
        p.add_argument("game")
        kind = p.add_mutually_exclusive_group()
        kind.add_argument("--tau", default=None,
                          help="skewed two-level embedding at this breakpoint")
        kind.add_argument("--semiregular", action="store_true",
                          help="winning-set embedding of a simple game")
        p.set_defaults(func="_cmd_embed")

    if p := add("coarsen", "project a step game onto a sub-grid"):
        p.add_argument("game")
        p.add_argument("--alpha", required=True,
                       help='comma-separated breakpoints, e.g. "0,1/4,1"')
        p.set_defaults(func="_cmd_coarsen")

    if p := add("his-apply", "raise one box and report the delta"):
        p.add_argument("game")
        p.add_argument("--box", required=True,
                       help='1-based box indices, e.g. "2,1"')
        p.add_argument("--eps", required=True)
        p.set_defaults(func="_cmd_his_apply")

    if p := add("his-build", "rebuild a regular game by box increments"):
        p.add_argument("game")
        p.set_defaults(func=_cmd_his_build)

    if p := add("replay-appendix",
                "replay the worked two-player construction"):
        p.set_defaults(func="_cmd_replay_appendix")

    if p := add("table1", "effect table of a uniform box increase"):
        p.add_argument("--l", type=int, required=True)
        p.add_argument("--eps", default="1")
        p.add_argument("--format", choices=["markdown", "csv", "json"],
                       default="markdown")
        p.set_defaults(func="_cmd_table1")

    if p := add("corner", "corner-box increase deltas (closed form)"):
        p.add_argument("--L", required=True,
                       help='players pinned low, e.g. "2"')
        p.add_argument("--U", required=True,
                       help='players pinned high, e.g. "1,3"')
        p.add_argument("--l", type=int, required=True)
        p.add_argument("--eps", default="1")
        p.set_defaults(func="_cmd_corner")

    if p := add("axioms", "axiom battery for a registered index"):
        p.add_argument("--index", required=True)
        src = p.add_mutually_exclusive_group()
        src.add_argument("--suite",
                         help="JSON file with a list of step games")
        src.add_argument("--random", type=int, default=20,
                         help="number of random games")
        p.add_argument("--players", type=int, default=2)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=["json", "markdown"],
                       default="json")
        p.set_defaults(func="_cmd_axioms")

    if p := add("separation-demo", "exact index vs profile-pinned variants"):
        p.set_defaults(func="_cmd_separation_demo")
    if not sub.choices:  # ``command`` names no subcommand
        return build_parser()
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except _UsageError:
        # the full parser prints the message under the usage line that
        # lists every subcommand, and exits
        args = build_parser().parse_args(argv)
    try:
        if isinstance(args.func, str):  # a handler in ``commands``
            from . import commands
            args.func = getattr(commands, args.func)
        args.func(args)
    except (ValueError, KeyError, TypeError, ArithmeticError,
            MemoryError) as exc:
        message = str(exc)
        if not message and isinstance(exc, MemoryError):
            message = f"{args.command}: out of memory"
        print(json.dumps({"error": message, "type": type(exc).__name__},
                         sort_keys=True), file=sys.stderr)
        return 2
    return 0


def run() -> None:
    """The process entry, of the console script and of ``python -m``:
    ``main``, then exit with its code.  Freezing the heap first keeps the
    interpreter's last collection from walking every module's cycles; only
    here, because ``main`` also runs in processes that go on.  ``gc`` is
    imported here, so that ``import powerdex.cli`` loads nothing more.  A
    closed stdout or pipe ends as an input error does: exit 2 and a
    diagnostic on stderr."""
    import gc
    import os

    try:
        if sys.stdout is None:  # started with stdout closed
            raise BrokenPipeError("stdout is closed")
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        if sys.stdout is not None:  # the exit's flush goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(json.dumps({"error": f"cannot write the output: {exc}",
                          "type": "BrokenPipeError"}), file=sys.stderr)
        code = 2
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    # registered under its name, so that ``commands`` does not run it again
    sys.modules[__spec__.name] = sys.modules[__name__]
    run()
