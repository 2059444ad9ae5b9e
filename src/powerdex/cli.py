"""Command-line interface.

All subcommands read game JSON from a file (or "-" for stdin) and write a
deterministic JSON payload to stdout; tabular reports also support markdown
and csv via --format.  Exit code 0 on success, 2 on any input or validation
error, with a machine-readable diagnostic on stderr.

This module holds the index requests (``ssi``, ``psi``, ``psi-point``,
``his-build``); the handlers of every other subcommand are in ``commands``,
imported when one of them runs.  Modules that only some requests use
(``his``, ``coalitions``, and numpy on the Monte-Carlo path) are imported
when those requests run, so a process compiles what its request runs.
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
from .stepfun import validate

if TYPE_CHECKING:
    from .stepfun import StepGame, ValidationReport


class InputError(ValueError):
    pass


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
    print(json.dumps(obj, sort_keys=True))


def _valid_report(g: StepGame) -> ValidationReport:
    """``validate(g)``, refused unless the game passes."""
    report = validate(g)
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
        _emit({"phase": step.phase,
               "box": [(d + 1) // 2 for d in step.box],
               "eps": format_rational(step.eps),
               "delta": [format_rational(x) for x in step.delta],
               "psi": [format_rational(x) for x in step.psi]})
    _emit({"final": True, "psi": [format_rational(x) for x in result.psi]})


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerdex",
        description="Exact power indices for committee decisions on {0,1}, "
                    "graded and interval scales.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ssi", help="index of a coalition function")
    p.add_argument("game")
    p.set_defaults(func=_cmd_ssi)

    p = sub.add_parser("rollcall", help="ordering-enumeration index oracle")
    p.add_argument("game")
    p.add_argument("--model", choices=["all_yes", "uniform_half"],
                   default="all_yes")
    p.set_defaults(func="_cmd_rollcall")

    p = sub.add_parser("jk-ssi", help="index of a (j,k) game")
    p.add_argument("game")
    p.add_argument("--form", choices=["pivot", "marginal"], default="pivot")
    p.set_defaults(func="_cmd_jk_ssi")

    p = sub.add_parser("psi", help="index of a step game")
    p.add_argument("game")
    p.add_argument("--mc", action="store_true",
                   help="Monte-Carlo estimate instead of the exact index")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--with-c", action="store_true",
                   help="include the boundary-average table")
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("psi-point", help="single-profile index variant")
    p.add_argument("game")
    p.add_argument("--alpha", required=True)
    p.set_defaults(func=_cmd_psi_point)

    p = sub.add_parser("embed", help="embed a finite game as a step game")
    p.add_argument("game")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--tau", default=None,
                      help="skewed two-level embedding at this breakpoint")
    kind.add_argument("--semiregular", action="store_true",
                      help="winning-set embedding of a simple game")
    p.set_defaults(func="_cmd_embed")

    p = sub.add_parser("coarsen", help="project a step game onto a sub-grid")
    p.add_argument("game")
    p.add_argument("--alpha", required=True,
                   help='comma-separated breakpoints, e.g. "0,1/4,1"')
    p.set_defaults(func="_cmd_coarsen")

    p = sub.add_parser("his-apply", help="raise one box and report the delta")
    p.add_argument("game")
    p.add_argument("--box", required=True,
                   help='1-based box indices, e.g. "2,1"')
    p.add_argument("--eps", required=True)
    p.set_defaults(func="_cmd_his_apply")

    p = sub.add_parser("his-build",
                       help="rebuild a regular game by box increments")
    p.add_argument("game")
    p.set_defaults(func=_cmd_his_build)

    p = sub.add_parser("replay-appendix",
                       help="replay the worked two-player construction")
    p.set_defaults(func="_cmd_replay_appendix")

    p = sub.add_parser("table1", help="effect table of a uniform box increase")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--eps", default="1")
    p.add_argument("--format", choices=["markdown", "csv", "json"],
                   default="markdown")
    p.set_defaults(func="_cmd_table1")

    p = sub.add_parser("corner", help="corner-box increase deltas (closed form)")
    p.add_argument("--L", required=True, help='players pinned low, e.g. "2"')
    p.add_argument("--U", required=True, help='players pinned high, e.g. "1,3"')
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--eps", default="1")
    p.set_defaults(func="_cmd_corner")

    p = sub.add_parser("axioms", help="axiom battery for a registered index")
    p.add_argument("--index", required=True)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--suite", help="JSON file with a list of step games")
    src.add_argument("--random", type=int, default=20,
                     help="number of random games")
    p.add_argument("--players", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "markdown"], default="json")
    p.set_defaults(func="_cmd_axioms")

    p = sub.add_parser("separation-demo",
                       help="exact index vs profile-pinned variants")
    p.set_defaults(func="_cmd_separation_demo")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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


if __name__ == "__main__":
    # registered under its name, so that ``commands`` does not run it again
    sys.modules[__spec__.name] = sys.modules[__name__]
    sys.exit(main())
