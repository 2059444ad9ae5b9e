"""Command-line interface.

All subcommands read game JSON from a file (or "-" for stdin) and write a
deterministic JSON payload to stdout; tabular reports also support markdown
and csv via --format.  Exit code 0 on success, 2 on any input or validation
error, with a machine-readable diagnostic on stderr.

Modules that only some subcommands use (``his``, ``axioms``, ``embeddings``,
``sampling``) are imported by those handlers, and numpy only by the
Monte-Carlo path, so a process loads what its request runs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import TYPE_CHECKING

from .indices import (jk_ssi_marginal, jk_ssi_pivot, psi_exact, psi_mc,
                      psi_point, ssi_coalition, ssi_roll_call)
from .rational import format_rational, parse_rational
from .serialize import (json_type, parse_coalition_input, parse_jk_game,
                        parse_simple_game, parse_step_game,
                        power_vector_to_json, step_game_to_json)
from .stepfun import Discretization, coarsen, validate, zero_game

if TYPE_CHECKING:
    from .his import Domain


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


def _parse_players(text: str, option: str) -> list[int]:
    """The comma-separated player numbers given to ``option``."""
    players = []
    for x in filter(str.strip, text.split(",")):
        try:
            players.append(int(x))
        except ValueError:
            raise InputError(f"{option}: {x.strip()!r} is not a player "
                             "number") from None
    return players


def _validated_step_game(obj):
    g = parse_step_game(obj)
    report = validate(g)
    if not report.ok:
        found = report.violations
        more = ", first 5" if len(found) > 5 else ""
        raise InputError(f"invalid step game: {len(found)} violations{more}: "
                         + "; ".join(found[:5]))
    return g


def _validated_suite(path: str) -> list:
    """The step games of a suite file, a JSON array; the diagnostic for a
    refused game starts with its index in the array."""
    doc = _read_json(path)
    if type(doc) is not list:
        raise InputError("a suite must be a JSON array of step games, "
                         f"not {json_type(doc)}")
    games = []
    for k, obj in enumerate(doc):
        try:
            games.append(_validated_step_game(obj))
        except (ValueError, TypeError) as exc:
            raise type(exc)(f"suite[{k}]: {exc}") from None
    return games


def _domain_json(domain: Domain) -> list[list[str]]:
    return [[format_rational(a), format_rational(b)]
            for _, (a, b) in domain.intervals]


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_ssi(args) -> None:
    cf = parse_coalition_input(_read_json(args.game))
    _emit(power_vector_to_json(ssi_coalition(cf), "ssi"))


def _cmd_rollcall(args) -> None:
    v = parse_simple_game(_read_json(args.game))
    _emit(power_vector_to_json(ssi_roll_call(v, args.model), "rollcall"))


def _cmd_jk_ssi(args) -> None:
    v = parse_jk_game(_read_json(args.game))
    pv = jk_ssi_pivot(v) if args.form == "pivot" else jk_ssi_marginal(v)
    _emit(power_vector_to_json(pv, f"jk-ssi-{args.form}"))


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


def _cmd_embed(args) -> None:
    from .embeddings import embed_2k_tau, embed_jk, embed_simple_semiregular

    obj = _read_json(args.game)
    if args.tau is not None:
        out = embed_2k_tau(parse_jk_game(obj), parse_rational(args.tau))
    elif args.semiregular:
        out = embed_simple_semiregular(parse_simple_game(obj))
    else:
        out = embed_jk(parse_jk_game(obj))
    _emit(step_game_to_json(out))


def _cmd_coarsen(args) -> None:
    g = _validated_step_game(_read_json(args.game))
    alpha = Discretization(tuple(parse_rational(a) for a in args.alpha.split(",")))
    _emit(step_game_to_json(coarsen(g, alpha)))


def _cmd_his_apply(args) -> None:
    from . import his

    g = _validated_step_game(_read_json(args.game))
    idx = _parse_players(args.box, "--box")
    box = tuple(2 * i - 1 for i in idx)
    before = psi_exact(g).shares
    out, delta = his.apply_box_increment(g, box, parse_rational(args.eps))
    _emit({"delta": [format_rational(x) for x in delta.shares],
           "psi_before": [format_rational(x) for x in before],
           "psi_after": [format_rational(x) for x in psi_exact(out).shares],
           "game": step_game_to_json(out)})


def _cmd_his_build(args) -> None:
    from . import his

    g = _validated_step_game(_read_json(args.game))
    result = his.build_by_increments(g)
    for step in result.steps:
        print(json.dumps({
            "phase": step.phase,
            "box": [(d + 1) // 2 for d in step.box],
            "eps": format_rational(step.eps),
            "delta": [format_rational(x) for x in step.delta],
            "psi": [format_rational(x) for x in step.psi],
        }, sort_keys=True))
    print(json.dumps({"final": True,
                      "psi": [format_rational(x) for x in result.psi]},
                     sort_keys=True))


def _cmd_replay_appendix(args) -> None:
    from . import his

    result = his.replay_appendix()
    for m in result.moves:
        inc = m.increment
        print(json.dumps({
            "move": m.index,
            "S": sorted(inc.coalition),
            "eps": format_rational(inc.epsilon),
            "D": _domain_json(inc.domain),
            "psi_his": [format_rational(x) for x in m.psi_his],
            "psi_exact": [format_rational(x) for x in m.psi_exact],
            "verified": m.check_ok,
        }, sort_keys=True))
    final = result.moves[-1]
    print(json.dumps({
        "move": "final",
        "shares": [format_rational(x) for x in final.psi_his],
        "matches_target": result.final_matches_target,
        "tracks_agree": result.tracks_agree,
    }, sort_keys=True))


def _table_rows_to_output(rows: list[dict], fmt: str, headers: list[str]) -> None:
    if fmt == "json":
        _emit(rows)
    elif fmt == "csv":
        print(",".join(headers))
        for row in rows:
            print(",".join(str(row[h]) for h in headers))
    else:
        print("| " + " | ".join(headers) + " |")
        print("|" + "|".join("---" for _ in headers) + "|")
        for row in rows:
            print("| " + " | ".join(str(row[h]) for h in headers) + " |")


def _cmd_table1(args) -> None:
    from . import his

    eps = parse_rational(args.eps)
    rows = his.table1_rows(args.l, eps)
    flat = []
    for row in rows:
        flat.append({
            "face": row["face"],
            "S": "{" + ",".join(map(str, row["S"])) + "}",
            "vol": format_rational(row["vol"]),
            "d1": format_rational(row["delta"][0]),
            "d2": format_rational(row["delta"][1]),
            "d3": format_rational(row["delta"][2]),
        })
    _table_rows_to_output(flat, args.format, ["face", "S", "vol", "d1", "d2", "d3"])


def _cmd_corner(args) -> None:
    from . import his

    L = _parse_players(args.L, "--L")
    U = _parse_players(args.U, "--U")
    eps = parse_rational(args.eps)
    n = len(L) + len(U)
    deltas = {str(i): format_rational(his.corner_increase(L, U, eps, args.l, i))
              for i in range(1, n + 1)}
    _emit({"L": L, "U": U, "l": args.l, "eps": format_rational(eps),
           "delta": deltas})


def _cmd_axioms(args) -> None:
    from . import axioms as ax
    from .sampling import random_regular_game

    handles = ax.make_handles()
    if args.index not in handles:
        raise InputError(f"unknown index {args.index!r}; "
                         f"choose from {sorted(handles)}")
    if args.suite:
        suite = _validated_suite(args.suite)
    else:
        rng = random.Random(args.seed)
        suite = [random_regular_game(rng, args.players, rng.randrange(1, 4))
                 for _ in range(args.random)]
        # random regular games almost never contain null or symmetric
        # players; salt the suite so those axioms are actually exercised
        if args.players >= 2:
            base = random_regular_game(rng, args.players - 1, 2)
            suite.append(ax.null_extension(base, 1))
        suite.append(zero_game(args.players))
    report = ax.check_axioms(handles[args.index], suite, seed=args.seed)
    payload = {
        "index": report.handle,
        "games": report.games,
        "passed": sorted(a for a in ax.AXIOMS if report.passed(a)),
        "violations": {a: v for a, v in sorted(report.violations.items())},
    }
    if args.format == "markdown":
        print(f"# axiom report: {report.handle} ({report.games} games)")
        for a in ax.AXIOMS:
            mark = "PASS" if report.passed(a) else "FAIL"
            print(f"- {a}: {mark}")
            for v in report.violations.get(a, [])[:5]:
                print(f"    - {v}")
    else:
        _emit(payload)


def _cmd_separation_demo(args) -> None:
    from . import axioms as ax

    report = ax.separation_demo()
    _emit({
        "psi": [format_rational(x) for x in report["psi"]],
        "psi_point": {format_rational(a): [format_rational(x) for x in sh]
                      for a, sh in report["psi_point"].items()},
        "differs": {format_rational(a): d for a, d in report["differs"].items()},
        "equality_brackets": [
            {"interval": [format_rational(b["interval"][0]),
                          format_rational(b["interval"][1])],
             "sign_change": b["sign_change"]}
            for b in report["equality_brackets"]],
        "classical_axioms_insufficient": report["classical_axioms_insufficient"],
    })


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
    p.set_defaults(func=_cmd_rollcall)

    p = sub.add_parser("jk-ssi", help="index of a (j,k) game")
    p.add_argument("game")
    p.add_argument("--form", choices=["pivot", "marginal"], default="pivot")
    p.set_defaults(func=_cmd_jk_ssi)

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
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("coarsen", help="project a step game onto a sub-grid")
    p.add_argument("game")
    p.add_argument("--alpha", required=True,
                   help='comma-separated breakpoints, e.g. "0,1/4,1"')
    p.set_defaults(func=_cmd_coarsen)

    p = sub.add_parser("his-apply", help="raise one box and report the delta")
    p.add_argument("game")
    p.add_argument("--box", required=True,
                   help='1-based box indices, e.g. "2,1"')
    p.add_argument("--eps", required=True)
    p.set_defaults(func=_cmd_his_apply)

    p = sub.add_parser("his-build",
                       help="rebuild a regular game by box increments")
    p.add_argument("game")
    p.set_defaults(func=_cmd_his_build)

    p = sub.add_parser("replay-appendix",
                       help="replay the worked two-player construction")
    p.set_defaults(func=_cmd_replay_appendix)

    p = sub.add_parser("table1", help="effect table of a uniform box increase")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--eps", default="1")
    p.add_argument("--format", choices=["markdown", "csv", "json"],
                   default="markdown")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("corner", help="corner-box increase deltas (closed form)")
    p.add_argument("--L", required=True, help='players pinned low, e.g. "2"')
    p.add_argument("--U", required=True, help='players pinned high, e.g. "1,3"')
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--eps", default="1")
    p.set_defaults(func=_cmd_corner)

    p = sub.add_parser("axioms", help="axiom battery for a registered index")
    p.add_argument("--index", required=True)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--suite", help="JSON file with a list of step games")
    src.add_argument("--random", type=int, default=20,
                     help="number of random games")
    p.add_argument("--players", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "markdown"], default="json")
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("separation-demo",
                       help="exact index vs profile-pinned variants")
    p.set_defaults(func=_cmd_separation_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, KeyError, TypeError, ArithmeticError,
            MemoryError) as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__},
                         sort_keys=True), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
