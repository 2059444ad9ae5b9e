"""The handlers of the subcommands that no index request runs: embeddings,
projections, the increment calculus and its tables, the axiom battery, the
separating counterexample and the enumerating oracles.

``cli.main`` imports this module only when one of these commands runs, and
each handler imports the modules it uses.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .cli import InputError, _emit, _read_json, _validated_step_game
from .indices import jk_ssi_marginal, psi_exact
from .rational import check_players, format_rational, parse_rational
from .serialize import (json_type, parse_coalition_input, parse_jk_game,
                        parse_simple_game, power_vector_to_json,
                        step_game_to_json)

if TYPE_CHECKING:
    from .increments import Domain


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


def _cmd_rollcall(args) -> None:
    from .oracles import ssi_roll_call

    v = parse_simple_game(_read_json(args.game))
    _emit(power_vector_to_json(ssi_roll_call(v, args.model), "rollcall"))


def _cmd_jk_ssi(args) -> None:
    v = parse_jk_game(_read_json(args.game))
    if args.form == "pivot":
        from .oracles import jk_ssi_pivot

        pv = jk_ssi_pivot(v)
    else:
        pv = jk_ssi_marginal(v)
    _emit(power_vector_to_json(pv, f"jk-ssi-{args.form}"))


def _cmd_embed(args) -> None:
    from .coalitions import SimpleGame
    from .embeddings import embed_2k_tau, embed_jk, embed_simple_semiregular
    from .stepfun import check_grid

    obj = _read_json(args.game)
    if args.tau is not None:
        out = embed_2k_tau(parse_jk_game(obj), parse_rational(args.tau))
    elif args.semiregular:
        cf = parse_coalition_input(obj)
        # the grid before the simple-game checks, which read all 2^n entries
        check_grid(cf.n, 1)
        out = embed_simple_semiregular(SimpleGame(cf))
    else:
        out = embed_jk(parse_jk_game(obj))
    _emit(step_game_to_json(out))


def _cmd_coarsen(args) -> None:
    from .stepfun import Discretization
    from .transforms import coarsen

    g = _validated_step_game(_read_json(args.game))
    alpha = Discretization(tuple(parse_rational(a) for a in args.alpha.split(",")))
    _emit(step_game_to_json(coarsen(g, alpha)))


def _cmd_his_apply(args) -> None:
    from .his import apply_box_increment

    g = _validated_step_game(_read_json(args.game))
    idx = _parse_players(args.box, "--box")
    box = tuple(2 * i - 1 for i in idx)
    before = psi_exact(g).shares
    out, delta = apply_box_increment(g, box, parse_rational(args.eps))
    _emit({"delta": [format_rational(x) for x in delta.shares],
           "psi_before": [format_rational(x) for x in before],
           "psi_after": [format_rational(x) for x in psi_exact(out).shares],
           "game": step_game_to_json(out)})


def _cmd_replay_appendix(args) -> None:
    from .increments import replay_appendix

    result = replay_appendix()
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
    from .increments import table1_rows

    eps = parse_rational(args.eps)
    rows = table1_rows(args.l, eps)
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
    from .increments import corner_increase

    L = _parse_players(args.L, "--L")
    U = _parse_players(args.U, "--U")
    eps = parse_rational(args.eps)
    n = len(L) + len(U)
    check_players(n)
    deltas = {str(i): format_rational(corner_increase(L, U, eps, args.l, i))
              for i in range(1, n + 1)}
    _emit({"L": L, "U": U, "l": args.l, "eps": format_rational(eps),
           "delta": deltas})


def _cmd_axioms(args) -> None:
    import random

    from . import axioms as ax
    from .sampling import random_regular_game
    from .stepfun import zero_game

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
