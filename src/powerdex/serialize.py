"""Stable JSON formats for games and index results.

Rationals travel as "p/q" strings.  Coalitions and grid keys are 1-based,
comma-separated strings.  Emission is canonical (sorted keys, minimal
tables) so identical inputs serialize byte-identically.
"""

from __future__ import annotations

from fractions import Fraction

from .coalitions import (CoalitionFunction, JKGame, SimpleGame, check_players,
                         mask_of, players_of)
from .indices import PowerVector
from .rational import format_rational, parse_rational
# perfbench/layers.py times the completion rule through this name
from .stepfun import (Discretization, Face, StepGame, TAG_REGULAR,  # noqa: F401
                      regular_completion)


def _key(parts) -> str:
    return ",".join(str(x) for x in parts)


def _parse_key(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


# ---------------------------------------------------------------------------
# coalition games

def coalition_function_to_json(cf: CoalitionFunction) -> dict:
    values = {}
    for mask in range(1 << cf.n):
        values[_key(players_of(mask, cf.n))] = format_rational(cf.values[mask])
    return {"n": cf.n, "values": values}


def parse_coalition_input(obj: dict) -> CoalitionFunction:
    """Accepts {"n", "winning": [...]} (closed upward unless "closure" is
    false) or {"n", "values": {"players": "p/q"}} with a total table."""
    n = int(obj["n"])
    if "values" in obj:
        check_players(n)
        table = [Fraction(0)] * (1 << n)
        seen = set()
        parsed: dict = {}
        for key, val in obj["values"].items():
            try:
                mask = mask_of(_parse_key(key), n)
            except ValueError as exc:
                raise ValueError(f"coalition key {key!r}: {exc}") from None
            if mask in seen:
                raise ValueError(f"coalition key {key!r} repeats an earlier key")
            if val not in parsed:  # tables repeat a few values, such as "1"
                parsed[val] = parse_rational(val)
            table[mask] = parsed[val]
            seen.add(mask)
        if len(seen) != 1 << n:
            raise ValueError("values table must be total over 2^N")
        return CoalitionFunction(n, table)
    winning = obj["winning"]
    closure = bool(obj.get("closure", True))
    return CoalitionFunction.from_winning(n, winning, closure=closure)


def simple_game_to_json(v: SimpleGame) -> dict:
    return {"n": v.n, "winning": [list(c) for c in v.minimal_winning()]}


def parse_simple_game(obj: dict) -> SimpleGame:
    return SimpleGame(parse_coalition_input(obj))


def jk_game_to_json(v: JKGame) -> dict:
    values = {_key(x): int(lvl) for x, lvl in sorted(v.values.items())}
    return {"n": v.n, "j": v.j, "k": v.k, "values": values}


def parse_jk_game(obj: dict) -> JKGame:
    n, j, k = int(obj["n"]), int(obj["j"]), int(obj["k"])
    values = {}
    for key, lvl in obj["values"].items():
        profile = _parse_key(key)
        if len(profile) != n:
            raise ValueError(f"profile key {key!r} has wrong arity")
        values[profile] = int(lvl)
    return JKGame(n, j, k, values)


# ---------------------------------------------------------------------------
# step games

def step_game_to_json(g: StepGame) -> dict:
    """Boxes are keyed by 1-based box indices; for raw and semi-regular
    games a "faces" table lists the values that differ from the regular
    completion of the same boxes (keys are doubled face coordinates)."""
    boxes = {_key((d + 1) // 2 for d in b): format_rational(g.boxes[b])
             for b in sorted(g.boxes)}
    out = {"n": g.n, "alpha": [format_rational(a) for a in g.disc.alpha],
           "tag": g.tag, "boxes": boxes}
    if g.tag != TAG_REGULAR and g.faces:
        out["faces"] = {_key(d): format_rational(g.faces[d])
                        for d in sorted(g.faces)}
    return out


def parse_step_game(obj: dict) -> StepGame:
    # nothing grid-sized is built here: StepGame checks the caps first
    disc = Discretization(tuple(parse_rational(a) for a in obj["alpha"]))
    n = int(obj["n"])
    tag = obj.get("tag", TAG_REGULAR)
    boxes: dict[Face, Fraction] = {}
    for key, val in obj["boxes"].items():
        idx = _parse_key(key)
        if len(idx) != n or any(not 1 <= i <= disc.p for i in idx):
            raise ValueError(f"box key {key!r} invalid for this grid")
        b = tuple(2 * i - 1 for i in idx)
        if b in boxes:
            raise ValueError(f"box key {key!r} repeats an earlier key")
        boxes[b] = parse_rational(val)
    faces: dict[Face, Fraction] = {}
    for key, val in obj.get("faces", {}).items():
        d = _parse_key(key)
        if len(d) != n or any(not 0 <= di <= 2 * disc.p for di in d):
            raise ValueError(f"face key {key!r} invalid for this grid")
        if d in faces:
            raise ValueError(f"face key {key!r} repeats an earlier key")
        faces[d] = parse_rational(val)
    return StepGame(disc, n, boxes, faces, tag)


# ---------------------------------------------------------------------------
# results

def power_vector_to_json(pv: PowerVector, index: str,
                         with_c: bool = False) -> dict:
    out: dict = {"index": index, "mode": pv.mode}
    if pv.mode == "exact":
        out["shares"] = [format_rational(s) for s in pv.shares]
    else:
        out["shares"] = [[est, err] for est, err in zip(pv.shares, pv.stderr)]
        out["samples"] = pv.samples
        out["seed"] = pv.seed
    if with_c and pv.c_table is not None:
        n = pv.n
        table = {}
        for mask in sorted(pv.c_table):
            label = _key(players_of(mask, n))
            val = pv.c_table[mask]
            table[label] = format_rational(val) if isinstance(val, Fraction) else val
        out["C"] = table
    return out
