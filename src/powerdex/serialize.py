"""Stable JSON formats for games and index results.

Rationals travel as "p/q" strings.  Coalitions and grid keys are 1-based,
comma-separated strings.  Emission is canonical (sorted keys, minimal
tables) so identical inputs serialize byte-identically.

Reading goes through one set of typed accessors and one keyed-table reader
shared by the four grid-keyed tables (coalition and (j,k) ``values``,
step-game ``boxes`` and ``faces``), so each input rule is checked the same
way wherever it applies and each diagnostic names the JSON path of the
value it refuses; the three total tables are first read in writer order.
Of the readers only the step-game one imports ``stepfun``, when it runs.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator

from .rational import (MAX_PLAYERS, check_players, format_rational,
                       on_one_denominator, parse_rational)

if TYPE_CHECKING:
    from .coalitions import CoalitionFunction, JKGame, SimpleGame
    from .indices import PowerVector
    from .stepfun import StepGame


def __getattr__(name: str):
    """``regular_completion``, which perfbench/layers.py rebinds, imported
    with ``stepfun`` on first use (PEP 562)."""
    if name != "regular_completion":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .stepfun import regular_completion

    globals()[name] = regular_completion
    return regular_completion


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer",
               float: "number", bool: "boolean", type(None): "null"}
_REQUIRED = object()


def _key(parts) -> str:
    return ",".join(str(x) for x in parts)


# ---------------------------------------------------------------------------
# reading
#
# A path is the tuple of keys and array indices from the top-level object
# down to a value.  It is turned into text only when a value is refused.

def _error(path: tuple, problem: str, kind: type = ValueError) -> Exception:
    """The exception for a refused value at ``path``; below the top-level
    keys the message starts with the path, such as ``boxes["3,1"]`` or
    ``winning[0][1]``."""
    if len(path) > 1:
        where = path[0] + "".join(
            f"[{p}]" if isinstance(p, int) else f"[{json.dumps(p)}]"
            for p in path[1:])
        problem = f"{where}: {problem}"
    return kind(problem)


def json_type(value) -> str:
    """The JSON name of a parsed value's type, such as "object" or "array"."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _mismatch(value, path: tuple, expected: str) -> TypeError:
    last = path[-1] if path else None
    name = ("the top level" if not path else
            f"key {last!r}" if isinstance(last, str) else "value")
    return _error(path, f"{name} must be a JSON {expected}, "
                  f"not {json_type(value)}", TypeError)


def _typed(value, kind: type, path: tuple):
    """``value`` if it is a JSON value of type ``kind``: an integer, a
    boolean, a string, an object or an array.  Booleans are not integers."""
    if type(value) is not kind:
        raise _mismatch(value, path, _JSON_TYPES[kind])
    return value


def _rational(value, path: tuple) -> Fraction:
    """A rational position: a "p/q", integer or plain-decimal string, or a
    JSON integer.  JSON floats and booleans are refused, not converted."""
    if type(value) is not str and type(value) is not int:
        raise _mismatch(value, path, "string or integer")
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise _error(path, str(exc)) from None


def _member(obj: dict, key: str, kind: type, default=_REQUIRED):
    """The top-level ``obj[key]`` as a JSON ``kind``, or ``default`` when
    one is given and the key is absent."""
    if key in obj:
        return _typed(obj[key], kind, (key,))
    if default is _REQUIRED:
        raise ValueError(f"missing key {key!r}")
    return default


def _table(obj: dict, name: str, lo: int, hi: int, value, key=tuple,
           arity: int | None = None) -> dict:
    """The keyed table ``obj[name]`` as {key(coordinates): value}.

    Each key is comma-separated integers, with whitespace allowed around
    each: ``arity`` of them (any number when None), each in ``lo..hi``.
    ``key`` turns them into the table's own key, raising ValueError for
    coordinates it refuses, and no two entries may share one.  Every value
    goes through ``value(raw, path)``; equal value strings are read once,
    since tables repeat a few values such as "1".
    """
    out: dict = {}
    memo: dict[str, object] = {}
    for text, raw in _member(obj, name, dict).items():
        try:
            coords = tuple(map(int, text.split(","))) if text.strip() else ()
        except ValueError:
            raise _error((name, text), f"key {text!r} is not comma-separated "
                         "integers") from None
        if arity is not None and len(coords) != arity:
            raise _error((name, text), f"key {text!r} needs {arity} "
                         f"comma-separated integers, not {len(coords)}")
        if coords and (min(coords) < lo or max(coords) > hi):
            raise _error((name, text), f"key {text!r} has an integer outside "
                         f"{lo}..{hi}")
        try:
            k = key(coords)
        except ValueError as exc:
            raise _error((name, text), f"key {text!r}: {exc}") from None
        if k in out:
            raise _error((name, text), f"key {text!r} repeats an earlier key")
        if type(raw) is str:
            val = memo.get(raw)
            if val is None:
                val = memo[raw] = value(raw, (name, text))
        else:
            val = value(raw, (name, text))
        out[k] = val
    return out


def _keys(blocks) -> Iterator[str]:
    return itertools.chain.from_iterable(b.split("\n") for _, b in blocks)


def _in_key_order(raw: dict, size: int, blocks, *args) -> list | None:
    """If ``raw`` holds ``size`` keys, its values in the order of the keys
    ``blocks(*args)`` gives, None for a missing one; else None.  While the
    keys come in that order they are compared a block at a time, joined by
    newlines: both sides join as many keys, so equal texts hold as many
    newlines, and as no expected key holds one, the keys match one by one."""
    if len(raw) != size:
        return None
    keys = iter(raw)
    with contextlib.suppress(TypeError):  # a key that is not a string
        if all("\n".join(itertools.islice(keys, count)) == b
               for count, b in blocks(*args)):
            return list(raw.values())
    return list(map(raw.get, _keys(blocks(*args))))


def _numerators(found: list | None) -> tuple[list[int], int] | None:
    """The values found as numerators over one denominator, or None."""
    try:
        distinct = set(found)
    except TypeError:  # no table, or an array or object value
        return None
    # None (a missing key or a JSON null) and booleans are not str or int.
    # A str equals only a str, so distinct values all str hide no other; a
    # bool or a float can equal an int, and then every entry is looked at
    if (set(map(type, distinct)) != {str}
            and not set(map(type, found)) <= {str, int}):
        return None
    try:
        read = {x: _rational(x, ()) for x in distinct}
    except ValueError:
        return None
    nums, den = on_one_denominator(list(read.values()))
    return list(map(dict(zip(read, nums)).__getitem__, found)), den


def _coalition(value, path: tuple, n: int) -> list[int]:
    """A coalition written as an array of distinct players in 1..n."""
    from .coalitions import mask_of

    players = [_typed(x, int, path + (i,))
               for i, x in enumerate(_typed(value, list, path))]
    try:
        mask_of(players, n)
    except ValueError as exc:
        raise _error(path, str(exc)) from None
    return players


# ---------------------------------------------------------------------------
# coalition games

def coalition_function_to_json(cf: CoalitionFunction) -> dict:
    # a table repeats a few values: each is formatted once
    text = functools.cache(lambda x: format_rational(Fraction(x, cf.den)))
    keys = _keys(_coalition_blocks(cf.n))
    return {"n": cf.n, "values": dict(zip(keys, map(text, cf.nums)))}


def _spellings(n: int, first: int = 1) -> list[str]:
    """The comma-separated players of every coalition bitmask of n players,
    the one on bit 0 numbered ``first``, in mask order: each player doubles
    the table, its new half being the old one with it."""
    out = [""]
    for i in map(str, range(first, first + n)):
        out += [k + "," + i if k else i for k in out]
    return out


def _coalition_blocks(n: int) -> Iterator[tuple[int, str]]:
    """The keys ``coalition_function_to_json`` writes, a block per
    coalition of the high players joined to a half table for the low ones,
    each block as its number of keys and the keys joined by newlines."""
    h = (n + 1) // 2
    low = _spellings(h)
    yield len(low), "\n".join(low)
    for high in _spellings(n - h, h + 1)[1:]:
        tail = "," + high
        yield len(low), high + "\n" + (tail + "\n").join(low[1:]) + tail


def parse_coalition_input(obj: dict) -> CoalitionFunction:
    """Accepts {"n", "winning": [...]} (closed upward unless "closure" is
    false) or {"n", "values": {"players": "p/q"}} with a total table."""
    from .coalitions import CoalitionFunction, mask_of

    _typed(obj, dict, ())
    n = _member(obj, "n", int)
    if "values" in obj:
        check_players(n)
        total = _numerators(_in_key_order(_member(obj, "values", dict),
                                          1 << n, _coalition_blocks, n))
        if total:
            return CoalitionFunction(n, *total)
        table = _table(obj, "values", 1, n, _rational,
                       key=lambda players: mask_of(players, n))
        if len(table) != 1 << n:
            raise ValueError(f"values table must be total over 2^N: it has "
                             f"{len(table)} of {1 << n} coalitions")
        return CoalitionFunction(n, [table[m] for m in range(1 << n)])
    winning = [_coalition(c, ("winning", i), n)
               for i, c in enumerate(_member(obj, "winning", list))]
    closure = _member(obj, "closure", bool, True)
    return CoalitionFunction.from_winning(n, winning, closure=closure)


def simple_game_to_json(v: SimpleGame) -> dict:
    return {"n": v.n, "winning": [list(c) for c in v.minimal_winning()]}


def parse_simple_game(obj: dict) -> SimpleGame:
    from .coalitions import SimpleGame

    return SimpleGame(parse_coalition_input(obj))


def jk_game_to_json(v: JKGame) -> dict:
    keys = _keys(_profile_blocks(v.n, range(v.j)))
    return {"n": v.n, "j": v.j, "k": v.k, "values": dict(zip(keys, v.levels))}


def _profile_blocks(n: int, digits: range) -> Iterator[tuple[int, str]]:
    """The keys of (j,k) profiles (digits 0..j-1) and step-game boxes (1..p),
    first coordinate slowest, a block per profile of the first n // 2 joined
    to a half table for the rest, each block as ``_coalition_blocks``."""
    tails = [_key(t) for t in itertools.product(digits, repeat=(n + 1) // 2)]
    for head in map(_key, itertools.product(digits, repeat=n // 2)):
        yield len(tails), (head + "," + ("\n" + head + ",").join(tails)
                           if head else "\n".join(tails))


def parse_jk_game(obj: dict) -> JKGame:
    from .coalitions import JKGame

    _typed(obj, dict, ())
    n, j, k = (_member(obj, key, int) for key in ("n", "j", "k"))
    raw = _member(obj, "values", dict)
    # integer levels keyed as jk_game_to_json writes, else _table; n is
    # bounded first, so that j ** n stays small
    if 1 <= n <= MAX_PLAYERS and j >= 2:
        levels = _in_key_order(raw, j ** n, _profile_blocks, n, range(j))
        if set(map(type, levels or ())) == {int}:
            return JKGame(n, j, k, levels)
    # keyed by row-major position; the rows up to the first missing one,
    # which a short table lacks among its first len(table)
    table = _table(obj, "values", 0, j - 1, arity=n,
                   key=lambda x: functools.reduce(lambda r, xi: r * j + xi,
                                                  x, 0),
                   value=lambda x, path: _typed(x, int, path))
    return JKGame(n, j, k, list(map(table.__getitem__, itertools.takewhile(
        table.__contains__, range(len(table))))))


# ---------------------------------------------------------------------------
# step games

def step_game_to_json(g: StepGame) -> dict:
    """Boxes are keyed by 1-based box indices; a "faces" table, written
    when the game stores overrides, lists the values that differ from the
    regular completion of the same boxes (keys are doubled face
    coordinates)."""
    # a table repeats a few values: each is formatted once
    text = functools.cache(lambda x: format_rational(Fraction(x, g.den)))
    keys = _keys(_profile_blocks(g.n, range(1, g.p + 1)))
    out = {"n": g.n, "alpha": [format_rational(a) for a in g.disc.alpha],
           "tag": g.tag, "boxes": dict(zip(keys, map(text, g.nums)))}
    if g.overrides:
        out["faces"] = {_key(d): text(g.overrides[d])
                        for d in sorted(g.overrides)}
    return out


def parse_step_game(obj: dict) -> StepGame:
    """The game of a JSON step game: the boxes table must be total, and a
    "faces" entry sets a face the way ``StepGame.with_values`` does."""
    from .stepfun import (Discretization, StepGame, TAG_REGULAR,
                          box_numerators, check_grid, check_tag)

    _typed(obj, dict, ())
    disc = Discretization(tuple(_rational(a, ("alpha", i)) for i, a
                                in enumerate(_member(obj, "alpha", list))))
    n = _member(obj, "n", int)
    tag = _member(obj, "tag", str, TAG_REGULAR)
    p = disc.p
    # boxes keyed as step_game_to_json writes, else _table; n is bounded
    # first, so that p ** n stays small
    total = 1 <= n <= MAX_PLAYERS and _numerators(_in_key_order(_member(
        obj, "boxes", dict), p ** n, _profile_blocks, n, range(1, p + 1)))
    boxes = {} if total else _table(obj, "boxes", 1, p, _rational, arity=n,
                                    key=lambda b: tuple(2 * i - 1 for i in b))
    faces = "faces" in obj and _table(obj, "faces", 0, 2 * p, _rational,
                                      arity=n)
    # nothing grid-sized is built before the grid is checked
    check_grid(n, p)
    check_tag(tag)
    g = StepGame(disc, n, *(total or box_numerators(boxes, n, p)), tag=tag)
    return g.with_values(faces) if faces else g


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
        labels = _spellings(pv.n)
        out["C"] = {labels[t]: format_rational(x) if isinstance(x, Fraction) else x
                    for t, x in sorted(pv.c_table.items())}
    return out
