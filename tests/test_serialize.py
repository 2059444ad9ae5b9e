import json
import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powerdex.serialize as serialize
from powerdex.coalitions import (CoalitionFunction, JKGame, SimpleGame,
                                 random_monotone_jk)
from powerdex.embeddings import embed_simple_semiregular
from powerdex.indices import psi_exact, psi_mc
from powerdex.rational import on_one_denominator
from powerdex.sampling import random_regular_game
from powerdex.serialize import (coalition_function_to_json, jk_game_to_json,
                                parse_coalition_input, parse_jk_game,
                                parse_simple_game, parse_step_game,
                                power_vector_to_json, simple_game_to_json,
                                step_game_to_json)
from powerdex.stepfun import StepGame
from powerdex.transforms import join_meet
from test_kernel_properties import LARGE_DENOMINATORS


def test_simple_game_round_trip():
    v = SimpleGame.weighted(4, [3, 2, 1, 1])
    assert parse_simple_game(simple_game_to_json(v)) == v


def test_minimal_winning_list_is_expanded():
    v = parse_simple_game({"n": 3, "winning": [[1, 2]]})
    assert v.value([1, 2, 3]) == 1


def test_non_monotone_coalition_input():
    obj = {"n": 3, "winning": [[1], [3], [1, 3], [1, 2, 3]], "closure": False}
    cf = parse_coalition_input(obj)
    assert not cf.is_monotone()
    back = parse_coalition_input(coalition_function_to_json(cf))
    assert back == cf


def test_jk_round_trip(rng):
    for _ in range(10):
        v = random_monotone_jk(rng, 2, 3, 3)
        assert parse_jk_game(jk_game_to_json(v)) == v


def test_step_game_round_trip_regular(appendix, rng):
    assert parse_step_game(step_game_to_json(appendix)) == appendix
    for _ in range(10):
        g = random_regular_game(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        assert parse_step_game(step_game_to_json(g)) == g


def test_step_game_round_trip_with_overrides(appendix, rng):
    semi = embed_simple_semiregular(SimpleGame.weighted(3, [2, 1, 1]))
    blob = step_game_to_json(semi)
    assert "faces" in blob
    assert parse_step_game(blob) == semi
    hi, lo = join_meet(appendix, random_regular_game(rng, 2, 2))
    for g in (hi, lo):
        assert parse_step_game(step_game_to_json(g)) == g


def test_step_game_json_is_deterministic(appendix):
    a = json.dumps(step_game_to_json(appendix), sort_keys=True)
    b = json.dumps(step_game_to_json(appendix), sort_keys=True)
    assert a == b


def test_coalition_table_rejects_two_keys_for_one_coalition():
    # "1,2" and "2,1" name the same coalition; the later value used to win
    with pytest.raises(ValueError, match="'2,1'"):
        parse_coalition_input({"n": 2, "values": {"": "0", "1": "0", "2": "0",
                                                  "1,2": "1", "2,1": "0"}})


def test_parse_step_game_rejects_partial_tables():
    with pytest.raises(ValueError):
        parse_step_game({"n": 2, "alpha": ["0", "1/2", "1"], "tag": "regular",
                         "boxes": {"1,1": "0"}})


def test_parse_step_game_rejects_two_keys_for_one_box():
    # "1, 1" and "1,1" name the same box
    with pytest.raises(ValueError, match="'1,1'"):
        parse_step_game({"n": 2, "alpha": ["0", "1"], "tag": "regular",
                         "boxes": {"1, 1": "0", "1,1": "0"}})


def test_power_vector_serialization(appendix):
    pv = psi_exact(appendix)
    blob = power_vector_to_json(pv, "psi", with_c=True)
    assert blob["shares"] == ["9/16", "7/16"]
    assert blob["C"][""] == "0" and blob["C"]["1,2"] == "1"
    mc = psi_mc(appendix, 1000, seed=0)
    blob = power_vector_to_json(mc, "psi")
    assert blob["samples"] == 1000 and blob["seed"] == 0
    assert len(blob["shares"][0]) == 2


def test_keys_allow_whitespace_around_each_integer():
    v = parse_jk_game({"n": 2, "j": 2, "k": 2,
                       "values": {"0,0": 0, " 0 , 1": 0, "1,0 ": 0, "1, 1": 1}})
    assert v.levels == [0, 0, 0, 1]
    cf = parse_coalition_input({"n": 2, "values": {" ": "0", "1": "0",
                                                   " 2": "0", "2 ,1": "1"}})
    assert cf.values == [0, 0, 0, 1]


@pytest.mark.parametrize("reader, obj, message", [
    (parse_jk_game, {"n": 2, "j": 2, "k": 2, "values": {"0": 0}},
     """values["0"]: key '0' needs 2 comma-separated integers, not 1"""),
    (parse_step_game, {"n": 2, "alpha": ["0", "1/2", "1"],
                       "boxes": {"3,1": "0"}},
     """boxes["3,1"]: key '3,1' has an integer outside 1..2"""),
    (parse_step_game, {"n": 1, "alpha": ["0", "1"], "boxes": {"1": "0"},
                       "faces": {"0": "0", " 0": "1/2"}},
     """faces[" 0"]: key ' 0' repeats an earlier key"""),
    (parse_step_game, {"n": 1, "alpha": ["0", "1/2", 0.75, "1"],
                       "boxes": {}},
     "alpha[2]: value must be a JSON string or integer, not number"),
    (parse_coalition_input, {"n": 2, "values": {"1,x": "0"}},
     """values["1,x"]: key '1,x' is not comma-separated integers"""),
    (parse_coalition_input, {"n": 2, "winning": [[1, 2.0]]},
     "winning[0][1]: value must be a JSON integer, not number"),
])
def test_diagnostics_name_the_json_path(reader, obj, message):
    with pytest.raises((TypeError, ValueError)) as caught:
        reader(obj)
    assert str(caught.value) == message

@st.composite
def coalition_tables(draw, max_players=6):
    """A coalition table as coalition_function_to_json writes it, with its
    CoalitionFunction."""
    n = draw(st.integers(1, max_players))
    values = draw(st.lists(st.fractions(min_value=-3, max_value=3,
                                        max_denominator=7),
                           min_size=1 << n, max_size=1 << n))
    cf = CoalitionFunction(n, values)
    return cf, coalition_function_to_json(cf)


def _parse_error(obj, reader=parse_coalition_input) -> str:
    with pytest.raises((TypeError, ValueError)) as caught:
        reader(obj)
    return str(caught.value)


@settings(max_examples=60)
@given(coalition_tables(), st.randoms(use_true_random=False))
def test_coalition_reader_spellings(drawn, rng):
    cf, obj = drawn
    n, full = cf.n, 1 << cf.n
    items = list(obj["values"].items())
    assert parse_coalition_input(obj) == cf

    def parsed(pairs) -> CoalitionFunction:
        return parse_coalition_input({"n": n, "values": dict(pairs)})
    assert parsed(rng.sample(items, len(items))) == cf
    assert parsed((",".join(reversed(k.split(","))), v) for k, v in items) == cf
    assert parsed((" " + k.replace(",", " , ") + " ", v) for k, v in items) == cf
    assert parsed((k, int(F(v)) if F(v).denominator == 1 else v)
                  for k, v in items) == cf

    # each refused table gives the diagnostic the reader gave before it
    # learned to look keys up by their canonical spelling
    at = rng.randrange(full)
    key = items[at][0]
    assert _parse_error({"n": n, "values": dict(items[:at] + items[at + 1:])}) \
        == f"values table must be total over 2^N: it has {full - 1} of {full} coalitions"
    extra = str(n + 1)
    assert _parse_error({"n": n, "values": dict(
        items[:at] + [(extra, "0")] + items[at:])}) \
        == f"""values["{extra}"]: key '{extra}' has an integer outside 1..{n}"""
    assert _parse_error({"n": n, "values": dict(
        items[:at] + [(key, "1/0")] + items[at + 1:])}) \
        == f"""values["{key}"]: rational '1/0' has a zero denominator"""
    assert _parse_error({"n": n, "values": dict(
        items[:at] + [(key, True)] + items[at + 1:])}) \
        == f"""values["{key}"]: key '{key}' must be a JSON string or integer, not boolean"""
    if n >= 2:
        pairs = items[:at] + [("2,1", "0")] + items[at:]
        later = max(("1,2", "2,1"), key=[k for k, _ in pairs].index)
        assert _parse_error({"n": n, "values": dict(pairs)}) \
            == f"""values["{later}"]: key '{later}' repeats an earlier key"""


@pytest.mark.parametrize("quota, at, odd, kind", [
    (1, 3, True, "boolean"), (1, 3, 1.0, "number"),
    (2, 1, False, "boolean"), (2, 1, 0.0, "number")])
def test_a_value_equal_to_an_earlier_integer_is_refused(quota, at, odd, kind):
    # a set of the values keeps one of 1 and True (or 0 and 0.0), so only
    # the distinct values of a table of strings are enough to type-check
    cf = SimpleGame.weighted(quota, [1, 1]).inner
    values = {k: int(F(v)) for k, v in
              coalition_function_to_json(cf)["values"].items()}
    key = list(values)[at]
    assert _parse_error({"n": 2, "values": {**values, key: odd}}) == (
        f"""values["{key}"]: key '{key}' must be a JSON string or """
        f"integer, not {kind}")


@st.composite
def jk_tables(draw, max_players=4):
    """A (j,k) table as jk_game_to_json writes it, with its JKGame."""
    n = draw(st.integers(1, max_players))
    j, k = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    v = random_monotone_jk(draw(st.randoms(use_true_random=False)), n, j, k)
    return v, jk_game_to_json(v)


@settings(max_examples=60)
@given(jk_tables(), st.randoms(use_true_random=False))
def test_jk_reader_spellings(drawn, rng):
    v, obj = drawn
    n, j = v.n, v.j
    items = list(obj["values"].items())
    assert parse_jk_game(obj) == v

    def pairs_error(pairs) -> str:
        return _parse_error({**obj, "values": dict(pairs)}, parse_jk_game)

    def parsed(pairs) -> JKGame:
        return parse_jk_game({**obj, "values": dict(pairs)})
    assert parsed(rng.sample(items, len(items))) == v
    assert parsed((" " + k.replace(",", " , ") + " ", x) for k, x in items) == v
    assert parsed(("0" + k.replace(",", ",0"), x) for k, x in items) == v

    # each refused table gives the diagnostic of the general reader
    at = rng.randrange(len(items))
    key, level = items[at]
    profile = tuple(map(int, key.split(",")))
    assert pairs_error(items[:at] + items[at + 1:]) \
        == f"missing value at {profile}"
    extra = ",".join([str(j), *key.split(",")[1:]])
    assert pairs_error(items[:at] + [(extra, 0)] + items[at:]) \
        == f"""values["{extra}"]: key '{extra}' has an integer outside 0..{j - 1}"""
    for bad, kind in ((str(level), "string"), (True, "boolean"),
                      (float(level), "number")):
        assert pairs_error(items[:at] + [(key, bad)] + items[at + 1:]) \
            == f"""values["{key}"]: key '{key}' must be a JSON integer, not {kind}"""
    longer = key + ",0"
    assert pairs_error(items[:at] + [(longer, 0)] + items[at + 1:]) \
        == f"""values["{longer}"]: key '{longer}' needs {n} comma-separated integers, not {n + 1}"""
    pairs = items[:at] + [(" " + key, level)] + items[at:]
    later = max((key, " " + key), key=[k for k, _ in pairs].index)
    assert pairs_error(pairs) \
        == f"""values["{later}"]: key '{later}' repeats an earlier key"""


@st.composite
def step_tables(draw, max_boxes=256):
    """A step game's JSON as step_game_to_json writes it, with its game."""
    n = draw(st.integers(1, 4))
    p = draw(st.integers(1, 4).filter(lambda p: p ** n <= max_boxes))
    g = random_regular_game(draw(st.randoms(use_true_random=False)), n, p)
    g = g.with_tag(draw(st.sampled_from(("raw", "semi_regular", "regular"))))
    return g, step_game_to_json(g)


@settings(max_examples=60)
@given(step_tables(), st.randoms(use_true_random=False))
def test_box_reader_spellings(drawn, rng):
    g, obj = drawn
    p = g.p
    items = list(obj["boxes"].items())
    assert parse_step_game(obj) == g

    def pairs_error(pairs) -> str:
        return _parse_error({**obj, "boxes": dict(pairs)}, parse_step_game)

    def parsed(pairs):
        return parse_step_game({**obj, "boxes": dict(pairs)})
    assert parsed(rng.sample(items, len(items))) == g
    assert parsed((" " + k.replace(",", " , ") + " ", x) for k, x in items) == g
    assert parsed(("0" + k.replace(",", ",0"), x) for k, x in items) == g

    # each refused table gives the diagnostic of the general reader
    at = rng.randrange(len(items))
    key, value = items[at]
    assert pairs_error(items[:at] + items[at + 1:]) \
        == "boxes table must cover every full-dimensional box"
    extra = ",".join([str(p + 1), *key.split(",")[1:]])
    assert pairs_error(items[:at] + [(extra, "0")] + items[at:]) \
        == f"""boxes["{extra}"]: key '{extra}' has an integer outside 1..{p}"""
    assert pairs_error(items[:at] + [(key, "1/0")] + items[at + 1:]) \
        == f"""boxes["{key}"]: rational '1/0' has a zero denominator"""
    assert pairs_error(items[:at] + [(key, True)] + items[at + 1:]) \
        == f"""boxes["{key}"]: key '{key}' must be a JSON string or integer, not boolean"""
    pairs = items[:at] + [(" " + key, value)] + items[at:]
    later = max((key, " " + key), key=[k for k, _ in pairs].index)
    assert pairs_error(pairs) \
        == f"""boxes["{later}"]: key '{later}' repeats an earlier key"""


def test_canonical_tables_never_reach_the_general_reader(monkeypatch, rng):
    # tables keyed as the writers key them, with string or integer values
    # and their keys in any order, are read without parsing a key
    def general(*args, **kwargs):
        raise AssertionError("the general table reader was called")
    monkeypatch.setattr(serialize, "_table", general)

    def orders(obj, name="values"):
        items = list(obj[name].items())
        return [obj, {**obj, name: dict(rng.sample(items, len(items)))}]
    for n in (1, 2, 5, 8):
        cf = CoalitionFunction(n, [F(rng.randrange(-3, 4), rng.randrange(1, 5))
                                   for _ in range(1 << n)])
        ints = CoalitionFunction(n, [rng.randrange(-3, 4)
                                     for _ in range(1 << n)])
        int_obj = {"n": n, "values": {
            k: int(x) for k, x in coalition_function_to_json(ints)["values"].items()}}
        for expected, obj in ((cf, coalition_function_to_json(cf)),
                              (ints, coalition_function_to_json(ints)),
                              (ints, int_obj)):
            for spelled in orders(obj):
                assert parse_coalition_input(spelled) == expected
    # (2, 11, 3) and p = 11 have two-digit keys
    for n, j, k in ((1, 2, 2), (2, 3, 4), (3, 4, 3), (4, 2, 2), (5, 3, 2),
                    (2, 11, 3)):
        v = random_monotone_jk(rng, n, j, k)
        for spelled in orders(jk_game_to_json(v)):
            assert parse_jk_game(spelled) == v
    for n, p in ((1, 1), (1, 3), (2, 2), (3, 3), (4, 2), (7, 3), (13, 1),
                 (2, 11)):
        g = random_regular_game(rng, n, p)
        ints = StepGame(g.disc, n, g.nums, tag=g.tag)
        int_obj = {**step_game_to_json(ints), "boxes": {
            k: int(x) for k, x in step_game_to_json(ints)["boxes"].items()}}
        for expected, obj in ((g, step_game_to_json(g)), (ints, int_obj)):
            for spelled in orders(obj, "boxes"):
                assert parse_step_game(spelled) == expected


class _Reached(Exception):
    pass


def _general_reader_reached(monkeypatch, read, obj) -> bool:
    """Whether reading ``obj`` calls the general table reader."""
    def general(*args, **kwargs):
        raise _Reached
    monkeypatch.setattr(serialize, "_table", general)
    try:
        read(obj)
    except _Reached:
        return True
    finally:
        monkeypatch.undo()
    return False


@pytest.mark.parametrize("n, j", [(2, None), (4, None), (7, None),
                                  (2, 2), (3, 3), (5, 2)])
def test_a_key_holding_a_newline_reaches_the_general_reader(monkeypatch, rng,
                                                            n, j):
    if j is None:
        read = parse_coalition_input
        obj = coalition_function_to_json(CoalitionFunction(
            n, [F(rng.randrange(-3, 4), rng.randrange(1, 5))
                for _ in range(1 << n)]))
    else:
        read = parse_jk_game
        obj = jk_game_to_json(random_monotone_jk(rng, n, j, 3))
    _newline_keys_reach_the_general_reader(monkeypatch, read, obj, "values")


@pytest.mark.parametrize("n, p", [(1, 3), (2, 2), (4, 3), (2, 11)])
def test_a_box_key_holding_a_newline_reaches_the_general_reader(monkeypatch,
                                                                rng, n, p):
    obj = step_game_to_json(random_regular_game(rng, n, p))
    _newline_keys_reach_the_general_reader(monkeypatch, parse_step_game, obj,
                                           "boxes")


def _newline_keys_reach_the_general_reader(monkeypatch, read, obj, name):
    # one key spelled with the next one after a newline, the key count
    # unchanged: newline-joined, the block holds one key too few
    items = list(obj[name].items())
    for at in (1, len(items) // 2, len(items) - 2):
        bad = items[at][0] + "\n" + items[at + 1][0]
        spelled = {**obj, name: dict(
            items[:at] + [(bad, items[at][1])] + items[at + 1:])}
        assert _general_reader_reached(monkeypatch, read, spelled)
        assert _parse_error(spelled, read) == (
            f"{name}[{json.dumps(bad)}]: key {bad!r} is not comma-separated "
            "integers")


def test_keys_out_of_block_order_give_the_same_game(monkeypatch, rng):
    # two keys swapped in the last block, or the whole table shuffled: the
    # keys are looked up by their spelling, without the general reader
    cases = []
    for n in (6, 7):
        cf = CoalitionFunction(n, [F(rng.randrange(-3, 4), rng.randrange(1, 5))
                                   for _ in range(1 << n)])
        cases.append((parse_coalition_input, cf,
                      coalition_function_to_json(cf), "values"))
    for n, j in ((4, 3), (5, 2)):
        v = random_monotone_jk(rng, n, j, 3)
        cases.append((parse_jk_game, v, jk_game_to_json(v), "values"))
    for n, p in ((5, 3), (3, 11)):
        g = random_regular_game(rng, n, p)
        cases.append((parse_step_game, g, step_game_to_json(g), "boxes"))
    for read, expected, obj, name in cases:
        items = list(obj[name].items())
        swapped = items[:-2] + items[:-3:-1]
        for pairs in (swapped, rng.sample(items, len(items))):
            spelled = {**obj, name: dict(pairs)}
            assert not _general_reader_reached(monkeypatch, read, spelled)
            assert read(spelled) == expected


@pytest.mark.parametrize("read, obj", [
    (parse_coalition_input, {"n": 2, "values": {0: "0", 1: "0", 2: "0",
                                                3: "1"}}),
    (parse_coalition_input, {"n": 2, "values": {"": "0", "1": "0", "2": "0",
                                                (1, 2): "1"}}),
    (parse_jk_game, {"n": 2, "j": 2, "k": 2, "values": {
        "0,0": 0, "0,1": 0, "1,0": 0, (1, 1): 1}}),
])
def test_a_library_table_with_a_key_that_is_not_a_string(monkeypatch, read,
                                                         obj):
    # such a table goes to the general reader, whose key parser refuses it
    assert _general_reader_reached(monkeypatch, read, obj)
    with pytest.raises(AttributeError, match="has no attribute 'strip'"):
        read(obj)


@st.composite
def rational_tables(draw, max_players=6):
    """n and a table of 2^n Fractions: integral, over small denominators,
    or over large primes."""
    n = draw(st.integers(1, max_players))
    entry = draw(st.sampled_from([
        st.integers(-3, 3).map(F),
        st.fractions(min_value=-3, max_value=3, max_denominator=7),
        st.builds(F, st.integers(-10 ** 9, 10 ** 9),
                  st.sampled_from(LARGE_DENOMINATORS))]))
    return n, draw(st.lists(entry, min_size=1 << n, max_size=1 << n))


@settings(max_examples=60)
@given(rational_tables())
def test_equal_tables_compare_equal_however_built(drawn):
    n, values = drawn
    built = [CoalitionFunction(n, values)]
    if all(x.denominator == 1 for x in values):
        built.append(CoalitionFunction(n, [int(x) for x in values]))
    obj = coalition_function_to_json(built[0])
    built.append(parse_coalition_input(obj))
    built.append(parse_coalition_input({"n": n, "values": {
        " " + " , ".join(reversed(k.split(","))) + " ": v
        for k, v in obj["values"].items()}}))
    built.append(parse_coalition_input(
        {"n": n, "values": dict(reversed(obj["values"].items()))}))
    if all(x.denominator == 1 for x in values):
        built.append(parse_coalition_input({"n": n, "values": {
            k: int(v) for k, v in obj["values"].items()}}))
    den = lcm(*(x.denominator for x in values))
    for cf in built:
        # the readers hold their tables in the lowest terms of
        # on_one_denominator, which __eq__ compares
        assert (cf.nums, cf.den) == on_one_denominator(values)
        assert cf == built[0]
        assert (cf.nums, cf.den) == (built[0].nums, built[0].den)
        assert cf.den == den
        assert [F(x, den) for x in cf.nums] == values
        assert cf.values == values
        assert cf.winning_masks() == [m for m, x in enumerate(values) if x == 1]
    # the same numerators over another denominator are another table
    assert CoalitionFunction(1, [0, F(1, 2)]) != CoalitionFunction(1, [0, F(1, 3)])
