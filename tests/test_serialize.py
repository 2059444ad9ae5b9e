import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerdex.coalitions import CoalitionFunction, SimpleGame, random_monotone_jk
from powerdex.embeddings import embed_simple_semiregular
from powerdex.indices import psi_exact, psi_mc
from powerdex.sampling import random_regular_game
from powerdex.serialize import (coalition_function_to_json, jk_game_to_json,
                                parse_coalition_input, parse_jk_game,
                                parse_simple_game, parse_step_game,
                                power_vector_to_json, simple_game_to_json,
                                step_game_to_json)
from powerdex.stepfun import join_meet


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
    assert v.values == {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}
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


def _parse_error(obj) -> str:
    with pytest.raises(ValueError) as caught:
        parse_coalition_input(obj)
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
    if n >= 2:
        pairs = items[:at] + [("2,1", "0")] + items[at:]
        later = max(("1,2", "2,1"), key=[k for k, _ in pairs].index)
        assert _parse_error({"n": n, "values": dict(pairs)}) \
            == f"""values["{later}"]: key '{later}' repeats an earlier key"""
