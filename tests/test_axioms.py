import random
from fractions import Fraction as F

import pytest

from powerdex.axioms import (IndexHandle, check_axioms,
                             crafted_his_witnesses, find_null_players,
                             find_symmetric_pairs, make_handles,
                             null_extension, separation_demo, square_game)
from powerdex.coalitions import JKGame, SimpleGame
from powerdex.embeddings import embed_jk
from powerdex.increments import check_local_increment
from powerdex.indices import PowerVector, psi_exact
from powerdex.sampling import random_regular_game
from powerdex.stepfun import validate, zero_game
from powerdex.transforms import permute_axes


def _suite(seed=20260808, count=18):
    rng = random.Random(seed)
    games = [random_regular_game(rng, 2, rng.randrange(1, 4))
             for _ in range(count // 2)]
    games += [random_regular_game(rng, 3, rng.randrange(1, 3))
              for _ in range(count - count // 2)]
    base = [random_regular_game(rng, 2, 2) for _ in range(2)]
    games += [null_extension(g, pos) for g, pos in zip(base, (1, 3))]
    games.append(embed_jk(JKGame.from_simple(SimpleGame.weighted(2, [1, 1]))))
    return games


def test_find_null_players_examples(appendix):
    assert find_null_players(appendix) == frozenset()
    assert find_null_players(zero_game(3)) == frozenset()
    g = null_extension(random_regular_game(random.Random(3), 2, 2), 2)
    assert find_null_players(g) == frozenset({2})


def test_null_extension_refuses_a_position_outside_the_players():
    g = random_regular_game(random.Random(3), 2, 2)
    for position in (0, 4):
        with pytest.raises(ValueError, match=f"position {position} outside 1..3"):
            null_extension(g, position)
    # both ends are valid: the null player goes first or last
    assert find_null_players(null_extension(g, 1)) == frozenset({1})
    assert find_null_players(null_extension(g, 3)) == frozenset({3})


def test_find_symmetric_pairs_examples(appendix):
    assert find_symmetric_pairs(appendix) == set()
    maj = embed_jk(JKGame.from_simple(SimpleGame.weighted(2, [1, 1])))
    assert find_symmetric_pairs(maj) == {(1, 2)}
    assert find_symmetric_pairs(zero_game(3)) == {(1, 2), (1, 3), (2, 3)}


def test_square_game_is_pointwise_square(appendix):
    sq = square_game(appendix)
    assert sq.box((1, 1)) == F(1, 100)
    assert validate(sq).monotone


def test_psi_exact_passes_all_axioms():
    handles = make_handles()
    report = check_axioms(handles["psi_exact"], _suite(), seed=11)
    assert report.all_passed(), report.violations


def test_independence_handles_fail_exactly_their_axiom():
    handles = make_handles()
    suite = _suite()
    expected = {
        "two_psi": {"efficiency"},
        "half_psi_half_ed": {"null_player"},
        "psi_point": {"his"},
        "psi_square": {"his"},
    }
    for name, axioms in expected.items():
        report = check_axioms(handles[name], suite, seed=11)
        assert report.failed_axioms() == axioms, (name, report.violations)


def _foil(name, shares):
    """A handle whose shares are ``shares(g, psi_exact(g).shares)``."""
    return IndexHandle(name, lambda g: PowerVector(
        tuple(shares(g, psi_exact(g).shares)), "exact"))


_TILTED = _foil("tilted_to_player_1", lambda g, s: (
    s[0] + F(1, 1000), s[1] - F(1, 1000), *s[2:]) if g.n > 1 else s)

# test-only foils, not registered in make_handles: each breaks the battery
# check that its entry names, with that check's first message.  The suite
# has no null player, so the negative shares of 2 psi - 1/n break
# positivity alone
FOILS = [
    (_foil("twice_psi_less_equal_division",
           lambda g, s: [2 * x - F(1, g.n) for x in s]),
     {"positivity"}, "positivity", "game 7: shares (Fraction(-1, 12)"),
    (_TILTED, {"symmetry", "anonymity"}, "symmetry",
     "game 0: symmetric players 1,2 get 501/1000 vs 499/1000"),
    (_TILTED, {"symmetry", "anonymity"}, "anonymity",
     "game 3: permutation [2, 1] moves share of 1"),
    (_foil("squared_shares",
           lambda g, s: [x * x / sum(y * y for y in s) for x in s]),
     {"transfer", "his"}, "transfer", "pair sums"),
    # the labels read backwards: a witness's outsiders shift unequally
    (_foil("reversed_labels", lambda g, s: psi_exact(
        permute_axes(g, list(range(g.n, 0, -1)))).shares),
     {"symmetry", "anonymity", "his"}, "his", "S={1}: non-uniform shift"),
]


@pytest.mark.parametrize("foil, failed, axiom, message", FOILS,
                         ids=[f"{f[0].name}-{f[2]}" for f in FOILS])
def test_unregistered_foils_trip_each_battery_check(foil, failed, axiom,
                                                    message):
    suite = [g for g in _suite() if not find_null_players(g)]
    report = check_axioms(foil, suite, seed=11)
    assert report.failed_axioms() == failed, report.violations
    assert report.violations[axiom][0].startswith(message)


def test_phi_two_player_satisfies_its_axioms():
    handles = make_handles()
    suite = [g for g in _suite() if g.n == 2]
    report = check_axioms(handles["phi_two_player"], suite, seed=11)
    assert report.all_passed(), report.violations


def test_crafted_witnesses_are_valid_increments():
    for u, v, inc in crafted_his_witnesses():
        ok, witness = check_local_increment(u, v, inc)
        assert ok, witness


def test_transfer_identity_exact_on_random_pairs(rng):
    from powerdex.transforms import join_meet
    for _ in range(100):
        u = random_regular_game(rng, 2, rng.randrange(1, 4))
        v = random_regular_game(rng, 2, rng.randrange(1, 4))
        hi, lo = join_meet(u, v)
        left = [a + b for a, b in zip(psi_exact(u).shares, psi_exact(v).shares)]
        right = [a + b for a, b in zip(psi_exact(hi).shares, psi_exact(lo).shares)]
        assert left == right


def test_separation_demo_report():
    report = separation_demo()
    assert report["psi"] == (F(5, 12), F(7, 12))
    assert report["psi_point"][F(0)] == (F(1, 2), F(1, 2))
    assert report["psi_point"][F(1, 2)] == (F(3, 8), F(5, 8))
    assert all(report["differs"].values())
    assert all(b["sign_change"] for b in report["equality_brackets"])
    assert report["classical_axioms_insufficient"]
