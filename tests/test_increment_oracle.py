"""``check_local_increment`` against ``dense_check_local_increment``, the
definition read face by face, on a seeded corpus of claims that hold and
claims that fail: HIS witnesses (also with epsilon doubled, with u and v
swapped and with another coalition claimed), every local increment that
``box_increments`` derives from a box raised by ``raise_box``, and claims
of the empty and the grand coalition on the unit cube, on a corner domain
(c, 1)^n and on smaller domains, against box raises and games raised on
the open cube or the open domain.  On that corpus and on drawn claims, a
claim that verifies shifts the exact index by its ``his_delta``."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import dense_check_local_increment
from powerdex.axioms import (boundary_face_witness, crafted_his_witnesses,
                             suite_his_witnesses)
from powerdex.his import raise_box
from powerdex.increments import (Domain, LocalIncrement, box_increments,
                                 check_local_increment, his_delta)
from powerdex.indices import psi_exact
from powerdex.sampling import random_regular_game
from powerdex.stepfun import (Discretization, box_keys, face_center, refine,
                              regular_completion)

# domain ends: a few multiples of 1/24, the grid that random games use
ENDS = [F(k, 24) for k in (0, 4, 6, 8, 12, 16, 18, 20, 24)]


def random_domain(rng, players) -> Domain:
    return Domain.of({i: sorted(rng.choice(ENDS) for _ in range(2))
                      for i in players})


def raised_inside(u, domain: Domain, eps):
    """u raised by eps at every face strictly inside the domain, on the
    grid of u and the domain's ends."""
    grid = Discretization(sorted({*u.disc.alpha,
                                  *(x for _, ab in domain.intervals for x in ab)}))
    g, ends = refine(u, grid), dict(domain.intervals)
    inside = [d for d in itertools.product(range(1, 2 * grid.p), repeat=u.n)
              if all(ends[i][0] < x < ends[i][1]
                     for i, x in enumerate(face_center(grid, d), 1))]
    return g.with_values({d: regular_completion(g, d) + eps for d in inside})


def increment_corpus(seed: int) -> list[tuple[str, object, object, LocalIncrement]]:
    """(kind, u, v, claim) cases drawn from one seed."""
    rng = random.Random(seed)
    suite = [random_regular_game(rng, 2, rng.randrange(1, 4)) for _ in range(6)]
    suite += [random_regular_game(rng, 3, rng.randrange(1, 3)) for _ in range(4)]
    cases = []
    for u, v, inc in crafted_his_witnesses() + suite_his_witnesses(suite, rng):
        n = u.n
        other = frozenset(rng.choice([t for r in range(1, n)
                                      for t in itertools.combinations(range(1, n + 1), r)
                                      if set(t) != inc.coalition]))
        cases += [
            ("witness", u, v, inc),
            ("witness, eps doubled", u, v, LocalIncrement(
                n, inc.coalition, 2 * inc.epsilon, inc.domain)),
            ("witness, u and v swapped", v, u, inc),
            ("witness, another coalition", u, v, LocalIncrement(
                n, other, inc.epsilon,
                random_domain(rng, sorted(set(range(1, n + 1)) - other)))),
        ]
    for u in suite:
        n, everyone = u.n, range(1, u.n + 1)
        boxes = box_keys(n, u.p)
        for box in rng.sample(boxes, min(3, len(boxes))):
            eps = rng.choice([F(1, 12), F(1, 24), F(1, 5)])
            v = raise_box(u, box, eps)
            cases += [("box_increments against raise_box", u, v, inc)
                      for _, inc in box_increments(u.disc, box, eps)]
        eps = rng.choice([F(1, 12), F(1, 5)])
        small = random_domain(rng, everyone)
        c = rng.choice(ENDS[1:-1])
        corner = Domain.of({i: (c, 1) for i in everyone})
        raised = {"box raise": raise_box(u, rng.choice(boxes), eps),
                  "open cube raise": raised_inside(
                      u, Domain.unit_cube(everyone), eps),
                  "open domain raise": raised_inside(u, small, eps)}
        for (what, v), coalition, (where, domain), by in itertools.product(
                raised.items(), (frozenset(), frozenset(everyone)),
                (("unit cube", Domain.unit_cube(everyone)),
                 ("corner domain", corner), ("smaller domain", small)),
                (eps, 2 * eps)):
            label = "S = N" if coalition else "S = {}"
            cases.append((f"{label} on the {where}, {what}", u, v,
                          LocalIncrement(n, coalition, by, domain)))
    return cases


@pytest.mark.parametrize("seed", [0])
def test_check_local_increment_matches_the_dense_oracle(seed):
    outcomes = {}
    for kind, u, v, inc in increment_corpus(seed):
        got = check_local_increment(u, v, inc)
        assert got == dense_check_local_increment(u, v, inc), (kind, inc)
        outcomes.setdefault(kind.split(",")[0], set()).add(got[0])
    # S = N holds on a domain (c, 1)^n alone, which a drawn domain seldom
    # is; every other kind of claim both holds and fails somewhere in the
    # corpus, S = {} on a smaller domain and S = N outside its domain among
    # them
    assert False in outcomes.pop("S = N on the smaller domain")
    assert len(outcomes) == 7
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


def shifts_as_claimed(u, v, inc) -> bool:
    """Whether ``check_local_increment`` refuses the claim, or it holds and
    the exact index moves by the claim's ``his_delta``."""
    if not check_local_increment(u, v, inc)[0]:
        return True
    moved = [b - a for a, b in zip(psi_exact(u).shares, psi_exact(v).shares)]
    return tuple(moved) == his_delta(inc).shares


def test_a_verified_claim_shifts_the_index_by_its_delta():
    verified = 0
    for seed in range(5):
        for kind, u, v, inc in increment_corpus(seed):
            assert shifts_as_claimed(u, v, inc), (seed, kind, inc)
            verified += check_local_increment(u, v, inc)[0]
    assert verified >= 200


@st.composite
def claims(draw):
    """A random game, a raise of it (a box, the game itself on the open
    cube, on a corner domain (c, 1)^n or on a drawn domain, or one face on
    a side of the cube), perhaps with one more face on a side raised, and
    a claim: one that the raise implies, or any coalition on a domain of
    the kinds above by the raise's epsilon or twice it."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(2, 3))
    u = random_regular_game(rng, n, draw(st.integers(1, 5 - n)))
    everyone, eps = range(1, n + 1), draw(st.sampled_from([F(1, 12), F(1, 5)]))
    c = draw(st.sampled_from(ENDS[:-1]))

    def domain(players):
        return draw(st.sampled_from([
            Domain.unit_cube(players), Domain.of({i: (c, 1) for i in players}),
            random_domain(rng, players)]))

    def side_face(g):
        """A player, and a face of g with that player's coordinate on a side
        of the cube and the others' on boxes."""
        face = [rng.randrange(1, 2 * g.p, 2) for _ in everyone]
        player = rng.randrange(n)
        face[player] = rng.choice([0, 2 * g.p])
        return player + 1, tuple(face)

    box, where = rng.choice(box_keys(n, u.p)), domain(everyone)
    _, side, side_inc = boundary_face_witness(u, *side_face(u), eps)
    v, implied = draw(st.sampled_from([
        (raise_box(u, box, eps),
         [inc for _, inc in box_increments(u.disc, box, eps)]),
        (raised_inside(u, where, eps), [LocalIncrement(n, s, eps, where) for s
                                        in (frozenset(), frozenset(everyone))]),
        (side, [side_inc])]))
    if draw(st.booleans()):
        _, face = side_face(v)
        v = v.with_values({face: regular_completion(v, face) + eps})
    coalition = frozenset(draw(st.sampled_from([
        t for r in range(n + 1) for t in itertools.combinations(everyone, r)])))
    rest = everyone if len(coalition) in (0, n) else sorted(
        set(everyone) - coalition)
    made_up = LocalIncrement(n, coalition, draw(st.sampled_from(
        [eps, 2 * eps])), domain(rest))
    return u, v, draw(st.sampled_from([*implied, made_up]))


@settings(max_examples=300, deadline=None)
@given(claims())
def test_a_verified_drawn_claim_shifts_the_index_by_its_delta(claim):
    assert shifts_as_claimed(*claim)
