"""``check_local_increment`` against ``dense_check_local_increment``, the
definition read face by face, on a seeded corpus of claims that hold and
claims that fail: HIS witnesses (also with epsilon doubled, with u and v
swapped and with another coalition claimed), every local increment that
``box_increments`` derives from a box raised by ``raise_box``, and claims
of the empty and the grand coalition on the unit cube and on smaller
domains, against box raises and games raised on the open cube or the open
domain."""

import itertools
import random
from fractions import Fraction as F

import pytest

from dense_oracle import dense_check_local_increment
from powerdex.axioms import crafted_his_witnesses, suite_his_witnesses
from powerdex.his import raise_box
from powerdex.increments import (Domain, LocalIncrement, box_increments,
                                 check_local_increment)
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
        raised = {"box raise": raise_box(u, rng.choice(boxes), eps),
                  "open cube raise": raised_inside(
                      u, Domain.unit_cube(everyone), eps),
                  "open domain raise": raised_inside(u, small, eps)}
        for (what, v), coalition, (where, domain), by in itertools.product(
                raised.items(), (frozenset(), frozenset(everyone)),
                (("unit cube", Domain.unit_cube(everyone)), ("smaller domain", small)),
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
    # every kind of claim both holds and fails somewhere in the corpus,
    # S = {} on a smaller domain and S = N outside its domain among them
    assert len(outcomes) == 6
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes
