"""Seeded random game generators for test suites and the axiom CLI."""

from __future__ import annotations

import random
from fractions import Fraction

from .stepfun import (Discretization, StepGame, _step, box_keys, check_grid,
                      make_regular_step)


def random_discretization(rng: random.Random, p: int) -> Discretization:
    """p intervals whose inner breakpoints are distinct multiples of 1/24."""
    if p < 1:
        raise ValueError("need p >= 1")
    cuts = rng.sample(range(1, 24), p - 1) if p > 1 else []
    alpha = [Fraction(0)] + sorted(Fraction(c, 24) for c in cuts) + [Fraction(1)]
    return Discretization(tuple(alpha))


def random_regular_game(rng: random.Random, n: int, p: int) -> StepGame:
    """Random monotone regular step game: box values grow along the
    componentwise order via running maxima."""
    check_grid(n, p)
    disc = random_discretization(rng, p)
    values: dict[tuple[int, ...], Fraction] = {}
    for b in sorted(box_keys(n, p), key=lambda b: (sum(b), b)):
        raw = Fraction(rng.randrange(0, 13), 12)
        below = [values[_step(b, i, -2)] for i in range(n) if b[i] >= 3]
        values[b] = max([raw] + below)
    return make_regular_step(disc, values, n)
