"""Grid transforms of step games: sub-grid projection, axis permutation,
pointwise join and meet, and building a game from its face table.

The axiom battery, the embeddings and ``coarsen`` use them; no index
request does, so they are loaded only with their users.
"""

from __future__ import annotations

import itertools
from operator import ne
from typing import Sequence

from .stepfun import (Discretization, Face, StepGame, TAG_RAW, TAG_REGULAR,
                      _completion_table, box_index, box_keys, face_table,
                      refine)


def from_face_table(disc: Discretization, n: int, table: list[int], den: int,
                    tag: str) -> StepGame:
    """The game with value table[k] / den at the k-th face in row-major
    order: its boxes, and the faces where it differs from their
    completion."""
    p, side = disc.p, 2 * disc.p + 1
    at = [0]
    for _ in range(n):
        at = [k * side + b for k in at for b in range(1, side, 2)]
    nums = [table[k] for k in at]
    off = list(map(ne, [x << n for x in table],
                   _completion_table(nums, den, n, p)))
    faces = itertools.product(range(side), repeat=n)
    return StepGame(disc, n, nums, den, dict(zip(
        itertools.compress(faces, off), itertools.compress(table, off))), tag)


def pointwise_equal(u: StepGame, v: StepGame) -> bool:
    if u.n != v.n:
        return False
    merged = u.disc.merge(v.disc)
    return refine(u, merged).same_values(refine(v, merged))


def join_meet(u: StepGame, v: StepGame) -> tuple[StepGame, StepGame]:
    """Pointwise max and min of two games on their merged grid (raw tags)."""
    if u.n != v.n:
        raise ValueError("player counts differ")
    merged = u.disc.merge(v.disc)
    (a, da), (b, db) = (face_table(refine(g, merged)) for g in (u, v))
    a, b = [x * db for x in a], [x * da for x in b]
    return (from_face_table(merged, u.n, list(map(max, a, b)), da * db, TAG_RAW),
            from_face_table(merged, u.n, list(map(min, a, b)), da * db, TAG_RAW))


def coarsen(v: StepGame, disc2: Discretization) -> StepGame:
    """Project onto a sub-grid, each coarse box taking the minimum of the
    fine boxes it covers; remaining faces by the regular completion."""
    if not v.disc.is_refinement_of(disc2):
        raise ValueError("target breakpoints must be a subset of the source")
    cuts = [v.disc.alpha.index(a) for a in disc2.alpha]
    spans = [range(2 * lo + 1, 2 * hi, 2) for lo, hi in zip(cuts, cuts[1:])]
    nums = [min(v.nums[box_index(b, v.p)]
                for b in itertools.product(*(spans[c // 2] for c in cb)))
            for cb in box_keys(v.n, disc2.p)]
    return StepGame(disc2, v.n, nums, v.den, tag=TAG_REGULAR)


def permute_axes(g: StepGame, pi: Sequence[int]) -> StepGame:
    """(pi g)(x) = g(pi(x)) with pi(x)_i = x_{pi(i)}; pi is 1-based."""
    if sorted(pi) != list(range(1, g.n + 1)):
        raise ValueError("pi must be a permutation of 1..n")
    inverse = sorted(range(g.n), key=lambda i: pi[i])

    def image(d: Face) -> Face:
        return tuple(d[i] for i in inverse)
    nums = [0] * len(g.nums)
    for b, x in zip(box_keys(g.n, g.p), g.nums):
        nums[box_index(image(b), g.p)] = x
    return StepGame(g.disc, g.n, nums, g.den,
                    {image(d): x for d, x in g.overrides.items()}, g.tag)
