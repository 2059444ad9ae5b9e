"""Grid transforms of step games: sub-grid projection, axis permutation,
pointwise join and meet, and building a game from its face table.

The axiom battery, the embeddings and ``coarsen`` use them; no index
request does, so they are loaded only with their users.
"""

from __future__ import annotations

import itertools
from operator import ne
from typing import Sequence

from .rational import digits_of, index_of, positions
from .stepfun import (Discretization, StepGame, TAG_RAW, TAG_REGULAR,
                      _completion_table, box_keys, box_positions, face_table,
                      refine)


def from_face_table(disc: Discretization, n: int, table: list[int], den: int,
                    tag: str) -> StepGame:
    """The game with value table[k] / den at the k-th face in row-major
    order: its boxes, and the faces where it differs from their
    completion."""
    nums = [table[k] for k in box_positions(n, disc.p)]
    off = list(map(ne, [x << n for x in table],
                   _completion_table(nums, den, n, disc.p)))
    return StepGame(disc, n, nums, den, dict(zip(
        itertools.compress(range(len(table)), off),
        itertools.compress(table, off))), tag)


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
    spans = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    nums = [min(v.nums[k] for k in positions((spans[c // 2] for c in cb),
                                             v.box_strides))
            for cb in box_keys(v.n, disc2.p)]
    return StepGame(disc2, v.n, nums, v.den, tag=TAG_REGULAR)


def permute_axes(g: StepGame, pi: Sequence[int]) -> StepGame:
    """(pi g)(x) = g(pi(x)) with pi(x)_i = x_{pi(i)}; pi is 1-based."""
    if sorted(pi) != list(range(1, g.n + 1)):
        raise ValueError("pi must be a permutation of 1..n")
    # digit i of g lands on axis pi(i), so it moves by that axis' stride
    fs = [g.strides[i - 1] for i in pi]
    nums = [0] * len(g.nums)
    for k, x in zip(positions([range(g.p)] * g.n,
                              [g.box_strides[i - 1] for i in pi]), g.nums):
        nums[k] = x
    return StepGame(g.disc, g.n, nums, g.den, {
        index_of(digits_of(k, 2 * g.p + 1, g.strides), fs): x
        for k, x in g.overrides.items()}, g.tag)
