"""Dense reference for step games, used only as a test oracle: the full face
table of a box table, a validator that checks every face and every cover
pair, and the boundary averages read off the full table; and the boundary
averages of a (j,k) game by their definition."""

import itertools
from fractions import Fraction

from powerdex.stepfun import adjacent_boxes


def dense_completion(p: int, n: int, boxes: dict) -> dict:
    """Total face table from box values: every other face takes the mean of
    its adjacent boxes, the all-zeros/all-ones corners are pinned to 0/1."""
    values = {}
    for d in itertools.product(range(2 * p + 1), repeat=n):
        adj = adjacent_boxes(d, p)
        values[d] = sum(boxes[b] for b in adj) / len(adj)
    values[(0,) * n] = Fraction(0)
    values[(2 * p,) * n] = Fraction(1)
    return values


def dense_validate(p: int, n: int, values: dict, tag: str) -> tuple[bool, bool, bool]:
    """(monotone, tag_ok, in_range) by checking every face and every cover
    pair d -> d + e_i."""
    in_range = all(0 <= v <= 1 for v in values.values())
    monotone = all(values[d] <= values[d[:i] + (d[i] + 1,) + d[i + 1:]]
                   for d in values for i in range(n) if d[i] < 2 * p)
    tag_ok = True
    corners = {(0,) * n, (2 * p,) * n}
    if tag in ("regular", "semi_regular"):
        for d in values:
            if all(di % 2 == 1 for di in d):
                continue
            if tag == "regular" and d in corners:
                continue
            if tag == "semi_regular" and any(di in (0, 2 * p) for di in d):
                continue
            adj = adjacent_boxes(d, p)
            if values[d] != sum(values[b] for b in adj) / len(adj):
                tag_ok = False
        if tag == "regular":
            tag_ok = tag_ok and values[(0,) * n] == 0 and values[(2 * p,) * n] == 1
    return monotone, tag_ok, in_range


def dense_boundary_averages(disc, n: int, values: dict) -> dict:
    """C(v,T) for every coalition bitmask T from the dense face table: for
    each box of the grid restricted to the free coordinates, its volume times
    the gap between the face with T pinned to 1 and the face with T pinned
    to 0."""
    p = disc.p
    widths = [disc.alpha[h + 1] - disc.alpha[h] for h in range(p)]
    table = {0: Fraction(0)}
    for t_mask in range(1, 1 << n):
        free = [i for i in range(n) if not t_mask >> i & 1]
        acc = Fraction(0)
        for box in itertools.product(range(1, 2 * p, 2), repeat=len(free)):
            hi = [2 * p] * n
            lo = [0] * n
            vol = Fraction(1)
            for i, b in zip(free, box):
                hi[i] = b
                lo[i] = b
                vol *= widths[(b - 1) // 2]
            acc += vol * (values[tuple(hi)] - values[tuple(lo)])
        table[t_mask] = acc
    return table


def dense_jk_boundary_averages(v) -> dict:
    """C(v,T) for every coalition bitmask T of a (j,k) game: the mean over
    the free voters' levels of the gap between T at level j-1 and T at level
    0, in units of k-1."""
    n, j = v.n, v.j
    table = {0: Fraction(0)}
    for t_mask in range(1, 1 << n):
        ups = itertools.product(*([j - 1] if t_mask >> i & 1 else range(j)
                                  for i in range(n)))
        downs = itertools.product(*([0] if t_mask >> i & 1 else range(j)
                                    for i in range(n)))
        gap = sum(v.values[x] - v.values[y] for x, y in zip(ups, downs))
        table[t_mask] = Fraction(gap, (v.k - 1) * j ** (n - t_mask.bit_count()))
    return table
