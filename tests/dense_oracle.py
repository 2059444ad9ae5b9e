"""Dense reference for step games, used only as a test oracle: the full face
table of a box table, and a validator that checks every face and every cover
pair."""

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
