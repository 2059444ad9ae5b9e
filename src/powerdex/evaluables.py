"""Black-box monotone games on the unit cube.

An evaluable game exposes an exact path (rational points in, rational value
out) used by the closed-form index computations, and a vectorized float path
used by the Monte-Carlo estimator; ``EvaluableGame`` refuses a point
outside the cube on both.  This module wraps step games; the built-in
families are in ``families``.  numpy is imported on the float path only,
so exact work never loads it.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

from .stepfun import StepGame, evaluate_step, face_table

if TYPE_CHECKING:
    import numpy as np

# step-game faces are located FACE_BLOCK_ROWS points at a time, so temporaries
# stay in cache; below SEARCH_FROM_P (at most 128: uint8 counters) by 2p
# comparisons, from there on by binary search (the two tie near p = 64, n = 1)
FACE_BLOCK_ROWS = 1 << 13
SEARCH_FROM_P = 64


class EvaluableGame:
    """A function [0,1]^n -> [0,1] of n >= 1 players, monotone when the
    flag says so.  ``eval_array`` and ``cells`` refuse what ``eval_exact``
    refuses, so the ``array`` and ``cells`` hooks see only cube points.

    ``array`` must give each point the same value whatever other points
    share the call, because the Monte-Carlo estimator batches points as its
    memory bound allows.

    ``cells(points)`` may group points on which the game agrees after any
    coordinates are pinned to 0 or 1; it returns one representative point
    per cell and, for each point, the index of its cell.
    """

    def __init__(self, n: int, exact: Callable | None,
                 array: Callable[[np.ndarray], np.ndarray],
                 monotone: bool = True, name: str = "custom",
                 cells: Callable | None = None):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"player count must be an integer >= 1, not {n!r}")
        self.n = n
        self._exact = exact
        self._array = array
        self._cells = cells
        self.monotone = monotone
        self.name = name

    def eval_exact(self, x: Sequence) -> Fraction:
        exact = self.exact_unchecked()
        pt = tuple(Fraction(v) for v in x)
        if len(pt) != self.n:
            raise ValueError(f"point has {len(pt)} coordinates, game has {self.n}")
        if any(v < 0 or v > 1 for v in pt):
            raise ValueError("point outside the unit cube")
        return Fraction(exact(pt))

    def exact_unchecked(self) -> Callable:
        """The exact callable that ``eval_exact`` wraps, for a caller that
        builds its points as n-tuples of ``Fraction`` in [0, 1] itself and
        converts each value with ``Fraction``."""
        if self._exact is None:
            raise NotImplementedError(f"{self.name} has no exact evaluation")
        return self._exact

    def _points(self, points) -> np.ndarray:
        import numpy as np

        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise ValueError(f"expected an (m, {self.n}) array")
        # NaN makes min and max NaN, which fails both comparisons
        if pts.size and not (pts.min() >= 0.0 and pts.max() <= 1.0):
            raise ValueError("point outside the unit cube")
        return pts

    def eval_array(self, points: np.ndarray) -> np.ndarray:
        """Values at an (m, n) array of points, as float64."""
        import numpy as np

        return np.asarray(self._array(self._points(points)), dtype=np.float64)

    def cells(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """(representatives, inverse) with ``points[k]`` in the cell of
        ``representatives[inverse[k]]``; inverse None when each point is its
        own cell."""
        pts = self._points(points)
        return (pts, None) if self._cells is None else self._cells(pts)


def step_game_evaluable(g: StepGame) -> EvaluableGame:
    """Wrap a step game; the float path locates faces a block of rows at a
    time, exact breakpoint hits (the forced 0/1 coordinates) landing on point
    faces.  A point's face fixes its pinned copies' faces: faces are cells.
    """
    p = g.p

    @functools.cache
    def table() -> np.ndarray:
        # every face's value as a float, converted from the integer face
        # table on the first float call: the exact path never needs it.
        # int / int rounds correctly, as float(Fraction) does
        import numpy as np

        nums, den = face_table(g)
        return np.fromiter((x / den for x in nums), np.float64, len(nums))

    def face_index(pts: np.ndarray) -> np.ndarray:
        import numpy as np

        alpha = np.array([float(a) for a in g.disc.alpha])
        idx = np.empty(len(pts), dtype=np.int64)
        for lo in range(0, len(pts), FACE_BLOCK_ROWS):
            block = pts[lo:lo + FACE_BLOCK_ROWS]
            # a coordinate's digit is #(alpha < x) + #(alpha <= x) - 1:
            # 2h - 1 inside band h, 2h on breakpoint h
            if p < SEARCH_FROM_P:
                # in the cube x >= 0 always holds and x > 1 never does
                digit = (block > 0.0).astype(np.uint8)
                for a in alpha[1:p]:
                    digit += block > a
                    digit += block >= a
                digit += block >= 1.0
            else:
                h = np.searchsorted(alpha, block, side="left")
                digit = 2 * h - 1
                digit += alpha[np.minimum(h, p)] == block
            out = idx[lo:lo + len(block)]
            out[:] = digit[:, 0]
            for i in range(1, g.n):
                out *= 2 * p + 1
                out += digit[:, i]
        return idx

    def exact(x):
        return evaluate_step(g, x)

    def array(pts):
        return table()[face_index(pts)]

    def cells(pts):
        import numpy as np

        # what np.unique(idx, return_index=True, return_inverse=True) gives,
        # without sorting: the grid check bounds the face count
        idx, size = face_index(pts), (2 * p + 1) ** g.n
        ids = np.flatnonzero(np.bincount(idx, minlength=size))
        first = np.full(size, len(idx))
        np.minimum.at(first, idx, np.arange(len(idx)))
        position = np.zeros(size, dtype=np.int64)
        position[ids] = np.arange(len(ids))
        return pts[first[ids]], position[idx]

    return EvaluableGame(g.n, exact, array, True, "step_game", cells)
