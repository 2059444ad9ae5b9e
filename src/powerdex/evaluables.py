"""Black-box monotone games on the unit cube.

An evaluable game exposes an exact path (rational points in, rational value
out) used by the closed-form index computations, and a vectorized float path
used by the Monte-Carlo estimator.  The built-in families are monotone with
v(0)=0 and v(1)=1 by construction.  numpy is imported on the float path
only, so exact work never loads it.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

from .stepfun import StepGame, evaluate_step

if TYPE_CHECKING:
    import numpy as np


class EvaluableGame:
    """A function [0,1]^n -> [0,1], monotone when the flag says so.

    ``cells(points)`` may group points on which the game agrees after any
    coordinates are pinned to 0 or 1; it returns one representative point
    per cell and, for each point, the index of its cell.
    """

    def __init__(self, n: int, exact: Callable | None,
                 array: Callable[[np.ndarray], np.ndarray],
                 monotone: bool = True, name: str = "custom",
                 cells: Callable | None = None):
        self.n = n
        self._exact = exact
        self._array = array
        self._cells = cells
        self.monotone = monotone
        self.name = name

    def eval_exact(self, x: Sequence) -> Fraction:
        if self._exact is None:
            raise NotImplementedError(f"{self.name} has no exact evaluation")
        pt = tuple(Fraction(v) for v in x)
        if len(pt) != self.n:
            raise ValueError(f"point has {len(pt)} coordinates, game has {self.n}")
        if any(v < 0 or v > 1 for v in pt):
            raise ValueError("point outside the unit cube")
        return Fraction(self._exact(pt))

    def _points(self, points) -> np.ndarray:
        import numpy as np

        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise ValueError(f"expected an (m, {self.n}) array")
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


def weighted_mean_game(weights: Sequence) -> EvaluableGame:
    """v(x) = sum_i w_i x_i with nonnegative weights summing to 1."""
    w = [Fraction(x) for x in weights]
    if any(x < 0 for x in w) or sum(w) != 1:
        raise ValueError("weights must be nonnegative and sum to 1")

    def exact(x):
        return sum(wi * xi for wi, xi in zip(w, x))

    def array(pts):
        import numpy as np

        return pts @ np.array([float(x) for x in w])

    return EvaluableGame(len(w), exact, array, True, "weighted_mean")


def product_power_game(exponents: Sequence) -> EvaluableGame:
    """v(x) = prod_i x_i^{a_i} with a_i >= 0; a zero exponent makes the
    player a null player.  Exact evaluation needs integer exponents."""
    exps = [Fraction(e) for e in exponents]
    if any(e < 0 for e in exps):
        raise ValueError("exponents must be nonnegative")
    n = len(exps)
    all_int = all(e.denominator == 1 for e in exps)

    def exact(x):
        out = Fraction(1)
        for e, xi in zip(exps, x):
            out *= Fraction(xi) ** int(e)
        return out

    def array(pts):
        import numpy as np

        ef = np.array([float(e) for e in exps])
        out = np.ones(pts.shape[0])
        for i in range(n):
            if ef[i] != 0.0:
                out *= pts[:, i] ** ef[i]
        return out

    return EvaluableGame(n, exact if all_int else None, array, True,
                         "product_power")


def weighted_median_game(weights: Sequence) -> EvaluableGame:
    """v(x) = inf{t : sum of weights of players with x_i <= t reaches 1/2}."""
    w = [Fraction(x) for x in weights]
    if any(x < 0 for x in w) or sum(w) != 1:
        raise ValueError("weights must be nonnegative and sum to 1")
    n = len(w)
    half = Fraction(1, 2)

    def exact(x):
        order = sorted(range(n), key=lambda i: x[i])
        acc = Fraction(0)
        for i in order:
            acc += w[i]
            if acc >= half:
                return Fraction(x[i])
        return Fraction(x[order[-1]])

    def array(pts):
        import numpy as np

        m = pts.shape[0]
        order = np.argsort(pts, axis=1)
        ws = np.asarray([float(x) for x in w])[order]
        cum = np.cumsum(ws, axis=1)
        idx = np.argmax(cum >= 0.5, axis=1)
        return pts[np.arange(m), order[np.arange(m), idx]]

    return EvaluableGame(n, exact, array, True, "weighted_median")


def counterexample_game(n: int = 2) -> EvaluableGame:
    """v(x) = x_1 * x_2^2, padded with null players beyond the first two."""
    if n < 2:
        raise ValueError("needs at least two players")
    return product_power_game([1, 2] + [0] * (n - 2))


def step_game_evaluable(g: StepGame) -> EvaluableGame:
    """Wrap a step game; the float path resolves faces by binary search, with
    exact breakpoint hits (the forced 0/1 coordinates) landing on point faces.
    A point's face fixes the faces of its pinned copies, so faces are cells.
    """
    p = g.p
    shape = (2 * p + 1,) * g.n

    @functools.cache
    def table() -> np.ndarray:
        # float value of each face in row-major order, NaN until first read;
        # allocated on the first float call: the exact path never needs it
        import numpy as np

        return np.full((2 * p + 1) ** g.n, np.nan)

    def face_index(pts: np.ndarray) -> np.ndarray:
        import numpy as np

        alpha = np.array([float(a) for a in g.disc.alpha])
        # NaN fails both comparisons, so it is rejected too
        if not (np.all(pts >= 0.0) and np.all(pts <= 1.0)):
            raise ValueError("point outside the unit cube")
        idx = np.zeros(pts.shape[0], dtype=np.int64)
        for i in range(g.n):
            col = pts[:, i]
            h = np.searchsorted(alpha, col, side="left")
            on_point = alpha[np.minimum(h, p)] == col
            d = np.where(on_point, 2 * h, 2 * h - 1)
            idx = idx * shape[i] + d
        return idx

    def exact(x):
        return evaluate_step(g, x)

    def array(pts):
        import numpy as np

        idx, values = face_index(pts), table()
        new = np.unique(idx[np.isnan(values[idx])])
        for k, d in zip(new.tolist(),
                        np.transpose(np.unravel_index(new, shape)).tolist()):
            values[k] = float(g.values[tuple(d)])
        return values[idx]

    def cells(pts):
        import numpy as np

        _, first, inverse = np.unique(face_index(pts), return_index=True,
                                      return_inverse=True)
        return pts[first], inverse

    return EvaluableGame(g.n, exact, array, True, "step_game", cells)
