"""Built-in black-box families: weighted mean, weighted median, products of
powers and the separating counterexample x_1 * x_2^2.

Each is monotone with v(0)=0 and v(1)=1 by construction.  ``EvaluableGame``
refuses points outside the cube on both paths, so no family checks them.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from .evaluables import EvaluableGame
from .rational import on_one_denominator


def weighted_mean_game(weights: Sequence) -> EvaluableGame:
    """v(x) = sum_i w_i x_i with nonnegative weights summing to 1."""
    w = [Fraction(x) for x in weights]
    if any(x < 0 for x in w) or sum(w) != 1:
        raise ValueError("weights must be nonnegative and sum to 1")
    w_nums, w_den = on_one_denominator(w)

    def exact(x):
        # in integers, over the weights' and the point's denominators
        x_nums, x_den = on_one_denominator(x)
        return Fraction(sum(map(mul, w_nums, x_nums)), w_den * x_den)

    def array(pts):
        # a running sum over the columns, so each point's value is the same
        # in any batch: a matrix product rounds a row by its position in
        # the batch (BLAS blocks rows) and takes another path for one row
        out = pts[:, 0] * float(w[0])
        for i in range(1, len(w)):
            out += pts[:, i] * float(w[i])
        return out

    return EvaluableGame(len(w), exact, array, True, "weighted_mean")


def product_power_game(exponents: Sequence) -> EvaluableGame:
    """v(x) = prod_i x_i^{a_i} with a_i >= 0; a zero exponent makes the
    player a null player.  Exact evaluation needs integer exponents."""
    exps = [Fraction(e) for e in exponents]
    if any(e < 0 for e in exps):
        raise ValueError("exponents must be nonnegative")
    n = len(exps)
    all_int = all(e.denominator == 1 for e in exps)
    floats = [float(e) for e in exps]

    def exact(x):
        out = Fraction(1)
        for e, xi in zip(exps, x):
            out *= Fraction(xi) ** int(e)
        return out

    def array(pts):
        import numpy as np

        ef = np.array(floats)
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
