"""The sampling and evaluation behind ``indices.psi_mc``.

Only the Monte-Carlo path imports this module, and with it numpy.  The
sample cells are worked through in chunks, so memory stays bounded
whatever the sample count, and every per-sample float and every mean is
the same as when all coalitions of all samples are evaluated at once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from .rational import ordering_weight

if TYPE_CHECKING:
    from .evaluables import EvaluableGame

# a chunk's delta table, one float64 per cell and coalition, has at most
# MC_CHUNK_CELLS entries (32 MB); one evaluation call takes the pinned
# copies of up to MC_CALL_ROWS cells
MC_CHUNK_CELLS = 1 << 22
MC_CALL_ROWS = 1 << 12


def _pinned_deltas(game: EvaluableGame, cols: np.ndarray, masks: range,
                   buf: np.ndarray, out: np.ndarray) -> None:
    """Write v(x with T pinned to 1) - v(x with T pinned to 0) to ``out``
    for each coalition T in ``masks`` (one row each) and each point x,
    given by its coordinates ``cols`` (one row per player), from one
    evaluation call on points laid out column by column in ``buf``."""
    n, m = cols.shape
    pins = buf[:2 * len(masks) * m * n].reshape(n, -1, 2, m)
    for k, t in enumerate(masks):
        for i in range(n):
            if t >> i & 1:
                pins[i, k, 0] = 1.0
                pins[i, k, 1] = 0.0
            else:
                pins[i, k] = cols[i]
    vals = game.eval_array(pins.reshape(n, -1).T).reshape(-1, 2, m)
    np.subtract(vals[:, 0], vals[:, 1], out=out)


def estimate(game: EvaluableGame, samples: int, seed: int, sampler=None,
             ) -> tuple[tuple, tuple, Callable[[], dict[int, float]]]:
    """Each player's estimate and standard error, and a function that
    computes the C-table means.

    The game is evaluated once per cell of ``game.cells``.  Each player's
    per-cell values go into one n x cells array, expanded to one entry per
    sample only where they are averaged.  ``game.cells`` converts the
    sampled points and refuses any outside the cube.
    """
    n = game.n
    rng = np.random.default_rng(seed)
    pts = rng.random((samples, n)) if sampler is None else \
        sampler(rng, samples, n)
    if len(pts) != samples:
        raise ValueError(f"sampler returned {len(pts)} points, not {samples}")
    reps, inverse = game.cells(pts)
    cells, coalitions = len(reps), 1 << n

    def per_sample(a: np.ndarray) -> np.ndarray:
        return a if inverse is None else a[inverse]

    weight = np.array([0.0] + [float(ordering_weight(s, n))
                               for s in range(1, n + 1)])
    weight = weight[[t.bit_count() for t in range(coalitions)]]
    chunk = min(cells, max(1, MC_CHUNK_CELLS >> n))
    per_call = min(max(1, MC_CALL_ROWS // chunk), coalitions - 1)
    buf = np.empty(2 * per_call * chunk * n)
    deltas = np.zeros((coalitions, chunk))
    terms = np.empty((coalitions // 2, chunk))
    g = np.empty((n, cells))
    for lo in range(0, cells, chunk):
        cols = reps[lo:lo + chunk].T.copy()
        m = cols.shape[1]
        for t in range(1, coalitions, per_call):
            masks = range(t, min(t + per_call, coalitions))
            _pinned_deltas(game, cols, masks, buf, deltas[t:masks.stop, :m])
        for i in range(n):
            # the coalitions containing i, in increasing order, against the
            # same coalitions without i, each times its ordering weight,
            # summed one coalition after another
            split = deltas[:, :m].reshape(-1, 2, 1 << i, m)
            term = terms[:, :m]
            np.subtract(split[:, 1], split[:, 0],
                        out=term.reshape(-1, 1 << i, m))
            term *= weight.reshape(-1, 2, 1 << i)[:, 1].reshape(-1, 1)
            g_i = g[i, lo:lo + m]
            g_i[:] = 0.0
            for row in term:
                g_i += row
    estimates, errors = [], []
    for g_i in map(per_sample, g):
        estimates.append(float(g_i.mean()))
        spread = float(g_i.std(ddof=1)) if samples > 1 else 0.0
        errors.append(spread / samples ** 0.5)

    def c_table() -> dict[int, float]:
        # one coalition at a time over every cell: the mean of the whole
        # per-sample array, summed in numpy's pairwise order
        cols, full = reps.T.copy(), np.empty(2 * cells * n)
        delta = np.empty((1, cells))
        table = {0: 0.0}
        for t in range(1, coalitions):
            _pinned_deltas(game, cols, range(t, t + 1), full, delta)
            table[t] = float(per_sample(delta[0]).mean())
        return table
    return tuple(estimates), tuple(errors), c_table
