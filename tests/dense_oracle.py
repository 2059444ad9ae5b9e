"""Dense reference for step games, used only as a test oracle: the adjacent
boxes of a face and the per-face regular completion as one ``Fraction``
mean; the full face table of a box table, a validator that checks every
face and every cover pair, and the boundary averages read off the full
table; the violation list of a step game, built by comparing every checked
pair as Fractions; the embedding of a (j,k) game built from a dict of its
boxes, the boundary averages of a (j,k) game by their definition, and the
first violation in a (j,k) table found profile by profile; the grid C-table kernel that contracts every axis to three
entries; the Monte-Carlo estimator that holds every coalition's pinned
deltas at once; and the local-increment check read face by face off its
definition.  ``box_dict`` and ``face_values`` read a game's boxes and
faces as ``Fraction`` dicts for the comparisons."""

import itertools
from fractions import Fraction
from operator import mul

from powerdex.budget import check_work
from powerdex.evaluables import EvaluableGame
from powerdex.indices import MAX_MC_CELLS, PowerVector, _as_evaluable
from powerdex.rational import ordering_weight
from powerdex.rational import on_one_denominator
from powerdex.stepfun import (Discretization, StepGame, box_keys, face_center,
                              face_table, make_regular_step, refine,
                              regular_completion)


def adjacent_boxes(d, p: int) -> list:
    """E(d): the full-dimensional boxes whose closure contains face d."""
    return list(itertools.product(*(
        (di,) if di % 2 else (1,) if di == 0 else
        (di - 1,) if di == 2 * p else (di - 1, di + 1) for di in d)))


def fraction_completion(boxes: dict, p: int, d) -> Fraction:
    """The value the regular completion gives face d: 0 at the all-zeros
    corner, 1 at the all-ones corner, the mean of the adjacent boxes
    elsewhere, from a dict of ``Fraction`` boxes."""
    if not any(d):
        return Fraction(0)
    if all(di == 2 * p for di in d):
        return Fraction(1)
    vals = [boxes[b] for b in adjacent_boxes(d, p)]
    if len(vals) == 1:
        return vals[0]
    nums, den = on_one_denominator(vals)
    return Fraction(sum(nums), den * len(vals))


def box_dict(g) -> dict:
    """Every box of a step game and its value."""
    return {b: g.box(b) for b in box_keys(g.n, g.p)}


def face_values(g) -> dict:
    """Every face of a step game and its value, read off ``face_table``."""
    table, den = face_table(g)
    faces = itertools.product(range(2 * g.p + 1), repeat=g.n)
    return {d: Fraction(x, den) for d, x in zip(faces, table)}


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


def pairwise_violations(g) -> list[str]:
    """What ``validate`` reports, in its order and wording: every stored
    value outside [0, 1], then every falling box cover and every falling
    pair at a pinned face, then every face off the claimed tag, each pair
    compared as Fractions."""
    n, top, boxes = g.n, 2 * g.p, box_dict(g)
    faces = {g.face(k): Fraction(x, g.den) for k, x in g.overrides.items()}
    values = {**dense_completion(g.p, n, boxes), **faces}
    stored = itertools.chain(boxes.items(), faces.items())
    found = [f"value {val} at face {d} outside [0, 1]"
             for d, val in stored if not 0 <= val <= 1]

    def step(d, i, by):
        return d[:i] + (d[i] + by,) + d[i + 1:]

    covers = [(b, step(b, i, 2)) for b in boxes for i in range(n)
              if b[i] + 2 < top]
    pinned = set(faces) | {(0,) * n, (top,) * n}
    for d in sorted(pinned):
        covers += [(d, step(d, i, 1)) for i in range(n) if d[i] < top]
        covers += [(step(d, i, -1), d) for i in range(n)
                   if d[i] > 0 and step(d, i, -1) not in pinned]
    found += [f"monotonicity: value {values[lo]} at {lo} exceeds "
              f"{values[hi]} at {hi}" for lo, hi in covers
              if values[lo] > values[hi]]
    off_tag = [d for d in sorted(faces) if g.tag == "regular" or (
        g.tag == "semi_regular" and not any(di in (0, top) for di in d))]
    return found + [
        f"{g.tag}: face {d} has {faces[d]}, the regular completion gives "
        f"{fraction_completion(boxes, g.p, d)}" for d in off_tag]


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


def dense_weighted_boundary_averages(p: int, n: int, values: dict,
                                     mass: list) -> dict:
    """C(v,T) for every coalition bitmask T from the dense face table, each
    free coordinate on face digit e with weight mass[e]: over every tuple
    of free digits, its weight times the gap between the face with T
    pinned to 1 and the face with T pinned to 0, over the total weight."""
    total = sum(mass)
    table = {}
    for t_mask in range(1 << n):
        free = [i for i in range(n) if not t_mask >> i & 1]
        acc = Fraction(0)
        for digits in itertools.product(range(2 * p + 1), repeat=len(free)):
            hi = [2 * p] * n
            lo = [0] * n
            weight = 1
            for i, e in zip(free, digits):
                hi[i] = lo[i] = e
                weight *= mass[e]
            if weight:
                acc += weight * (values[tuple(hi)] - values[tuple(lo)])
        table[t_mask] = acc / total ** len(free)
    return table


def jk_violation(n: int, j: int, k: int, values: dict) -> str | None:
    """The first thing wrong with a (j,k) table, worded as ``JKGame``
    words it, found profile by profile; None for a valid table."""
    profiles = list(itertools.product(range(j), repeat=n))
    for x in profiles:
        if x not in values:
            return f"missing value at {x}"
        if not 0 <= values[x] <= k - 1:
            return f"value at {x} outside 0..{k - 1}"
    if values[(0,) * n] != 0 or values[(j - 1,) * n] != k - 1:
        return "extreme profiles must map to 0 and k-1"
    for x in profiles:
        for i in range(n):
            if x[i] + 1 < j:
                y = x[:i] + (x[i] + 1,) + x[i + 1:]
                if values[x] > values[y]:
                    return f"not monotone between {x} and {y}"
    return None


def dict_embedding(v, disc) -> StepGame:
    """A (j,k) game's embedding on a grid with j boxes per axis, built from
    a ``Fraction`` dict keyed by box: the box at profile e is worth
    v(e)/(k-1), and the regular completion fills the other faces."""
    boxes = {tuple(2 * ei + 1 for ei in e): Fraction(v.value(e), v.k - 1)
             for e in itertools.product(range(v.j), repeat=v.n)}
    return make_regular_step(disc, boxes, v.n)


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
        gap = sum(v.value(x) - v.value(y) for x, y in zip(ups, downs))
        table[t_mask] = Fraction(gap, (v.k - 1) * j ** (n - t_mask.bit_count()))
    return table


def dense_ends_table(flat: list[int], m: int, weights, n: int,
                     den: int) -> dict[int, Fraction]:
    """The C-table of an integer table on the grid (m,)^n, stored row-major
    (first coordinate slowest) over the denominator ``den``.

    Each axis is contracted to three entries: its last entry, its first
    entry and its ``weights``-weighted sum.  C(T) is the entry with T at
    last and every free axis summed, minus the one with T at first, over
    ``den * sum(weights) ** free``.
    """
    for _ in range(n):
        # contract the last axis and move its three entries to the front
        rows = [flat[k:k + m] for k in range(0, len(flat), m)]
        flat = ([r[-1] for r in rows] + [r[0] for r in rows]
                + [sum(map(mul, weights, r)) for r in rows])
    summed, total = 3 ** n - 1, sum(weights)
    table = {}
    for t in range(1 << n):
        # T's axes read the base-3 digit 0 (last) or 1 (first), not 2 (sum)
        s = int(f"{t:0{n}b}"[::-1], 3)
        table[t] = Fraction(flat[summed - 2 * s] - flat[summed - s],
                            den * total ** (n - t.bit_count()))
    return table


def dense_psi_mc(v: EvaluableGame | StepGame, samples: int, seed: int,
                 sampler=None) -> PowerVector:
    """Monte-Carlo estimate of the boundary-average index.

    One common batch of sample points serves every coalition T, which keeps
    the C-differences strongly correlated and the estimator variance low.
    ``sampler(rng, m, n)`` may supply points from an exchangeable density
    instead of the uniform default.  Deterministic for a given seed.

    The game is evaluated once per cell of ``game.cells``, and the per-cell
    arrays are expanded to one entry per sample only where they are
    averaged, so every per-sample float and every mean is the same as when
    each sample is evaluated on its own.
    """
    game = _as_evaluable(v)
    n = game.n
    if samples < 1:
        raise ValueError("need at least one sample")
    # two evaluation passes per coalition, then n combine passes over them
    check_work(n << (n + 1), "Monte-Carlo estimate")
    cost = samples * ((1 << n) + 16 * n + 32)
    if cost > MAX_MC_CELLS:
        raise ValueError(f"samples * (2^n + 16n + 32) = {cost} exceeds the "
                         f"Monte-Carlo cap of {MAX_MC_CELLS}")
    import numpy as np

    rng = np.random.default_rng(seed)
    pts = rng.random((samples, n)) if sampler is None else \
        np.asarray(sampler(rng, samples, n), dtype=np.float64)
    if len(pts) != samples:
        raise ValueError(f"sampler returned {len(pts)} points, not {samples}")
    reps, inverse = game.cells(pts)

    def per_sample(a: np.ndarray) -> np.ndarray:
        return a if inverse is None else a[inverse]

    deltas: dict[int, np.ndarray] = {0: np.zeros(len(reps))}
    for t_mask in range(1, 1 << n):
        cols = [i for i in range(n) if t_mask >> i & 1]
        hi = reps.copy()
        lo = reps.copy()
        hi[:, cols] = 1.0
        lo[:, cols] = 0.0
        deltas[t_mask] = game.eval_array(hi) - game.eval_array(lo)
    weights = {s: float(ordering_weight(s, n)) for s in range(1, n + 1)}
    estimates, errors = [], []
    for i in range(n):
        bit = 1 << i
        g_i = np.zeros(len(reps))
        for s_mask in range(1 << n):
            if s_mask & bit:
                w = weights[s_mask.bit_count()]
                g_i += w * (deltas[s_mask] - deltas[s_mask ^ bit])
        g_i = per_sample(g_i)
        estimates.append(float(g_i.mean()))
        spread = float(g_i.std(ddof=1)) if samples > 1 else 0.0
        errors.append(spread / samples ** 0.5)
    c_est = {m: float(per_sample(d).mean()) for m, d in deltas.items()}
    return PowerVector(tuple(estimates), "mc", tuple(errors),
                       samples=samples, seed=seed, c_table=c_est)


def dense_check_local_increment(u, v, inc) -> tuple[bool, dict | None]:
    """``check_local_increment`` read off ``LocalIncrement``'s definition:
    v raises the influence v(1_T, x) - v(0_T, x) of the claimed S by
    epsilon at every profile x of the others strictly inside D, and every
    other coalition's influence nowhere; S empty raises v itself on the
    whole open cube, S = N on the open domain D = (c, 1)^n, one c on every
    axis, where every nonempty T's influence may move, but by the same at
    every face that a permutation of the players maps it to, and T = N's
    not at all.  Each face of u and v on the grid of both and of D's ends
    is read through ``regular_completion`` as a Fraction.  T runs over the
    coalitions in mask order (the empty one standing for S when S is empty
    or N, and left out otherwise), the others' digits over the open cube in
    ``itertools.product`` order; a profile is placed against D by its
    face's center, and one on D's boundary (or outside D when S = N) proves
    nothing.  The first influence off its claim is the witness."""
    n, s = u.n, set(inc.coalition)
    shapes = set(dict(inc.domain.intervals).values())
    if len(s) == n and (len(shapes) > 1 or shapes.pop()[1] != 1):
        return False, {"T": tuple(range(1, n + 1)), "domain": inc.domain}
    grid = Discretization(sorted({*u.disc.alpha, *v.disc.alpha,
                                  *(x for _, ab in inc.domain.intervals
                                    for x in ab)}))
    before, after = refine(u, grid), refine(v, grid)
    top, d_of = 2 * grid.p, dict(inc.domain.intervals)
    degenerate = len(s) in (0, n)
    moves = {(n,): 0}  # under S = N: by |T| and the sorted digits of others
    for t in range(0 if degenerate else 1, 1 << n):
        team = [i for i in range(1, n + 1) if t >> (i - 1) & 1]
        others = [i for i in range(1, n + 1) if i not in team]
        for digits in itertools.product(range(1, top), repeat=len(others)):
            at = dict(zip(others, digits))
            hi = tuple(at.get(i, top) for i in range(1, n + 1))
            lo = tuple(at.get(i, 0) for i in range(1, n + 1))

            def influence(g):
                if not team:
                    return regular_completion(g, hi)
                return regular_completion(g, hi) - regular_completion(g, lo)

            expected, got = influence(before), influence(after)
            claimed = set(team) == (set() if len(s) == n else s)
            if claimed:
                center = face_center(grid, hi)
                x = {i: center[i - 1] for i in others} if s else {}
                if all(d_of[i][0] < xi < d_of[i][1] for i, xi in x.items()):
                    expected += Fraction(inc.epsilon)
                elif len(s) == n or all(d_of[i][0] <= xi <= d_of[i][1]
                                        for i, xi in x.items()):
                    continue
            elif len(s) == n:
                expected += moves.setdefault((len(team), *sorted(digits)),
                                             got - expected)
            if got != expected:
                return False, {"T": tuple(sorted(s if claimed else team)),
                               "face": hi, "point": face_center(grid, hi),
                               "expected": expected, "got": got}
    return True, None
