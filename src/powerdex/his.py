"""Box increments on step games and the constructive build.

Raising a step game uniformly on one full-dimensional box implies one local
increment per nonempty proper coalition pinned to the top or bottom of the
cube on the box's outer band; no other face carries a nonzero delta, so the
box's share delta is the sum of those increments' shifts.  Iterating boxes
grid-by-grid builds any regular monotone step game from the all-or-nothing
game, on one list of integer box values per phase.  The local increments,
their verification and the worked two-player replay are in ``increments``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm, prod
from typing import Callable, NamedTuple

from .indices import PowerVector
from .rational import (digits_of, index_of, on_one_denominator, positions,
                       strides)
# IncrementError is also read from here, as his.IncrementError
from .stepfun import (Discretization, Face, IncrementError,  # noqa: F401
                      StepGame, TAG_REGULAR, ValidationReport,
                      adjacent_box_sum, box_keys, falling_covers,
                      make_regular_step, pinned_covers, validate)


# ---------------------------------------------------------------------------
# box increments

def _shift_terms(disc: Discretization, n: int) -> tuple:
    """What ``_box_shift`` reads: the breakpoints over their common
    denominator D, D, and the weights (s-1)!(n-s)! by s, 0 at s = 0."""
    return (*on_one_denominator(disc.alpha),
            [0] + [factorial(s - 1) * factorial(n - s) for s in range(1, n + 1)])


def _box_shift(disc: Discretization, e_bar: Face,
               terms: tuple) -> tuple[list[int], int]:
    """The summed ``his_delta`` of ``box_increments(disc, e_bar, 1)`` (both
    in ``increments``), as numerators over n! * D**n.  A team of s of a
    band's m players spans D**s * w**(m-s) * rest / D**n (w the band's
    width) and moves members by weight[s], outsiders by -weight[s + 1].
    ``terms`` is ``_shift_terms(disc, n)``."""
    n, top = len(e_bar), 2 * disc.p - 1
    if any(b % 2 == 0 or not 1 <= b <= top for b in e_bar):
        raise IncrementError(f"{e_bar} is not a full-dimensional box")
    ends, den, weight = terms
    shift = [0] * n
    for side, level, w in ((1, top, den - ends[-2]), (-1, 1, ends[1])):
        m = e_bar.count(level)
        rest = prod(ends[(b + 1) // 2] - ends[b // 2] for b in e_bar if b != level)
        member = outsider = 0
        for s in range(1, min(m, n - 1) + 1):
            c = side * den ** s * rest * w ** (m - s)
            member += c * (weight[s] * comb(m - 1, s - 1)
                           - weight[s + 1] * comb(m - 1, s))
            outsider -= c * weight[s + 1] * comb(m, s)
        shift = [x + (member if b == level else outsider)
                 for x, b in zip(shift, e_bar)]
    return shift, factorial(n) * den ** n


def _on_box(d: Face, e_bar: Face) -> bool:
    """Whether face d lies on the closed box e_bar."""
    return all(abs(di - b) <= 1 for di, b in zip(d, e_bar))


def _refuse(broken: list[str]) -> None:
    if broken:
        more = ", first 3" if len(broken) > 3 else ""
        raise IncrementError(f"increment breaks monotonicity: {len(broken)} "
                             f"violations{more}: " + "; ".join(broken[:3]))


def raise_box(u: StepGame, e_bar: Face, eps: Fraction) -> StepGame:
    """The game raised by eps on the open box e_bar, unchecked.

    Every face of the box gains eps divided by its number of adjacent boxes
    (the two extreme cube corners stay pinned to 0 and 1), so regularity is
    preserved; overrides on the box's faces shift with it and stay off the
    completion, which shifts by as much.
    """
    eps = Fraction(eps)
    n = u.n
    # over den, eps is a whole multiple of 2^n: each face's share is exact
    den = lcm(u.den, eps.denominator << n)
    up, lift = den // u.den, eps.numerator * (den // eps.denominator)
    nums = [x * up for x in u.nums]
    nums[index_of([b // 2 for b in e_bar], u.box_strides)] += lift
    overrides = {k: x * up for k, x in u.overrides.items()}
    for k in overrides.keys() - {0, u.corner}:
        d = digits_of(k, 2 * u.p + 1, u.strides)
        if _on_box(d, e_bar):  # a share for each of its 2^j adjacent boxes
            overrides[k] += lift >> adjacent_box_sum(u, d)[1]
    return StepGame(u.disc, n, nums, den, overrides, u.tag)


def apply_box_increment(u: StepGame, e_bar: Face,
                        eps) -> tuple[StepGame, PowerVector]:
    """Raise the game by eps >= 0 on one open box (see ``raise_box``) and
    refuse the result if it is not monotone.

    ``u`` must be monotone, as ``validate`` finds it.  Then only the faces
    of the box rise, so the only cover pairs that can break are the box's
    own covers e_bar -> e_bar + 2e_i and the pairs at a pinned face whose
    lower face lies on the box; only those are checked, and a refusal lists
    the same violations as ``validate`` of the raised game.  The returned
    delta sums the shifts of the implied local increments (``_box_shift``)
    and equals the exact index difference.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise IncrementError("box increments take eps >= 0")
    e_bar = tuple(e_bar)
    if len(e_bar) != u.n:
        raise IncrementError(f"box {e_bar} does not fit the game's {u.n} players")
    shift, den = _box_shift(u.disc, e_bar, _shift_terms(u.disc, u.n))
    out, side, fs = raise_box(u, e_bar, eps), 2 * u.p + 1, u.strides
    k = index_of(e_bar, fs)
    covers = [(k, k + 2 * s) for b, s in zip(e_bar, fs) if b + 2 < side - 1]
    covers += [c for c in pinned_covers(out)
               if _on_box(digits_of(c[0], side, fs), e_bar)]
    _refuse(falling_covers(out, covers))
    return out, PowerVector(tuple(Fraction(eps.numerator * x, eps.denominator * den)
                                  for x in shift), "exact")


# ---------------------------------------------------------------------------
# constructive build

class BuildStep(NamedTuple):
    phase: int
    box: Face
    eps: Fraction
    delta: tuple
    psi: tuple


class BuildResult(NamedTuple):
    steps: list[BuildStep]
    final: StepGame
    psi: tuple


def _phase_grid(alpha: tuple[Fraction, ...], l: int) -> Discretization:
    return Discretization(alpha[:l] + (alpha[-1],))


def appendix_game() -> StepGame:
    """Two-player regular step game on the grid (0, 1/4, 1/2, 1) with box
    values 0.1 ... 0.9; the fixture behind the move-by-move replay."""
    disc = Discretization((Fraction(0), Fraction(1, 4), Fraction(1, 2),
                           Fraction(1)))
    tenths = {(1, 1): 1, (1, 3): 2, (3, 1): 3, (1, 5): 4, (5, 1): 5,
              (3, 3): 6, (3, 5): 7, (5, 3): 8, (5, 5): 9}
    boxes = {b: Fraction(t, 10) for b, t in tenths.items()}
    return make_regular_step(disc, boxes, 2)


def build_by_increments(v: StepGame,
                        box_order: Callable[[list[Face]], list[Face]] | None = None,
                        report: ValidationReport | None = None,
                        ) -> BuildResult:
    """Rebuild a regular monotone step game from the all-or-nothing game by
    per-box increments, one grid refinement phase at a time.

    Phase l keeps the box numerators over ``v.den`` of the grid (0, a_1, ...,
    a_{l-1}, 1) in one list, as ``refine`` of the last phase leaves them, and
    sets each box with a coordinate in its last band (fine band l-1 on) to
    the target at its key, in a descending linear extension of the
    componentwise order (lexicographic by default; the result is the same
    for all).  Only covers to a raised box's upper neighbours can fall; those
    are refused as by ``apply_box_increment``.  ``report`` is ``validate(v)``.
    """
    report = validate(v) if report is None else report
    if v.tag != TAG_REGULAR or not report.ok:
        raise ValueError("build requires a validated regular monotone game")
    order = box_order or (lambda boxes: sorted(boxes, reverse=True))
    vals, psi, steps = [0], (Fraction(1, v.n),) * v.n, []
    for l in range(1, v.p + 1):
        grid, band = _phase_grid(v.disc.alpha, l), 2 * l - 1
        at, terms = strides(l, v.n), _shift_terms(grid, v.n)
        # the last phase's boxes, its last band repeated
        vals = [vals[k] for k in positions(
            [[*range(l - 1), max(l - 2, 0)]] * v.n, strides(l - 1, v.n))]
        for box in order([e for e in box_keys(v.n, l) if band in e]):
            digits = [b // 2 for b in box]
            k, target = index_of(digits, at), v.nums[index_of(digits, v.box_strides)]
            rise = target - vals[k]
            if rise < 0:
                raise IncrementError("target game is not monotone")
            eps, delta = Fraction(rise, v.den), (Fraction(0),) * v.n
            if rise:  # else nothing moves: every share stays
                vals[k] = target
                _refuse([f"value {Fraction(target, v.den)} at {box} exceeds "
                         f"{Fraction(vals[k + s], v.den)} at "
                         f"{box[:i] + (b + 2,) + box[i + 1:]}"
                         for i, (b, s) in enumerate(zip(box, at))
                         if b < band and vals[k + s] < target])
                shift, d = _box_shift(grid, box, terms)
                delta = tuple(Fraction(rise * x, v.den * d) for x in shift)
                psi = tuple(a + x for a, x in zip(psi, delta))
            steps.append(BuildStep(l, box, eps, delta, psi))
    return BuildResult(steps, v, psi)
