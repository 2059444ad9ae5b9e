"""Local increments and share deltas on step games.

A local increment raises the potential influence of one coalition S by a
constant on a product domain D of the remaining voters' profiles and leaves
every other coalition's influence unchanged.  The index shifts by
+(s-1)!(n-s)!/n! * eps * vol(D) for members of S and by
-s!(n-s-1)!/n! * eps * vol(D) for outsiders, with zero effect for S empty
or S = N.

Raising a step game uniformly on one full-dimensional box implies one local
increment per nonempty proper coalition pinned to the top or bottom of the
cube on the box's outer band; no other face carries a nonzero delta.
Iterating boxes grid-by-grid builds any regular monotone step game from the
all-or-nothing game, and the worked two-player construction is replayed move
by move.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .coalitions import mask_of
from .indices import PowerVector, psi_exact
from .rational import loss_constant, ordering_weight
from .stepfun import (Discretization, Face, StepGame, TAG_REGULAR,
                      TAG_SEMI_REGULAR, adjacent_boxes, box_faces,
                      evaluate_step, face_center, make_regular_step, refine,
                      uniform_grid, validate, zero_game)


class IncrementError(ValueError):
    """An increment would break monotonicity or violates a precondition."""


@dataclass(frozen=True)
class Domain:
    """Product of closed intervals [a_i, b_i], indexed by player."""

    intervals: tuple[tuple[int, tuple[Fraction, Fraction]], ...]

    @classmethod
    def of(cls, mapping: dict[int, tuple]) -> "Domain":
        items = []
        for i in sorted(mapping):
            a, b = (Fraction(x) for x in mapping[i])
            if not 0 <= a <= b <= 1:
                raise ValueError(f"interval [{a}, {b}] invalid for player {i}")
            items.append((i, (a, b)))
        return cls(tuple(items))

    @classmethod
    def unit_cube(cls, players: Sequence[int]) -> "Domain":
        return cls.of({i: (Fraction(0), Fraction(1)) for i in players})

    def players(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.intervals)

    def volume(self) -> Fraction:
        vol = Fraction(1)
        for _, (a, b) in self.intervals:
            vol *= b - a
        return vol


@dataclass(frozen=True)
class LocalIncrement:
    """u -> v raising Delta v(S, .) by epsilon on the open interior of the
    domain.  S empty means v = u + epsilon on the open cube; S = N means
    v = u + epsilon on the open domain (c, 1)^n."""

    n: int
    coalition: frozenset[int]
    epsilon: Fraction
    domain: Domain

    def __post_init__(self) -> None:
        all_players = set(range(1, self.n + 1))
        s = set(self.coalition)
        if not s <= all_players:
            raise ValueError("coalition outside the player set")
        expected = all_players if (not s or s == all_players) else all_players - s
        if set(self.domain.players()) != expected:
            raise ValueError("domain must cover exactly the remaining voters")

    def is_degenerate(self) -> bool:
        return len(self.coalition) in (0, self.n)


def potential_influence(v, coalition: Sequence[int], x_minus_s):
    """Delta v(S, x_{-S}) = v(1_S, x_{-S}) - v(0_S, x_{-S}) at an interior
    residual profile.  Accepts a step game or any exactly evaluable game."""
    s = set(coalition)
    rest = [i for i in range(1, v.n + 1) if i not in s]
    if len(x_minus_s) != len(rest):
        raise ValueError("residual profile has the wrong arity")
    if any(not 0 < Fraction(x) < 1 for x in x_minus_s):
        raise ValueError("residual profile must be interior")
    hi = [Fraction(1)] * v.n
    lo = [Fraction(0)] * v.n
    for i, xi in zip(rest, x_minus_s):
        hi[i - 1] = Fraction(xi)
        lo[i - 1] = Fraction(xi)
    if isinstance(v, StepGame):
        return evaluate_step(v, hi) - evaluate_step(v, lo)
    return v.eval_exact(hi) - v.eval_exact(lo)


def his_delta(inc: LocalIncrement) -> PowerVector:
    """Predicted share shift of one local increment; sums to zero."""
    n = inc.n
    if inc.is_degenerate():
        return PowerVector((Fraction(0),) * n, "exact")
    s = len(inc.coalition)
    scale = inc.epsilon * inc.domain.volume()
    gain = ordering_weight(s, n) * scale
    loss = loss_constant(s, n) * scale
    return PowerVector(tuple(gain if i in inc.coalition else -loss
                             for i in range(1, n + 1)), "exact")


# ---------------------------------------------------------------------------
# verification of a claimed increment

def check_local_increment(u: StepGame, v: StepGame,
                          inc: LocalIncrement) -> tuple[bool, dict | None]:
    """Verify u -> v under the claimed (S, epsilon, D).

    On the merged grid: the influence of S gains exactly epsilon inside the
    open domain and nothing outside its closure, and every other coalition's
    influence is unchanged at one representative per interior face.  Returns
    the first violating witness, if any.
    """
    if u.n != v.n or inc.n != u.n:
        raise ValueError("player counts differ")
    n = u.n
    extra = [x for _, ab in inc.domain.intervals for x in ab if 0 < x < 1]
    merged = u.disc.merge(v.disc)
    if extra:
        merged = merged.merge(Discretization(tuple(sorted({Fraction(0), Fraction(1), *extra}))))
    ru, rv = refine(u, merged), refine(v, merged)
    p = merged.p
    interior = range(1, 2 * p)
    # every domain endpoint is a breakpoint of the merged grid: compare
    # doubled coordinates, a face lying inside the open interval when a < d < b
    # and outside the closed one when d < a or d > b
    ends = {i: (2 * merged.alpha.index(a), 2 * merged.alpha.index(b))
            for i, (a, b) in inc.domain.intervals}

    def witness(t_players, face, expected, got):
        return {"T": tuple(sorted(t_players)), "face": face,
                "point": face_center(merged, face),
                "expected": expected, "got": got}

    if inc.is_degenerate():
        use_domain = len(inc.coalition) == n
        for f in itertools.product(interior, repeat=n):
            if use_domain and not all(ends[i][0] < fi < ends[i][1]
                                      for i, fi in enumerate(f, 1)):
                continue
            expected = ru.values[f] + inc.epsilon
            if rv.values[f] != expected:
                return False, witness(inc.coalition, f, expected, rv.values[f])
        return True, None

    coalition = sorted(inc.coalition)
    s_idx = [i - 1 for i in coalition]
    for t_mask in range(1, 1 << n):
        t_idx = [i for i in range(n) if t_mask >> i & 1]
        free = [i for i in range(n) if not t_mask >> i & 1]
        is_s = t_idx == s_idx
        for f in itertools.product(interior, repeat=len(free)):
            hi = [2 * p] * n
            lo = [0] * n
            for i, fi in zip(free, f):
                hi[i] = fi
                lo[i] = fi
            dv = rv.values[tuple(hi)] - rv.values[tuple(lo)]
            du = ru.values[tuple(hi)] - ru.values[tuple(lo)]
            if not is_s:
                if dv != du:
                    t_players = [i + 1 for i in t_idx]
                    return False, witness(t_players, tuple(hi), du, dv)
                continue
            spans = [(fi, *ends[i + 1]) for i, fi in zip(free, f)]
            if any(d < a or d > b for d, a, b in spans):
                expected = du  # some coordinate escapes the closed domain
            elif all(a < d < b for d, a, b in spans):
                expected = du + inc.epsilon
            else:
                continue  # neither fully inside nor fully outside
            if dv != expected:
                return False, witness(coalition, tuple(hi), expected, dv)
    return True, None


# ---------------------------------------------------------------------------
# box increments

def _box_domain(disc: Discretization, box: Face,
                players: Sequence[int]) -> Domain:
    """The box's own intervals for the given players."""
    return Domain.of({i: (disc.alpha[(box[i - 1] - 1) // 2],
                          disc.alpha[(box[i - 1] + 1) // 2]) for i in players})


def box_increments(disc: Discretization, e_bar: Face,
                   eps) -> list[tuple[int, LocalIncrement]]:
    """The local increments implied by raising the box e_bar by eps, each
    with the cube side (+1 top, -1 bottom) it comes from.

    Only a face that pins a nonempty proper coalition S to one side of the
    cube and keeps every other coordinate on the box's interval carries a
    nonzero delta, and such a face has the box as its one adjacent box.  So
    each S inside the top band gives +eps and each S inside the bottom band
    gives -eps, on the box's intervals for the other players.
    """
    eps = Fraction(eps)
    n, top = len(e_bar), 2 * disc.p - 1
    if any(b % 2 == 0 or not 1 <= b <= top for b in e_bar):
        raise IncrementError(f"{e_bar} is not a full-dimensional box")
    everyone = range(1, n + 1)
    out = []
    for side, level in ((1, top), (-1, 1)):
        band = [i for i in everyone if e_bar[i - 1] == level]
        for r in range(1, min(len(band), n - 1) + 1):
            for team in itertools.combinations(band, r):
                rest = [i for i in everyone if i not in team]
                out.append((side, LocalIncrement(
                    n, frozenset(team), side * eps,
                    _box_domain(disc, e_bar, rest))))
    return out


def apply_box_increment(u: StepGame, e_bar: Face,
                        eps) -> tuple[StepGame, PowerVector]:
    """Raise the game by eps on one open box, re-averaging its faces.

    Every face of the box gains eps divided by its number of adjacent boxes
    (the two extreme cube corners stay pinned to 0 and 1), so regularity is
    preserved; overrides on the box's faces shift with it.  The returned
    delta sums the shifts of the implied local increments and equals the
    exact index difference.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise IncrementError("box increments take eps >= 0")
    e_bar = tuple(e_bar)
    if len(e_bar) != u.n:
        raise IncrementError(f"box {e_bar} does not fit the game's "
                             f"{u.n} players")
    delta = [Fraction(0)] * u.n
    for _, inc in box_increments(u.disc, e_bar, eps):
        delta = [d + s for d, s in zip(delta, his_delta(inc).shares)]
    p = u.p
    corners = {(0,) * u.n, (2 * p,) * u.n}
    boxes = {**u.boxes, e_bar: u.boxes[e_bar] + eps}
    faces = dict(u.faces)
    for e in box_faces(e_bar):
        if e in faces and e not in corners:
            faces[e] += eps / len(adjacent_boxes(e, p))
    out = StepGame(u.disc, u.n, boxes, faces, u.tag)
    report = validate(out)
    if not report.monotone:
        raise IncrementError("increment breaks monotonicity: "
                             + "; ".join(report.violations[:3]))
    return out, PowerVector(tuple(delta), "exact")


def corner_increase(L: Sequence[int], U: Sequence[int], eps, l: int,
                    i: int) -> Fraction:
    """Total share change for player i when the corner box pinned low on L
    and high on U of the uniform l-grid gains eps (four-sum closed form)."""
    eps = Fraction(eps)
    n = len(L) + len(U)
    mask_of([*L, *U], n)  # each of 1..n exactly once
    if not L or not U:
        raise ValueError("L, U must be disjoint, nonempty and cover 1..n")
    if l < 2:
        raise ValueError("uniform grid needs l >= 2")
    if not 1 <= i <= n:
        raise ValueError(f"player {i} outside 1..{n}")
    total = Fraction(0)
    for base, side in ((L, -1), (U, 1)):
        members = sorted(base)
        for r in range(1, len(members) + 1):
            for team in itertools.combinations(members, r):
                t = len(team)
                scale = eps / Fraction(l) ** (n - t)
                if i in team:
                    total += side * scale * ordering_weight(t, n)
                else:
                    total -= side * scale * loss_constant(t, n)
    return total


def table1_rows(l: int, eps=1) -> list[dict]:
    """The effect rows of a uniform increase on the box pinned high in
    coordinates 1 and 3 and low in coordinate 2 of the uniform l-grid (n=3):
    one row per local increment the box implies."""
    if l < 2:
        raise ValueError("uniform grid needs l >= 2")
    e_bar = (2 * l - 1, 1, 2 * l - 1)
    rows = []
    for side, inc in box_increments(uniform_grid(l), e_bar, eps):
        s = tuple(sorted(inc.coalition))
        rows.append({"face": ", ".join(f"x{i}={int(side > 0)}" for i in s),
                     "S": s, "sign": side, "vol": inc.domain.volume(),
                     "delta": his_delta(inc).shares})
    rows.sort(key=lambda r: (-r["sign"], -len(r["S"]), r["S"]))
    return rows


# ---------------------------------------------------------------------------
# constructive build

@dataclass
class BuildStep:
    phase: int
    box: Face
    eps: Fraction
    delta: tuple
    psi: tuple


@dataclass
class BuildResult:
    steps: list[BuildStep]
    final: StepGame
    psi: tuple


def _phase_grid(alpha: tuple[Fraction, ...], l: int) -> Discretization:
    return Discretization(alpha[:l] + (alpha[-1],))


def _submoves_for_box(n: int, phase: Discretization, box: Face,
                      eps: Fraction) -> list[tuple[LocalIncrement, list[Face]]]:
    """Split one box increment into the grouped moves used by the worked
    two-player construction: one move per boundary side of the box, with
    interior faces attached to the closing move.  The all-boundary boxes use
    the empty-coalition and grand-coalition conventions."""
    p = phase.p
    everyone = frozenset(range(1, n + 1))
    ubox = frozenset(i + 1 for i, b in enumerate(box) if b == 2 * p - 1)
    lbox = frozenset(i + 1 for i, b in enumerate(box) if b == 1)
    corners = {(0,) * n, (2 * p,) * n}
    all_faces = [e for e in box_faces(box) if e not in corners]
    if p == 1:
        inc = LocalIncrement(n, frozenset(), eps, Domain.unit_cube(range(1, n + 1)))
        return [(inc, all_faces)]
    if ubox == everyone:
        inc = LocalIncrement(n, everyone, eps,
                             _box_domain(phase, box, range(1, n + 1)))
        return [(inc, all_faces)]
    free_u = sorted(everyone - ubox)
    inc_u = LocalIncrement(n, ubox, eps, _box_domain(phase, box, free_u))
    if not lbox:
        return [(inc_u, all_faces)]
    upper_faces = [e for e in all_faces
                   if any(ei == 2 * p for ei in e) and all(ei != 0 for ei in e)]
    rest = [e for e in all_faces if e not in set(upper_faces)]
    free_l = sorted(everyone - lbox)
    inc_l = LocalIncrement(n, lbox, -eps, _box_domain(phase, box, free_l))
    return [(inc_u, upper_faces), (inc_l, rest)]


def appendix_game() -> StepGame:
    """Two-player regular step game on the grid (0, 1/4, 1/2, 1) with box
    values 0.1 ... 0.9; the fixture behind the move-by-move replay."""
    disc = Discretization((Fraction(0), Fraction(1, 4), Fraction(1, 2),
                           Fraction(1)))
    tenths = {(1, 1): 1, (1, 3): 2, (3, 1): 3, (1, 5): 4, (5, 1): 5,
              (3, 3): 6, (3, 5): 7, (5, 3): 8, (5, 5): 9}
    boxes = {b: Fraction(t, 10) for b, t in tenths.items()}
    return make_regular_step(disc, boxes, 2)


@dataclass
class ReplayMove:
    index: int
    increment: LocalIncrement
    psi_his: tuple
    psi_exact: tuple
    check_ok: bool


@dataclass
class ReplayResult:
    initial_psi: tuple
    moves: list[ReplayMove]
    final: StepGame
    final_matches_target: bool

    @property
    def tracks_agree(self) -> bool:
        return all(m.psi_his == m.psi_exact and m.check_ok for m in self.moves)


_APPENDIX_PHASES = (
    (1, ((1, 1),)),
    (2, ((3, 3), (1, 3), (3, 1))),
    (3, ((5, 5), (3, 5), (1, 5), (5, 3), (5, 1))),
)


def replay_appendix() -> ReplayResult:
    """Re-run the worked two-player construction move by move.

    Every move is applied as a grouped local increment, verified against its
    claimed (S, eps, D), and scored twice: by accumulated deltas and by an
    independent exact recomputation of the index of the rebuilt game.
    """
    target = appendix_game()
    n = target.n
    game = zero_game(n)
    psi = [Fraction(1, n)] * n
    moves: list[ReplayMove] = []
    initial = tuple(psi)
    k = 0
    for l, boxes in _APPENDIX_PHASES:
        phase = _phase_grid(target.disc.alpha, l)
        game = refine(game, phase).with_tag(TAG_SEMI_REGULAR)
        for box in boxes:
            eps = target.boxes[box] - game.boxes[box]
            for inc, faces in _submoves_for_box(n, phase, box, eps):
                prev = game
                game = game.with_values({
                    e: game.values[e] + eps / len(adjacent_boxes(e, phase.p))
                    for e in faces})
                shift = his_delta(inc)
                psi = [a + b for a, b in zip(psi, shift.shares)]
                ok, _ = check_local_increment(prev, game, inc)
                k += 1
                moves.append(ReplayMove(k, inc, tuple(psi),
                                        psi_exact(game).shares, ok))
    matches = game.disc == target.disc and game.values == target.values
    return ReplayResult(initial, moves, game.with_tag(TAG_REGULAR), matches)


def build_by_increments(v: StepGame,
                        box_order: Callable[[list[Face]], list[Face]] | None = None,
                        ) -> BuildResult:
    """Rebuild a regular monotone step game from the all-or-nothing game by
    per-box increments, one grid refinement phase at a time.

    Each phase l works on the grid (0, a_1, ..., a_{l-1}, 1) and raises every
    box with a coordinate in the newest band by the gap between the target
    and the current value of its lowest fine box, in a descending linear
    extension of the componentwise order (descending lexicographic by
    default; the total effect is order-independent).  The phase grid's bands
    are the fine bands 0..l-2 plus one that starts at fine band l-1, so a
    phase box and its lowest fine box have the same key.
    """
    report = validate(v)
    if v.tag != TAG_REGULAR or not report.ok:
        raise ValueError("build requires a validated regular monotone game")
    order = box_order or (lambda boxes: sorted(boxes, reverse=True))
    alpha = v.disc.alpha
    n, p = v.n, v.p
    game = zero_game(n)
    psi = [Fraction(1, n)] * n
    steps: list[BuildStep] = []
    for l in range(1, p + 1):
        phase = _phase_grid(alpha, l)
        game = refine(game, phase).with_tag(TAG_REGULAR)
        band = 2 * l - 1
        new_boxes = [b for b in itertools.product(range(1, 2 * l, 2), repeat=n)
                     if band in b]
        for box in order(new_boxes):
            eps = v.boxes[box] - game.boxes[box]
            if eps < 0:
                raise IncrementError("target game is not monotone")
            if eps > 0:
                game, delta = apply_box_increment(game, box, eps)
            else:
                delta = PowerVector((Fraction(0),) * n, "exact")
            psi = [a + b for a, b in zip(psi, delta.shares)]
            steps.append(BuildStep(l, box, eps, delta.shares, tuple(psi)))
    return BuildResult(steps, game, tuple(psi))
