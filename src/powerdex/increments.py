"""The local-increment calculus: potential influence, the predicted share
shift of one local increment and its verification on two step games, the
local increments implied by one box increment, the corner-box closed form,
Table 1 and the move-by-move replay of the worked two-player construction.

A local increment raises the potential influence of one coalition S by a
constant on a product domain D of the remaining voters' profiles and leaves
every other coalition's influence unchanged.  The index shifts by
+(s-1)!(n-s)!/n! * eps * vol(D) for members of S and by
-s!(n-s-1)!/n! * eps * vol(D) for outsiders, with zero effect for S empty
or S = N.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, lcm
from typing import NamedTuple, Sequence

from .indices import PowerVector, _as_evaluable, psi_exact
from .rational import check_players, loss_constant, ordering_weight
from .stepfun import (Discretization, Face, IncrementError, StepGame,
                      TAG_REGULAR, TAG_SEMI_REGULAR, box_faces, face_center,
                      face_table, refine, regular_completion, zero_game)


class Domain(NamedTuple):
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


class LocalIncrement:
    """u -> v raising Delta v(S, .) by epsilon on the open interior of the
    domain.  S empty means v = u + epsilon on the open cube; S = N means
    v = u + epsilon on the open domain (c, 1)^n."""

    __slots__ = ("n", "coalition", "epsilon", "domain")

    def __init__(self, n: int, coalition: frozenset[int], epsilon: Fraction,
                 domain: Domain) -> None:
        all_players = set(range(1, n + 1))
        s = set(coalition)
        if not s <= all_players:
            raise ValueError("coalition outside the player set")
        expected = all_players if (not s or s == all_players) else all_players - s
        if set(domain.players()) != expected:
            raise ValueError("domain must cover exactly the remaining voters")
        self.n, self.coalition, self.epsilon, self.domain = \
            n, coalition, epsilon, domain

    def _fields(self) -> tuple:
        return self.n, self.coalition, self.epsilon, self.domain

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LocalIncrement)
                and self._fields() == other._fields())

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return ("LocalIncrement(n={!r}, coalition={!r}, epsilon={!r}, "
                "domain={!r})".format(*self._fields()))

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
    game = _as_evaluable(v)
    return game.eval_exact(hi) - game.eval_exact(lo)


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

    On the grid of u, v and D's ends, the influence of each coalition T
    (T's coordinates at 2p against 0, the others' on interior digits) must
    gain epsilon strictly inside D for T = S, is not checked on D's
    boundary, and must not move elsewhere.  S empty or N walks the empty
    coalition alone, whose influence is the game's value: raised on the
    open cube for S empty (D is ignored), on the open domain for S = N.
    Returns the first violating witness, if any.
    """
    if u.n != v.n or inc.n != u.n:
        raise ValueError("player counts differ")
    n = u.n
    merged = Discretization(sorted({*u.disc.alpha, *v.disc.alpha,
                                    *(x for _, ab in inc.domain.intervals
                                      for x in ab)}))
    (old, den_u), (new, den_v) = (face_table(refine(g, merged)) for g in (u, v))
    eps = Fraction(inc.epsilon)
    # both tables and eps as integers over one denominator
    den = lcm(den_u, den_v, eps.denominator)
    old = [x * (den // den_u) for x in old]
    new = [x * (den // den_v) for x in new]
    e = eps.numerator * (den // eps.denominator)
    top, interior = 2 * merged.p, range(1, 2 * merged.p)
    strides = [(top + 1) ** (n - 1 - i) for i in range(n)]
    # every domain endpoint is a breakpoint of the merged grid: compare
    # doubled coordinates, a face lying inside the open interval when a < d < b
    # and outside the closed one when d < a or d > b
    ends = {i: (2 * merged.alpha.index(lo), 2 * merged.alpha.index(hi))
            for i, (lo, hi) in inc.domain.intervals}
    degenerate = inc.is_degenerate()
    claim = 0 if degenerate else sum(1 << (i - 1) for i in inc.coalition)
    for t in [0] if degenerate else range(1, 1 << n):
        free = [i for i in range(n) if not t >> i & 1]
        raised = top * sum(strides[i] for i in range(n) if t >> i & 1)
        for f in itertools.product(interior, repeat=len(free)):
            lo = sum(strides[i] * fi for i, fi in zip(free, f))
            # T's coordinates at 2p; T = {} has no partner at 0
            dv, du = new[lo + raised], old[lo + raised]
            if t:
                dv, du = dv - new[lo], du - old[lo]
            expected = du
            if t == claim:
                # S = {} ignores D
                spans = [(*ends[i + 1], fi) for i, fi in zip(free, f)
                         if inc.coalition]
                if all(a < d < b for a, b, d in spans):
                    expected += e
                elif len(inc.coalition) == n or all(a <= d <= b
                                                    for a, b, d in spans):
                    continue  # on D's boundary, or outside D for S = N
            if dv != expected:
                rest = iter(f)
                face = tuple(top if t >> i & 1 else next(rest) for i in range(n))
                players = (inc.coalition if t == claim
                           else [i + 1 for i in range(n) if t >> i & 1])
                return False, {"T": tuple(sorted(players)), "face": face,
                               "point": face_center(merged, face),
                               "expected": Fraction(expected, den),
                               "got": Fraction(dv, den)}
    return True, None


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


def corner_increase(L: Sequence[int], U: Sequence[int], eps, l: int,
                    i: int) -> Fraction:
    """Total share change for player i when the corner box pinned low on L
    and high on U of the uniform l-grid gains eps (four-sum closed form)."""
    from .coalitions import mask_of

    eps = Fraction(eps)
    n = len(L) + len(U)
    check_players(n)
    mask_of([*L, *U], n)  # each of 1..n exactly once
    if not L or not U:
        raise ValueError("L, U must be disjoint, nonempty and cover 1..n")
    if l < 2:
        raise ValueError("uniform grid needs l >= 2")
    if not 1 <= i <= n:
        raise ValueError(f"player {i} outside 1..{n}")
    total = Fraction(0)
    for base, side in ((L, -1), (U, 1)):
        # every team of size t has the same weights: count those holding i
        for t in range(1, len(base) + 1):
            hits = comb(len(base) - 1, t - 1) if i in base else 0
            misses = comb(len(base), t) - hits
            scale = side * eps / Fraction(l) ** (n - t)
            total += scale * (hits * ordering_weight(t, n)
                              - misses * loss_constant(t, n))
    return total


def table1_rows(l: int, eps=1) -> list[dict]:
    """The effect rows of a uniform increase on the box pinned high in
    coordinates 1 and 3 and low in coordinate 2 of the uniform l-grid (n=3):
    one row per local increment the box implies."""
    if l < 2:
        raise ValueError("uniform grid needs l >= 2")
    # the box reads only the breakpoints 0, 1/l, (l-1)/l and 1, so the grid
    # of those four gives it the same intervals and the same bands
    disc = Discretization(sorted({Fraction(0), Fraction(1, l),
                                  Fraction(l - 1, l), Fraction(1)}))
    top = 2 * disc.p - 1
    rows = []
    for side, inc in box_increments(disc, (top, 1, top), eps):
        s = tuple(sorted(inc.coalition))
        rows.append({"face": ", ".join(f"x{i}={int(side > 0)}" for i in s),
                     "S": s, "sign": side, "vol": inc.domain.volume(),
                     "delta": his_delta(inc).shares})
    rows.sort(key=lambda r: (-r["sign"], -len(r["S"]), r["S"]))
    return rows


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


class ReplayMove(NamedTuple):
    index: int
    increment: LocalIncrement
    psi_his: tuple
    psi_exact: tuple
    check_ok: bool


class ReplayResult(NamedTuple):
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
    from .his import _phase_grid, adjacent_count, appendix_game

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
            eps = target.box(box) - game.box(box)
            for inc, faces in _submoves_for_box(n, phase, box, eps):
                prev = game
                game = game.with_values({
                    e: regular_completion(game, e)
                    + eps / adjacent_count(e, phase.p) for e in faces})
                shift = his_delta(inc)
                psi = [a + b for a, b in zip(psi, shift.shares)]
                ok, _ = check_local_increment(prev, game, inc)
                k += 1
                moves.append(ReplayMove(k, inc, tuple(psi),
                                        psi_exact(game).shares, ok))
    matches = game.same_values(target)
    return ReplayResult(initial, moves, game.with_tag(TAG_REGULAR), matches)
