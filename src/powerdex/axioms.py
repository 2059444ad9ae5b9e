"""Mechanical axiom verification on concrete games.

The checker runs an index handle over a suite of step games and reports
violations of efficiency, positivity, the null player property, symmetry,
anonymity, the transfer identity, and homogeneous-increment consistency.
The registry carries the exact index plus the standard foils that each break
exactly one axiom.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from operator import eq
from typing import Callable, NamedTuple, Sequence

from .increments import LocalIncrement, _box_domain, check_local_increment
from .indices import PowerVector, psi_exact, psi_point
from .oracles import phi_two_player, psi_product_oracle
from .rational import index_of, nondecreasing_along
from .stepfun import (Discretization, Face, StepGame, check_grid, face_table,
                      make_regular_step, regular_completion)
from .transforms import from_face_table, join_meet, permute_axes

Witness = tuple[StepGame, StepGame, LocalIncrement]


class IndexHandle(NamedTuple):
    name: str
    compute: Callable[[StepGame], PowerVector]


def square_game(g: StepGame) -> StepGame:
    """Pointwise square of a step game (still a step game on the same grid)."""
    table, den = face_table(g)
    return from_face_table(g.disc, g.n, [x * x for x in table], den * den, g.tag)


def make_handles() -> dict[str, IndexHandle]:
    """The registered handles: the exact index, its point-profile variant
    at alpha = 1/4, the doubled index, the half-blend with equal division,
    the squared-game composition, and (for n=2) the two-parameter family at
    a = (1/2, 1/2)."""
    handles = {
        "psi_exact": IndexHandle("psi_exact", psi_exact),
        "psi_point": IndexHandle("psi_point",
                                 lambda g: psi_point(g, Fraction(1, 4))),
        "two_psi": IndexHandle("two_psi", lambda g: PowerVector(
            tuple(2 * s for s in psi_exact(g).shares), "exact")),
        "half_psi_half_ed": IndexHandle("half_psi_half_ed", lambda g: PowerVector(
            tuple(s / 2 + Fraction(1, 2 * g.n) for s in psi_exact(g).shares),
            "exact")),
        "psi_square": IndexHandle("psi_square",
                                  lambda g: psi_exact(square_game(g))),
    }
    half = (Fraction(1, 2), Fraction(1, 2))
    handles["phi_two_player"] = IndexHandle(
        "phi_two_player", lambda g: phi_two_player(half, g))
    return handles


# ---------------------------------------------------------------------------
# structural player properties

def find_null_players(g: StepGame) -> frozenset[int]:
    """Players whose coordinate never changes the value table."""
    table, _ = face_table(g)
    return frozenset(i + 1 for i, s in enumerate(g.strides)
                     if nondecreasing_along(table, s, 2 * g.p + 1, eq))


def find_symmetric_pairs(g: StepGame) -> set[tuple[int, int]]:
    """Player pairs whose coordinate swap leaves the value table invariant."""
    pairs = set()
    for i, j in itertools.combinations(range(1, g.n + 1), 2):
        pi = list(range(1, g.n + 1))
        pi[i - 1], pi[j - 1] = j, i
        if permute_axes(g, pi).same_values(g):
            pairs.add((i, j))
    return pairs


def null_extension(g: StepGame, position: int) -> StepGame:
    """Insert a null player at the given 1-based position, each face's
    value copied along the new axis.  The result is raw: copying values
    breaks the box-averaging identity near the old extreme corners."""
    if not 1 <= position <= g.n + 1:
        raise ValueError(f"position {position} outside 1..{g.n + 1}")
    check_grid(g.n + 1, g.p)
    table, den = face_table(g)
    # each block of faces that agree before the new axis repeats along it
    block = [len(table), *g.strides][position - 1]
    return from_face_table(g.disc, g.n + 1, [
        x for k in range(0, len(table), block)
        for x in table[k:k + block] * (2 * g.p + 1)], den, "raw")


# ---------------------------------------------------------------------------
# HIS witnesses

def boundary_face_witness(g: StepGame, player: int, face: Face,
                          delta: Fraction) -> Witness:
    """A single-face local increment, pinned to one cube boundary.

    On the x_i = 1 side the face gains delta; on the x_i = 0 side it loses
    delta.  Either way the influence of {i} grows by delta on the open box
    of the remaining coordinates.
    """
    p = g.p
    d = face[player - 1]
    if d not in (0, 2 * p):
        raise ValueError("face must pin the player to the cube boundary")
    if any(fi % 2 == 0 for k, fi in enumerate(face) if k != player - 1):
        raise ValueError("remaining coordinates must be intervals")
    sign = 1 if d == 2 * p else -1
    out = g.with_values({face: regular_completion(g, face) + sign * delta}
                        ).with_tag("raw")
    rest = [k for k in range(1, g.n + 1) if k != player]
    inc = LocalIncrement(g.n, frozenset({player}), delta,
                         _box_domain(g.disc, face, rest))
    return g, out, inc


def crafted_his_witnesses() -> list[Witness]:
    """Fixed two-player witnesses with varied domains on two grids; enough
    to separate homogeneous-increment behaviour from profile-pinned and
    value-dependent indices."""
    out: list[Witness] = []
    delta = Fraction(1, 10)
    for cut in (Fraction(1, 2), Fraction(1, 3)):
        disc = Discretization((Fraction(0), cut, Fraction(1)))
        boxes = {(1, 1): Fraction(1, 5), (1, 3): Fraction(2, 5),
                 (3, 1): Fraction(2, 5), (3, 3): Fraction(3, 5)}
        base = make_regular_step(disc, boxes, 2)
        for face, player in (((1, 4), 2), ((3, 4), 2), ((4, 1), 1), ((4, 3), 1)):
            out.append(boundary_face_witness(base, player, face, delta))
    return out


def suite_his_witnesses(suite: Sequence[StepGame],
                        rng: random.Random) -> list[Witness]:
    """Opportunistic single-face witnesses drawn from suite games, two per
    game at most, wherever a boundary face has monotonicity slack."""
    out: list[Witness] = []
    for g in suite:
        top = 2 * g.p
        table, den = face_table(g)
        candidates = []
        for player in range(1, g.n + 1):
            for rest in itertools.product(range(1, top, 2), repeat=g.n - 1):
                for up, d in ((1, top), (-1, 0)):
                    face = rest[:player - 1] + (d,) + rest[player - 1:]
                    at = index_of(face, g.strides)
                    # the least gap outwards (up on the top side, down on the
                    # bottom one) to a neighbour along another axis
                    room = min((up * (table[at + up * s] - table[at])
                                for k, s in enumerate(g.strides) if k != player - 1),
                               default=0)
                    if room > 0:
                        candidates.append((player, face, Fraction(room, den)))
        rng.shuffle(candidates)
        for player, face, room in candidates[:2]:
            out.append(boundary_face_witness(g, player, face, room / 2))
    return out


# ---------------------------------------------------------------------------
# the checker

AXIOMS = ("efficiency", "positivity", "null_player", "symmetry",
          "anonymity", "transfer", "his")


class AxiomReport(NamedTuple):
    handle: str
    games: int
    violations: dict[str, list[str]]

    def passed(self, axiom: str) -> bool:
        return not self.violations.get(axiom)

    def failed_axioms(self) -> set[str]:
        return {a for a, v in self.violations.items() if v}

    def all_passed(self) -> bool:
        return not self.failed_axioms()


def check_axioms(handle: IndexHandle, suite: Sequence[StepGame],
                 seed: int = 0) -> AxiomReport:
    """Run the axiom battery for one handle over a suite of games."""
    rng = random.Random(seed)
    viol = {a: [] for a in AXIOMS}

    def shares(g: StepGame):
        return handle.compute(g).shares

    for idx, g in enumerate(suite):
        sh = shares(g)
        if sum(sh) != 1:
            viol["efficiency"].append(f"game {idx}: shares sum to {sum(sh)}")
        if any(s < 0 for s in sh) or all(s == 0 for s in sh):
            viol["positivity"].append(f"game {idx}: shares {sh}")
        for i in find_null_players(g):
            if sh[i - 1] != 0:
                viol["null_player"].append(
                    f"game {idx}: null player {i} gets {sh[i - 1]}")
        for i, j in find_symmetric_pairs(g):
            if sh[i - 1] != sh[j - 1]:
                viol["symmetry"].append(
                    f"game {idx}: symmetric players {i},{j} get "
                    f"{sh[i - 1]} vs {sh[j - 1]}")
        pi = list(range(1, g.n + 1))
        rng.shuffle(pi)
        permuted = shares(permute_axes(g, pi))
        for i in range(1, g.n + 1):
            if permuted[pi[i - 1] - 1] != sh[i - 1]:
                viol["anonymity"].append(
                    f"game {idx}: permutation {pi} moves share of {i}")
                break

    by_n: dict[int, list[StepGame]] = {}
    for g in suite:
        by_n.setdefault(g.n, []).append(g)
    for games in by_n.values():
        for _ in range(min(len(games), 10)):
            u, v = rng.choice(games), rng.choice(games)
            hi, lo = join_meet(u, v)
            left = [a + b for a, b in zip(shares(u), shares(v))]
            right = [a + b for a, b in zip(shares(hi), shares(lo))]
            if left != right:
                viol["transfer"].append(f"pair sums {left} vs {right}")

    witnesses = crafted_his_witnesses() + suite_his_witnesses(suite, rng)
    # the shift constants may depend on the coalition and the player count,
    # but on nothing else
    constants: dict[tuple[int, frozenset[int]], tuple[Fraction, Fraction]] = {}
    for u, v, inc in witnesses:
        ok, _ = check_local_increment(u, v, inc)
        if not ok:
            raise ValueError("generated witness is not a local increment")
        du = shares(u)
        dv = shares(v)
        diff = [b - a for a, b in zip(du, dv)]
        scale = inc.epsilon * inc.domain.volume()
        if scale == 0:
            continue
        on = {diff[i - 1] for i in inc.coalition}
        off = {diff[i - 1] for i in range(1, inc.n + 1) if i not in inc.coalition}
        label = "{" + ",".join(map(str, sorted(inc.coalition))) + "}"
        if len(on) > 1 or len(off) > 1:
            viol["his"].append(f"S={label}: non-uniform shift {diff}")
            continue
        lam = on.pop() / scale if on else Fraction(0)
        gam = -off.pop() / scale if off else Fraction(0)
        key = (inc.n, inc.coalition)
        prev = constants.get(key)
        if prev is None:
            constants[key] = (lam, gam)
        elif prev != (lam, gam):
            viol["his"].append(
                f"S={label}: constants {prev} vs ({lam}, {gam}) "
                f"across witnesses (eps={inc.epsilon}, vol={inc.domain.volume()})")
    return AxiomReport(handle.name, len(suite),
                       {a: v for a, v in viol.items() if v})


# ---------------------------------------------------------------------------
# the counterexample walkthrough

def separation_demo() -> dict:
    """Contrast the exact index of x1*x2^2 with its profile-pinned variants.

    The pinned variants satisfy every classical axiom yet give different
    shares; the two parameter values where they would agree are irrational,
    bracketed here by exact sign changes.
    """
    from .families import counterexample_game

    game = counterexample_game(2)
    psi = psi_product_oracle([1, 2]).shares
    sampled = {}
    differs = {}
    for a in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        pv = psi_point(game, a).shares
        sampled[a] = pv
        differs[a] = pv != psi
    brackets = []
    for lo, hi in ((Fraction(1, 5), Fraction(1, 4)),
                   (Fraction(3, 4), Fraction(4, 5))):
        d_lo = psi_point(game, lo).shares[0] - psi[0]
        d_hi = psi_point(game, hi).shares[0] - psi[0]
        brackets.append({"interval": (lo, hi), "signs": (d_lo > 0, d_hi > 0),
                         "sign_change": (d_lo > 0) != (d_hi > 0)})
    return {
        "psi": psi,
        "psi_point": sampled,
        "differs": differs,
        "equality_brackets": brackets,
        "classical_axioms_insufficient": any(differs.values()),
    }
