"""Seeded inputs, CLI requests and output invariants for the four workloads.

Each generator takes the seed and returns the input files as bytes plus the
CLI requests that read them.  The same seed gives byte-identical files.
Expected values that the invariants need (``psi_exact`` of the input game)
are computed here, at generation time, which no metric includes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from powerdex.coalitions import CoalitionFunction
from powerdex.indices import psi_exact
from powerdex.rational import ordering_weight
from powerdex.sampling import random_regular_game
from powerdex.serialize import coalition_function_to_json, step_game_to_json

NAMES = ("step_regular", "coalition_ssi", "blackbox", "his_build")

MC_SAMPLES = 150_000
MC_TOLERANCE = 5  # stderrs; the largest deviation seen at the reference commit was 1.7
# Float slack for an MC share whose sample values are all equal: its stderr
# is 0 and its estimate differs from the exact share only by rounding.
MC_FLOAT_SLACK = 1e-9
POINT_ALPHA = "1/3"
COALITION_PLAYERS = 16
# his-build's cost is a copy and a validate of the current face table per
# non-zero increment, and the table grows with each refinement phase.
# Random regular n=4 p=4 games need from 0.1k to 370k such face visits
# (1 to ~120 increments).  Games are drawn from the seeded stream until the
# visits lie in this window, so every seed asks for about the same work.
HIS_FACE_VISITS = range(92_000, 108_001)


@dataclass
class Request:
    """One CLI invocation; ``check`` returns None or the reason it failed."""

    argv: list[str]
    check: Callable[[bytes], str | None]


@dataclass
class Workload:
    name: str
    seed: int
    files: dict[str, bytes]
    requests: list[Request]

    def write(self, directory: str) -> None:
        for name, data in self.files.items():
            with open(os.path.join(directory, name), "wb") as fh:
                fh.write(data)


def _dump(obj) -> bytes:
    return json.dumps(obj).encode()


def _last_json(stdout: bytes) -> dict:
    return json.loads(stdout.decode().splitlines()[-1])


def _exact_shares(n: int) -> Callable[[bytes], str | None]:
    def check(stdout: bytes) -> str | None:
        out = _last_json(stdout)
        shares = [Fraction(s) for s in out["shares"]]
        if out["mode"] != "exact" or len(shares) != n:
            return f"expected {n} exact shares, got {out['mode']} x{len(shares)}"
        if sum(shares) != 1:
            return f"exact shares sum to {sum(shares)}, not 1"
        return None
    return check


def _mc_shares(expected: tuple, sigmas: tuple, samples: int,
               seed: int) -> Callable[[bytes], str | None]:
    """Each estimate within MC_TOLERANCE stderrs of the exact share.

    The stderr is the larger of the reported one and the exact one
    (``sigmas`` over sqrt(samples)): a sample that misses a rare cell reports
    too small a spread, and one that hits it once reports about the true one.
    """
    def check(stdout: bytes) -> str | None:
        out = _last_json(stdout)
        if out["mode"] != "mc" or out["samples"] != samples or out["seed"] != seed:
            return "Monte-Carlo header does not echo the request"
        if len(out["shares"]) != len(expected):
            return f"expected {len(expected)} shares, got {len(out['shares'])}"
        for i, ((est, err), exact, sigma) in enumerate(
                zip(out["shares"], expected, sigmas)):
            err = max(err, sigma / math.sqrt(samples))
            if abs(est - float(exact)) > MC_TOLERANCE * err + MC_FLOAT_SLACK:
                return (f"player {i + 1}: estimate {est} is more than "
                        f"{MC_TOLERANCE} stderr ({err}) from {exact}")
        return None
    return check


def mc_sigmas(g, expected: tuple) -> tuple[float, ...]:
    """Exact standard deviation of each player's per-sample value in
    ``psi_mc`` on step game ``g``.

    A uniform sample point lies in the interior of one box, and the value
    ``psi_mc`` averages depends only on that box: the ordering-weighted sum
    over S containing i of v(x with S raised to 1) - v(x with S lowered to
    0), less the same for S without i.  Raising and lowering land on faces
    2p and 0, so the value is exact on the box's face indices.
    """
    n, p = g.n, g.p
    widths = [b - a for a, b in zip(g.disc.alpha, g.disc.alpha[1:])]
    masks = range(1 << n)
    weights = {s: ordering_weight(s, n) for s in range(1, n + 1)}
    moments = [[Fraction(0), Fraction(0)] for _ in range(n)]
    for bands in itertools.product(range(p), repeat=n):
        prob = math.prod((widths[b] for b in bands), start=Fraction(1))
        box = [2 * b + 1 for b in bands]
        delta = []
        for m in masks:
            hi = tuple(2 * p if m >> j & 1 else box[j] for j in range(n))
            lo = tuple(0 if m >> j & 1 else box[j] for j in range(n))
            delta.append(g.values[hi] - g.values[lo])
        for i in range(n):
            bit = 1 << i
            value = sum(weights[m.bit_count()] * (delta[m] - delta[m ^ bit])
                        for m in masks if m & bit)
            moments[i][0] += prob * value
            moments[i][1] += prob * value * value
    if tuple(mean for mean, _ in moments) != tuple(expected):
        raise AssertionError("per-box Monte-Carlo means differ from psi_exact")
    return tuple(math.sqrt(sq - mean * mean) for mean, sq in moments)


def _his_build(expected: tuple, boxes: int,
               increments: int) -> Callable[[bytes], str | None]:
    def check(stdout: bytes) -> str | None:
        lines = [json.loads(line) for line in stdout.decode().splitlines()]
        steps, final = lines[:-1], lines[-1]
        if len(steps) != boxes or not final.get("final"):
            return f"expected {boxes} steps and a final line, got {len(lines)} lines"
        raised = sum(1 for s in steps if Fraction(s["eps"]) != 0)
        if raised != increments:
            return f"expected {increments} non-zero increments, got {raised}"
        if any(sum(Fraction(x) for x in s["psi"]) != 1 for s in steps):
            return "a running share vector does not sum to 1"
        if tuple(Fraction(x) for x in final["psi"]) != expected:
            return f"final psi {final['psi']} differs from psi_exact"
        return None
    return check


# ---------------------------------------------------------------------------
# generators

def step_regular(seed: int) -> Workload:
    g = random_regular_game(random.Random(seed), 5, 4)
    return Workload("step_regular", seed, {"step.json": _dump(step_game_to_json(g))},
                    [Request(["psi", "step.json"], _exact_shares(5))])


def weighted_table(rng: random.Random, n: int) -> CoalitionFunction:
    """[q; w] with w_i in 1..19 and q = floor(sum w / 2) + 1, as a 0/1 table."""
    weights = [rng.randrange(1, 20) for _ in range(n)]
    quota = sum(weights) // 2 + 1
    sums = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + weights[low.bit_length() - 1]
    return CoalitionFunction(n, [Fraction(int(s >= quota)) for s in sums])


def coalition_ssi(seed: int) -> Workload:
    cf = weighted_table(random.Random(seed), COALITION_PLAYERS)
    return Workload("coalition_ssi", seed,
                    {"coalition.json": _dump(coalition_function_to_json(cf))},
                    [Request(["ssi", "coalition.json"],
                             _exact_shares(COALITION_PLAYERS))])


def blackbox(seed: int) -> Workload:
    g = random_regular_game(random.Random(seed), 6, 2)
    expected = psi_exact(g).shares
    check = _mc_shares(expected, mc_sigmas(g, expected), MC_SAMPLES, seed)
    return Workload("blackbox", seed, {"game.json": _dump(step_game_to_json(g))}, [
        Request(["psi", "--mc", "--samples", str(MC_SAMPLES), "--seed", str(seed),
                 "game.json"], check),
        Request(["psi-point", "--alpha", POINT_ALPHA, "game.json"], _exact_shares(6)),
    ])


def build_work(g) -> tuple[int, int]:
    """Non-zero increments of ``build_by_increments`` and the faces their
    copies and validates visit.

    Phase l works on a grid with (2l + 1)^n faces.  It raises each box whose
    finest index vector k has max(k) = l - 1 by the target at k minus the
    target at k with its top-band coordinates stepped down one band (zero
    for the first box).
    """
    increments = visits = 0
    for k in itertools.product(range(g.p), repeat=g.n):
        top = max(k)
        value = g.values[tuple(2 * x + 1 for x in k)]
        below = (g.values[tuple(2 * (x - (x == top)) + 1 for x in k)]
                 if top else Fraction(0))
        if value != below:
            increments += 1
            visits += (2 * top + 3) ** g.n
    return increments, visits


def his_build(seed: int) -> Workload:
    rng = random.Random(seed)
    while True:
        g = random_regular_game(rng, 4, 4)
        increments, visits = build_work(g)
        if visits in HIS_FACE_VISITS:
            break
    check = _his_build(psi_exact(g).shares, g.p ** g.n, increments)
    return Workload("his_build", seed, {"game.json": _dump(step_game_to_json(g))},
                    [Request(["his-build", "game.json"], check)])


GENERATORS: dict[str, Callable[[int], Workload]] = {
    "step_regular": step_regular,
    "coalition_ssi": coalition_ssi,
    "blackbox": blackbox,
    "his_build": his_build,
}
