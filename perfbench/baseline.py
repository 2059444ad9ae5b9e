"""Reproduce the ROADMAP baseline rows by calling the API directly.

    python3 perfbench/baseline.py > perfbench/BASELINE.md

On demand only: no check runs it, nothing scores it, and it takes a few
minutes.  The psi_mc row at 1e5 samples holds about 0.85 GB of sample
arrays.  Each row is one timed call on the games the ROADMAP names
(``random_regular_game`` and ``SimpleGame.weighted``, seeds 1 and 2).
"""

from __future__ import annotations

import os
import platform
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from powerdex import (SimpleGame, counterexample_game, psi_exact,  # noqa: E402
                      psi_mc, psi_point, ssi_coalition, validate)
from powerdex.sampling import random_regular_game  # noqa: E402
from powerdex.serialize import parse_step_game, step_game_to_json  # noqa: E402


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def weights(n: int, seed: int = 2) -> tuple[int, list[int]]:
    rng = random.Random(seed)
    w = [rng.randrange(1, 20) for _ in range(n)]
    return sum(w) // 2 + 1, w


def main() -> None:
    rows = []
    g, t = timed(random_regular_game, random.Random(1), 5, 5)
    rows.append((f"build regular step game, n=5 p=5 ({len(g.values)} faces)", t))
    _, t = timed(parse_step_game, step_game_to_json(g))
    rows.append(("`parse_step_game` of the same game's JSON (the CLI's build)", t))
    report, t = timed(validate, g)
    if not report.ok:
        raise SystemExit("generated game failed validation")
    rows.append(("`validate` on the same game", t))
    _, t = timed(psi_exact, g)
    rows.append(("`psi_exact` on the same game", t))
    for n in (16, 18):
        v, t_build = timed(SimpleGame.weighted, *weights(n))
        _, t = timed(ssi_coalition, v)
        rows.append((f"`ssi_coalition`, weighted n={n}", t))
        if n == 18:
            rows.append(("`SimpleGame.weighted` construction, n=18", t_build))
    _, t = timed(psi_point, counterexample_game(8), Fraction(1, 2))
    rows.append(("`psi_point`, `counterexample_game(8)`, alpha=1/2", t))
    _, t = timed(psi_mc, counterexample_game(10), 100_000, 1)
    rows.append(("`psi_mc`, `counterexample_game(10)`, 1e5 samples", t))
    tracemalloc.start()
    psi_mc(counterexample_game(10), 20_000, 1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    print("# ROADMAP baseline rows, re-run by perfbench/baseline.py\n")
    print(f"Machine: {os.cpu_count()} cores, Python {platform.python_version()}, "
          f"numpy {np.__version__}. One run of each row.\n")
    print("| workload | time |\n|---|---|")
    for label, seconds in rows:
        print(f"| {label} | {seconds:.3f} s |")
    print(f"| `psi_mc`, n=10, 2e4 samples: tracemalloc peak | {peak / 1e6:.0f} MB |")


if __name__ == "__main__":
    main()
