"""The increment calculus: how local changes of a game move the shares.

Raises single boxes, tabulates the face effects, applies the closed corner
formula, rebuilds a game from nothing, and replays the worked two-player
construction with dual verification.
"""

import itertools
from fractions import Fraction as F

from powerdex import (apply_box_increment, appendix_game,
                      build_by_increments, corner_increase, his_delta,
                      make_regular_step, potential_influence, psi_exact,
                      replay_appendix, table1_rows, uniform_grid)
from powerdex.increments import Domain, LocalIncrement

v = appendix_game()
print("potential influence of {1} at x2=1/8:",
      potential_influence(v, [1], [F(1, 8)]))

# A local increment shifts shares by +/- constants * eps * vol(D).
inc = LocalIncrement(2, frozenset({2}), F(1, 10), Domain.of({1: (0, F(1, 4))}))
print("predicted shift:", his_delta(inc).shares)

# Raising one full-dimensional box decomposes into face moves; only faces
# pinned to the cube boundary matter.
base = make_regular_step(uniform_grid(2), {
    b: (F(1) if b[1] == 3 else F(0))
    for b in itertools.product((1, 3), repeat=3)}, 3)
out, delta = apply_box_increment(base, (3, 1, 3), 1)
print("\nbox (high, low, high) raised by 1:")
print("  share delta:", delta.shares)
print("  cross-check:", tuple(a - b for a, b in
                              zip(psi_exact(out).shares, psi_exact(base).shares)))

print("\nlocal increments the box implies (uniform grid, l = 2):")
for row in table1_rows(2, 1):
    print("  face %-12s S=%-6s vol=%-4s delta=%s"
          % (row["face"], row["S"], row["vol"],
             tuple(str(d) for d in row["delta"])))

print("\nclosed corner formula, L={2}, U={1,3}, l=2:",
      tuple(corner_increase([2], [1, 3], 1, 2, i) for i in (1, 2, 3)))

# Any regular monotone game grows out of the all-or-nothing game.
result = build_by_increments(v)
print("\nconstructive build: %d box increments, final shares %s"
      % (len(result.steps), result.psi))

# The worked construction, move by move, scored on two independent tracks.
replay = replay_appendix()
print("\nreplay:")
for m in replay.moves:
    print("  move %2d  S=%-6s eps=%-5s his=%s exact=%s"
          % (m.index, sorted(m.increment.coalition), m.increment.epsilon,
             tuple(str(x) for x in m.psi_his),
             tuple(str(x) for x in m.psi_exact)))
print("final game equals target:", replay.final_matches_target)
