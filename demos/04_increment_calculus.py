"""The increment calculus: how local changes of a game move the shares.

Verifies one local increment and shows the witness of a wrong claim,
raises single boxes, tabulates the face effects, applies the closed corner
formula, rebuilds a game from nothing, and replays the worked two-player
construction with dual verification.
"""

import itertools
from fractions import Fraction as F

from powerdex import (Discretization, apply_box_increment, appendix_game,
                      build_by_increments, check_local_increment, coarsen,
                      corner_increase, his_delta, make_regular_step,
                      potential_influence, psi_exact, refine,
                      regular_completion, replay_appendix, table1_rows,
                      uniform_grid)
from powerdex.increments import Domain, LocalIncrement

v = appendix_game()
print("potential influence of {1} at x2=1/8:",
      potential_influence(v, [1], [F(1, 8)]))

# A local increment shifts shares by +/- constants * eps * vol(D).
inc = LocalIncrement(2, frozenset({2}), F(1, 10), Domain.of({1: (0, F(1, 4))}))
print("predicted shift:", his_delta(inc).shares)

# That is the appendix move u2 -> u3: +1/10 on the x2 = 1 edge over
# (0, 1/4).  The check compares every coalition's influence before and
# after; a wrong epsilon comes back with the face where it fails.
grid = Discretization((F(0), F(1, 4), F(1)))
u2 = refine(coarsen(v, grid), grid)
u3 = u2.with_values({(1, 4): regular_completion(u2, (1, 4)) + F(1, 10),
                     (2, 4): regular_completion(u2, (2, 4)) + F(1, 20)})
print("appendix move verified:", check_local_increment(u2, u3, inc)[0])
wrong = LocalIncrement(2, frozenset({2}), F(1, 5), inc.domain)
ok, witness = check_local_increment(u2, u3, wrong)
print("eps = 1/5 verified:", ok)
print("  witness: T=%s face=%s point=(%s) expected=%s got=%s"
      % (witness["T"], witness["face"], ", ".join(map(str, witness["point"])),
         witness["expected"], witness["got"]))

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
