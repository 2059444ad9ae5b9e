"""Step games on rectangular grids of the unit square.

Shows construction from box values, evaluation, grid refinement, lattice
operations, coarsening and validation.
"""

from fractions import Fraction as F

from powerdex import (Discretization, appendix_game, boundary_averages,
                      box_keys, coarsen, evaluate_step, join_meet,
                      make_regular_step, psi_exact, refine, validate,
                      zero_game)

# The running example: grid (0, 1/4, 1/2, 1) with box values 0.1 ... 0.9.
v = appendix_game()
print("grid:", [str(a) for a in v.disc.alpha])
print("value at (1/8, 3/4):", evaluate_step(v, (F(1, 8), F(3, 4))))
print("value on the edge x1=1, x2=1/8:", evaluate_step(v, (1, F(1, 8))))
print("validation:", validate(v).ok)

# Exact index and the boundary averages it is built from.
print("shares:", psi_exact(v).shares)
c = boundary_averages(v)
print("C({1}) =", c.get([1]), " C({2}) =", c.get([2]))

# Refining the grid never changes the function.
fine = refine(v, Discretization((F(0), F(1, 8), F(1, 4), F(1, 2), F(1))))
assert evaluate_step(fine, (F(1, 16), F(1, 16))) == F(1, 10)

# Coarsening takes minima over the covered boxes and re-averages the faces.
half = coarsen(v, Discretization((F(0), F(1, 4), F(1))))
print("coarse box values:",
      {b: str(half.box(b)) for b in box_keys(half.n, half.p)})
print("coarse shares:", psi_exact(half).shares)

# Pointwise max/min of two games (here: against the all-or-nothing game).
hi, lo = join_meet(v, zero_game(2))
print("join/meet shares sum:",
      [a + b for a, b in zip(psi_exact(hi).shares, psi_exact(lo).shares)])

# A regular grid build from explicit box values.
tent = make_regular_step(
    Discretization((F(0), F(1, 2), F(1))),
    {(1, 1): F(0), (1, 3): F(1, 4), (3, 1): F(3, 4), (3, 3): F(1)}, 2)
print("asymmetric game shares:", psi_exact(tent).shares)
