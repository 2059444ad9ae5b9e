"""Embedding finite games into the unit cube.

Every finite committee game reappears as a step game whose exact index
matches the finite computation; the skewed two-level embedding shows which
part of that statement survives a change of grid.
"""

from fractions import Fraction as F

from powerdex import (JKGame, SimpleGame, boundary_averages, embed_2k_tau,
                      embed_jk, embed_simple_semiregular, psi_exact,
                      ssi_coalition)
from powerdex.indices import jk_boundary_averages

wg = SimpleGame.weighted(3, [2, 1, 1])
print("finite index:           ", ssi_coalition(wg).shares)

# Natural embedding: uniform grid, one box per level profile.
as_jk = JKGame.from_simple(wg)
natural = embed_jk(as_jk)
print("embedded on", [str(a) for a in natural.disc.alpha], "->",
      psi_exact(natural).shares)

# The single-box winning-set embedding gives the same shares.
semi = embed_simple_semiregular(wg)
print("winning-set embedding:  ", psi_exact(semi).shares)

# Two-level games admit any interior breakpoint: shares are tau-invariant.
for tau in (F(1, 4), F(1, 2), F(3, 4)):
    skewed = embed_2k_tau(as_jk, tau)
    print(f"tau = {tau}: shares", psi_exact(skewed).shares)

# ... but the underlying boundary-average tables coincide at tau = 1/2 only.
maj = JKGame.from_simple(SimpleGame.weighted(2, [1, 1]))
discrete = jk_boundary_averages(maj)
print("\ndiscrete C({1}):", discrete.get([1]))
for tau in (F(1, 2), F(1, 4)):
    table = boundary_averages(embed_2k_tau(maj, tau)).table
    print(f"tau = {tau}: embedded C({{1}}) = {table[0b01]}, "
          f"shares = {psi_exact(embed_2k_tau(maj, tau)).shares}")
