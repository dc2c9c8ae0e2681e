"""Walk through the componentwise order and the monotonicity checkers.

Three comparison levels, three shipped maps. The cubic interval map and
the cooperative linear map preserve the order; the logistic map is the
standard counterexample. Run as a script, read top to bottom.
"""

import numpy as np

from monotone_lab import (
    check_monotone,
    check_strong_monotone,
    cubic_map,
    leq,
    linear_cooperative,
    logistic_map,
    order_interval_sample,
    strictly_less,
    strongly_less,
)
from monotone_lab.order import ETA_INTERIOR, TOL_EQ

# ------------------------------------------------------------ relations

coop = linear_cooperative()
x = coop.state([0.1, 0.2])
y = coop.state([0.3, 0.2])
z = coop.state([0.3, 0.4])

print("componentwise order on a 2-node grid")
print(f"  x = {x.values},  y = {y.values},  z = {z.values}")
print(f"  leq(x, y)           = {leq(x, y)}")
print(f"  strictly_less(x, y) = {strictly_less(x, y)}   (equal in node 1)")
print(f"  strongly_less(x, y) = {strongly_less(x, y)}  (no interior gap)")
print(f"  strongly_less(x, z) = {strongly_less(x, z)}   (gap in every node)")

# the tolerances are module constants: the equality slack absorbs
# roundoff, the interior margin certifies a genuine gap
print(f"  tolerances: TOL_EQ = {TOL_EQ:g}, ETA_INTERIOR = {ETA_INTERIOR:g}")
nudge = coop.state(x.values + 1e-11)
print(f"  x vs x + 1e-11: strictly_less = {strictly_less(x, nudge)}, "
      f"strongly_less = {strongly_less(x, nudge)}"
      "  (1e-11 clears TOL_EQ but not ETA_INTERIOR)")

# ------------------------------------------------- order interval draws

lo = coop.state([-0.5, -0.5])
hi = coop.state([0.5, 0.5])
draws = order_interval_sample(lo, hi, count=5, seed=42)
print("\nfive draws from the order interval [lo, hi], reproducible by seed")
for u in draws:
    inside = leq(lo, u) and leq(u, hi)
    print(f"  {np.array2string(u.values, precision=3):24s} inside = {inside}")

# ------------------------------------------------- monotonicity probes

# each check draws ordered pairs x < y inside the trapping box and
# verifies F x <= F y, resp. F x << F y, after one application
print("\nmonotonicity over 200 random ordered pairs")
for system in (cubic_map(), linear_cooperative(), logistic_map()):
    rep = check_monotone(system)
    print(f"  {system.name:20s} monotone: {str(rep.passed):5s} "
          f"violations {rep.violations}/{rep.pairs_tested}, "
          f"worst margin {rep.worst_margin:+.3e}")

print("\nstrong monotonicity needs an interior gap in the image")
for system in (cubic_map(), linear_cooperative()):
    rep = check_strong_monotone(system)
    print(f"  {system.name:20s} strongly monotone: {str(rep.passed):5s} "
          f"worst margin {rep.worst_margin:+.3e}")

# a diagonal matrix with a zero row is monotone but not strongly so:
# node 2 never feels node 1, so the image gap closes
flat = linear_cooperative(matrix=[[0.5, 0.0], [0.0, 0.0]])
rep = check_strong_monotone(flat)
print(f"  decoupled diagonal   strongly monotone: {rep.passed} "
      f"(worst margin {rep.worst_margin:+.3e})")
