"""Monte Carlo test of the prediction that stable behavior is typical.

For a strongly monotone map, convergence to a linearly stable cycle is
predicted for almost every initial state, in the measure-theoretic sense
of prevalence. The ensemble estimator samples initial states, classifies
each orbit, and aggregates verdict counts with a Wilson interval on the
stable fraction. Samples advance through the map in lockstep blocks, and
sampling is deterministic per (seed, index), so reports are byte-identical
across runs, wall time aside.
"""

from monotone_lab import (
    ClassifyBudget,
    box_uniform,
    cubic_map,
    estimate_prevalence,
    parabolic_system,
    smooth_field,
)

# --------------------------------------------- scalar map, box draws

# the only orbit that fails to reach a stable fixed point starts at the
# exact repeller 0, a Lebesgue-null event under box sampling
cubic = cubic_map()
rep = estimate_prevalence(
    cubic,
    sampler=box_uniform(amplitude=1.4, seed=2024),
    count=400,
    budget=ClassifyBudget(max_iterations=200, p_max=8),
)
print("cubic map, 400 uniform draws on [-1.4, 1.4]")
for verdict, k in rep.counts.items():
    print(f"  {verdict:14s} {k:4d}")
lo, hi = rep.wilson_95
print(f"  stable fraction {rep.stable_fraction:.4f}, "
      f"Wilson 95% [{lo:.4f}, {hi:.4f}]")
print(f"  period histogram {rep.period_histogram}")

# ------------------------------------ parabolic map, smooth profiles

# random low-mode profiles inside the trapping box; the orbits advance
# together as the columns of one block, and each sample whose cycle is
# detected runs the polish/grade pipeline on its own
system = parabolic_system("dirichlet", 31, 15.0)
rep = estimate_prevalence(
    system,
    sampler=smooth_field(amplitude=0.8, modes=6, seed=2024),
    count=150,
    budget=ClassifyBudget(max_iterations=400, p_max=8),
)
print("\nDirichlet cubic period map, 150 smooth random profiles")
for verdict, k in rep.counts.items():
    print(f"  {verdict:14s} {k:4d}")
lo, hi = rep.wilson_95
print(f"  stable fraction {rep.stable_fraction:.4f}, "
      f"Wilson 95% [{lo:.4f}, {hi:.4f}]")
print("  spectral radius histogram, occupied bins only:")
edges = rep.rho_histogram["edges"]
for i, k in enumerate(rep.rho_histogram["counts"]):
    if k:
        print(f"    [{edges[i]:.2f}, {edges[i + 1]:.2f})  {k:4d}")
if rep.rho_histogram["overflow"]:
    print(f"    overflow          {rep.rho_histogram['overflow']:4d}")
print(f"  wall time {rep.wall_time:.1f} s")
print(f"  caveat: {rep.caveat}")

# ------------------------------------------------------ export shapes

doc = rep.to_json()
print("\nJSON export keys:", ", ".join(doc))
print("CSV export:")
print(rep.to_csv())
