"""Convergence evidence for the period-map solver.

The period map advances the reaction-diffusion problem

    u_t = kappa_d u_xx + a(t) * strength * g(u) * profile(x)

through one forcing period with Crank-Nicolson diffusion and
Adams-Bashforth reaction. Three checks, in increasing strength:

1. with the reaction off, the lowest Dirichlet mode decays by the exact
   rational Crank-Nicolson factor, down to solver roundoff;
2. that factor sits within O(dt^2) of exp(-mu_1), about 0.2% at M=200;
3. with the cubic reaction on, halving dt or h divides the error by
   about 4, the order-2 signature.
"""

import numpy as np

from monotone_lab import evaluate, parabolic_system

# --------------------------------------- exact rational decay, n=31

n, m_steps = 31, 200
system = parabolic_system(
    "dirichlet", n, strength=0.0, modulation=0.0, form="linear",
    steps_per_period=m_steps, name="diffusion_only",
)
xs = system.grid.nodes()
u0 = np.sin(np.pi * xs)
out = evaluate(system, system.state(u0))

h = 1.0 / (n + 1)
mu1 = 4.0 / h ** 2 * np.sin(np.pi * h / 2.0) ** 2
dt = 1.0 / m_steps
cn = ((1.0 - dt * mu1 / 2.0) / (1.0 + dt * mu1 / 2.0)) ** m_steps
measured = out.values[n // 2] / u0[n // 2]

print("pure diffusion, Dirichlet n=31, lowest sine mode, one period")
print(f"  discrete mu_1            {mu1:.6f}")
print(f"  measured decay factor    {measured:.12e}")
print(f"  Crank-Nicolson product   {cn:.12e}")
print(f"  relative gap             {abs(measured - cn) / cn:.2e}   (roundoff)")
print(f"  exp(-mu_1)               {np.exp(-mu1):.12e}")
print(f"  gap to exp(-mu_1)        {abs(measured - np.exp(-mu1)) / np.exp(-mu1):.2e}"
      "   (the O(dt^2) time error)")

# ----------------------------------------- time refinement, reaction on


def run_time(m):
    s = parabolic_system("dirichlet", 31, 15.0, steps_per_period=m)
    x = s.grid.nodes()
    w0 = 0.8 * np.sin(np.pi * x) + 0.3 * np.sin(2 * np.pi * x)
    return evaluate(s, s.state(w0)).values


print("\ntime refinement, cubic reaction at strength 15, reference M=3200")
ref = run_time(3200)
errs = []
for m in (100, 200, 400):
    err = float(np.max(np.abs(run_time(m) - ref)))
    errs.append(err)
    line = f"  M={m:4d}  sup error {err:.3e}"
    if len(errs) > 1:
        line += f"   ratio {errs[-2] / errs[-1]:.3f}"
    print(line)

# ----------------------------------------- grid refinement, reaction on


def run_grid(nn):
    s = parabolic_system("dirichlet", nn, 15.0, steps_per_period=1600)
    x = s.grid.nodes()
    w0 = 0.8 * np.sin(np.pi * x) + 0.3 * np.sin(2 * np.pi * x)
    return evaluate(s, s.state(w0)).values


print("\ngrid refinement, same system, reference n=255 at M=1600")
ref = run_grid(255)
errs = []
for nn in (15, 31, 63):
    # coarse nodes are a stride of the n=255 lattice, so compare there
    stride = 256 // (nn + 1)
    idx = np.arange(1, nn + 1) * stride - 1
    err = float(np.max(np.abs(run_grid(nn) - ref[idx])))
    errs.append(err)
    line = f"  n={nn:3d}  sup error {err:.3e}"
    if len(errs) > 1:
        line += f"   ratio {errs[-2] / errs[-1]:.3f}"
    print(line)

print("\nratios near 4 on both axes: the stepper is second order in dt and h")
