"""Closed-form multipliers of the period map at constant equilibria.

g(u) = u - u^3 vanishes at 0 and +-1, and the Neumann and ring stencils
annihilate constants, so u = +-1 are equilibria there and u = 0 is one on
every grid. Linearised at such a state c the scheme splits along the
eigenvectors of the diffusion matrix: mode lambda of
``diffusivity * build_diffusion(grid)`` is a scalar two-term recurrence,
and the exact (time-continuous) multiplier of the mode is
exp((g'(c) * strength + lambda) * tau), the forcing having mean one.
"""

import numpy as np
import pytest

from monotone_lab import build_diffusion, cycle_spectral_radius, jacobian, parabolic_system

# g'(c) of the cubic reaction at its zeros
SLOPE = {0.0: 1.0, 1.0: -2.0, -1.0: -2.0}

# (shipped system, equilibrium): radial annihilates no constant, so only 0
EQUILIBRIA = [
    ("neumann_cubic_5", 1.0),
    ("neumann_cubic_5", -1.0),
    ("neumann_cubic_5", 0.0),
    ("ring_cubic_5", 1.0),
    ("ring_cubic_5", 0.0),
    ("dirichlet_cubic_15", 0.0),
    ("radial_cubic_15", 0.0),
]


def _modes(par):
    """Eigenvalues of the diffusion part of the scheme, ascending."""
    return np.sort(np.linalg.eigvals(par.diffusivity * build_diffusion(par.grid)).real)


def _discrete_multipliers(par, c):
    """Per-period product of each mode's CN/AB2 recurrence at the state c.

    With a_k the reaction slope g'(c) * amplitude at step k, a step maps
    v_{k+1} = s v_k + r (w_k a_k v_k - a_{k-1} v_{k-1} / 2): the startup
    step weighs a_0 by one and carries no history, every later step weighs
    its own slope by 3/2 and hands half of it to the next one.
    """
    lam = _modes(par)
    m = par.scheme.steps_per_period
    dt = par.tau / m
    s = (1.0 + 0.5 * dt * lam) / (1.0 - 0.5 * dt * lam)
    r = dt / (1.0 - 0.5 * dt * lam)
    a = SLOPE[c] * par.nonlinearity.amplitude(dt * np.arange(m), par.tau)
    v, hist = np.ones_like(lam), np.zeros_like(lam)
    for k in range(m):
        v, hist = s * v + r * ((1.5 if k else 1.0) * a[k] * v - hist), 0.5 * a[k] * v
    return v


@pytest.mark.parametrize("name, c", EQUILIBRIA)
def test_jacobian_spectrum_is_the_discrete_closed_form(cat, name, c):
    system = cat[name]
    jac = jacobian(system, system.state(np.full(system.n, c)))
    got = np.sort(np.linalg.eigvals(jac).real)
    want = np.sort(_discrete_multipliers(system.kind, c))
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


@pytest.mark.parametrize("domain, n, strength, c", [
    ("neumann", 32, 5.0, 1.0),
    ("ring", 16, 5.0, 0.0),
    ("dirichlet", 32, 15.0, 0.0),
])
def test_spectral_radius_converges_to_the_closed_form_at_order_2(domain, n, strength, c):
    errors = []
    for m in (100, 200, 400, 800):
        system = parabolic_system(domain, n, strength, steps_per_period=m)
        exact = np.exp((SLOPE[c] * strength + _modes(system.kind)[-1]) * system.kind.tau)
        rho = cycle_spectral_radius(system, np.full((1, n), c))
        errors.append(abs(rho - exact) / exact)
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios
