"""Discretization structure, stepping accuracy, and tangent consistency."""

import gc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from monotone_lab import (
    ClassifyBudget,
    DimensionMismatchError,
    EscapeError,
    Grid,
    GridError,
    NumericalError,
    StateVector,
    SteppingScheme,
    apply_map,
    build_diffusion,
    build_experiment,
    classify_orbit,
    evaluate,
    load_config,
    parabolic_system,
    propagate_tangent,
)
from monotone_lab.systems import tangent_columns
from shipped import shipped_parabolic

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def discrete_mu1(n):
    # smallest eigenvalue of -A on the dirichlet grid with n interior nodes
    h = 1.0 / (n + 1)
    return 4.0 / (h * h) * np.sin(np.pi * h / 2.0) ** 2


def diffusion_only(n, steps, grid="dirichlet"):
    return parabolic_system(
        grid, n, strength=0.0, modulation=0.0, form="linear",
        steps_per_period=steps, name="diffusion_only",
    )


# ---------------------------------------------------------- operator shape

def test_dirichlet_operator_entries():
    a = build_diffusion(Grid("dirichlet", 8))
    inv = 81.0  # h = 1/9
    np.testing.assert_allclose(np.diag(a), -2.0 * inv)
    np.testing.assert_allclose(np.diag(a, -1), inv)
    np.testing.assert_allclose(np.diag(a, 1), inv)
    assert a[0, -1] == 0.0 and a[-1, 0] == 0.0
    sums = a.sum(axis=1)
    np.testing.assert_allclose(sums[1:-1], 0.0, atol=1e-9)
    assert sums[0] == pytest.approx(-inv)
    assert sums[-1] == pytest.approx(-inv)


def test_neumann_operator_conserves_mass():
    a = build_diffusion(Grid("neumann", 9))
    np.testing.assert_allclose(a.sum(axis=1), 0.0, atol=1e-9)
    inv = 1.0 / Grid("neumann", 9).h ** 2
    assert np.diag(a, 1)[0] == pytest.approx(2.0 * inv)
    assert np.diag(a, -1)[-1] == pytest.approx(2.0 * inv)


def test_ring_operator_is_circulant():
    n = 8
    dense = build_diffusion(Grid("ring", n))
    np.testing.assert_allclose(dense.sum(axis=1), 0.0, atol=1e-9)
    assert dense[0, -1] > 0.0 and dense[-1, 0] > 0.0
    # invariance under the one-node cyclic shift S u = roll(u, 1)
    shift = np.zeros((n, n))
    for i in range(n):
        shift[i, (i - 1) % n] = 1.0
    np.testing.assert_array_equal(dense @ shift, shift @ dense)


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_radial_operator_structure(dim):
    n = 16
    a = build_diffusion(Grid("radial", n, dim=dim))
    assert np.all(np.diag(a, -1) > 0.0)
    assert np.all(np.diag(a, 1) > 0.0)
    inv = float(n * n)
    assert a[0, 0] == pytest.approx(-2.0 * dim * inv)
    assert a[0, 1] == pytest.approx(2.0 * dim * inv)
    sums = a.sum(axis=1)
    # conservation form: interior rows sum to zero, outer row leaks to the
    # eliminated zero boundary
    np.testing.assert_allclose(sums[1:-1], 0.0, atol=1e-6 * inv)
    assert sums[-1] < 0.0


def test_diffusion_rejects_flat_and_tiny_grids():
    with pytest.raises(GridError):
        build_diffusion(Grid("flat", 8))
    with pytest.raises(GridError):
        build_diffusion(Grid("dirichlet", 2))


def test_stepping_scheme_validation():
    SteppingScheme(steps_per_period=1)
    with pytest.raises(ValueError):
        SteppingScheme(steps_per_period=0)


# ------------------------------------------------------- stepping accuracy

def test_pure_diffusion_matches_rational_decay():
    # Crank-Nicolson on the lowest dirichlet mode has the exact discrete
    # amplification ((1 - dt mu/2) / (1 + dt mu/2))^M
    n, m_steps = 31, 200
    system = diffusion_only(n, m_steps)
    xs = system.grid.nodes()
    u0 = np.sin(np.pi * xs)
    out = evaluate(system, system.state(u0))
    mu = discrete_mu1(n)
    dt = 1.0 / m_steps
    factor = ((1.0 - dt * mu / 2.0) / (1.0 + dt * mu / 2.0)) ** m_steps
    measured = out.values / u0
    np.testing.assert_allclose(measured, factor, rtol=1e-10)


def test_pure_diffusion_near_exponential_decay():
    # over one period the CN product should track e^{-mu1} to O(dt^2),
    # about 0.2% at M=200
    system = diffusion_only(31, 200)
    xs = system.grid.nodes()
    u0 = np.sin(np.pi * xs)
    out = evaluate(system, system.state(u0))
    factor = float(out.values[15] / u0[15])
    target = np.exp(-discrete_mu1(31))
    rel = abs(factor - target) / target
    assert rel < 5e-3


def test_time_refinement_is_second_order():
    def run(m_steps):
        system = parabolic_system("dirichlet", 31, 15.0, steps_per_period=m_steps)
        xs = system.grid.nodes()
        u0 = 0.8 * np.sin(np.pi * xs) + 0.3 * np.sin(2 * np.pi * xs)
        return evaluate(system, system.state(u0)).values

    ref = run(3200)
    errs = [np.max(np.abs(run(m) - ref)) for m in (100, 200, 400)]
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 3.2 < r1 < 4.8, (errs, r1)
    assert 3.2 < r2 < 4.8, (errs, r2)


def test_grid_refinement_is_second_order():
    # nested dirichlet grids: nodes of n = 2^k - 1 sit inside the n = 255 grid
    m_steps = 1600

    def run(n):
        system = parabolic_system("dirichlet", n, 15.0, steps_per_period=m_steps)
        xs = system.grid.nodes()
        u0 = 0.8 * np.sin(np.pi * xs) + 0.3 * np.sin(2 * np.pi * xs)
        return evaluate(system, system.state(u0)).values

    ref = run(255)
    errs = []
    for n in (15, 31, 63):
        stride = 256 // (n + 1)
        idx = np.arange(1, n + 1) * stride - 1
        errs.append(np.max(np.abs(run(n) - ref[idx])))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 3.2 < r1 < 4.8, (errs, r1)
    assert 3.2 < r2 < 4.8, (errs, r2)


def test_cycle_rate_converges_under_grid_refinement():
    # the one scheme's rho is the continuum's only if refining space and time
    # leaves it put: the same stable equilibrium at every level, and a rate
    # within 5% of the finest level's (it reads 4.37e-5, 4.52e-5, 4.54e-5)
    levels = []
    for n, m_steps in ((16, 200), (32, 200), (64, 800)):
        system = parabolic_system("dirichlet", n, 15.0, steps_per_period=m_steps)
        start = np.sin(np.pi * system.grid.nodes())
        levels.append(classify_orbit(system, start, ClassifyBudget(400, p_max=8)))
    finest = levels[-1].cycle.rho
    for c in levels:
        assert (c.verdict, c.cycle.period) == ("stable_cycle", 1)
        assert abs(c.cycle.rho - finest) < 0.05 * finest, [lv.cycle.rho for lv in levels]


def test_stepping_requires_parabolic_and_matching_grid(cubic, dirichlet15):
    x = cubic.state([0.2])
    with pytest.raises(ValueError):
        propagate_tangent(x, x, cubic)
    wrong = StateVector(np.zeros(7), Grid("dirichlet", 7))
    with pytest.raises(DimensionMismatchError):
        propagate_tangent(dirichlet15.zero_state(), wrong, dirichlet15)


def test_escape_during_period_integration():
    system = parabolic_system(
        "dirichlet", 15, strength=25.0, modulation=0.0, form="linear",
        name="unstable_linear",
    )
    xs = system.grid.nodes()
    x = system.state(0.5 * np.sin(np.pi * xs))
    with pytest.raises(EscapeError) as info:
        evaluate(system, x)
    assert info.value.sup > 2.0 * system.kappa
    assert info.value.step is not None
    with pytest.raises(EscapeError) as tangent:
        propagate_tangent(x, x, system)
    assert (tangent.value.step, tangent.value.sup) == (info.value.step, info.value.sup)


def test_profile_shape_must_match_grid():
    with pytest.raises(DimensionMismatchError):
        system = parabolic_system("dirichlet", 32, profile=np.ones(5))
        evaluate(system, system.zero_state())


def first_escape_per_step(system, u0):
    """(step, sup) where a plain step-by-step period loop first leaves the box.

    Each step is the period map's one product of the stacked matrix
    [S | Src | -Src] with [u_k; 3/2 f_k; 1/2 f_{k-1}] (the startup step
    f_0 and no history), through np.dot as in the map, so the loop rounds
    as the map does.
    """
    prop = system.kind.propagator
    u = u0[:, None]
    then = np.zeros_like(u)
    for k, amp in enumerate(prop.amps):
        g = np.empty_like(u)
        prop.nl.g_into(u, g, np.empty_like(u))
        now, half = g * prop.nl.factor((1.5 if k else 1.0) * amp), g * prop.nl.factor(0.5 * amp)
        u, then = np.dot(prop.stacked, np.vstack([u, now, then])), half
        sup = float(np.max(np.abs(u)))
        if sup > 2.0 * system.kappa:
            return k, sup
    return None


def test_escape_is_reported_at_its_step():
    exp = build_experiment(load_config(CONFIGS / "dirichlet_linear_unstable.cfg"))
    system = exp.system
    steps = system.kind.scheme.steps_per_period
    start = np.full(system.n, 2.9)
    want_step, want_sup = first_escape_per_step(system, start)
    assert want_step < steps - 1
    with pytest.raises(EscapeError) as info:
        apply_map(system, start, iteration=3)
    err = info.value
    assert (err.iteration, err.step, err.sup) == (3, want_step, want_sup)
    nan_start = np.zeros(system.n)
    nan_start[5] = np.nan
    with pytest.raises(NumericalError, match="at step 0$"):
        apply_map(system, nan_start)
    # in a block, each failing column gets its own error and the rest run on
    xs = system.grid.nodes()
    good = 0.1 * np.sin(np.pi * xs)
    block = np.stack([good, nan_start, start], axis=1)
    out, _, failures = tangent_columns(system, block, iteration=3)
    assert sorted(failures) == [1, 2]
    assert isinstance(failures[1], NumericalError)
    esc = failures[2]
    assert (esc.iteration, esc.step, esc.sup) == (3, want_step, want_sup)
    np.testing.assert_allclose(out[:, 0], apply_map(system, good), rtol=1e-12, atol=1e-15)


def test_one_column_block_reproduces_the_vector_period():
    for name, system in shipped_parabolic().items():
        rng = np.random.default_rng(11)
        for _ in range(4):
            u = rng.uniform(-1.0, 1.0, system.n)
            col = apply_map(system, u[:, None])
            np.testing.assert_array_equal(col[:, 0], apply_map(system, u), err_msg=name)
        block = rng.uniform(-1.0, 1.0, (system.n, 5))
        wide = apply_map(system, block)
        for j in range(5):
            np.testing.assert_allclose(
                wide[:, j], apply_map(system, block[:, j]), rtol=1e-12, atol=1e-15
            )


# ------------------------------------------------------------ tangent map

def test_tangent_is_linear(dirichlet5):
    xs = dirichlet5.grid.nodes()
    x = dirichlet5.state(0.4 * np.sin(np.pi * xs))
    v = dirichlet5.state(np.cos(3.0 * xs))
    w = dirichlet5.state(xs * (1.0 - xs))
    tv = propagate_tangent(x, v, dirichlet5).values
    tw = propagate_tangent(x, w, dirichlet5).values
    combo = propagate_tangent(
        x, dirichlet5.state(2.0 * v.values - 0.5 * w.values), dirichlet5
    ).values
    np.testing.assert_allclose(combo, 2.0 * tv - 0.5 * tw, rtol=1e-12, atol=1e-14)


def test_tangent_matches_divided_differences(dirichlet5):
    xs = dirichlet5.grid.nodes()
    x = dirichlet5.state(0.4 * np.sin(np.pi * xs))
    v = np.sin(2.0 * np.pi * xs)
    eps = 1e-6
    plus = evaluate(dirichlet5, dirichlet5.state(x.values + eps * v)).values
    minus = evaluate(dirichlet5, dirichlet5.state(x.values - eps * v)).values
    fd = (plus - minus) / (2.0 * eps)
    tv = propagate_tangent(x, dirichlet5.state(v), dirichlet5).values
    assert np.max(np.abs(tv - fd)) < 1e-6 * max(1.0, np.max(np.abs(tv)))


def test_tangent_block_and_vector_agree(dirichlet5):
    from monotone_lab import jacobian

    xs = dirichlet5.grid.nodes()
    x = dirichlet5.state(0.2 * np.sin(np.pi * xs))
    jac = jacobian(dirichlet5, x)
    assert jac.shape == (dirichlet5.n, dirichlet5.n)
    for j in (0, dirichlet5.n // 2, dirichlet5.n - 1):
        e = np.zeros(dirichlet5.n)
        e[j] = 1.0
        col = propagate_tangent(x, dirichlet5.state(e), dirichlet5).values
        np.testing.assert_allclose(jac[:, j], col, rtol=1e-12, atol=1e-15)


# ------------------------------------------------------------- concurrency

def test_period_map_is_thread_safe(dirichlet5):
    xs = dirichlet5.grid.nodes()
    states = [
        dirichlet5.state(0.1 * (k + 1) / 16.0 * np.sin(np.pi * xs) + 0.05 * np.sin(2 * np.pi * xs))
        for k in range(16)
    ]
    serial = [evaluate(dirichlet5, s).values for s in states]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda s: evaluate(dirichlet5, s).values, states))
    for a, b in zip(serial, threaded):
        np.testing.assert_array_equal(a, b)


def test_propagator_lives_and_dies_with_its_system():
    system = parabolic_system("dirichlet", 8, 5.0, steps_per_period=10)
    evaluate(system, system.zero_state())
    prop = system.kind.propagator
    # config renames and re-flags specs with dataclasses.replace
    renamed = replace(system, name="renamed")
    assert renamed.kind.propagator is prop
    kind = weakref.ref(system.kind)
    del system, renamed, prop
    gc.collect()
    assert kind() is None
