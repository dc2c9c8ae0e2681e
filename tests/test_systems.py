"""System constructors, the catalog, evaluation, and assumption validators."""

import numpy as np
import pytest

from monotone_lab import (
    AnalyticScalar,
    DimensionMismatchError,
    EscapeError,
    Grid,
    GridError,
    LinearCooperative,
    Nonlinearity,
    Parabolic,
    SystemSpec,
    apply_map,
    catalog,
    check_strong_positivity,
    cubic_map,
    evaluate,
    jacobian,
    linear_cooperative,
    logistic_map,
    negation_map,
    parabolic_catalog,
    parabolic_system,
    spatial_profile,
    trapping_check,
    validate_dissipativity,
)


# ----------------------------------------------------------- construction

def test_nonlinearity_validation():
    Nonlinearity(form="cubic", strength=5.0, modulation=0.3)
    with pytest.raises(ValueError):
        Nonlinearity(form="quartic")
    with pytest.raises(ValueError):
        Nonlinearity(modulation=1.0)
    with pytest.raises(ValueError):
        Nonlinearity(form="custom")


def test_forcing_has_mean_one():
    nl = Nonlinearity(form="cubic", modulation=0.3)
    ts = np.linspace(0.0, 1.0, 20001)
    avg = np.trapezoid(nl.forcing(ts, 1.0), ts)
    assert avg == pytest.approx(1.0, abs=1e-10)
    assert nl.forcing(0.0, 1.0) == pytest.approx(1.0)
    assert nl.forcing(0.25, 1.0) == pytest.approx(1.3)


@pytest.mark.parametrize("form", ["cubic", "linear"])
@pytest.mark.parametrize("profile", ["none", "wave"])
def test_rate_du_matches_central_differences(form, profile):
    grid = Grid("ring", 16)
    prof = spatial_profile(grid, profile)
    nl = Nonlinearity(form=form, strength=5.0, modulation=0.3, profile=prof)
    amp = nl.amplitude(0.2, 1.0)
    u = 1.2 * np.sin(2.0 * np.pi * grid.nodes()) + 0.1
    g = u - u**3 if form == "cubic" else u
    scale = 1.0 if prof is None else prof
    np.testing.assert_allclose(nl.rate(amp, u), amp * scale * g, rtol=1e-14, atol=1e-13)
    eps = 1e-6
    fd = (nl.rate(amp, u + eps) - nl.rate(amp, u - eps)) / (2.0 * eps)
    np.testing.assert_allclose(nl.rate_du(amp, u), fd, rtol=1e-8, atol=1e-8)
    # a block holds one state per column, the profile multiplies each column
    block = np.stack([u, -0.5 * u, u + 0.3], axis=1)
    for fn in (nl.rate, nl.rate_du):
        out = fn(amp, block)
        for j in range(block.shape[1]):
            np.testing.assert_array_equal(out[:, j], fn(amp, block[:, j]))


def test_scalar_families_closed_forms():
    cub = AnalyticScalar("cubic", 0.1)
    assert cub.value(0.0) == 0.0
    assert cub.value(1.0) == 1.0
    assert cub.deriv(0.0) == pytest.approx(1.1)
    assert cub.deriv(1.0) == pytest.approx(0.8)
    log = AnalyticScalar("logistic", 3.2)
    u = 0.3
    assert log.value(u) == pytest.approx(3.2 * u * (1 - u))
    assert log.deriv(u) == pytest.approx(3.2 * (1 - 2 * u))
    neg = AnalyticScalar("negation")
    assert neg.value(0.7) == -0.7
    with pytest.raises(ValueError):
        AnalyticScalar("tent")


def test_linear_cooperative_validation():
    LinearCooperative(np.array([[0.5, 0.2], [0.2, 0.5]]))
    with pytest.raises(ValueError):
        LinearCooperative(np.array([[0.5, -0.1], [0.2, 0.5]]))
    with pytest.raises(ValueError):
        LinearCooperative(np.ones((2, 3)))


def test_parabolic_validation():
    grid = Grid("dirichlet", 16)
    nl = Nonlinearity(form="cubic", strength=5.0)
    Parabolic(grid, nl)
    with pytest.raises(GridError):
        Parabolic(Grid("flat", 4), nl)
    with pytest.raises(ValueError):
        Parabolic(grid, nl, tau=0.0)
    with pytest.raises(ValueError):
        Parabolic(grid, nl, diffusivity=-1.0)


def test_system_spec_helpers(cubic, coop, dirichlet15):
    assert cubic.grid == Grid("flat", 1)
    assert coop.grid == Grid("flat", 2)
    assert dirichlet15.grid == Grid("dirichlet", 32)
    assert dirichlet15.n == 32
    z = coop.zero_state()
    assert z.sup_norm() == 0.0
    x = cubic.state(0.25)
    assert x.values.shape == (1,)
    with pytest.raises(ValueError, match="kappa must be positive"):
        SystemSpec(AnalyticScalar("cubic", 0.1), kappa=0.0)
    with pytest.raises(ValueError, match="kappa must be positive"):
        SystemSpec(AnalyticScalar("cubic", 0.1), kappa=np.nan)
    with pytest.raises(ValueError, match="kappa must be finite"):
        SystemSpec(AnalyticScalar("cubic", 0.1), kappa=np.inf)


def test_named_profiles():
    grid = Grid("dirichlet", 8)
    assert spatial_profile(grid, "none") is None
    ramp = spatial_profile(grid, "ramp")
    assert np.all(ramp > 0.0) and ramp[-1] > ramp[0]
    wave = spatial_profile(grid, "wave")
    assert np.all(wave > 0.0)
    with pytest.raises(ValueError):
        spatial_profile(grid, "bump")


# ---------------------------------------------------------------- catalog

def test_catalog_contents(cat):
    expected = {
        "cubic_map", "logistic_map", "linear_cooperative",
        "dirichlet_cubic_5", "dirichlet_cubic_15", "neumann_cubic_5",
        "ring_cubic_5", "radial_cubic_15",
    }
    assert set(cat) == expected
    for key, system in cat.items():
        assert system.name == key
    assert set(parabolic_catalog()) == {
        "dirichlet_cubic_5", "dirichlet_cubic_15", "neumann_cubic_5",
        "ring_cubic_5", "radial_cubic_15",
    }


def test_catalog_parameters(cat):
    assert cat["logistic_map"].kappa == 1.0
    assert cat["logistic_map"].monotone_expected is False
    assert cat["ring_cubic_5"].kind.nonlinearity.strength == 5.0
    assert cat["radial_cubic_15"].grid.dim == 3
    assert cat["dirichlet_cubic_15"].kind.scheme.steps_per_period == 200
    assert negation_map().monotone_expected is False


def test_parabolic_system_default_name():
    system = parabolic_system("neumann", 16, 7.5)
    assert system.name == "neumann_cubic_7.5"
    named = parabolic_system("neumann", 16, 7.5, name="custom")
    assert named.name == "custom"


# ------------------------------------------------------------- evaluation

def test_evaluate_scalar_maps(cubic, logistic):
    y = evaluate(cubic, cubic.state(0.5))
    assert y.values[0] == pytest.approx(0.5 + 0.1 * 0.5 * 0.75)
    z = evaluate(logistic, logistic.state(0.5))
    assert z.values[0] == pytest.approx(0.8)


def test_apply_map_matches_evaluate(coop, dirichlet5):
    x = np.array([0.3, -0.2])
    np.testing.assert_array_equal(
        apply_map(coop, x), evaluate(coop, coop.state(x)).values
    )
    xs = dirichlet5.grid.nodes()
    u = 0.3 * np.sin(np.pi * xs)
    np.testing.assert_array_equal(
        apply_map(dirichlet5, u), evaluate(dirichlet5, dirichlet5.state(u)).values
    )


def test_evaluate_rejects_wrong_grid(cubic, coop):
    with pytest.raises(DimensionMismatchError):
        evaluate(cubic, coop.zero_state())


def test_escape_error_reports_iteration_and_sup():
    system = linear_cooperative(matrix=[[4.0]], kappa=1.0)
    with pytest.raises(EscapeError) as info:
        apply_map(system, np.array([0.9]), iteration=17)
    assert info.value.iteration == 17
    assert info.value.sup == pytest.approx(3.6)


def test_jacobian_closed_forms(cubic, logistic, coop):
    assert jacobian(cubic, cubic.state(0.0))[0, 0] == pytest.approx(1.1)
    assert jacobian(cubic, cubic.state(1.0))[0, 0] == pytest.approx(0.8)
    assert jacobian(logistic, logistic.state(0.25))[0, 0] == pytest.approx(1.6)
    mat = jacobian(coop, coop.zero_state())
    np.testing.assert_allclose(mat, [[0.5, 0.2], [0.2, 0.5]])
    mat[0, 0] = 99.0  # returned copy must not alias the system matrix
    np.testing.assert_allclose(coop.kind.matrix, [[0.5, 0.2], [0.2, 0.5]])


# -------------------------------------------------------------- validators

def test_dissipativity_holds_on_catalog_scalars(cat):
    for name in ("cubic_map", "dirichlet_cubic_15", "ring_cubic_5"):
        rep = validate_dissipativity(cat[name], sample_count=200, seed=7083)
        assert rep.passed, (name, rep.to_json())
        assert rep.worst_margin < 0.0


def test_dissipativity_fails_for_linear_growth():
    system = parabolic_system(
        "dirichlet", 15, strength=5.0, modulation=0.0, form="linear",
        name="growth",
    )
    rep = validate_dissipativity(system, sample_count=100, seed=1)
    assert not rep.passed
    assert rep.violations == rep.pairs_tested  # u * (strength u) >= 0 everywhere


def test_dissipativity_rejects_matrix_systems(coop):
    with pytest.raises(ValueError):
        validate_dissipativity(coop)


def test_trapping_holds_for_cubic(cubic):
    rep = trapping_check(cubic, horizon=100, sample_count=20, seed=7084)
    assert rep.passed, rep.to_json()
    assert rep.worst_margin < 0.0


def test_trapping_fails_for_expanding_map():
    system = linear_cooperative(matrix=[[2.0]], kappa=1.0)
    rep = trapping_check(system, horizon=50, sample_count=10, seed=3)
    assert not rep.passed
    assert rep.violations == 10
    assert rep.worst_margin == np.inf


def per_start_trapping(system, states, horizon):
    """(violations, worst) of the trapping check, one start at a time."""
    violations, worst = 0, -np.inf
    for x in states:
        exited = False
        try:
            y = x
            for _ in range(horizon):
                y = evaluate(system, y)
                worst = max(worst, y.sup_norm() - system.kappa)
                exited = exited or y.sup_norm() > system.kappa
        except EscapeError:
            exited, worst = True, np.inf
        violations += exited
    return violations, worst


def test_trapping_block_matches_per_start_orbits(ring5):
    rng = np.random.default_rng(4)
    states = [ring5.state(rng.uniform(-1.4, 1.4, ring5.n)) for _ in range(6)]
    rep = trapping_check(ring5, horizon=15, initial_states=states)
    violations, worst = per_start_trapping(ring5, states, 15)
    assert rep.pairs_tested == 6
    assert rep.violations == violations
    assert rep.worst_margin == pytest.approx(worst, rel=1e-9)
    # starts that leave the inflated box count as exits with margin inf
    wild = parabolic_system("dirichlet", 16, strength=25.0, form="linear")
    xs = wild.grid.nodes()
    mixed = [wild.state(a * np.sin(np.pi * xs)) for a in (0.001, 0.5, 0.0)]
    rep = trapping_check(wild, horizon=3, initial_states=mixed)
    assert (rep.violations, rep.worst_margin) == per_start_trapping(wild, mixed, 3)
    assert rep.violations == 2
    with pytest.raises(DimensionMismatchError):
        trapping_check(ring5, horizon=1, initial_states=[wild.zero_state()])


def test_strong_positivity_on_catalog(cubic, coop, dirichlet5):
    for system in (cubic, coop, dirichlet5):
        rep = check_strong_positivity(system, probe_count=20, seed=7085)
        assert rep.passed, (system.name, rep.to_json())
        assert rep.worst_margin > 1e-12


def test_strong_positivity_detects_sign_flips():
    rep = check_strong_positivity(negation_map(), probe_count=10, seed=2)
    assert not rep.passed
    assert rep.worst_margin < 0.0
