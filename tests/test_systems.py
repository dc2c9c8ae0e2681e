"""System constructors, the shipped configs, evaluation, and assumption validators."""

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
    NumericalError,
    Parabolic,
    SystemSpec,
    apply_map,
    build_experiment,
    check_monotone,
    check_strong_positivity,
    cubic_map,
    evaluate,
    jacobian,
    linear_cooperative,
    load_config,
    logistic_map,
    negation_map,
    parabolic_system,
    spatial_profile,
    trapping_check,
    validate_dissipativity,
)
from monotone_lab.config import SECTIONS
from monotone_lab.systems import tangent_columns
from shipped import CONFIGS, FILES, shipped_parabolic


# ----------------------------------------------------------- construction

def test_nonlinearity_validation():
    Nonlinearity(form="cubic", strength=5.0, modulation=0.3)
    with pytest.raises(ValueError):
        Nonlinearity(form="quartic")
    with pytest.raises(ValueError):
        Nonlinearity(modulation=1.0)
    with pytest.raises(ValueError):
        Nonlinearity(form="custom")


@pytest.mark.parametrize("bad", [
    np.full(16, np.nan),
    np.r_[np.ones(15), np.nan],
    np.r_[np.ones(15), 0.0],
    np.r_[-np.ones(8), np.ones(8)],
    np.r_[np.ones(15), np.inf],
    np.ones((16, 1)),
    np.array(1.0),
])
def test_profile_must_be_finite_positive_and_flat(bad):
    with pytest.raises(ValueError, match="spatial profile"):
        Nonlinearity(profile=bad)
    with pytest.raises(ValueError, match="spatial profile"):
        parabolic_system("ring", 16, 5.0, profile=bad)


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

    def reaction(u):
        """g_into's g and du, each times factor, as the step loop forms them."""
        block = u.reshape(len(u), -1)
        g, du, sq = (np.empty_like(block) for _ in range(3))
        nl.g_into(block, g, sq, du)
        return (g * nl.factor(amp)).reshape(u.shape), (du * nl.factor(amp)).reshape(u.shape)

    u = 1.2 * np.sin(2.0 * np.pi * grid.nodes()) + 0.1
    g = u - u**3 if form == "cubic" else u
    scale = 1.0 if prof is None else prof
    np.testing.assert_allclose(reaction(u)[0], amp * scale * g, rtol=1e-14, atol=1e-13)
    eps = 1e-6
    fd = (reaction(u + eps)[0] - reaction(u - eps)[0]) / (2.0 * eps)
    np.testing.assert_allclose(reaction(u)[1], fd, rtol=1e-8, atol=1e-8)
    # a block holds one state per column, the profile multiplies each column
    block = np.stack([u, -0.5 * u, u + 0.3], axis=1)
    for out, want in zip(reaction(block), zip(*(reaction(col) for col in block.T))):
        for j in range(block.shape[1]):
            np.testing.assert_array_equal(out[:, j], want[j])


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
    with pytest.raises(ValueError, match="so must the box width 2 kappa"):
        SystemSpec(AnalyticScalar("cubic", 0.1), kappa=1e308)


def test_named_profiles():
    grid = Grid("dirichlet", 8)
    assert spatial_profile(grid, "none") is None
    ramp = spatial_profile(grid, "ramp")
    assert np.all(ramp > 0.0) and ramp[-1] > ramp[0]
    wave = spatial_profile(grid, "wave")
    assert np.all(wave > 0.0)
    with pytest.raises(ValueError):
        spatial_profile(grid, "bump")


# ---------------------------------------------------------- shipped configs

# config key -> the value a built system holds for it
SYSTEM_READS = {
    "kappa": lambda s: s.kappa,
    "name": lambda s: s.name,
    "gain": lambda s: s.kind.param,
    "r": lambda s: s.kind.param,
    "matrix": lambda s: ";".join(",".join(f"{v:g}" for v in row) for row in s.kind.matrix),
    "nonlinearity": lambda s: s.kind.nonlinearity.form,
    "strength": lambda s: s.kind.nonlinearity.strength,
    "modulation": lambda s: s.kind.nonlinearity.modulation,
    "domain": lambda s: s.grid.kind,
    "n": lambda s: s.grid.n,
    "radial_dimension": lambda s: s.grid.dim,
    "tau": lambda s: s.kind.tau,
    "steps_per_period": lambda s: s.kind.scheme.steps_per_period,
}


def test_catalog_contents(cat):
    # one shipped system per file of FILES, each under a name of its own;
    # a config outside FILES samples a shipped system, built alike, or
    # names the system it was made for (one that fails a check)
    assert len(cat) == len(FILES)
    assert set(shipped_parabolic()) == {
        name for name, system in cat.items() if isinstance(system.kind, Parabolic)
    }
    others = sorted(p for p in CONFIGS.glob("*.cfg") if p.stem not in FILES)
    assert others
    for path in others:
        system = build_experiment(load_config(path)).system
        if system.name in cat:
            assert repr(system) == repr(cat[system.name]), path.name
        else:
            assert system.name == path.stem


def test_catalog_parameters(cat):
    # every system key of a shipped config reaches the system built from it
    for stem, (name, system) in zip(FILES, cat.items()):
        cfg = load_config(CONFIGS / f"{stem}.cfg")
        for section in ("system", "grid", "time"):
            for key, text in cfg.get(section, {}).items():
                if key != "kind":
                    want = SECTIONS[section][key](text)
                    assert SYSTEM_READS[key](system) == want, (stem, key)
        # the library's defaults for what the configs leave out
        assert system.monotone_expected == (name != "logistic_map"), name
    assert cat["logistic_map"].kappa == 1.0
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


def loop_image(system, col):
    """One column's image under a closed-form kind, the formulas written out."""
    kind = system.kind
    if isinstance(kind, LinearCooperative):
        return kind.matrix @ col
    if kind.family == "cubic":
        return col + kind.param * col * (1.0 - col * col)
    return kind.param * col * (1.0 - col)


def loop_failures(system, u, iteration):
    """The failures of one map call, looked for one column at a time."""
    bound = 2.0 * system.kappa
    failures = {}
    for j, col in enumerate(u.reshape(system.n, -1).T):
        sup = float(np.max(np.abs(loop_image(system, col))))
        if not np.isfinite(sup):
            failures[j] = NumericalError("map produced a non-finite value")
        elif sup > bound:
            failures[j] = EscapeError(
                f"image left the inflated trapping box (sup {sup:.3g} > {bound:.3g})",
                iteration=iteration, sup=sup,
            )
    return failures


def failure_facts(failures):
    return {j: (type(exc), str(exc), getattr(exc, "iteration", None), getattr(exc, "sup", None))
            for j, exc in failures.items()}


@pytest.mark.parametrize("make", [cubic_map, logistic_map, linear_cooperative])
def test_map_failures_match_a_per_column_reference(make):
    base = make()
    n = base.n
    edge = np.full(n, 1.3)
    # kappa set so that the image of edge sits at exactly 2 kappa
    sup_edge = float(np.max(np.abs(loop_image(base, edge))))
    system = SystemSpec(base.kind, kappa=sup_edge / 2.0, name=base.name)
    assert 2.0 * system.kappa == sup_edge
    above = edge.copy()  # the nearest start whose image is above it
    while np.max(np.abs(loop_image(system, above))) <= sup_edge:
        above = np.nextafter(above, np.inf)
    inside = np.random.default_rng(5).uniform(0.0, 0.5, (n, 3))
    cols = [inside[:, 0], np.full(n, np.nan), inside[:, 1], np.full(n, np.inf),
            edge, above, inside[:, 2]]
    block = np.stack(cols, axis=1)
    cases = [block, block[:, [0, 2, 4, 6]], block[:, :0], edge, above,
             np.full(n, np.nan), np.full(n, np.inf)]
    cases += [block[:, [j]] for j in range(block.shape[1])]
    for u in cases:
        with np.errstate(over="ignore", invalid="ignore"):  # the NaN and inf columns
            want = loop_failures(system, u, 7)
            y, _, got = tangent_columns(system, u, iteration=7)
        assert y.shape == u.shape
        assert failure_facts(got) == failure_facts(want), u
        if u is block:
            assert sorted(want) == [1, 3, 5]
            assert [type(want[j]) for j in (1, 3, 5)] == [NumericalError] * 2 + [EscapeError]


@pytest.mark.parametrize(
    "make", [cubic_map, logistic_map, lambda: parabolic_system("dirichlet", 8, 15.0)],
    ids=["cubic_map", "logistic_map", "dirichlet_8"],
)
def test_a_huge_or_infinite_state_raises_numerical_error_unwarned(make):
    # the suite turns numpy's overflow and invalid-value warnings into errors;
    # the parabolic failures come from the propagator's guarded replay
    system = make()
    for value in (np.inf, -np.inf, np.nan, 1e200):
        with pytest.raises(NumericalError, match="non-finite"):
            apply_map(system, np.full(system.n, value))
        failures = tangent_columns(system, np.full((system.n, 2), value))[2]
        assert [type(failures.get(j)) for j in (0, 1)] == [NumericalError] * 2
    with pytest.raises(NumericalError, match="non-finite"):
        evaluate(system, system.state(np.full(system.n, 1e200)))
    with pytest.raises(NumericalError, match="non-finite"):
        jacobian(system, system.state(np.full(system.n, 1e200)))


def test_monotone_check_on_no_pairs(cubic):
    report = check_monotone(cubic_map(), pair_count=0)
    assert report.passed and report.violations == 0


def test_cubic_value_keeps_the_bits_of_the_formula():
    cub = AnalyticScalar("cubic", 0.1)
    rng = np.random.default_rng(3)
    # thousands of values: a reordered product changes about one in thirty
    shapes = ((7,), (1, 107), (3, 5), (64, 128))
    arrays = [rng.uniform(-2.0, 2.0, shape) for shape in shapes]
    arrays += [np.array(0.3), np.array(-1.0), np.array(0.0), np.zeros((1, 0))]
    for u in arrays:
        before = u.copy()
        got, want = cub.value(u), u + 0.1 * u * (1.0 - u * u)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert u.tobytes() == before.tobytes()  # the input is not written
    for x in (0.0, 1.0, -1.0, 0.3, -0.7, 1.2345678901234567):
        got = cub.value(x)
        assert type(got) is float
        assert got.hex() == (x + 0.1 * x * (1.0 - x * x)).hex()


def test_jacobian_closed_forms(cubic, logistic, coop):
    gain, r = cubic.kind.param, logistic.kind.param
    assert jacobian(cubic, cubic.state(0.0))[0, 0] == pytest.approx(1.0 + gain)
    assert jacobian(cubic, cubic.state(1.0))[0, 0] == pytest.approx(1.0 - 2.0 * gain)
    assert jacobian(logistic, logistic.state(0.25))[0, 0] == pytest.approx(r / 2.0)
    matrix = coop.kind.matrix.copy()
    mat = jacobian(coop, coop.zero_state())
    np.testing.assert_allclose(mat, matrix)
    mat[0, 0] = 99.0  # returned copy must not alias the system matrix
    np.testing.assert_array_equal(coop.kind.matrix, matrix)


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


@pytest.mark.parametrize("system, violations, worst", [
    (cubic_map(1e308), 0, -np.inf),
    (cubic_map(-1e308), 200, np.inf),
    (parabolic_system("ring", 8, 5.0, kappa=8e307), 0, -np.inf),
    (parabolic_system("ring", 8, 5.0, form="linear", kappa=8e307), 200, np.inf),
], ids=["cubic_inward", "cubic_outward", "parabolic_inward", "parabolic_outward"])
def test_dissipativity_margins_overflow_to_their_sign_unwarned(system, violations, worst):
    # u * f overflows for every sample here; the suite's warnings filter makes
    # numpy's overflow warning an error, so this also checks that none is raised
    rep = validate_dissipativity(system)
    assert (rep.pairs_tested, rep.violations, rep.worst_margin) == (200, violations, worst)


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
