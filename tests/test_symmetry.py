"""Group actions, equivariance checks, and symmetry of limit sets."""

import numpy as np
import pytest

from monotone_lab import (
    ClassifyBudget,
    DimensionMismatchError,
    Grid,
    GridError,
    GroupAction,
    check_equivariance,
    classify_symmetric_limit,
    evaluate,
    interval_reflection,
    leq,
    parabolic_system,
    ring_rotation,
    sample_initial,
    smooth_field,
    spatial_variance,
    symmetric_limit_survey,
    symmetry_deviation,
    trivial_action,
)

FAST = ClassifyBudget(max_iterations=120, p_max=8)


# ----------------------------------------------------------------- actions

def test_action_constructors_check_grid_kind():
    with pytest.raises(GridError):
        ring_rotation(Grid("dirichlet", 8))
    with pytest.raises(GridError):
        interval_reflection(Grid("ring", 8))
    with pytest.raises(ValueError):
        GroupAction("ring_rotation", Grid("ring", 4), (np.array([0, 0, 1, 2]),))
    with pytest.raises(ValueError):
        GroupAction("mystery", Grid("ring", 4), (np.arange(4),))


def test_ring_shift_semantics():
    action = ring_rotation(Grid("ring", 4))
    u = np.array([1.0, 0.0, 0.0, 0.0])
    shifted = u[action.generators[0]]
    np.testing.assert_array_equal(shifted, [0.0, 1.0, 0.0, 0.0])
    np.testing.assert_array_equal(shifted, np.roll(u, 1))


def test_composition_convention():
    action = ring_rotation(Grid("ring", 6))
    g = action.generators[0]
    u = np.arange(6.0)
    twice = u[g[g]]
    step_by_step = u[g][g]
    np.testing.assert_array_equal(twice, step_by_step)
    np.testing.assert_array_equal(twice, np.roll(u, 2))


def test_actions_preserve_order_and_norm(ring5):
    action = ring_rotation(ring5.grid)
    rng = np.random.default_rng(3)
    x = ring5.state(rng.uniform(-1.0, 1.0, ring5.n))
    y = ring5.state(x.values + rng.uniform(0.0, 0.5, ring5.n))
    for g in action.generators:
        gx = x.with_values(x.values[g])
        gy = y.with_values(y.values[g])
        assert leq(gx, gy)
        assert gx.sup_norm() == x.sup_norm()


# --------------------------------------------------------------- deviation

def test_symmetry_deviation_examples():
    action = ring_rotation(Grid("ring", 4))
    flat = symmetry_deviation(0.7 * np.ones(4), action)
    assert flat.deviation == 0.0
    assert flat.symmetric
    assert len(flat.per_generator) == 1
    spike = symmetry_deviation(np.array([1.0, 0.0, 0.0, 0.0]), action)
    assert spike.deviation == pytest.approx(1.0)
    assert not spike.symmetric
    data = spike.to_json()
    assert set(data) == {"deviation", "symmetric", "per_generator", "tol_sym"}


def test_symmetry_deviation_of_a_stack_is_the_max_over_its_states():
    # a (p, n) stack of states, as a cycle's points: the sup runs over all
    # of them, per generator, with the bits of the states graded one by one
    action = interval_reflection(Grid("dirichlet", 5))
    stack = np.array([[0.1, 0.4, 0.7, 0.4, 0.1], [1.0, 0.3, 0.2, 0.25, 0.9],
                      [1.0, 0.25, 0.5, 0.375, 0.75]])
    whole = symmetry_deviation(stack, action, tol_sym=0.2)
    rows = [symmetry_deviation(row, action, tol_sym=0.2) for row in stack]
    assert [v.deviation for v in rows][::2] == [0.0, 0.25]
    assert whole.deviation.hex() == max(v.deviation for v in rows).hex()
    assert whole.per_generator == [whole.deviation]
    assert not whole.symmetric and not all(v.symmetric for v in rows)
    assert symmetry_deviation(stack, action, tol_sym=0.3).symmetric


def test_trivial_action_sees_everything_symmetric():
    action = trivial_action(Grid("ring", 4))
    v = symmetry_deviation(np.array([3.0, -1.0, 0.5, 2.0]), action)
    assert v.deviation == 0.0 and v.symmetric


def test_spatial_variance():
    assert spatial_variance(np.ones(5)) == 0.0
    assert spatial_variance(np.array([1.0, -1.0])) == pytest.approx(1.0)
    u = np.array([0.3, -0.7, 1.1])
    assert spatial_variance(3.0 * u) == pytest.approx(9.0 * spatial_variance(u))


# ------------------------------------------------------------ equivariance

def test_ring_system_is_rotation_equivariant(ring5):
    rep = check_equivariance(ring5, ring_rotation(ring5.grid))
    assert rep.passed, rep.to_json()
    assert rep.worst_margin < 1e-12


def test_interval_system_is_reflection_equivariant(dirichlet5):
    rep = check_equivariance(dirichlet5, interval_reflection(dirichlet5.grid))
    assert rep.passed, rep.to_json()
    assert rep.worst_margin < 1e-12


def test_wave_profile_breaks_equivariance():
    broken = parabolic_system("ring", 16, 5.0, profile="wave", name="ring_wave")
    rep = check_equivariance(broken, ring_rotation(broken.grid))
    assert not rep.passed
    assert rep.worst_margin > 1e-4


def test_equivariance_grid_mismatch(ring5):
    with pytest.raises(DimensionMismatchError):
        check_equivariance(ring5, ring_rotation(Grid("ring", 8)))


# ---------------------------------------------------------- limit symmetry

def test_ring_limit_from_asymmetric_start_is_symmetric(ring5):
    xs = ring5.grid.nodes()
    action = ring_rotation(ring5.grid)
    x0 = 0.3 + 0.2 * np.sin(2.0 * np.pi * xs)
    cls, verdicts = classify_symmetric_limit(ring5, action, x0, budget=FAST)
    assert cls.verdict == "stable_cycle"
    assert cls.cycle.period == 1
    assert verdicts and all(v.symmetric for v in verdicts)
    assert max(v.deviation for v in verdicts) < 1e-6
    np.testing.assert_allclose(cls.cycle.points[0], 1.0, atol=1e-5)


def test_ring_limit_negative_branch(ring5):
    xs = ring5.grid.nodes()
    action = ring_rotation(ring5.grid)
    x0 = -0.3 - 0.2 * np.cos(2.0 * np.pi * xs)
    cls, verdicts = classify_symmetric_limit(ring5, action, x0, budget=FAST)
    assert cls.verdict == "stable_cycle"
    assert all(v.symmetric for v in verdicts)
    np.testing.assert_allclose(cls.cycle.points[0], -1.0, atol=1e-5)


def test_spike_perturbation_decays_back_to_symmetry(ring5):
    action = ring_rotation(ring5.grid)
    x0 = np.ones(ring5.n)
    x0[0] += 0.1
    cls, verdicts = classify_symmetric_limit(ring5, action, x0, budget=FAST)
    assert cls.verdict == "stable_cycle"
    assert all(v.symmetric for v in verdicts)


def test_no_cycle_means_no_verdicts(cubic):
    action = trivial_action(cubic.grid)
    short = ClassifyBudget(max_iterations=5, p_max=4)
    cls, verdicts = classify_symmetric_limit(cubic, action, 0.3, budget=short)
    assert cls.verdict == "unresolved"
    assert verdicts == []


def test_equivariance_transports_fixed_profiles(dirichlet5):
    from monotone_lab import classify_orbit

    xs = dirichlet5.grid.nodes()
    cls = classify_orbit(dirichlet5, 0.4 * np.sin(np.pi * xs), FAST)
    assert cls.verdict == "stable_cycle" and cls.cycle.period == 1
    phi = dirichlet5.state(cls.cycle.points[0])
    action = interval_reflection(dirichlet5.grid)
    g_phi = phi.with_values(phi.values[action.generators[0]])
    moved = evaluate(dirichlet5, g_phi)
    assert np.max(np.abs(moved.values - g_phi.values)) < 1e-8


# ------------------------------------------------------------------ survey

def test_symmetric_limit_survey_on_ring(ring5):
    action = ring_rotation(ring5.grid)
    sampler = smooth_field(amplitude=1.0, modes=6, seed=31)
    states = [sample_initial(sampler, i, ring5.grid) for i in range(12)]
    survey = symmetric_limit_survey(ring5, action, states, budget=FAST)
    assert survey.count == 12
    assert survey.stable_count == 12
    assert survey.symmetric_fraction == 1.0
    assert survey.max_deviation < 1e-5
    data = survey.to_json()
    assert data["kind"] == "symmetry_survey"
    assert len(data["verdicts"]) == 12


def test_survey_counts_unresolved_against_symmetry(cubic):
    action = trivial_action(cubic.grid)
    short = ClassifyBudget(max_iterations=5, p_max=4)
    survey = symmetric_limit_survey(cubic, action, [0.3, 0.5], budget=short)
    assert survey.symmetric_fraction == 0.0
    assert survey.deviations == [None, None]


@pytest.mark.parametrize("tol_sym", [float("nan"), -1.0, 0.0])
def test_a_tolerance_that_is_not_positive_is_refused(tol_sym, cubic):
    # a deviation of exactly 0 would otherwise count as not symmetric
    action = trivial_action(cubic.grid)
    short = ClassifyBudget(max_iterations=5, p_max=4)  # no cycle: nothing graded
    calls = [
        lambda: symmetry_deviation(np.array([0.3]), action, tol_sym),
        lambda: classify_symmetric_limit(cubic, action, 0.3, tol_sym=tol_sym),
        lambda: classify_symmetric_limit(cubic, action, 0.3, short, tol_sym),
        lambda: symmetric_limit_survey(cubic, action, [0.3], tol_sym=tol_sym),
        lambda: symmetric_limit_survey(cubic, action, [0.3], short, tol_sym),
        lambda: symmetric_limit_survey(cubic, action, [], tol_sym=tol_sym),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="tol_sym must be positive"):
            call()


def test_radial_limit_is_steady(radial15):
    cls, verdicts = classify_symmetric_limit(
        radial15, trivial_action(radial15.grid), 0.2 * np.ones(radial15.n),
        budget=FAST,
    )
    assert cls.verdict == "stable_cycle"
    assert cls.cycle.period == 1
