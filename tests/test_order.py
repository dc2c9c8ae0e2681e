"""Order relations, tolerance semantics, and sampled monotonicity checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from monotone_lab import (
    DimensionMismatchError,
    Grid,
    GridError,
    OrderError,
    StateVector,
    check_monotone,
    check_strong_monotone,
    draw_ordered_pairs,
    leq,
    linear_cooperative,
    order_interval_sample,
    strictly_less,
    strongly_less,
)
from monotone_lab.order import CHECK_ETA_INTERIOR, CHECK_TOL_EQ, ETA_INTERIOR, TOL_EQ


def flat(n):
    return Grid("flat", n)


def sv(vals):
    arr = np.atleast_1d(np.asarray(vals, dtype=float))
    return StateVector(arr, flat(arr.size))


# ---------------------------------------------------------------- grids

def test_grid_mesh_widths():
    assert Grid("dirichlet", 31).h == pytest.approx(1.0 / 32)
    assert Grid("neumann", 33).h == pytest.approx(1.0 / 32)
    assert Grid("ring", 32).h == pytest.approx(1.0 / 32)
    assert Grid("radial", 32, dim=3).h == pytest.approx(1.0 / 32)
    assert Grid("flat", 4).h == 1.0


def test_grid_nodes_layouts():
    d = Grid("dirichlet", 3).nodes()
    np.testing.assert_allclose(d, [0.25, 0.5, 0.75])
    nm = Grid("neumann", 5).nodes()
    np.testing.assert_allclose(nm, [0.0, 0.25, 0.5, 0.75, 1.0])
    rg = Grid("ring", 4).nodes()
    np.testing.assert_allclose(rg, [0.0, 0.25, 0.5, 0.75])
    rd = Grid("radial", 4, dim=2).nodes()
    np.testing.assert_allclose(rd, [0.0, 0.25, 0.5, 0.75])


def test_grid_validation():
    with pytest.raises(GridError):
        Grid("hexagonal", 8)
    with pytest.raises(GridError):
        Grid("dirichlet", 0)
    with pytest.raises(GridError):
        Grid("neumann", 1)
    with pytest.raises(GridError):
        Grid("radial", 8, dim=1)
    with pytest.raises(GridError):
        Grid("flat", 3).nodes()


# ----------------------------------------------------------- tolerances

def test_tolerance_invariant_enforced():
    # each equality slack lies below its interior margin, so strongly below
    # implies strictly below implies below
    assert 0.0 <= TOL_EQ < ETA_INTERIOR
    assert 0.0 <= CHECK_TOL_EQ < CHECK_ETA_INTERIOR


def test_default_tolerances():
    assert (TOL_EQ, ETA_INTERIOR) == (1e-12, 1e-10)
    assert (CHECK_TOL_EQ, CHECK_ETA_INTERIOR) == (1e-13, 1e-12)


# ---------------------------------------------------------- StateVector

def test_state_vector_basic():
    x = sv([1.0, -2.0, 0.5])
    assert x.sup_norm() == 2.0
    y = x.with_values([0.0, 0.0, 3.0])
    assert y.grid == x.grid
    assert y.sup_norm() == 3.0


def test_state_vector_defensive():
    g = flat(3)
    with pytest.raises(DimensionMismatchError):
        StateVector(np.zeros(4), g)
    with pytest.raises(ValueError):
        StateVector(np.array([0.0, np.nan, 1.0]), g)
    src = np.array([1.0, 2.0, 3.0])
    x = StateVector(src, g)
    src[0] = 99.0
    assert x.values[0] == 1.0
    with pytest.raises((ValueError, RuntimeError)):
        x.values[0] = 5.0


def test_cross_grid_comparison_rejected():
    x = sv([1.0, 2.0])
    y = StateVector(np.zeros(3), flat(3))
    with pytest.raises(DimensionMismatchError):
        leq(x, y)


# ------------------------------------------------------------ relations

def test_relation_edges():
    x = sv([0.0, 0.0])
    assert leq(x, x)
    assert not strictly_less(x, x)
    assert not strongly_less(x, x)

    # one coordinate bumped beyond tol_eq but the other flat: strict, not strong
    y = sv([1e-6, 0.0])
    assert leq(x, y)
    assert strictly_less(x, y)
    assert not strongly_less(x, y)

    # both coordinates beyond eta_interior: the full chain
    z = sv([1e-6, 1e-6])
    assert strongly_less(x, z)
    assert strictly_less(x, z)
    assert leq(x, z)

    # perturbation below tol_eq counts as equal
    w = sv([1e-13, -1e-13])
    assert leq(x, w) and leq(w, x)
    assert not strictly_less(x, w)


finite_arrays = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.floats(-10.0, 10.0, allow_nan=False), min_size=n, max_size=n
    )
)


@given(finite_arrays, st.floats(1e-9, 1.0))
def test_strongly_implies_strictly_implies_leq(base, gap):
    x = sv(base)
    y = sv(np.asarray(base) + gap)
    assert strongly_less(x, y)
    assert strictly_less(x, y)
    assert leq(x, y)


@given(finite_arrays)
def test_leq_reflexive_and_antisymmetric(base):
    x = sv(base)
    assert leq(x, x)
    y = sv(np.asarray(base) + 5e-13)
    if leq(x, y) and leq(y, x):
        assert float(np.max(np.abs(x.values - y.values))) <= 2 * TOL_EQ


@given(
    finite_arrays,
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
)
def test_leq_transitive_on_chains(base, a, b):
    x = sv(base)
    y = sv(np.asarray(base) + a)
    z = sv(np.asarray(base) + a + b)
    assert leq(x, y) and leq(y, z)
    assert leq(x, z)


# ------------------------------------------------------------- sampling

def test_order_interval_sample_containment():
    a = sv([-1.0, 0.0, 2.0])
    b = sv([1.0, 0.0, 5.0])
    draws = order_interval_sample(a, b, 50, seed=3)
    assert len(draws) == 50
    for x in draws:
        assert leq(a, x) and leq(x, b)
        assert x.values[1] == 0.0


def test_order_interval_sample_deterministic():
    a, b = sv([0.0, 0.0]), sv([1.0, 1.0])
    first = order_interval_sample(a, b, 5, seed=11)
    second = order_interval_sample(a, b, 5, seed=11)
    for x, y in zip(first, second):
        np.testing.assert_array_equal(x.values, y.values)


def test_order_interval_sample_rejects_unordered():
    a, b = sv([0.0, 1.0]), sv([1.0, 0.0])
    with pytest.raises(OrderError):
        order_interval_sample(a, b, 3, seed=0)


def test_draw_ordered_pair_stays_ordered_and_boxed(cubic):
    xs, ys = draw_ordered_pairs(cubic, np.random.default_rng(5), 100)
    for x, y in zip(map(cubic.state, xs.T), map(cubic.state, ys.T)):
        assert leq(x, y)
        assert x.sup_norm() <= cubic.kappa
        assert y.sup_norm() <= cubic.kappa


# --------------------------------------------------------------- checks

def test_property_report_serialization(cubic):
    rep = check_monotone(cubic, pair_count=40, seed=1)
    data = rep.to_json()
    assert set(data) == {"check_name", "pairs_tested", "violations", "worst_margin", "seed"}
    assert data["pairs_tested"] == 40
    assert rep.passed == (rep.violations == 0)


def test_monotone_check_passes_on_cooperative_systems(cubic, coop):
    for system in (cubic, coop):
        rep = check_monotone(system, pair_count=200, seed=7081)
        assert rep.passed, rep.to_json()
        assert rep.worst_margin <= TOL_EQ


def test_monotone_check_fails_on_logistic(logistic):
    rep = check_monotone(logistic, pair_count=200, seed=7081)
    assert not rep.passed
    assert rep.violations > 0
    assert rep.worst_margin > TOL_EQ


def test_strong_monotone_check_passes_on_cooperative_matrix(coop):
    rep = check_strong_monotone(coop, pair_count=200, seed=7082)
    assert rep.passed, rep.to_json()
    assert rep.worst_margin > CHECK_ETA_INTERIOR


def test_strong_monotone_check_sees_reducible_coupling():
    # second component never moves, so image gaps collapse there
    system = linear_cooperative(matrix=[[0.5, 0.0], [0.0, 0.0]])
    rep = check_strong_monotone(system, pair_count=100, seed=2)
    assert not rep.passed
    assert rep.worst_margin <= CHECK_ETA_INTERIOR
