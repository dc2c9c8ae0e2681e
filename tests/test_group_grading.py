"""Period groups graded by one set of power products, and the period scan's prefilter.

``asymptotics._perron_roots`` grades a whole period group with one turn of
thin tangent passes per power product, each column leaving the block at its
own Collatz-Wielandt stop, and ``asymptotics._scan_periods`` tests one window
row for every period before it runs the full window test. Both must give
what the plain per-column loops written out here give: the method and
product count of every column and its rho, bit for bit where a column's
bits do not depend on the width of its block (the closed-form kinds, a lone
column), to 1e-12 relative on the parabolic kinds otherwise; and every
column's minimal period.
"""

import math

import numpy as np
import pytest

from monotone_lab import asymptotics
from monotone_lab.asymptotics import ClassifyBudget, _perron_roots, _scan_periods
from monotone_lab.order import draw_box_states
from monotone_lab.systems import (
    Parabolic, jacobian, linear_cooperative, logistic_map, tangent_columns,
)
from shipped import shipped

TOL = 1e-8


def loop_perron_root(system, points):
    """(rho, method, products) of one cycle (period, n), one column at a time:
    thin passes of that column alone, the dense fallback on ``jacobian``."""
    n = system.n
    w = np.ones((n, 1))
    for k in range(1, math.ceil((n + 1) / 2) + 1):
        mw = w
        for point in points:
            _, mw, failures = tangent_columns(system, point[:, None], mw)
            assert not failures
        lam = float(np.max(np.abs(mw)))
        if lam == 0.0:
            return 0.0, "power", k
        if np.min(mw) <= 0.0:
            break
        ratios = mw / w
        if ratios.max() - ratios.min() <= TOL * ratios.max():
            return lam, "power", k
        w = mw / lam
    mono = np.eye(n)
    for point in points:
        mono = jacobian(system, system.state(point)) @ mono
    return float(np.max(np.abs(np.linalg.eigvals(mono)))), "dense", k


def perron_roots(system, points, mw=None, monos=None):
    """``_perron_roots`` as one (rho, method, products) per column."""
    rho, dense, products = _perron_roots(system, points, mw, monos or {})
    return [(r, "dense" if d else "power", k)
            for r, d, k in zip(rho.tolist(), dense.tolist(), products.tolist())]


def assert_group_matches_loop(system, points, loops=None):
    """``_perron_roots`` on the group (period, n, K) against each column alone,
    or against the loop results ``loops`` holds for some columns."""
    got = perron_roots(system, points)
    count = points.shape[2]
    assert len(got) == count
    if loops is None:
        loops = {k: loop_perron_root(system, points[:, :, k]) for k in range(count)}
    exact = count == 1 or not isinstance(system.kind, Parabolic)
    for k, (rho, method, products) in loops.items():
        got_rho, got_method, got_products = got[k]
        assert (got_method, got_products) == (method, products), k
        if exact and method == "power":
            assert np.float64(got_rho).tobytes() == np.float64(rho).tobytes(), k
        else:
            assert got_rho == pytest.approx(rho, rel=1e-12, abs=0.0), k
    return got


def cycle_group(system, count, seed=0):
    """The cycles (period, n, K) of the most common period among ``count`` box
    starts and their first products M 1, closed as ``classify_many`` closes
    a period group."""
    starts = draw_box_states(system, np.random.default_rng(seed), count)
    results = asymptotics.classify_many(system, starts, ClassifyBudget(p_max=4))
    cycles = [cls.cycle for cls in results if cls.cycle is not None]
    periods = [c.period for c in cycles]
    period = max(set(periods), key=periods.count)
    firsts = np.array([c.points[0] for c in cycles if c.period == period]).T
    points, _, _, mw, _ = asymptotics._close_cycles(system, firsts, period, 1e-10, 12, True)
    return points, mw


@pytest.fixture(scope="module")
def catalog_groups():
    """Per catalog system: the system, its cycle group, its first products
    and the loop's result on the first four columns and every eighth (the
    loop is slow on the parabolic systems)."""
    groups = {}
    for name, system in shipped().items():
        points, mw = cycle_group(system, 128)
        loops = {k: loop_perron_root(system, points[:, :, k])
                 for k in range(points.shape[2]) if k < 4 or k % 8 == 0}
        groups[name] = system, points, mw, loops
    return groups


@pytest.mark.parametrize("size", [1, 3, 4, 128])
def test_catalog_cycle_groups_match_the_column_loop(catalog_groups, size):
    for system, points, mw, loops in catalog_groups.values():
        got = assert_group_matches_loop(system, points[:, :, :size],
                                        {k: loop for k, loop in loops.items() if k < size})
        # the closure passes' M 1 is the group's first product, bit for bit
        if size == points.shape[2]:
            assert perron_roots(system, points, mw) == got


def test_a_period_two_group_matches_the_column_loop():
    system = logistic_map(3.2)
    points, _ = cycle_group(system, 40, seed=3)
    assert points.shape[0] == 2
    got = assert_group_matches_loop(system, points)
    assert {method for _, method, _ in got} == {"power"}


def test_a_mixed_group_stops_each_column_at_its_own_step(cat):
    # constant states of the zero-flux system have M 1 parallel to 1, so
    # their enclosure closes at once; the others take two or three
    # products, and the block shrinks as they leave
    system = cat["neumann_cubic_5"]
    xs = system.grid.nodes()
    cols = [c * np.ones(system.n) for c in (-1.2, 0.0, 0.7)]
    cols += [a * np.sin(np.pi * xs) + b * np.cos(3.0 * xs)
             for a in (-1.0, 1.2) for b in (-0.5, 0.2)]
    got = assert_group_matches_loop(system, np.stack(cols, axis=1)[None])
    assert {products for _, _, products in got} == {1, 2, 3}


def test_small_matrices_match_the_column_loop():
    def grade(matrix):
        system = linear_cooperative(matrix=matrix)
        return assert_group_matches_loop(system, np.zeros((1, system.n, 1)))[0]

    # imprimitive: the ratios rotate through 2, 1, 1 and never close
    rho, method, products = grade([[0.0, 0.0, 2.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert (method, products) == ("dense", 2)
    assert rho == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)
    rho, method, products = grade([[0.0, 2.0], [1.0, 0.0]])
    assert (method, products) == ("dense", 2)
    assert rho == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert grade(np.zeros((3, 3))) == (0.0, "power", 1)
    # a row of M 1 that is zero: the lower bound is 0, dense at once
    rho, method, products = grade([[0.5, 0.0], [0.0, 0.0]])
    assert (rho, method, products) == (0.5, "dense", 1)
    # primitive, with equal row sums: the enclosure closes at once
    assert grade([[0.3, 0.5], [0.6, 0.2]]) == (0.8, "power", 1)
    # primitive, with the ratios closing at 0.36 / 0.64 per product: still
    # open after the budget of 2
    rho, method, products = grade([[0.5, 0.2], [0.1, 0.5]])
    assert (method, products) == ("dense", 2)
    assert rho == pytest.approx(0.5 + np.sqrt(0.02), rel=1e-12)


def test_a_mixed_small_group_leaves_the_block_column_by_column():
    # the logistic map's derivative r (1 - 2 u): positive, zero, negative
    # and, over two points, a positive product of two negative factors
    system = logistic_map(3.2)
    singles = np.array([[[0.2, 0.5, 0.8, 0.9]]])
    got = assert_group_matches_loop(system, singles)
    assert [(method, products) for _, method, products in got] == [
        ("power", 1), ("power", 1), ("dense", 1), ("dense", 1)]
    assert got[1][0] == 0.0
    pairs = np.array([[[0.2, 0.8, 0.9]], [[0.3, 0.7, 0.6]]])
    got = assert_group_matches_loop(system, pairs)
    assert [method for _, method, _ in got] == ["power", "power", "power"]


def test_cycle_spectral_radius_is_the_one_column_case():
    for name, system in shipped().items():
        for c in (0.0, 0.3):
            points = np.full((2, system.n), c)
            det = asymptotics.cycle_spectral_radius(system, points, detail=True)
            assert [(det.rho, det.method, det.iterations)] == perron_roots(
                system, points[:, :, None]), name
            assert (det.rho, det.method, det.iterations) == loop_perron_root(system, points), name


# ------------------------------------------------------------------- scan

def loop_scan(tails, p_max, tol):
    """Minimal period of each column: every p, every column, the whole window."""
    length, _, count = tails.shape
    oldest = length - 2 * p_max
    periods = np.zeros(count, dtype=int)
    for c in range(count):
        for p in range(1, p_max + 1):
            gap = np.max(np.abs(tails[oldest:, :, c] - tails[oldest - p:length - p, :, c]))
            if gap < tol:
                periods[c] = p
                break
    return periods


def planted_periods(p_max):
    return sorted({q for q in (1, 2, 3, p_max // 2, p_max) if 1 <= q <= p_max})


def planted_tails(count, p_max, n=2, tol=1e-8, seed=0):
    """Tails (3 p_max, n, count) of many kinds, cycled through the columns.

    A planted cycle of period q is exact from row oldest - q on, with a
    random transient before it, so the row just before the window does not
    recur; others carry noise at the tolerance, converge slowly, or hold a
    NaN or an inf in or before the window.
    """
    rng = np.random.default_rng(seed)
    length = 3 * p_max
    oldest = length - 2 * p_max
    tails = rng.uniform(-1.0, 1.0, (length, n, count))
    periods = planted_periods(p_max)
    for c in range(count):
        kind, q = c % 9, periods[c % len(periods)]
        cycle = rng.uniform(-1.0, 1.0, (q, n))
        rows = np.arange(oldest - q, length)
        if kind <= 4:
            tails[rows, :, c] = cycle[(rows - oldest) % q]
        if kind == 1:  # noise within half the tolerance either way
            tails[rows, :, c] += rng.uniform(-0.45, 0.45, (rows.size, n)) * tol
        elif kind == 2:  # noise that crosses the tolerance
            tails[rows, :, c] += rng.uniform(-0.6, 0.6, (rows.size, n)) * tol
        elif kind == 3:  # a NaN somewhere in or just before the window
            tails[rng.integers(oldest - q, length), rng.integers(n), c] = np.nan
        elif kind == 4:  # an inf somewhere in or just before the window
            tails[rng.integers(oldest - q, length), rng.integers(n), c] = np.inf
        elif kind in (5, 6):  # slow convergence to a fixed point
            rate = 0.9 if kind == 5 else 0.6
            t = np.arange(length)[:, None]
            tails[:, :, c] = cycle[0] + rng.uniform(0.5, 1.0, n) * rate ** t
        elif kind == 7:  # a converged point, then a NaN in the window's oldest row
            tails[:, :, c] = cycle[0]
            tails[oldest, 0, c] = np.nan
        elif kind == 8:  # an inf fixed point: inf - inf is NaN
            tails[:, :, c] = np.inf
    return tails


@pytest.mark.parametrize("count", [1, 9, 128])
@pytest.mark.parametrize("p_max", [1, 5, 64])
def test_scan_matches_the_full_width_loop(count, p_max):
    for seed in range(3):
        for tol in (1e-8, 1e-3):
            tails = planted_tails(count, p_max, tol=tol, seed=seed)
            with np.errstate(invalid="ignore"):  # inf - inf
                want = loop_scan(tails, p_max, tol)
            # the scan itself must not warn on inf - inf
            np.testing.assert_array_equal(_scan_periods(tails, p_max, tol), want)
            # each column alone
            for c in range(min(count, 9)):
                got = _scan_periods(tails[:, :, c:c + 1], p_max, tol)
                np.testing.assert_array_equal(got, want[c:c + 1])


def test_planted_periods_are_found():
    p_max = 64
    tails = planted_tails(128, p_max)
    got = _scan_periods(tails, p_max, 1e-8)
    planted = planted_periods(p_max)
    for c in range(128):
        if c % 9 in (0, 1):  # exact, or noise within half the tolerance
            assert got[c] == planted[c % len(planted)], c
        elif c % 9 in (7, 8):  # a NaN in the oldest window row, an inf point
            assert got[c] == 0, c
