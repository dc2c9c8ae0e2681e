"""Period groups graded in one power iteration, and the period scan's prefilter.

``asymptotics._perron_roots`` grades a whole period group in one stacked
power iteration, and ``asymptotics._scan_periods`` tests one window row for
every period before it runs the full window test. Both must give what the
plain per-column loops written out here give, bit for bit: rho, method and
iteration count of every column, and every column's minimal period.
"""

import numpy as np
import pytest

from monotone_lab import asymptotics
from monotone_lab.asymptotics import ClassifyBudget, _perron_roots, _scan_periods
from monotone_lab.order import draw_box_states
from monotone_lab.systems import catalog, jacobian, logistic_map

TOL, MAX_ITER = 1e-8, 10_000


def loop_perron_root(mats, tol=TOL, max_iter=MAX_ITER):
    """(rho, method, iterations) of one column, one matrix-vector product at a time."""
    dim = mats[0].shape[0]
    w = np.ones(dim)
    w_back = lam_prev = lam_back = None
    for k in range(1, max_iter + 1):
        w_next = w
        for mat in mats:
            w_next = mat @ w_next
        lam = float(np.max(np.abs(w_next)))
        if lam == 0.0:
            return 0.0, "power", k
        w_next = w_next / lam
        if lam_prev is not None and abs(lam - lam_prev) <= tol * max(1.0, lam):
            return lam, "power", k
        if lam == lam_back and np.array_equal(w_next, w_back):
            break
        w_back, w = w, w_next
        lam_back, lam_prev = lam_prev, lam
    mono = np.eye(dim)
    for mat in mats:
        mono = mat @ mono
    return float(np.max(np.abs(np.linalg.eigvals(mono)))), "dense", max_iter


def assert_group_matches_loop(mats, tol=TOL, max_iter=MAX_ITER):
    """``_perron_roots`` on the group (period, K, n, n) against each column alone."""
    got = _perron_roots(mats, tol, max_iter)
    assert len(got) == mats.shape[1]
    for k, det in enumerate(got):
        rho, method, iters = loop_perron_root(mats[:, k], tol, max_iter)
        assert (det.method, det.iterations) == (method, iters), k
        assert np.float64(det.rho).tobytes() == np.float64(rho).tobytes(), k
    return got


def cycle_jacobians(system, count, seed=0):
    """Jacobians (period, K, n, n) around the cycles of ``count`` box starts,
    from the closure passes ``classify_many`` grades, for the most common
    period among them."""
    starts = draw_box_states(system, np.random.default_rng(seed), count)
    results = asymptotics.classify_many(system, starts, ClassifyBudget(p_max=4))
    cycles = [cls.cycle for cls in results if cls.cycle is not None]
    periods = [c.period for c in cycles]
    period = max(set(periods), key=periods.count)
    firsts = np.array([c.points[0] for c in cycles if c.period == period]).T
    _, mats, failed = asymptotics._closure_passes(system, firsts, period)
    assert not failed
    return mats


@pytest.fixture(scope="module")
def catalog_groups():
    return {name: cycle_jacobians(system, 128) for name, system in catalog().items()}


@pytest.mark.parametrize("size", [1, 3, 4, 128])
def test_catalog_cycle_groups_match_the_column_loop(catalog_groups, size):
    for mats in catalog_groups.values():
        assert_group_matches_loop(mats[:, :size])


def test_a_period_two_group_matches_the_column_loop():
    system = logistic_map(3.2)
    mats = cycle_jacobians(system, 40, seed=3)
    assert mats.shape[0] == 2
    got = assert_group_matches_loop(mats)
    assert {det.method for det in got} == {"power"}


def test_a_mixed_group_stops_each_column_at_its_own_step(catalog_groups):
    # the n = 32 catalog systems side by side: their columns stop at
    # different k, and the block shrinks as they do
    groups = [mats[:, :5] for mats in catalog_groups.values() if mats.shape[2:] == (32, 32)]
    mixed = np.concatenate(groups, axis=1)
    got = assert_group_matches_loop(mixed)
    assert len({det.iterations for det in got}) > 1


def one_matrix_group(*mats):
    return np.array(mats, dtype=float)[None]


def test_small_matrices_match_the_column_loop():
    imprimitive = [[0.0, 0.0, 2.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    got = assert_group_matches_loop(one_matrix_group(imprimitive))
    # ratios 2, 1, 1: the power iteration stops at 1.0, not at 2 ** (1 / 3)
    assert (got[0].rho, got[0].method, got[0].iterations) == (1.0, "power", 3)
    got = assert_group_matches_loop(one_matrix_group([[0.0, 2.0], [1.0, 0.0]]))
    # dense at the first repeat, which comes at k = 3
    assert (got[0].method, got[0].iterations) == ("dense", MAX_ITER)
    assert got[0].rho == pytest.approx(np.sqrt(2.0), abs=1e-12)
    got = assert_group_matches_loop(one_matrix_group(np.zeros((3, 3))))
    assert (got[0].rho, got[0].method, got[0].iterations) == (0.0, "power", 1)


def test_a_mixed_small_group_leaves_the_block_column_by_column():
    mats = one_matrix_group(
        [[0.5, 0.2], [0.1, 0.5]],   # power after 28 steps
        [[0.0, 2.0], [1.0, 0.0]],   # repeats from two steps back: dense
        np.zeros((2, 2)),           # zero at the first step
        [[1.0, 1.0], [0.0, 1.0]],   # a Jordan block: out of budget, dense
        [[0.0, -1.0], [1.0, 0.0]],  # a rotation: ratio 1 at once
        [[0.9, 0.1], [0.0, 0.8]],   # power after 115 steps
    )
    got = assert_group_matches_loop(mats, max_iter=200)
    assert [(det.method, det.iterations) for det in got] == [
        ("power", 28), ("dense", 200), ("power", 1), ("dense", 200), ("power", 2),
        ("power", 115),
    ]
    # a period-2 group of the same matrices, each column its own product
    assert_group_matches_loop(np.concatenate([mats, mats[:, ::-1]]), max_iter=200)


def test_cycle_spectral_radius_is_the_one_column_case():
    for name, system in catalog().items():
        for c in (0.0, 0.3):
            points = np.full((2, system.n), c)
            det = asymptotics.cycle_spectral_radius(system, points, detail=True)
            want = loop_perron_root([jacobian(system, system.state(row)) for row in points])
            assert (det.rho, det.method, det.iterations) == want, name


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
