"""Block grading of resolved cycles against a per-column reference.

``classify_many`` closes and grades the cycles that resolve at a checkpoint
as blocks of tangent passes. The reference here is the per-column path: the
start's orbit alone, scanned at the same checkpoints, polished by
``refine_cycle`` and graded by power iteration on dense Jacobians with the
eigvals fallback. Verdicts, iterations, periods and ``rho_method`` must be
equal, and rho must agree to 1e-12 relative.
"""

from collections import deque

import numpy as np
import pytest

from monotone_lab import (
    ClassifyBudget,
    EscapeError,
    apply_map,
    classify_many,
    detect_cycle,
    jacobian,
    linear_cooperative,
    negation_map,
    parabolic_system,
    refine_cycle,
    sample_initial,
    smooth_field,
)
from monotone_lab import asymptotics
from monotone_lab.systems import BLOCK_WIDTH, tangent_columns

BUDGET = ClassifyBudget(max_iterations=400, p_max=8)


def dense_radius(system, points, tol=1e-8, max_power_iter=10_000):
    """Power iteration on the dense Jacobians around a cycle, eigvals fallback."""
    mats = [jacobian(system, system.state(p)) for p in points]
    w = np.ones(system.n)
    lam_prev = None
    for _ in range(max_power_iter):
        for mat in mats:
            w = mat @ w
        lam = float(np.max(np.abs(w)))
        if lam == 0.0:
            return 0.0, "power"
        w = w / lam
        if lam_prev is not None and abs(lam - lam_prev) <= tol * max(1.0, lam):
            return lam, "power"
        lam_prev = lam
    mono = np.eye(system.n)
    for mat in mats:
        mono = mat @ mono
    return float(np.max(np.abs(np.linalg.eigvals(mono)))), "dense"


def reference(system, start, budget):
    """(verdict, iterations, period, rho, rho_method) of one start alone."""
    budget = budget.resolve(system)
    u = np.array(start, dtype=float)
    window = deque([u], maxlen=3 * budget.p_max)
    for k in range(1, budget.max_iterations + 1):
        try:
            u = apply_map(system, u, iteration=k)
        except EscapeError:
            return "escaped", k - 1, None, None, None
        window.append(u)
        if len(window) == window.maxlen and (
            k % budget.check_every == 0 or k == budget.max_iterations
        ):
            cand = detect_cycle(np.asarray(window), budget.p_max, budget.tol_cyc)
            if cand is not None:
                rec = refine_cycle(
                    system, cand, newton_tol=budget.newton_tol,
                    max_newton=budget.newton_max_iter,
                )
                rho, method = dense_radius(system, rec.points)
                stable = rho <= 1.0 + budget.tol_stab
                verdict = "stable_cycle" if stable else "unstable_cycle"
                return verdict, k, rec.period, rho, method
    return "unresolved", budget.max_iterations, None, None, None


def assert_matches_reference(system, starts, budget=BUDGET):
    got = classify_many(system, starts, budget)
    for j, cls in enumerate(got):
        verdict, iters, period, rho, method = reference(system, starts[:, j], budget)
        assert (cls.verdict, cls.iterations_used) == (verdict, iters), j
        if period is None:
            assert cls.cycle is None
            continue
        assert (cls.cycle.period, cls.cycle.rho_method) == (period, method), j
        assert cls.cycle.rho == pytest.approx(rho, rel=1e-12, abs=0.0), j
    return got


@pytest.fixture
def graded_groups(monkeypatch):
    """(columns, period) of every block the grader receives."""
    groups = []
    grade = asymptotics._grade_cycles

    def spy(system, firsts, period, *args, **kwargs):
        groups.append((firsts.shape[1], period))
        return grade(system, firsts, period, *args, **kwargs)

    monkeypatch.setattr(asymptotics, "_grade_cycles", spy)
    return groups


@pytest.fixture
def graded_alone(monkeypatch):
    """Periods of the columns graded alone, by the one-column path."""
    periods = []
    grade = asymptotics._refine_and_grade

    def spy(system, cand, budget):
        periods.append(cand.period)
        return grade(system, cand, budget)

    monkeypatch.setattr(asymptotics, "_refine_and_grade", spy)
    return periods


def smooth_starts(system, count, seed=3):
    sampler = smooth_field(amplitude=1.0, seed=seed)
    return np.stack(
        [sample_initial(sampler, i, system.grid).values for i in range(count)], axis=1
    )


@pytest.mark.parametrize(
    "name",
    ["cubic_map", "logistic_map", "linear_cooperative", "dirichlet_cubic_5",
     "dirichlet_cubic_15", "neumann_cubic_5", "ring_cubic_5", "radial_cubic_15"],
)
def test_catalog_blocks_match_reference(name, cat):
    system = cat[name]
    if system.grid.kind != "flat":
        starts = smooth_starts(system, 6)
    elif name == "logistic_map":
        starts = np.linspace(0.05, 0.95, 9)[None, :]
    else:
        starts = np.linspace(-1.2, 1.2, 9)[None, :].repeat(system.n, axis=0)
        starts[-1] = starts[-1, ::-1]
    got = assert_matches_reference(system, starts)
    assert any(cls.cycle is not None for cls in got)


def test_logistic_two_cycles_graded_in_chunks(logistic, graded_groups, graded_alone):
    # more than BLOCK_WIDTH period-2 columns resolve at the first
    # checkpoint and are graded BLOCK_WIDTH // n at a time. Starts near the
    # low point of the 2-cycle resolve together.
    r = logistic.kind.param
    low = (r + 1.0 - np.sqrt((r - 3.0) * (r + 1.0))) / (2.0 * r)
    starts = low + np.linspace(-0.02, 0.02, BLOCK_WIDTH + 40)[None, :]
    got = classify_many(logistic, starts, BUDGET)
    assert {cls.cycle.period for cls in got} == {2}
    assert graded_groups[0] == (BLOCK_WIDTH, 2)
    assert sum(k for k, _ in graded_groups) == starts.shape[1]
    assert graded_alone == []
    # the reference per column is slow in Python; every fifth column
    for j in range(0, starts.shape[1], 5):
        verdict, iters, period, rho, method = reference(logistic, starts[:, j], BUDGET)
        cls = got[j]
        assert (cls.verdict, cls.iterations_used) == (verdict, iters)
        assert cls.cycle.period == period
        assert cls.cycle.rho_method == method
        assert cls.cycle.rho == pytest.approx(rho, rel=1e-12, abs=0.0)


def test_mixed_periods_in_one_block(graded_groups, graded_alone):
    # the negation map: 0 is fixed and every other point has period 2
    neg = negation_map()
    starts = np.r_[0.0, np.linspace(0.1, 0.9, BLOCK_WIDTH + 3)][None, :]
    got = assert_matches_reference(neg, starts)
    assert graded_groups == [(1, 1), (BLOCK_WIDTH, 2), (3, 2)]
    assert graded_alone == []
    assert got[0].cycle.period == 1 and got[1].cycle.period == 2


def test_columns_forced_through_newton(cubic, graded_alone):
    # the cubic map contracts by 0.8 only, so most detected candidates close
    # to tol_cyc but not to newton_tol and take the Newton path alone
    budget = ClassifyBudget(max_iterations=400, p_max=8, newton_tol=1e-14)
    starts = np.linspace(-1.2, 1.2, 25)[None, :]
    got = assert_matches_reference(cubic, starts, budget)
    polished = [cls.cycle.newton_iterations for cls in got]
    assert max(polished) > 0 and min(polished) == 0
    assert 0 < len(graded_alone) < len(got)


def test_dense_eigvals_fallback_in_blocks(graded_groups, graded_alone):
    # x -> M x with M = [[0, a J], [b J, 0]]: eigenvalues +-sqrt(2) lead, so
    # power iteration from the ones vector alternates and never settles
    half = 16
    ones = np.ones((half, half))
    zero = np.zeros((half, half))
    mat = np.block([[zero, ones * (2.0 / half)], [ones / half, zero]])
    system = linear_cooperative(matrix=mat, kappa=5.0)
    width = BLOCK_WIDTH // system.n
    for count in (1, width + 1):
        graded_groups.clear()
        got = assert_matches_reference(system, np.zeros((2 * half, count)))
        assert graded_groups == ([(1, 1)] if count == 1 else [(width, 1), (1, 1)])
        # the block runs the eigvals fallback itself
        assert graded_alone == []
        for cls in got:
            assert cls.cycle.rho_method == "dense"
            assert cls.cycle.rho == pytest.approx(np.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("name", ["dirichlet_cubic_15", "ring_cubic_5"])
def test_widths_straddling_the_chunk_width(name, cat, graded_groups, graded_alone):
    # K * n = BLOCK_WIDTH is one block, BLOCK_WIDTH + n is two
    system = cat[name]
    width = BLOCK_WIDTH // system.n
    for count, groups in ((width, [(width, 1)]), (width + 1, [(width, 1), (1, 1)])):
        graded_groups.clear()
        assert_matches_reference(system, smooth_starts(system, count, seed=8))
        assert graded_groups == groups
    assert graded_alone == []


def test_single_start_equals_the_one_column_path(dirichlet15):
    # a start alone reproduces the one-column functions bit for bit
    start = smooth_starts(dirichlet15, 1)
    cls = classify_many(dirichlet15, start, BUDGET)[0]
    rec = refine_cycle(dirichlet15, cls.cycle.points, newton_tol=1e-10)
    np.testing.assert_array_equal(rec.points, cls.cycle.points)
    assert rec.residual == cls.cycle.residual
    det = asymptotics.cycle_spectral_radius(dirichlet15, cls.cycle, detail=True)
    assert (det.rho, det.method) == (cls.cycle.rho, cls.cycle.rho_method)


# ------------------------------------------------------------ tangent passes

def test_tangent_pass_reports_each_failing_column():
    # expanding linear reaction: column 2 leaves the box first in time,
    # column 1 later, column 0 not at all
    wild = parabolic_system("dirichlet", 16, strength=25.0, form="linear")
    prop = wild.kind.propagator
    xs = wild.grid.nodes()
    block = np.stack([1e-9 * np.ones(16), 0.05 * np.sin(np.pi * xs), np.ones(16)], axis=1)
    tangents = np.ones_like(block)
    escape_sup = 2.0 * wild.kappa
    _, _, failures = prop.tangent_columns(block, tangents, escape_sup)
    assert sorted(failures) == [1, 2]
    for j, exc in failures.items():
        with pytest.raises(EscapeError) as alone:
            prop.period_with_tangent(block[:, j], tangents[:, j], escape_sup)
        assert str(exc) == str(alone.value)
        assert (exc.step, exc.sup) == (alone.value.step, alone.value.sup)
    assert failures[2].step < failures[1].step
    with pytest.raises(EscapeError) as first:
        prop.period_with_tangent(block, tangents, escape_sup)
    assert (str(first.value), first.value.step) == (str(failures[1]), failures[1].step)


@pytest.mark.parametrize("count", [2, 9])
def test_a_column_failing_in_a_pass_is_left_to_the_one_column_path(count):
    # 0 is a fixed point of the expanding linear system and ones escape
    wild = parabolic_system("dirichlet", 16, strength=25.0, form="linear")
    firsts = np.zeros((16, count))
    firsts[:, -1] = 1.0
    records = asymptotics._grade_cycles(wild, firsts, 1, newton_tol=1e-10)
    assert records[-1] is None
    rho = asymptotics.cycle_spectral_radius(wild, np.zeros((1, 16)))
    for rec in records[:-1]:
        assert rec.residual == 0.0 and rec.rho_method == "power"
        assert rec.rho == pytest.approx(rho, rel=1e-12)


@pytest.mark.parametrize("name", ["cubic_map", "linear_cooperative", "ring_cubic_5"])
def test_identity_tangents_assemble_each_jacobian(name, cat):
    system = cat[name]
    states = 0.3 * np.cos(np.arange(3)[None, :] + np.arange(system.n)[:, None])
    seed = np.repeat(np.eye(system.n)[:, None, :], 3, axis=1)
    images, mats, failures = tangent_columns(system, states, seed)
    assert not failures
    for j in range(3):
        want = jacobian(system, system.state(states[:, j]))
        np.testing.assert_allclose(mats[:, j, :], want, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(images[:, j], apply_map(system, states[:, j]),
                                   rtol=1e-13, atol=1e-15)
