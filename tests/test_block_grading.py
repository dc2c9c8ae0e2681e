"""Block closure and grading of resolved cycles against a per-column reference.

``classify_many`` closes (with Newton polish where a gap stays open) and
grades the cycles that resolve at a checkpoint as blocks of tangent passes.
The reference here is the per-column path: the start's orbit alone, scanned
at the same checkpoints, polished by ``refine_cycle`` (the block closure on
one column) and graded by the Collatz-Wielandt power products on
``jacobian`` matrices with the eigvals fallback. Verdicts, iterations,
periods and ``rho_method`` must be equal, and rho must agree to 1e-12
relative.
"""

import math
import sys
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
    logistic_map,
    negation_map,
    parabolic_system,
    refine_cycle,
    sample_initial,
    smooth_field,
)
from monotone_lab import asymptotics, systems
from monotone_lab.systems import BLOCK_WIDTH, block_width, tangent_columns

BUDGET = ClassifyBudget(max_iterations=400, p_max=8)


def dense_radius(system, points, tol=1e-8):
    """Power products on the dense Jacobians around a cycle, stopped when the
    Collatz-Wielandt ratios close, with the eigvals fallback after a product
    with an entry <= 0 or ceil((n + 1) / 2) open enclosures."""
    mats = [jacobian(system, system.state(p)) for p in points]
    w = np.ones(system.n)
    for _ in range(math.ceil((system.n + 1) / 2)):
        mw = w
        for mat in mats:
            mw = mat @ mw
        lam = float(np.max(np.abs(mw)))
        if lam == 0.0:
            return 0.0, "power"
        if np.min(mw) <= 0.0:
            break
        ratios = mw / w
        if ratios.max() - ratios.min() <= tol * ratios.max():
            return lam, "power"
        w = mw / lam
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
def closed_blocks(monkeypatch):
    """The closure of every block ``classify_many`` closes: its points
    (period, n, K), gaps and Newton iterations, one tuple per block.

    ``refine_cycle`` (the reference's polish) closes its one column through
    the same function; only the calls made at ``classify_many``'s
    checkpoints are kept.
    """
    blocks = []
    close = asymptotics._close_cycles

    def spy(system, firsts, period, *args):
        points, gaps, newton, *grading = close(system, firsts, period, *args)
        if sys._getframe(1).f_code is asymptotics._grade_checkpoint.__code__:
            blocks.append((points, gaps, newton))
        return (points, gaps, newton, *grading)

    monkeypatch.setattr(asymptotics, "_close_cycles", spy)
    return blocks


def seed_kind(u, w):
    """"map" without tangents, "thin" with one per column, else "identity"."""
    return "map" if w is None else "thin" if w.ndim == u.ndim else "identity"


@pytest.fixture
def closure_maps(monkeypatch):
    """(columns, seed kind) of every map call of ``classify_many``'s closure
    and grading passes.

    ``_closure_passes`` and ``_turn`` hand their whole block to
    ``tangent_columns``, which runs a wide block by calling itself on each
    chunk; both calls are kept.
    """
    widths = []
    inner = systems.tangent_columns
    passes = {asymptotics._closure_passes.__code__, asymptotics._turn.__code__}

    def spy(system, u, w=None, iteration=0):
        frame, callers = sys._getframe(1), set()
        while frame is not None:
            callers.add(frame.f_code)
            frame = frame.f_back
        if classify_many.__code__ in callers and passes & callers:
            widths.append((u.shape[1], seed_kind(u, w)))
        return inner(system, u, w, iteration)

    monkeypatch.setattr(systems, "tangent_columns", spy)
    monkeypatch.setattr(asymptotics, "tangent_columns", spy)
    return widths


def shapes(blocks):
    """(columns, period) of each closed block."""
    return [(points.shape[2], points.shape[0]) for points, _, _ in blocks]


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


def test_logistic_two_cycles_graded_in_chunks(logistic, closed_blocks):
    # more than BLOCK_WIDTH period-2 columns resolve at the first
    # checkpoint; classify_many runs its starts BLOCK_WIDTH columns at a
    # time. Starts near the low point of the 2-cycle resolve together.
    r = logistic.kind.param
    low = (r + 1.0 - np.sqrt((r - 3.0) * (r + 1.0))) / (2.0 * r)
    starts = low + np.linspace(-0.02, 0.02, BLOCK_WIDTH + 40)[None, :]
    got = classify_many(logistic, starts, BUDGET)
    assert {cls.cycle.period for cls in got} == {2}
    assert shapes(closed_blocks)[0] == (BLOCK_WIDTH, 2)
    assert sum(k for k, _ in shapes(closed_blocks)) == starts.shape[1]
    # the reference per column is slow in Python; every fifth column
    for j in range(0, starts.shape[1], 5):
        verdict, iters, period, rho, method = reference(logistic, starts[:, j], BUDGET)
        cls = got[j]
        assert (cls.verdict, cls.iterations_used) == (verdict, iters)
        assert cls.cycle.period == period
        assert cls.cycle.rho_method == method
        assert cls.cycle.rho == pytest.approx(rho, rel=1e-12, abs=0.0)


def test_mixed_periods_in_one_block(closed_blocks):
    # the negation map: 0 is fixed and every other point has period 2. The
    # first BLOCK_WIDTH starts run as one block, the last four as another.
    neg = negation_map()
    starts = np.r_[0.0, np.linspace(0.1, 0.9, BLOCK_WIDTH + 3)][None, :]
    got = assert_matches_reference(neg, starts)
    assert shapes(closed_blocks) == [(1, 1), (BLOCK_WIDTH - 1, 2), (4, 2)]
    assert got[0].cycle.period == 1 and got[1].cycle.period == 2


def test_columns_forced_through_newton(cubic, closed_blocks):
    # the cubic map contracts by 0.8 only, so most detected candidates close
    # to tol_cyc but not to newton_tol and take Newton steps. The first
    # checkpoint comes late, so the exact fixed points 0 and +-1 resolve
    # there beside columns that need polish.
    budget = ClassifyBudget(max_iterations=400, p_max=8, check_every=96,
                            newton_tol=1e-14)
    starts = np.linspace(-1.2, 1.2, 25)[None, :]
    got = assert_matches_reference(cubic, starts, budget)
    polished = [cls.cycle.newton_iterations for cls in got]
    assert max(polished) > 0 and min(polished) == 0
    # polished and unpolished columns share one block
    assert any(newton.min() == 0 < newton.max() for _, _, newton in closed_blocks)


def test_dense_eigvals_fallback_in_blocks(closed_blocks, closure_maps):
    # x -> M x with M = [[0, a J], [b J, 0]]: eigenvalues +-sqrt(2) lead, so
    # power iteration from the ones vector alternates and never settles
    half = 16
    ones = np.ones((half, half))
    zero = np.zeros((half, half))
    mat = np.block([[zero, ones * (2.0 / half)], [ones / half, zero]])
    system = linear_cooperative(matrix=mat, kappa=5.0)
    width = block_width(system.n, system.n)
    for count, chunks in ((1, [1]), (width + 1, [width + 1, width, 1])):
        closed_blocks.clear()
        closure_maps.clear()
        got = assert_matches_reference(system, np.zeros((2 * half, count)))
        # one closure per period group, carrying M 1; the enclosures [1, 2]
        # stay open for ceil(33 / 2) = 17 products, then one identity pass,
        # in chunks of width, assembles the monodromies
        assert shapes(closed_blocks) == [(count, 1)]
        assert closure_maps == [(count, "thin")] * 17 + [(n, "identity") for n in chunks]
        for cls in got:
            assert cls.cycle.rho_method == "dense"
            assert cls.cycle.rho == pytest.approx(np.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("name", ["dirichlet_cubic_15", "ring_cubic_5"])
def test_widths_straddling_the_chunk_width(name, cat, closed_blocks, closure_maps):
    # K = block_width(n, n) identity-seeded columns are one pass, K + 1 two
    # chunks; thin passes carry 2 K flat columns and run whole
    system = cat[name]
    width = block_width(system.n, system.n)
    for count in (width, width + 1):
        closed_blocks.clear()
        closure_maps.clear()
        assert_matches_reference(system, smooth_starts(system, count, seed=8))
        assert shapes(closed_blocks) == [(count, 1)]
        # the closure carries M 1 and any later product is one more call
        # (the ring's constant limits close at M 1, Dirichlet's need two)
        assert closure_maps == [(count, "thin")] * (1 + (name == "dirichlet_cubic_15"))


def test_single_start_equals_the_one_column_path(dirichlet15):
    # a start alone reproduces the one-column functions bit for bit
    start = smooth_starts(dirichlet15, 1)
    cls = classify_many(dirichlet15, start, BUDGET)[0]
    rec = refine_cycle(dirichlet15, cls.cycle.points, newton_tol=1e-10)
    np.testing.assert_array_equal(rec.points, cls.cycle.points)
    assert rec.residual == cls.cycle.residual
    det = asymptotics.cycle_spectral_radius(dirichlet15, cls.cycle, detail=True)
    assert (det.rho, det.method) == (cls.cycle.rho, cls.cycle.rho_method)


def test_only_newton_and_dense_columns_take_identity_passes(dirichlet15, monkeypatch):
    seen = []
    inner = asymptotics.tangent_columns

    def spy(system, u, w=None, iteration=0):
        seen.append((u.shape[1], seed_kind(u, w)))
        return inner(system, u, w, iteration)

    monkeypatch.setattr(asymptotics, "tangent_columns", spy)
    got = classify_many(dirichlet15, smooth_starts(dirichlet15, 4), BUDGET)
    assert {cls.cycle.rho_method for cls in got} == {"power"}
    assert [kind for _, kind in seen if kind != "map"] == ["thin", "thin"]
    # one start 1e-6 off its cycle: identity passes for its Newton column only
    firsts = np.stack([cls.cycle.points[0] for cls in got], axis=1)
    firsts[:, 2] += 1e-6
    seen.clear()
    points, _, newton, mw, monos = asymptotics._close_cycles(dirichlet15, firsts, 1, 1e-10,
                                                             12, True)
    _, dense, _ = asymptotics._perron_roots(dirichlet15, points, mw, monos)
    assert (newton > 0).tolist() == [False, False, True, False]
    assert not dense.any()
    assert {width for width, kind in seen if kind == "identity"} == {1}
    assert {width for width, kind in seen if kind == "thin"} == {4, 1}


def test_newton_monodromies_serve_the_dense_solve(logistic, monkeypatch):
    # M = 2 - r < 0 at the logistic fixed point 1 - 1/r, so its cycles go
    # dense; the columns that took Newton steps bring their monodromy along
    r = logistic.kind.param
    fixed = 1.0 - 1.0 / r
    firsts = np.array([[fixed, fixed + 1e-2, fixed - 3e-2]])
    points, _, _, mw, monos = asymptotics._close_cycles(logistic, firsts, 1, 1e-12, 12, True)
    assert sorted(monos) == [1, 2]
    seen = []
    inner = asymptotics.tangent_columns

    def spy(system, u, w=None, iteration=0):
        seen.append((u.shape[1], seed_kind(u, w)))
        return inner(system, u, w, iteration)

    monkeypatch.setattr(asymptotics, "tangent_columns", spy)
    rho, dense, products = asymptotics._perron_roots(logistic, points, mw, monos)
    # one identity pass, for the column that closed without Newton
    assert seen == [(1, "identity")]
    for k, grade in enumerate(zip(rho.tolist(), dense.tolist(), products.tolist())):
        assert grade[1:] == (True, 1)
        det = asymptotics.cycle_spectral_radius(logistic, points[:, :, k], detail=True)
        assert (det.rho, det.method, det.iterations) == (grade[0], "dense", 1)
        assert grade[0] == pytest.approx(r - 2.0, rel=1e-12)


def test_refine_cycle_carries_tangents_only_into_newton(cat, monkeypatch):
    """``refine_cycle`` maps its first closure passes without tangents and
    carries the identity only when Newton must run; its record equals that
    of the closure with Jacobians throughout, field by field."""
    dirichlet15 = cat["dirichlet_cubic_15"]
    cycle = classify_many(dirichlet15, smooth_starts(dirichlet15, 1), BUDGET)[0].cycle.points
    logistic = cat["logistic_map"]
    r = logistic.kind.param
    root = np.sqrt((r - 3.0) * (r + 1.0))
    lo, hi = (r + 1.0 - root) / (2.0 * r), (r + 1.0 + root) / (2.0 * r)
    cases = [  # system, candidate points, newton_tol, whether Newton runs
        (cat["cubic_map"], [[1.0]], 1e-12, False),
        (cat["cubic_map"], [[1.0 + 1e-6]], 1e-12, True),
        (cat["linear_cooperative"], [[0.0, 0.0]], 1e-12, False),
        (negation_map(), [[0.5], [-0.5]], 1e-12, False),
        (logistic, [[lo + 1e-3], [hi - 1e-3]], 1e-12, True),
        (logistic, [[(1.0 - 1.0 / r) / 2.0]], 1e-12, True),  # singular Newton matrix
        (dirichlet15, cycle, 1e-10, False),
        (dirichlet15, cycle + 1e-6, 1e-10, True),
    ]
    seen = []
    inner = asymptotics.tangent_columns

    def spy(system, u, w=None, iteration=0):
        seen.append(w is not None)
        return inner(system, u, w, iteration)

    monkeypatch.setattr(asymptotics, "tangent_columns", spy)
    for k, (system, points, newton_tol, newton) in enumerate(cases):
        points = np.array(points, dtype=float)
        period = len(points)
        seen.clear()
        rec = refine_cycle(system, points, newton_tol=newton_tol)
        assert seen[:period] == [False] * period, k
        assert any(seen) == newton, k
        # the graded closure of classify_many carries the ones tangent
        xs, gaps, newton, _, _ = asymptotics._close_cycles(system, points[:1].T, period,
                                                           newton_tol, 12, True)
        want = {"grid": system.grid, "period": period, "residual": gaps[0], "rho": None,
                "stability": "undetermined", "rho_method": "",
                "newton_converged": gaps[0] <= newton_tol, "newton_iterations": newton[0]}
        for name, value in want.items():
            assert getattr(rec, name) == value, (k, name)
        assert rec.points.tobytes() == xs[:, :, 0].tobytes(), k


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
        _, _, alone = prop.tangent_columns(block[:, j], tangents[:, j], escape_sup)
        assert list(alone) == [0]
        assert isinstance(alone[0], EscapeError)
        assert str(exc) == str(alone[0])
        assert (exc.step, exc.sup) == (alone[0].step, alone[0].sup)
    assert failures[2].step < failures[1].step
    _, _, fine = prop.tangent_columns(block[:, 0], tangents[:, 0], escape_sup)
    assert fine == {}


@pytest.mark.parametrize("count", [2, 9])
def test_a_column_failing_in_a_first_pass_raises_its_error(count):
    # 0 is a fixed point of the expanding linear system and ones escape
    wild = parabolic_system("dirichlet", 16, strength=25.0, form="linear")
    firsts = np.zeros((16, count))
    firsts[:, -1] = 1.0
    with pytest.raises(EscapeError) as block:
        asymptotics._close_cycles(wild, firsts, 1, 1e-10, 12)
    with pytest.raises(EscapeError) as alone:
        refine_cycle(wild, firsts[:, -1:].T, newton_tol=1e-10)
    assert str(block.value) == str(alone.value)
    assert (block.value.step, block.value.sup) == (alone.value.step, alone.value.sup)
    # without the escaping column the block closes and grades the rest
    points, gaps, _, mw, monos = asymptotics._close_cycles(wild, firsts[:, :-1], 1, 1e-10,
                                                           12, True)
    rho = asymptotics.cycle_spectral_radius(wild, np.zeros((1, 16)), detail=True)
    radii, dense, _ = asymptotics._perron_roots(wild, points, mw, monos)
    assert (gaps == 0.0).all()
    assert not dense.any() and rho.method == "power"
    np.testing.assert_allclose(radii, rho.rho, rtol=1e-12, atol=0.0)


def assert_block_newton_matches_alone(system, cands, newton_tol=1e-12):
    """Close candidates of one period as a block and one at a time; returns
    the block's (converged, Newton iterations) per column."""
    period = len(cands[0])
    firsts = np.array([c[0] for c in cands]).T
    points, gaps, newton, mw, _ = asymptotics._close_cycles(system, firsts, period,
                                                            newton_tol, 12, True)
    polish = list(zip((gaps <= newton_tol).tolist(), newton.tolist()))
    for k, cand in enumerate(cands):
        alone = refine_cycle(system, np.array(cand), newton_tol=newton_tol)
        assert polish[k] == (alone.newton_converged, alone.newton_iterations), k
        np.testing.assert_allclose(points[:, :, k], alone.points, rtol=0.0, atol=1e-12)
        assert gaps[k] == pytest.approx(alone.residual, rel=0.0, abs=1e-12)
        # the first power product returned is M 1 at the final points
        mono = np.eye(system.n)
        for point in points[:, :, k]:
            mono = jacobian(system, system.state(point)) @ mono
        np.testing.assert_allclose(mw[:, k], mono.sum(axis=1), rtol=1e-13, atol=1e-15)
    return polish


def test_block_newton_on_mixed_logistic_columns():
    logistic = logistic_map()
    r = logistic.kind.param
    fixed = 1.0 - 1.0 / r
    # f'(neutral) = 1: the Newton matrix is singular. Near it the Newton
    # step is huge, so every halved trial leaves the box (gap inf).
    neutral = (1.0 - 1.0 / r) / 2.0
    near = neutral + 1e-6
    values = [neutral, fixed + 1e-2, near, fixed - 3e-2, fixed, 0.3, 0.9]
    polish = assert_block_newton_matches_alone(logistic, [[[v]] for v in values])
    assert [iters for _, iters in polish] == [0, 3, 0, 4, 0, 5, 5]
    assert [converged for converged, _ in polish] == [
        False, True, False, True, True, True, True]
    f = lambda u: r * u * (1.0 - u)  # noqa: E731
    step = (near - f(near)) / (r * (1.0 - 2.0 * near) - 1.0)
    _, _, failures = tangent_columns(logistic, near + step / 8.0 * np.ones((1, 1)))
    assert isinstance(failures[0], EscapeError)
    # the period-2 block: off the 2-cycle by different amounts, and on it
    low = (r + 1.0 - np.sqrt((r - 3.0) * (r + 1.0))) / (2.0 * r)
    high = f(low)
    pairs = [(low + 1e-3, high - 1e-3), (low - 2e-2, high + 1e-2),
             (high + 5e-3, low), (low, high)]
    polish = assert_block_newton_matches_alone(
        logistic, [[[a], [b]] for a, b in pairs])
    assert all(converged for converged, _ in polish)
    assert min(iters for _, iters in polish[:3]) > 1


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
