"""The sampled property checks, run as column blocks, against per-sample loops.

Each reference below draws the same samples in the same order as its check,
one sample at a time with the literal generator calls of ``loop_box_state``
and ``loop_ordered_pair``, and maps them one state at a time through
``evaluate`` or a vector tangent pass. Counts must agree exactly; margins
agree to roundoff, or exactly where they are infinite. The block samplers
must give the bits of those loops, and the dissipativity check the bits of
its one-sample-at-a-time formula.
"""

import json

import numpy as np
import pytest

from monotone_lab import (
    ClassifyBudget,
    EscapeError,
    NumericalError,
    check_equivariance,
    check_monotone,
    check_strong_monotone,
    check_strong_positivity,
    classify_symmetric_limit,
    draw_ordered_pairs,
    evaluate,
    interval_reflection,
    linear_cooperative,
    logistic_map,
    negation_map,
    parabolic_system,
    ring_rotation,
    sample_initial,
    smooth_field,
    symmetric_limit_survey,
    trivial_action,
    validate_dissipativity,
)
from monotone_lab.order import (
    CHECK_ETA_INTERIOR, CHECK_TOL_EQ, TOL_EQ, PropertyReport, draw_box_states,
)
from monotone_lab.systems import Parabolic, block_width, tangent_columns
from shipped import shipped

SYSTEMS = (
    "cubic_map",
    "linear_cooperative",
    "logistic_map",
    "negation_map",
    "dirichlet_cubic_5",
    "ring_cubic_5",
)


def system_named(cat, name):
    return negation_map() if name == "negation_map" else cat[name]


def action_for(system):
    if system.grid.kind == "ring":
        return ring_rotation(system.grid)
    if system.grid.kind == "dirichlet":
        return interval_reflection(system.grid)
    return trivial_action(system.grid)


def loop_box_state(system, rng):
    """One state uniform in the trapping box: one generator call."""
    return rng.uniform(-system.kappa, system.kappa, size=system.n)


def loop_ordered_pair(system, rng):
    """One ordered pair x <= y in the box, in three generator calls: x, w, r."""
    kappa, n = system.kappa, system.n
    x = rng.uniform(-kappa, kappa, size=n)
    w = rng.uniform(0.0, 1.0, size=n)
    with np.errstate(divide="ignore"):
        headroom = np.where(w > 0.0, (kappa - x) / np.where(w > 0.0, w, 1.0), np.inf)
    r = rng.uniform(0.0, 1.0) * float(np.min(headroom))
    return x, x + r * w


def per_pair_monotone(system, pair_count, seed, strong):
    """(violations, pairs tested, worst margin) of a monotone check, pair by pair."""
    rng = np.random.default_rng(seed)
    violations, tested = 0, 0
    worst = np.inf if strong else -np.inf
    for _ in range(pair_count):
        x, y = loop_ordered_pair(system, rng)
        if strong and np.max(y - x) <= CHECK_TOL_EQ:
            continue
        tested += 1
        try:
            fx, fy = evaluate(system, system.state(x)), evaluate(system, system.state(y))
        except EscapeError:
            violations += 1
            worst = -np.inf if strong else np.inf
            continue
        if strong:
            gap = float(np.min(fy.values - fx.values))
            worst = min(worst, gap)
            violations += gap <= CHECK_ETA_INTERIOR
        else:
            margin = float(np.max(fx.values - fy.values))
            worst = max(worst, margin)
            violations += margin > TOL_EQ
    return violations, tested, worst


def per_probe_positivity(system, probe_count, seed, eta=1e-12):
    """(violations, probes, worst gap) of the positivity check, probe by probe."""
    rng = np.random.default_rng(seed)
    n, kind = system.n, system.kind
    violations, worst = 0, np.inf
    for j in range(probe_count):
        x = loop_box_state(system, rng)
        if j < n:
            v = np.zeros(n)
            v[j] = 1.0
        else:
            v = rng.uniform(0.0, 1.0, size=n)
        if isinstance(kind, Parabolic):
            _, dv, failures = kind.propagator.tangent_columns(x, v, 2.0 * system.kappa)
            if failures:  # a failing probe is a violation at gap -inf
                dv = np.array([-np.inf])
        elif hasattr(kind, "deriv"):
            dv = kind.deriv(x) * v
        else:
            dv = kind.matrix @ v
        gap = float(np.min(dv))
        worst = min(worst, gap)
        violations += gap <= eta
    return violations, probe_count, worst


def per_sample_equivariance(system, action, sample_count, seed, tol=1e-10):
    """(violations, samples, worst gap) of the equivariance check, state by state."""
    rng = np.random.default_rng(seed)
    violations, worst = 0, -np.inf
    for _ in range(sample_count):
        x = system.state(loop_box_state(system, rng))
        gap = -np.inf
        try:
            fx = evaluate(system, x)
            for perm in action.generators:
                f_gx = evaluate(system, x.with_values(x.values[perm]))
                gap = max(gap, float(np.max(np.abs(f_gx.values - fx.values[perm]))))
        except RuntimeError:
            gap = np.inf
        worst = max(worst, gap)
        violations += gap > tol
    return violations, sample_count, worst


def assert_same(rep, expected):
    violations, tested, worst = expected
    assert (rep.violations, rep.pairs_tested) == (violations, tested)
    if np.isinf(worst):
        assert rep.worst_margin == worst
    else:
        assert abs(rep.worst_margin - worst) <= 1e-12


@pytest.mark.parametrize("name", SYSTEMS)
def test_block_checks_match_per_sample_loops(cat, name):
    system = system_named(cat, name)
    # the per-sample references are slow on the PDEs; fewer samples there,
    # still more probes than nodes so random directions are drawn too
    pairs = 40 if isinstance(system.kind, Parabolic) else 200
    probes = system.n + 10
    assert_same(
        check_monotone(system, pair_count=pairs, seed=7081),
        per_pair_monotone(system, pairs, 7081, strong=False),
    )
    assert_same(
        check_strong_monotone(system, pair_count=pairs, seed=7082),
        per_pair_monotone(system, pairs, 7082, strong=True),
    )
    assert_same(
        check_strong_positivity(system, probe_count=probes, seed=7085),
        per_probe_positivity(system, probes, 7085),
    )
    action = action_for(system)
    assert_same(
        check_equivariance(system, action, sample_count=12, seed=7086),
        per_sample_equivariance(system, action, 12, 7086),
    )


def as_block(columns, n):
    """Per-sample draws stacked as the columns of an (n, count) block."""
    return np.array(columns, dtype=float).reshape(-1, n).T


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(shipped()))
def test_block_samplers_match_one_at_a_time_draws(cat, name):
    system = cat[name]
    n, kappa = system.n, system.kappa
    for count in sorted({0, 1, n - 1, n, n + 1, 200}):
        block, loop = np.random.default_rng(count), np.random.default_rng(count)
        xs, ys = draw_ordered_pairs(system, block, count)
        pairs = [loop_ordered_pair(system, loop) for _ in range(count)]
        assert_same_bits(xs, as_block([x for x, _ in pairs], n))
        assert_same_bits(ys, as_block([y for _, y in pairs], n))
        assert np.all(-kappa <= xs) and np.all(xs <= ys) and np.all(ys <= kappa)
        assert_same_bits(
            draw_box_states(system, block, count),
            as_block([loop_box_state(system, loop) for _ in range(count)], n),
        )
        # the random probes of check_strong_positivity: [x | v] per probe
        probes = []
        for _ in range(count):
            x = loop_box_state(system, loop)
            probes.append(np.concatenate([x, loop.uniform(0.0, 1.0, size=n)]))
        assert_same_bits(draw_box_states(system, block, count, n), as_block(probes, 2 * n))
        # the generators read the same doubles, so they stand at the same place
        assert block.random() == loop.random()


def per_sample_dissipativity(system, sample_count, seed):
    """The dissipativity report, sample by sample, with the reaction of a
    constant state read at the sampled node."""
    kind = system.kind
    rng = np.random.default_rng(seed)
    kappa = system.kappa
    tau = kind.tau if isinstance(kind, Parabolic) else 1.0
    violations, worst = 0, -np.inf
    for _ in range(sample_count):
        t = rng.uniform(0.0, tau)
        node = int(rng.integers(0, system.n))
        u = float(rng.uniform(kappa, 2.0 * kappa)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        if isinstance(kind, Parabolic):
            nl = kind.nonlinearity
            g = np.empty(system.n)
            nl.g_into(np.full(system.n, u), g, np.empty(system.n))
            f = float((g[:, None] * nl.factor(nl.amplitude(t, tau)))[node, 0])
        else:
            f = kind.value(u) - u
        margin = u * f
        worst = max(worst, margin)
        violations += margin >= 0.0
    return PropertyReport("dissipativity", sample_count, violations, worst, seed)


def test_dissipativity_matches_one_sample_at_a_time(cat):
    scalar = [s for name, s in cat.items() if name != "linear_cooperative"]
    extra = [
        parabolic_system("ring", 16, 5.0, modulation=0.4, profile="ramp", name="ramp"),
        parabolic_system("neumann", 24, 8.0, profile="wave", kappa=0.8, name="wave"),
        parabolic_system("dirichlet", 16, 3.0, form="linear", name="linear"),
        logistic_map(3.9),
    ]
    for system in scalar + extra:
        for count in (0, 1, 200):
            for seed in (7083, count):
                got = validate_dissipativity(system, sample_count=count, seed=seed)
                want = per_sample_dissipativity(system, count, seed)
                # json text tells -0.0 from 0.0, which == does not
                assert json.dumps(got.to_json()) == json.dumps(want.to_json())


def test_escaping_pairs_are_violations_at_infinite_margin(logistic):
    # the logistic map throws most box pairs out of the inflated box
    rep = check_monotone(logistic, pair_count=200, seed=7081)
    assert (rep.violations, rep.worst_margin) == (123, np.inf)
    rep = check_strong_monotone(logistic, pair_count=200, seed=7082)
    assert (rep.violations, rep.worst_margin) == (123, -np.inf)


def test_equivariance_gap_is_infinite_where_a_column_escapes(logistic):
    rep = check_equivariance(logistic, trivial_action(logistic.grid), seed=7086)
    assert (rep.violations, rep.worst_margin) == (12, np.inf)
    # a PDE whose states leave the box: every sample fails, as state by state
    wild = parabolic_system("dirichlet", 16, strength=25.0, form="linear")
    action = interval_reflection(wild.grid)
    rep = check_equivariance(wild, action, sample_count=6, seed=3)
    assert_same(rep, per_sample_equivariance(wild, action, 6, 3))
    assert rep.violations == 6


def test_positivity_escape_is_a_violation_at_infinite_gap():
    wild = parabolic_system("dirichlet", 16, strength=25.0, form="linear")
    rep = check_strong_positivity(wild, probe_count=5, seed=1)
    assert_same(rep, per_probe_positivity(wild, 5, 1))
    assert (rep.violations, rep.worst_margin) == (5, -np.inf)
    # a map that escapes from some box states: the probes that stay are graded
    capped = parabolic_system("dirichlet", 8, 15.0, steps_per_period=20)
    rep = check_strong_positivity(capped, probe_count=50, seed=7085)
    assert_same(rep, per_probe_positivity(capped, 50, 7085))
    assert 0 < rep.violations < 50 and rep.worst_margin == -np.inf


def test_block_width_does_not_change_results(logistic):
    count = 150
    # 64 nodes sit at the floor width of 128 columns, so the 2 count pair
    # columns and the count probes of a 64-node closed form and of a 64-node
    # ring at 20 steps per period cross chunk edges, with per-sample
    # references this cheap; the logistic's pairs map in one call
    coop = linear_cooperative(matrix=0.5 * np.eye(64) + 0.2 / 64)
    ring = parabolic_system("ring", 64, 5.0, steps_per_period=20)
    assert block_width(logistic.n) >= 2 * count and count > block_width(64)
    for system in (logistic, coop, ring):
        assert_same(
            check_monotone(system, pair_count=count, seed=11),
            per_pair_monotone(system, count, 11, strong=False),
        )
        assert_same(
            check_strong_monotone(system, pair_count=count, seed=12),
            per_pair_monotone(system, count, 12, strong=True),
        )
        action = action_for(system)
        assert_same(
            check_equivariance(system, action, sample_count=count, seed=13),
            per_sample_equivariance(system, action, count, 13),
        )
    assert_same(
        check_strong_positivity(ring, probe_count=count, seed=14),
        per_probe_positivity(ring, count, 14),
    )


def test_zero_samples():
    ring = parabolic_system("ring", 8, 5.0, steps_per_period=20)
    assert check_monotone(ring, pair_count=0).worst_margin == -np.inf
    assert check_strong_monotone(ring, pair_count=0).pairs_tested == 0
    assert check_strong_positivity(ring, probe_count=0).worst_margin == np.inf
    rep = check_equivariance(ring, ring_rotation(ring.grid), sample_count=0)
    assert (rep.violations, rep.worst_margin) == (0, -np.inf)
    survey = symmetric_limit_survey(ring, ring_rotation(ring.grid), [])
    assert (survey.count, survey.symmetric_fraction, survey.max_deviation) == (0, None, 0.0)


def test_survey_matches_single_start_classification(ring5, cubic):
    budget = ClassifyBudget(max_iterations=120, p_max=8)
    action = ring_rotation(ring5.grid)
    sampler = smooth_field(amplitude=1.0, modes=6, seed=5)
    states = [sample_initial(sampler, i, ring5.grid) for i in range(6)]
    survey = symmetric_limit_survey(ring5, action, states, budget=budget)
    for x0, verdict, dev in zip(states, survey.verdicts, survey.deviations):
        cls, per_point = classify_symmetric_limit(ring5, action, x0, budget)
        assert verdict == cls.verdict
        assert abs(dev - max(v.deviation for v in per_point)) <= 1e-12
    # scalar starts and a mix of verdicts: cubic orbits from 0.3 settle at 1,
    # from 0 they sit on the unstable fixed point
    short = ClassifyBudget(max_iterations=300, p_max=4)
    action = trivial_action(cubic.grid)
    starts = [0.3, 0.0, 2.0]
    survey = symmetric_limit_survey(cubic, action, starts, short)
    expected = [
        classify_symmetric_limit(cubic, action, x0, short)[0].verdict for x0 in starts
    ]
    assert survey.verdicts == expected


def assert_chunks_match(system, u, w, widths):
    """One ``tangent_columns`` call on a wide block against its chunks.

    The chunks are the consecutive column ranges of ``widths``; images and
    tangents must agree bit for bit, and every failure must sit at its
    global index with the message, step and sup of its column mapped alone.
    """
    y, dw, failures = tangent_columns(system, u, w)
    lo = 0
    for width in widths:
        cols = slice(lo, lo + width)
        y_c, dw_c, failures_c = tangent_columns(
            system, u[:, cols].copy(), None if w is None else w[:, cols].copy()
        )
        np.testing.assert_array_equal(y[:, cols], y_c)
        if w is not None:
            np.testing.assert_array_equal(dw[:, cols], dw_c)
        assert sorted(failures_c) == [j - lo for j in sorted(failures) if lo <= j < lo + width]
        lo += width
    assert lo == u.shape[1]
    for j, exc in failures.items():
        _, _, alone = tangent_columns(system, u[:, j], None if w is None else w[:, j])
        assert list(alone) == [0]
        assert type(exc) is type(alone[0])
        assert str(exc) == str(alone[0])
        if isinstance(exc, EscapeError):
            assert (exc.step, exc.sup) == (alone[0].step, alone[0].sup)
    return failures


def recorded_widths(system, monkeypatch):
    """The base columns of every propagator call on ``system``, each checked
    to be at most ``block_width(n, m)`` for its m tangents per column."""
    prop = system.kind.propagator
    widths = []

    def recording(u0, v0, escape_sup, iteration=0):
        along = v0 is not None and v0.ndim > u0.ndim
        width = u0.shape[1] if u0.ndim == 2 else 1
        assert width <= block_width(system.n, v0.shape[-1] if along else 1)
        widths.append(width)
        return type(prop).tangent_columns(prop, u0, v0, escape_sup, iteration)

    monkeypatch.setattr(prop, "tangent_columns", recording)
    return widths


def test_identity_seeds_run_in_chunks_of_the_flat_width(ring5, monkeypatch):
    n = ring5.n
    width = block_width(n, n)
    assert width == 32  # 8192 / 16 flat columns of 16 tangents each
    count = width + 1
    rng = np.random.default_rng(4)
    u = rng.uniform(-1.0, 1.0, (n, count))
    u[:, width] = 10.0  # leaves the box in the second chunk
    seed = np.repeat(np.eye(n)[:, None, :], count, axis=1)
    widths = recorded_widths(ring5, monkeypatch)
    tangent_columns(ring5, u, seed)
    assert widths == [width, 1]
    # the 400 ends of the default 200 pairs are one call of at most 512
    widths.clear()
    check_monotone(ring5)
    check_strong_monotone(ring5)
    assert widths == [400, 400] and block_width(n) == 512
    # from 64 nodes up the widths stay at the floor of 128 columns
    big = parabolic_system("ring", 128, 5.0, steps_per_period=20)
    wide = rng.uniform(-1.0, 1.0, (128, 130))
    big_widths = recorded_widths(big, monkeypatch)
    tangent_columns(big, wide)
    tangent_columns(big, wide, np.ones_like(wide))
    tangent_columns(big, wide[:, :2], np.repeat(np.eye(128)[:, None, :], 2, axis=1))
    assert big_widths == [128, 2, 128, 2, 1, 1]
    monkeypatch.undo()
    failures = assert_chunks_match(ring5, u, seed, [width, 1])
    assert sorted(failures) == [width]
    assert isinstance(failures[width], EscapeError)


def test_a_wide_block_without_tangents_maps_in_chunks(coop):
    width = block_width(coop.n)
    assert width == 4096  # 8192 / 2
    count = 2 * width + 44
    rng = np.random.default_rng(5)
    u = rng.uniform(-1.5, 1.5, (coop.n, count))
    # failures on both sides of both chunk edges
    escapes = [3, width - 1, width, 2 * width, count - 1]
    u[:, escapes] = 10.0
    u[0, 2 * width - 1] = np.nan
    failures = assert_chunks_match(coop, u, None, [width, width, 44])
    assert sorted(failures) == sorted(escapes + [2 * width - 1])
    assert all(isinstance(failures[j], EscapeError) for j in escapes)
    assert isinstance(failures[2 * width - 1], NumericalError)
