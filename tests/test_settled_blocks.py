"""Blocks that map to themselves bit for bit are not mapped again.

``trapping_check`` stops at such a block, and ``systems.map_rows``, the
segment mapper of ``classify_many``, fills the rest of a segment (up to
the next checkpoint) without mapping, on every kind. The references here
map every iterate: ``trapping_check`` must report exactly what the full
horizon gives, and ``classify_many`` exactly what it gives with the rule
switched off, bit for bit, with fewer maps. The maps are counted as
``systems.tangent_columns`` calls, which ``map_rows`` makes once per
parabolic map; closed-form segments make none (see test_segment_maps.py),
and their maps are counted as ``AnalyticScalar.value`` calls.
"""

from dataclasses import astuple

import numpy as np
import pytest

from monotone_lab import (
    ClassifyBudget,
    PropertyReport,
    check_equivariance,
    check_monotone,
    check_strong_monotone,
    check_strong_positivity,
    classify_many,
    classify_orbit,
    parabolic_system,
    ring_rotation,
    sample_initial,
    smooth_field,
    trapping_check,
    validate_dissipativity,
)
from monotone_lab import asymptotics, systems
from monotone_lab.order import draw_box_state
from monotone_lab.systems import _maps_to_itself, tangent_columns

BUDGET = ClassifyBudget(max_iterations=400, p_max=8)


def counted(monkeypatch, module):
    """Patch ``module.tangent_columns`` to count its calls; returns the count list."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return tangent_columns(*args, **kwargs)

    monkeypatch.setattr(module, "tangent_columns", spy)
    return calls


def full_horizon_trapping(system, states, horizon, seed):
    """The trapping report of every one of ``horizon`` maps, and the first
    map whose block equals the block it was mapped from (None if none)."""
    exited = np.zeros(len(states), dtype=bool)
    worst, settled = -np.inf, None
    live = np.arange(len(states))
    block = np.stack([x.values for x in states], axis=1)
    for k in range(1, horizon + 1):
        before = block
        block, _, failures = tangent_columns(system, block, iteration=k)
        if failures:
            gone = list(failures)
            exited[live[gone]] = True
            worst = np.inf
            live, block = np.delete(live, gone), np.delete(block, gone, axis=1)
            if not live.size:
                break
        sups = np.max(np.abs(block), axis=0)
        worst = max(worst, float(np.max(sups - system.kappa)))
        exited[live[sups > system.kappa]] = True
        same = before.shape == block.shape and before.tobytes() == block.tobytes()
        if settled is None and same:
            settled = k
    report = PropertyReport("trapping", len(states), int(np.sum(exited)), worst, seed)
    return report, settled


def box_states(system, count, seed):
    rng = np.random.default_rng(seed)
    return [draw_box_state(system, rng) for _ in range(count)]


def escaping_case():
    # a linear Dirichlet problem expanding like exp(25 - pi^2) per period:
    # two columns escape, the zero column then maps to itself
    wild = parabolic_system("dirichlet", 16, strength=25.0, form="linear")
    xs = wild.grid.nodes()
    return wild, [wild.state(a * np.sin(np.pi * xs)) for a in (0.001, 0.5, 0.0)]


@pytest.mark.parametrize(
    "name", ["ring_cubic_5", "neumann_cubic_5", "dirichlet_cubic_15", "escaping"]
)
def test_trapping_report_is_the_full_horizon_report(name, cat):
    if name == "escaping":
        system, states = escaping_case()
    else:
        system, states = cat[name], box_states(cat[name], 20, 7084)
    rep = trapping_check(system, horizon=60, seed=7084, initial_states=states)
    want, _ = full_horizon_trapping(system, states, 60, 7084)
    assert astuple(rep) == astuple(want)
    assert rep.worst_margin.hex() == want.worst_margin.hex()
    if name == "escaping":
        assert (rep.violations, rep.worst_margin) == (2, np.inf)


def test_trapping_stops_at_the_first_settled_block(ring5, monkeypatch):
    calls = counted(monkeypatch, systems)
    rep = trapping_check(ring5, initial_states=[ring5.zero_state()])
    assert len(calls) == 1  # 0 maps to 0; the horizon is 200
    assert (rep.pairs_tested, rep.violations, rep.worst_margin) == (1, 0, -ring5.kappa)
    # the default check's 20 box samples settle long before the horizon
    calls.clear()
    rep = trapping_check(ring5)
    monkeypatch.undo()
    want, settled = full_horizon_trapping(ring5, box_states(ring5, 20, 7084), 200, 7084)
    assert astuple(rep) == astuple(want)
    assert settled is not None and len(calls) == settled < 200


def test_helper_compares_bits_and_shapes():
    zero = np.array([[0.0]])
    assert _maps_to_itself(zero, zero.copy())
    assert not _maps_to_itself(zero, np.array([[-0.0]]))
    assert not _maps_to_itself(np.zeros((1, 2)), np.zeros((2, 1)))
    assert not _maps_to_itself(np.zeros((2, 2)), np.zeros((2, 1)))


def test_classify_from_zero_maps_once(dirichlet15, monkeypatch):
    maps, passes = counted(monkeypatch, systems), counted(monkeypatch, asymptotics)
    cls = classify_orbit(dirichlet15, np.zeros(dirichlet15.n), BUDGET)
    # one map, then the period-1 closure pass and the second power product
    assert (len(maps), len(passes)) == (1, 2)
    monkeypatch.setattr(systems, "_maps_to_itself", lambda before, after: False)
    maps.clear()
    passes.clear()
    want = classify_orbit(dirichlet15, np.zeros(dirichlet15.n), BUDGET)
    assert (len(maps), len(passes)) == (24, 2)
    assert (cls.verdict, cls.iterations_used) == ("unstable_cycle", 24)
    assert (cls.verdict, cls.iterations_used, cls.diagnostics) == (
        want.verdict, want.iterations_used, want.diagnostics
    )
    assert cls.cycle.rho.hex() == want.cycle.rho.hex()


def fingerprint(classifications):
    """Everything a classification reports, floats as their bits."""
    out = []
    for cls in classifications:
        rec = cls.cycle
        cycle = None if rec is None else (
            rec.period, rec.residual.hex(), rec.rho.hex(), rec.rho_method,
            rec.newton_converged, rec.newton_iterations, rec.points.tobytes(),
        )
        out.append((cls.verdict, cls.iterations_used, cls.diagnostics, cycle))
    return out


def settling_starts(system):
    """Constant equilibria first (0, and +-1 where the map fixes constants),
    then starts that take a while to settle."""
    n, kind = system.n, system.grid.kind
    consts = [0.0, 1.0, -1.0] if kind in ("flat", "neumann", "ring") else [0.0]
    cols = [np.full(n, c) for c in consts]
    if kind == "flat":
        cols += [np.full(n, c) for c in (-1.2, -0.4, 0.3, 0.8)]
    else:
        sampler = smooth_field(amplitude=1.0, seed=11)
        cols += [sample_initial(sampler, i, system.grid).values for i in range(5)]
    return np.stack(cols, axis=1)


@pytest.mark.parametrize(
    "name",
    ["cubic_map", "neumann_cubic_5", "ring_cubic_5", "dirichlet_cubic_5", "radial_cubic_15"],
)
@pytest.mark.parametrize(
    "budget",
    [BUDGET, ClassifyBudget(max_iterations=50, p_max=4, check_every=7),
     ClassifyBudget(max_iterations=10, p_max=8)],
    ids=["config", "off-schedule", "no-checkpoint"],
)
def test_classify_many_matches_every_map(name, budget, cat, monkeypatch, value_calls):
    # the whole block, whose settled columns retire with the rest, and the
    # first three starts alone
    system = cat[name]
    starts = settling_starts(system)
    blocks = [starts] + [starts[:, j:j + 1] for j in range(3)]
    calls = counted(monkeypatch, systems)
    got = [fingerprint(classify_many(system, block, budget)) for block in blocks]
    fast, fast_values = len(calls), len(value_calls)
    monkeypatch.setattr(systems, "_maps_to_itself", lambda before, after: False)
    calls.clear()
    value_calls.clear()
    want = [fingerprint(classify_many(system, block, budget)) for block in blocks]
    assert got == want
    if name == "cubic_map":
        # closed-form segments map without tangent_columns, settled or not,
        # and stop calling the map once settled
        assert fast == len(calls) == 0
        assert fast_values < len(value_calls)
    else:
        assert fast < len(calls)


def test_negative_counts_are_refused(ring5):
    action = ring_rotation(ring5.grid)
    calls = [
        (lambda: trapping_check(ring5, horizon=-5), "horizon"),
        (lambda: trapping_check(ring5, sample_count=-1), "sample_count"),
        (lambda: check_monotone(ring5, pair_count=-1), "pair_count"),
        (lambda: check_strong_monotone(ring5, pair_count=-1), "pair_count"),
        (lambda: check_strong_positivity(ring5, probe_count=-1), "probe_count"),
        (lambda: validate_dissipativity(ring5, sample_count=-1), "sample_count"),
        (lambda: check_equivariance(ring5, action, sample_count=-1), "sample_count"),
    ]
    for call, name in calls:
        with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
            call()
    # zero stays allowed
    assert trapping_check(ring5, horizon=0).worst_margin == -np.inf
    assert trapping_check(ring5, sample_count=0).pairs_tested == 0
    assert validate_dissipativity(ring5, sample_count=0).pairs_tested == 0
