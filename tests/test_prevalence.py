"""Samplers, prevalence reports, line probes, and the determinism contract."""

import json

import numpy as np
import pytest

from monotone_lab import (
    ClassifyBudget,
    Grid,
    GridError,
    LineReport,
    OrderError,
    PrevalenceReport,
    RHO_EDGES,
    SamplerSpec,
    box_uniform,
    classify_many,
    classify_orbit,
    estimate_prevalence,
    line_probe,
    line_scan,
    linear_cooperative,
    parabolic_system,
    sample_initial,
    smooth_field,
    wilson_interval,
)
from monotone_lab import prevalence

FAST = ClassifyBudget(max_iterations=200, p_max=8)


# ---------------------------------------------------------------- samplers

def test_sampler_validation():
    with pytest.raises(ValueError):
        SamplerSpec("grid_sweep")
    with pytest.raises(ValueError, match="amplitude must be positive"):
        box_uniform(amplitude=0.0)
    with pytest.raises(ValueError, match="amplitude must be positive"):
        smooth_field(amplitude=np.nan)
    with pytest.raises(ValueError, match="amplitude must be finite"):
        box_uniform(amplitude=np.inf)
    with pytest.raises(ValueError):
        smooth_field(modes=0)
    with pytest.raises(ValueError):
        SamplerSpec("line_scan")
    with pytest.raises(OrderError):
        line_scan([0.0], [0.0])
    with pytest.raises(ValueError):
        line_scan([0.0], [1.0], resolution=0)
    with pytest.raises(ValueError):
        line_scan([0.0], [1.0], s_min=1.0, s_max=0.0)
    with pytest.raises(ValueError):
        line_scan([0.0, 0.0], [1.0])


def test_sample_initial_deterministic():
    grid = Grid("flat", 4)
    spec = box_uniform(amplitude=1.2, seed=9)
    a = sample_initial(spec, 3, grid)
    b = sample_initial(spec, 3, grid)
    np.testing.assert_array_equal(a.values, b.values)
    c = sample_initial(spec, 4, grid)
    assert np.max(np.abs(a.values - c.values)) > 0.0
    d = sample_initial(box_uniform(amplitude=1.2, seed=10), 3, grid)
    assert np.max(np.abs(a.values - d.values)) > 0.0


def test_box_uniform_containment():
    grid = Grid("flat", 6)
    spec = box_uniform(amplitude=0.7, seed=1)
    for i in range(200):
        assert sample_initial(spec, i, grid).sup_norm() <= 0.7


@pytest.mark.parametrize(
    "grid",
    [
        Grid("dirichlet", 16),
        Grid("neumann", 16),
        Grid("ring", 16),
        Grid("radial", 16, dim=3),
    ],
)
def test_smooth_field_respects_amplitude(grid):
    spec = smooth_field(amplitude=0.8, modes=6, seed=4)
    for i in range(50):
        u = sample_initial(spec, i, grid)
        assert u.sup_norm() <= 0.8 + 1e-12


def test_smooth_field_needs_spatial_grid():
    spec = smooth_field(amplitude=0.5)
    with pytest.raises(GridError):
        sample_initial(spec, 0, Grid("flat", 4))


def test_line_scan_addressing():
    spec = line_scan([-0.505], [1.0], s_min=0.0, s_max=1.01, resolution=101)
    np.testing.assert_allclose(spec.s_values(), np.linspace(0.0, 1.01, 101))
    grid = Grid("flat", 1)
    mid = sample_initial(spec, 50, grid)
    assert mid.values[0] == 0.0  # -0.505 + 0.505 exactly
    with pytest.raises(ValueError):
        sample_initial(spec, 101, grid)
    with pytest.raises(ValueError):
        sample_initial(spec, -1, grid)


@pytest.mark.parametrize(
    "s_min, s_max",
    [(0.0, 1.01), (-0.6, 0.6), (0.3, 0.3), (-1.0, -1e-3), (1e-17, 0.1), (0, 1)],
)
@pytest.mark.parametrize("resolution", [1, 2, 3, 7, 101, 1000])
def test_line_scan_blocks_hold_the_sampled_points(s_min, s_max, resolution):
    # the columns cut from one sweep hold sample_initial's points to the bit
    base = np.array([-0.2, 0.1, 0.4])
    direction = np.array([1.0, 0.3, 2.5])
    spec = line_scan(base, direction, s_min=s_min, s_max=s_max, resolution=resolution)
    # every sweep above stays inside sup norm 2.925
    system = linear_cooperative(matrix=0.5 * np.eye(3), kappa=3.0)
    starts = prevalence.sample_starts(system, spec, resolution)
    assert starts.shape == (3, resolution)
    for index in range(resolution):
        np.testing.assert_array_equal(
            starts[:, index], sample_initial(spec, index, system.grid).values
        )


@pytest.mark.parametrize(
    "spec", [box_uniform(amplitude=1.2, seed=5), smooth_field(amplitude=1.2, seed=5)]
)
@pytest.mark.parametrize("count", [0, 1, 7])
def test_sample_starts_stack_sample_initial(spec, count):
    system = parabolic_system("neumann", 8)
    starts = prevalence.sample_starts(system, spec, count)
    expected = [sample_initial(spec, i, system.grid).values for i in range(count)]
    np.testing.assert_array_equal(starts, np.reshape(expected, (count, 8)).T)


def test_sample_starts_refusals(cubic):
    line = line_scan([-0.5], [1.0], s_max=1.0, resolution=5)
    with pytest.raises(ValueError, match="count must be nonnegative"):
        prevalence.sample_starts(cubic, box_uniform(amplitude=1.0), -1)
    with pytest.raises(ValueError, match="exceeds the line_scan resolution"):
        prevalence.sample_starts(cubic, line, 6)
    with pytest.raises(ValueError, match="exceeds the trapping amplitude"):
        prevalence.sample_starts(cubic, smooth_field(amplitude=1.6), 1)
    with pytest.raises(ValueError, match="leave the trapping box"):
        prevalence.sample_starts(cubic, line_scan([0.0], [1.0], s_max=2.0), 1)
    assert prevalence.sample_starts(cubic, line, 5).shape == (1, 5)


def test_default_sampler_is_box_uniform_at_default_amplitude(cubic):
    spec = prevalence.default_sampler(cubic)
    assert spec.describe() == box_uniform(amplitude=0.9 * cubic.kappa).describe()
    assert estimate_prevalence(cubic, count=0).sampler == spec.describe()


# ------------------------------------------------------------- estimation

def test_prevalence_refuses_non_monotone(logistic):
    with pytest.raises(ValueError):
        estimate_prevalence(logistic, count=10)


def test_prevalence_rejects_oversized_sampler(cubic):
    with pytest.raises(ValueError):
        estimate_prevalence(cubic, sampler=box_uniform(amplitude=2.0), count=10)
    with pytest.raises(ValueError):
        estimate_prevalence(cubic, count=-1)


def test_prevalence_cubic_box(cubic):
    rep = estimate_prevalence(
        cubic, sampler=box_uniform(amplitude=1.4, seed=11), count=400, budget=FAST
    )
    assert rep.count == 400
    assert rep.stable_fraction >= 0.995
    assert rep.counts["stable_cycle"] + rep.counts["unstable_cycle"] + \
        rep.counts["unresolved"] + rep.counts["escaped"] == 400
    lo, hi = rep.wilson_95
    assert lo <= rep.stable_fraction <= hi
    assert set(rep.period_histogram) == {1}
    hist = rep.rho_histogram
    assert sum(hist["counts"]) + hist["overflow"] == sum(
        v for v in rep.period_histogram.values()
    )
    assert rep.caveat.startswith("Monte Carlo evidence")


def test_prevalence_linear_cooperative_is_total(coop):
    rep = estimate_prevalence(
        coop, sampler=box_uniform(amplitude=1.2, seed=5), count=100, budget=FAST
    )
    assert rep.stable_fraction == 1.0
    assert rep.counts["stable_cycle"] == 100


def test_prevalence_zero_samples(cubic):
    rep = estimate_prevalence(cubic, count=0, budget=FAST)
    assert rep.stable_fraction is None
    assert rep.wilson_95 is None
    csv = rep.to_csv()
    lines = csv.strip().split("\n")
    assert len(lines) == 7
    assert "stable_fraction,undefined" in lines
    doc = json.loads(json.dumps(rep.to_json(), indent=2))
    round_tripped = PrevalenceReport.from_json(doc)
    assert round_tripped.to_json() == rep.to_json()


def test_prevalence_report_thread_invariance(cubic, dirichlet15):
    cases = (
        (cubic, box_uniform(amplitude=1.4, seed=23), 100),
        (dirichlet15, smooth_field(amplitude=1.0, seed=23), 12),
    )
    for system, sampler, count in cases:
        kwargs = dict(sampler=sampler, count=count, budget=FAST)
        one = estimate_prevalence(system, threads=1, **kwargs).to_json()
        four = estimate_prevalence(system, threads=4, **kwargs).to_json()
        one.pop("wall_time")
        four.pop("wall_time")
        assert json.dumps(one, sort_keys=True) == json.dumps(four, sort_keys=True)


def test_prevalence_csv_schema(cubic):
    rep = estimate_prevalence(
        cubic, sampler=box_uniform(amplitude=1.0, seed=2), count=20, budget=FAST
    )
    lines = rep.to_csv().strip().split("\n")
    assert len(lines) == 7
    heads = [ln.split(",")[0] for ln in lines]
    assert heads == [
        "stable_cycle", "unstable_cycle", "unresolved", "escaped",
        "samples", "stable_fraction", "wilson_95",
    ]


def test_prevalence_json_round_trip(cubic):
    rep = estimate_prevalence(
        cubic, sampler=smooth_field(amplitude=1.0, seed=3), count=0, budget=FAST
    )
    assert rep.sampler["strategy"] == "smooth_field"
    doc = json.loads(json.dumps(rep.to_json(), indent=2))
    assert doc["kind"] == "prevalence"
    assert PrevalenceReport.from_json(doc).to_json() == rep.to_json()
    # a non-empty report: the interval comes back as a tuple and the
    # period histogram with int keys
    rep = estimate_prevalence(
        cubic, sampler=box_uniform(amplitude=1.4, seed=23), count=40, budget=FAST
    )
    assert rep.period_histogram
    back = PrevalenceReport.from_json(
        json.loads(json.dumps(rep.to_json(), indent=2))
    )
    assert back.to_json() == rep.to_json()
    assert isinstance(back.wilson_95, tuple)
    assert back.wilson_95 == rep.wilson_95
    assert back.period_histogram == rep.period_histogram
    assert all(type(k) is int for k in back.period_histogram)
    assert back.to_csv() == rep.to_csv()


# ----------------------------------------------------------------- wilson

def test_wilson_contains_point_estimate():
    for k in range(11):
        lo, hi = wilson_interval(k, 10)
        assert 0.0 <= lo <= k / 10 <= hi <= 1.0


def test_wilson_width_shrinks():
    lo1, hi1 = wilson_interval(50, 100)
    lo2, hi2 = wilson_interval(200, 400)
    assert (hi2 - lo2) < (hi1 - lo1)
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_wilson_rejects_successes_outside_the_total():
    for successes in (-1, 4):
        with pytest.raises(ValueError, match="outside"):
            wilson_interval(successes, 3)


# ------------------------------------------------------------- line probe

def line_sampler(resolution):
    return line_scan([-0.505], [1.0], s_min=0.0, s_max=1.01, resolution=resolution)


def test_line_probe_isolated_exception(cubic):
    rep = line_probe(cubic, line_sampler(101), budget=FAST)
    assert len(rep.verdicts) == 101
    assert len(rep.bad) <= 1
    for entry in rep.bad:
        assert abs(entry["s"] - 0.505) < 1e-12
    assert rep.stable_count >= 100
    assert rep.bad_fraction <= 1.0 / 101.0


def test_line_probe_refinement_confines_exceptions(cubic):
    coarse = line_probe(cubic, line_sampler(101), budget=FAST)
    fine = line_probe(cubic, line_sampler(201), budget=FAST)
    assert len(fine.bad) <= max(1, len(coarse.bad))
    spacing = 1.01 / 100.0
    coarse_bad = [entry["s"] for entry in coarse.bad]
    for entry in fine.bad:
        assert any(abs(entry["s"] - s) <= spacing for s in coarse_bad)


def test_line_probe_validation(cubic, logistic):
    with pytest.raises(ValueError):
        line_probe(cubic, box_uniform(), budget=FAST)
    with pytest.raises(ValueError):
        line_probe(logistic, line_sampler(11), budget=FAST)
    wide = line_scan([0.0], [1.0], s_min=0.0, s_max=2.0, resolution=11)
    with pytest.raises(ValueError):
        line_probe(cubic, wide, budget=FAST)


def test_line_report_serialization(cubic):
    rep = line_probe(cubic, line_sampler(11), budget=FAST)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "index,s,verdict,rho"
    assert len(lines) == 12
    doc = json.loads(json.dumps(rep.to_json(), indent=2))
    assert doc["kind"] == "line_probe"
    back = LineReport.from_json(doc)
    assert back.to_json() == rep.to_json()
    assert back.to_csv() == rep.to_csv()


def dirichlet_line(system, resolution):
    xs = system.grid.nodes()
    return line_scan(
        -0.3 * np.sin(np.pi * xs), np.sin(np.pi * xs) + 0.05,
        s_min=0.0, s_max=0.6, resolution=resolution,
    )


def test_line_probe_thread_invariance(cubic, dirichlet15):
    cases = ((cubic, line_sampler(51)), (dirichlet15, dirichlet_line(dirichlet15, 9)))
    for system, sampler in cases:
        one = line_probe(system, sampler, budget=FAST, threads=1).to_json()
        four = line_probe(system, sampler, budget=FAST, threads=4).to_json()
        one.pop("wall_time")
        four.pop("wall_time")
        assert json.dumps(one, sort_keys=True) == json.dumps(four, sort_keys=True)


def test_line_probe_retires_escapes_at_staggered_iterations():
    # a linear reaction stronger than the slowest diffusion mode: every
    # point escapes, the farther from zero the sooner
    system = parabolic_system("dirichlet", 32, strength=10.5, form="linear")
    sampler = dirichlet_line(system, 13)
    budget = ClassifyBudget(max_iterations=40, p_max=4)
    rep = line_probe(system, sampler, budget=budget)
    starts = [sample_initial(sampler, i, system.grid) for i in range(13)]
    alone = [classify_orbit(system, x0, budget) for x0 in starts]
    together = classify_many(system, np.stack([x.values for x in starts], axis=1), budget)
    assert rep.verdicts == [cls.verdict for cls in alone]
    assert [c.iterations_used for c in together] == [c.iterations_used for c in alone]
    assert len({c.iterations_used for c in alone}) > 2
    assert set(rep.verdicts) == {"escaped"}


def test_rho_edges_cover_unit_radius():
    assert RHO_EDGES[0] == 0.0
    assert RHO_EDGES[-1] == 2.0
    assert len(RHO_EDGES) == 21
