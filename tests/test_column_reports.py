"""Every multi-start experiment reads ``classify_many``'s arrays over the
columns.

``estimate_prevalence``, ``line_probe``, ``symmetric_limit_survey`` and
``omega_plus_probe`` build no Classification: they read verdicts, periods,
rhos and cycle points from the arrays the blocks fill. The reference here
rebuilds each report from the Classifications that ``classify_many``
returns for the same starts.
The two documents, ``wall_time`` aside and every float as its ``hex()``,
must be equal.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from monotone_lab import (
    RHO_EDGES,
    VERDICTS,
    ClassifyBudget,
    SideEstimate,
    box_uniform,
    build_experiment,
    classify_many,
    cubic_map,
    estimate_prevalence,
    line_probe,
    line_scan,
    linear_cooperative,
    load_config,
    omega_plus_probe,
    ring_rotation,
    set_distance,
    smooth_field,
    symmetric_limit_survey,
    symmetry_deviation,
    trivial_action,
    wilson_interval,
)
from monotone_lab.prevalence import sample_starts
from monotone_lab.systems import BLOCK_WIDTH

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def bits(doc):
    """A report document through JSON, ``wall_time`` dropped (when it has
    one) and every float as its hex string."""
    def walk(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {key: walk(item) for key, item in value.items()}
        if isinstance(value, list):
            return [walk(item) for item in value]
        return value

    doc = json.loads(json.dumps(doc))
    doc.pop("wall_time", None)
    return walk(doc)


def prevalence_from(results, count):
    """The prevalence report fields, counted from Classifications."""
    counts = {name: 0 for name in VERDICTS}
    periods, rhos = {}, []
    for cls in results:
        counts[cls.verdict] += 1
        if cls.cycle is not None:
            periods[cls.cycle.period] = periods.get(cls.cycle.period, 0) + 1
            rhos.append(cls.cycle.rho)
    in_range, _ = np.histogram([r for r in rhos if r <= RHO_EDGES[-1]], bins=RHO_EDGES)
    return {
        "counts": counts,
        "stable_fraction": counts["stable_cycle"] / count if count else None,
        "wilson_95": wilson_interval(counts["stable_cycle"], count) if count else None,
        "period_histogram": dict(sorted(periods.items())),
        "rho_histogram": {
            "edges": [float(e) for e in RHO_EDGES],
            "counts": [int(c) for c in in_range],
            "overflow": sum(1 for r in rhos if r > RHO_EDGES[-1]),
        },
    }


def line_from(results):
    """The line report fields, read from Classifications."""
    verdicts = [cls.verdict for cls in results]
    return {
        "verdicts": verdicts,
        "rhos": [None if cls.cycle is None else cls.cycle.rho for cls in results],
        "stable_count": verdicts.count("stable_cycle"),
        "bad_fraction": sum(v != "stable_cycle" for v in verdicts) / len(verdicts),
    }


def assert_reports_match_classifications(system, sampler, count, budget=None):
    """Both ensembles on ``count`` starts of ``sampler`` against the reports
    rebuilt from ``classify_many``; returns the Classifications."""
    results = classify_many(system, sample_starts(system, sampler, count), budget)
    got = estimate_prevalence(system, sampler, count, budget)
    want = dataclasses.replace(got, **prevalence_from(results, count))
    assert bits(got.to_json()) == bits(want.to_json())
    if sampler.strategy == "line_scan" and count == sampler.resolution:
        got = line_probe(system, sampler, budget)
        bad = [{"index": i, "s": got.s_values[i], "verdict": cls.verdict}
               for i, cls in enumerate(results) if cls.verdict != "stable_cycle"]
        want = dataclasses.replace(got, bad=bad, **line_from(results))
        assert bits(got.to_json()) == bits(want.to_json())
    return results


def verdicts(results):
    return {cls.verdict for cls in results}


def test_the_cubic_line_crosses_one_unstable_point():
    exp = build_experiment(load_config(CONFIGS / "cubic_line.cfg"))
    results = assert_reports_match_classifications(
        exp.system, exp.sampler, exp.sampler.resolution, exp.budget)
    assert [cls.verdict for cls in results].count("unstable_cycle") == 1
    assert verdicts(results) == {"stable_cycle", "unstable_cycle"}


def test_escapes_on_the_wide_cubic():
    # gain 0.9 on a box of 3: starts near its edge leave it, the rest settle
    # on the fixed points +-1, whose multiplier -0.8 takes the dense solve
    system = cubic_map(0.9, kappa=3.0)
    results = assert_reports_match_classifications(system, box_uniform(2.9, seed=4), 200)
    assert verdicts(results) == {"stable_cycle", "escaped"}
    assert "dense" in {cls.cycle.rho_method for cls in results if cls.cycle}
    # the middle sample is the unstable 0, as in the benchmark's lines
    line = line_scan([-np.linspace(0.0, 5.8, 151)[75]], [1.0], 0.0, 5.8, 151)
    assert verdicts(assert_reports_match_classifications(system, line, 151)) == {
        "stable_cycle", "unstable_cycle", "escaped"}


def test_unresolved_before_the_window_fills():
    budget = ClassifyBudget(max_iterations=3 * 8 - 2, p_max=8)
    line = line_scan([-1.2], [1.0], 0.0, 2.4, 40)
    results = assert_reports_match_classifications(cubic_map(0.1), line, 40, budget)
    assert verdicts(results) == {"unresolved"}


def test_the_dense_fallback_block():
    # the input of the block grading's dense test: x -> M x, M = [[0, a J],
    # [b J, 0]], from zero, whose power products never settle
    half = 16
    ones, zero = np.ones((half, half)), np.zeros((half, half))
    mat = np.block([[zero, ones * (2.0 / half)], [ones / half, zero]])
    system = linear_cooperative(matrix=mat, kappa=5.0)
    line = line_scan(np.zeros(2 * half), np.ones(2 * half), 0.0, 0.0, 9)
    results = assert_reports_match_classifications(system, line, 9)
    assert {(cls.verdict, cls.cycle.rho_method) for cls in results} == {
        ("unstable_cycle", "dense")}


def test_dirichlet_cubic_15(dirichlet15):
    exp = build_experiment(load_config(CONFIGS / "dirichlet_cubic_15.cfg"))
    results = assert_reports_match_classifications(dirichlet15, exp.sampler, 12, exp.budget)
    assert "stable_cycle" in verdicts(results)
    # along the ones direction through the unstable zero state
    line = line_scan(np.zeros(dirichlet15.n), np.ones(dirichlet15.n), -0.6, 0.6, 21)
    results = assert_reports_match_classifications(dirichlet15, line, 21, exp.budget)
    assert verdicts(results) == {"stable_cycle", "unstable_cycle"}


@pytest.mark.parametrize("count", [0, 1, BLOCK_WIDTH + 1, 300])
def test_counts_across_blocks(count):
    # several blocks of BLOCK_WIDTH columns, the last one partial
    system = cubic_map(0.1)
    assert_reports_match_classifications(system, box_uniform(1.4, seed=2), count)
    if count:
        line = line_scan([-1.4], [1.0], 0.0, 2.8, count)
        assert_reports_match_classifications(system, line, count)


# ------------------------------------------------------------ symmetry survey

def survey_from(results, action, tol_sym):
    """The survey fields, graded point by point from Classifications."""
    verdicts = [cls.verdict for cls in results]
    deviations, symmetric = [], 0
    for cls in results:
        points = [] if cls.cycle is None else cls.cycle.points
        per_point = [symmetry_deviation(pt, action, tol_sym) for pt in points]
        deviations.append(max(v.deviation for v in per_point) if per_point else None)
        symmetric += bool(per_point) and all(v.symmetric for v in per_point)
    count = len(results)
    return {
        "count": count,
        "stable_count": verdicts.count("stable_cycle"),
        "symmetric_count": symmetric,
        "symmetric_fraction": symmetric / count if count else None,
        "max_deviation": max([0.0] + [d for d in deviations if d is not None]),
        "verdicts": verdicts,
        "deviations": deviations,
    }


def assert_survey_matches_classifications(system, action, states, budget=None, **tol):
    """The survey of ``states`` against the one rebuilt from
    ``classify_many``; returns the survey."""
    block = np.stack(states, axis=1) if len(states) else np.empty((system.n, 0))
    results = classify_many(system, block, budget)
    got = symmetric_limit_survey(system, action, states, budget, **tol)
    want = dataclasses.replace(got, **survey_from(results, action, got.tol_sym))
    assert bits(got.to_json()) == bits(want.to_json())
    return got


def ring_states(ring, count):
    return list(sample_starts(ring, smooth_field(amplitude=1.0, modes=6, seed=5), count).T)


def test_survey_of_stable_ring_samples(ring5):
    action, budget = ring_rotation(ring5.grid), ClassifyBudget(max_iterations=120, p_max=8)
    survey = assert_survey_matches_classifications(ring5, action, ring_states(ring5, 8), budget)
    assert survey.stable_count == survey.symmetric_count == survey.count == 8
    # the rotated limits differ from their own rotations in the last bits,
    # and the zero state, an unstable fixed point, not at all
    states = [np.zeros(ring5.n)] + ring_states(ring5, 4)
    survey = assert_survey_matches_classifications(ring5, action, states, budget, tol_sym=1e-16)
    assert survey.verdicts == ["unstable_cycle"] + ["stable_cycle"] * 4
    assert survey.deviations[0] == 0.0 < survey.max_deviation
    assert survey.symmetric_count == 1


def test_survey_unresolved_before_the_window_fills(ring5):
    survey = assert_survey_matches_classifications(
        ring5, ring_rotation(ring5.grid), ring_states(ring5, 5),
        ClassifyBudget(max_iterations=3 * 8 - 2, p_max=8))
    assert set(survey.verdicts) == {"unresolved"}
    assert survey.deviations == [None] * 5


def test_survey_escapes_on_the_wide_cubic():
    system = cubic_map(0.9, kappa=3.0)
    starts = sample_starts(system, box_uniform(2.9, seed=4), 60)
    survey = assert_survey_matches_classifications(
        system, trivial_action(system.grid), list(starts.T))
    assert set(survey.verdicts) == {"stable_cycle", "escaped"}


def test_empty_survey(ring5):
    survey = assert_survey_matches_classifications(ring5, ring_rotation(ring5.grid), [])
    assert (survey.count, survey.symmetric_fraction) == (0, None)


# ---------------------------------------------------------------- omega probe

def side_from(sign, results, omega_base, tol_set):
    """The SideEstimate of ``sign`` from the Classifications of its pushes."""
    verdicts = [cls.verdict for cls in results]
    if any(cls.cycle is None for cls in results):
        return SideEstimate(sign, verdicts, False, None, None, "inconclusive")
    sets = [cls.cycle.points for cls in results]
    widest = max([0.0] + [set_distance(a, b) for i, a in enumerate(sets) for b in sets[i + 1:]])
    consistent, limit = widest <= tol_set, sets[-1]
    if not consistent or omega_base is None:
        return SideEstimate(sign, verdicts, consistent, limit, None, "inconclusive")
    dist = set_distance(omega_base, limit)
    return SideEstimate(sign, verdicts, consistent, limit, dist,
                        "member" if dist > tol_set else "not_member")


def assert_omega_matches_classifications(system, x, budget=None, extra_directions=()):
    """The omega probe at ``x`` against the report rebuilt from
    ``classify_many`` on the same starts; returns the report."""
    got = omega_plus_probe(system, x, budget=budget, extra_directions=extra_directions)
    base, v, eps_values, tol_set = got.base_point, got.direction, got.eps_values, got.tol_set
    sides = [(1, v), (-1, v)] + [(1, np.array(w, dtype=float)) for w in extra_directions]
    starts = [base] + [base + sign * eps * w for sign, w in sides for eps in eps_values]
    results = classify_many(system, np.stack(starts, axis=1), budget)
    base_cls, count = results[0], len(eps_values)
    omega_base = None if base_cls.cycle is None else base_cls.cycle.points
    estimates = [side_from(sign, results[1 + i * count: 1 + (i + 1) * count], omega_base, tol_set)
                 for i, (sign, _) in enumerate(sides)]
    notes = "" if omega_base is not None else (
        f"base orbit {base_cls.verdict}; membership cannot be graded")
    disagreement = None
    limits = [est.limit for est in estimates[:1] + estimates[2:] if est.limit is not None]
    if extra_directions and len(limits) >= 2:
        disagreement = max(set_distance(a, b) for i, a in enumerate(limits) for b in limits[i + 1:])
        if disagreement > tol_set and not notes:
            notes = "one-sided limits disagree across directions"
    want = dataclasses.replace(
        got, base_verdict=base_cls.verdict, omega_base=omega_base, upper=estimates[0],
        lower=estimates[1], direction_disagreement=disagreement, notes=notes)
    assert bits(got.to_json()) == bits(want.to_json())
    return got


def test_omega_probe_with_an_extra_direction():
    report = assert_omega_matches_classifications(cubic_map(), 0.0, extra_directions=[[2.0]])
    assert report.upper.membership == report.lower.membership == "member"
    assert report.direction_disagreement is not None


def test_omega_probe_whose_pushes_cross_the_unstable_point():
    # from -0.005 the push of 1e-2 crosses 0 and settles at +1, the smaller
    # ones at -1 with the base: the upper estimate is inconsistent
    report = assert_omega_matches_classifications(cubic_map(), -5e-3)
    assert not report.upper.consistent
    assert report.upper.limit[0, 0] < 0.0
    assert report.lower.membership == "not_member"


@pytest.mark.parametrize("system, x, budget, verdict", [
    (cubic_map(), 0.0, ClassifyBudget(max_iterations=5, p_max=4), "unresolved"),
    (cubic_map(0.9, kappa=3.0), 2.9, None, "escaped"),
])
def test_omega_probe_of_an_unsettled_base(system, x, budget, verdict):
    report = assert_omega_matches_classifications(system, x, budget)
    assert report.base_verdict == verdict
    assert report.notes == f"base orbit {verdict}; membership cannot be graded"
