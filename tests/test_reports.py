"""Report documents: the key order every report class writes."""

import numpy as np
import pytest

from monotone_lab import (
    ClassifyBudget,
    Grid,
    check_monotone,
    classify_orbit,
    estimate_prevalence,
    line_probe,
    line_scan,
    omega_plus_probe,
    ring_rotation,
    symmetric_limit_survey,
    symmetry_deviation,
    trivial_action,
)

FAST = ClassifyBudget(max_iterations=200, p_max=8)

CYCLE_KEYS = [
    "period", "residual", "rho", "stability", "rho_method",
    "newton_converged", "newton_iterations", "points",
]
SIDE_KEYS = [
    "sign", "verdicts", "consistent", "limit", "distance_to_base", "membership",
]

# Each report on the cubic map, with the keys its document lists, in order.
# Reports are written as JSON, so the order is part of their bytes.
CASES = {
    "PrevalenceReport": (
        lambda cubic: estimate_prevalence(cubic, count=4, budget=FAST),
        [
            "schema_version", "kind", "system_name", "sampler", "count",
            "budget", "counts", "stable_fraction", "wilson_95",
            "period_histogram", "rho_histogram", "caveat", "wall_time",
        ],
    ),
    "LineReport": (
        lambda cubic: line_probe(
            cubic, line_scan([0.0], [1.0], s_min=-0.5, s_max=0.5, resolution=5),
            budget=FAST,
        ),
        [
            "schema_version", "kind", "system_name", "sampler", "budget",
            "s_values", "verdicts", "rhos", "stable_count", "bad",
            "bad_fraction", "wall_time",
        ],
    ),
    "CycleRecord": (lambda cubic: classify_orbit(cubic, 0.5).cycle, CYCLE_KEYS),
    "Classification": (
        lambda cubic: classify_orbit(cubic, 0.5),
        ["verdict", "iterations_used", "diagnostics", "cycle"],
    ),
    "SideEstimate": (lambda cubic: omega_plus_probe(cubic, 0.0).upper, SIDE_KEYS),
    "OmegaProbeReport": (
        lambda cubic: omega_plus_probe(cubic, 0.0),
        [
            "schema_version", "kind", "base_point", "direction", "eps_values",
            "tol_set", "base_verdict", "omega_base", "upper", "lower",
            "direction_disagreement", "notes",
        ],
    ),
    "SymmetryVerdict": (
        lambda cubic: symmetry_deviation(np.ones(4), ring_rotation(Grid("ring", 4))),
        ["deviation", "symmetric", "per_generator", "tol_sym"],
    ),
    "SymmetrySurvey": (
        lambda cubic: symmetric_limit_survey(
            cubic, trivial_action(cubic.grid), [0.3], budget=FAST
        ),
        [
            "schema_version", "kind", "count", "stable_count", "symmetric_count",
            "symmetric_fraction", "max_deviation", "verdicts", "deviations",
            "tol_sym", "system_name", "sampler",
        ],
    ),
    "PropertyReport": (
        lambda cubic: check_monotone(cubic, pair_count=5, seed=1),
        ["check_name", "pairs_tested", "violations", "worst_margin", "seed"],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_json_keys(cubic, name):
    build, keys = CASES[name]
    report = build(cubic)
    assert type(report).__name__ == name
    doc = report.to_json()
    assert list(doc) == keys
    if name == "Classification":
        assert list(doc["cycle"]) == CYCLE_KEYS
    if name == "OmegaProbeReport":
        assert list(doc["upper"]) == SIDE_KEYS
        assert list(doc["lower"]) == SIDE_KEYS
