"""Report documents: the key order every report class writes."""

import dataclasses

import numpy as np
import pytest

from monotone_lab import (
    ClassificationReport,
    ClassifyBudget,
    Grid,
    ValidationReport,
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


def _classification_report(cubic):
    cls = classify_orbit(cubic, 0.5)
    return ClassificationReport(
        cubic.name, cls.verdict, cls.iterations_used, cls.diagnostics, cls.cycle, None
    )


# every report class that opens its document with a schema_version/kind header
HEADED = {
    name: build for name, (build, keys) in CASES.items() if keys[0] == "schema_version"
}
HEADED["ClassificationReport"] = _classification_report
HEADED["ValidationReport"] = lambda cubic: ValidationReport(
    cubic.name, True, {"check_monotone": check_monotone(cubic, pair_count=5, seed=1)}
)


def _init_args(report, *left_out):
    """The constructor arguments that rebuild report, without left_out."""
    return {
        f.name: getattr(report, f.name)
        for f in dataclasses.fields(report) if f.init and f.name not in left_out
    }


@pytest.mark.parametrize("name", sorted(HEADED))
def test_report_header_comes_from_the_class(cubic, name):
    report = HEADED[name](cubic)
    cls = type(report)
    assert cls.__name__ == name
    with pytest.raises(TypeError):
        cls(**_init_args(report, "schema_version"), schema_version=7)
    doc = report.to_json()
    assert (doc["schema_version"], doc["kind"]) == (report.schema_version, cls.KIND)


def test_prevalence_caveat_is_fixed(cubic):
    report = CASES["PrevalenceReport"][0](cubic)
    with pytest.raises(TypeError):
        type(report)(**_init_args(report, "caveat"), caveat="a certificate")
