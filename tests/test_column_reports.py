"""The ensembles read ``classify_many``'s arrays over the columns.

``estimate_prevalence`` and ``line_probe`` build no Classification: they
count verdicts, periods and rhos from the arrays the blocks fill. The
reference here rebuilds each report from the Classifications that
``classify_many`` returns for the same starts.
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
    box_uniform,
    build_experiment,
    classify_many,
    cubic_map,
    estimate_prevalence,
    line_probe,
    line_scan,
    linear_cooperative,
    load_config,
    wilson_interval,
)
from monotone_lab.prevalence import sample_starts
from monotone_lab.systems import BLOCK_WIDTH

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def bits(doc):
    """A report document through JSON, ``wall_time`` dropped and every float
    as its hex string."""
    def walk(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {key: walk(item) for key, item in value.items()}
        if isinstance(value, list):
            return [walk(item) for item in value]
        return value

    doc = json.loads(json.dumps(doc))
    doc.pop("wall_time")
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
