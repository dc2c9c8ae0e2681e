"""End-to-end acceptance checks.

Each test prints one [acceptance NN] PASS/FAIL line on the real stdout so
the verdicts survive pytest's capture, then asserts. The checks pin the
closed-form oracles, the discretization orders, the standing assumptions
of every shipped system, the ensemble experiments, the probe experiments,
and the cross-thread determinism of reports.
"""

import json
import os
import subprocess
import sys

import pytest
from pathlib import Path

import numpy as np

from monotone_lab import (
    ClassifyBudget,
    check_monotone,
    check_strong_monotone,
    check_equivariance,
    check_strong_positivity,
    classify_orbit,
    estimate_prevalence,
    evaluate,
    interval_reflection,
    line_probe,
    line_scan,
    omega_plus_probe,
    parabolic_system,
    propagate_tangent,
    ring_rotation,
    sample_initial,
    separation_probe,
    smooth_field,
    spatial_variance,
    symmetric_limit_survey,
    trapping_check,
    trivial_action,
    validate_dissipativity,
)
from shipped import shipped_parabolic

ROOT = Path(__file__).resolve().parent.parent
PARABOLIC_BUDGET = ClassifyBudget(max_iterations=400, p_max=8)


@pytest.fixture
def report(capfd):
    # capfd.disabled() pierces pytest's fd-level capture so the verdict
    # lines always reach the terminal
    def emit(num, label, ok, detail=""):
        tail = f" ({detail})" if detail else ""
        line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {label}{tail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def test_01_scalar_and_matrix_oracles(cubic, logistic, coop, report):
    repeller = classify_orbit(cubic, 0.0)
    attractor = classify_orbit(cubic, 0.5)
    ok_cubic = (
        repeller.verdict == "unstable_cycle"
        and abs(repeller.cycle.rho - 1.1) < 1e-6
        and attractor.verdict == "stable_cycle"
        and abs(attractor.cycle.rho - 0.8) < 1e-6
    )
    log_cls = classify_orbit(logistic, 0.3)
    r = 3.2
    ok_logistic = (
        log_cls.cycle is not None
        and log_cls.cycle.period == 2
        and abs(log_cls.cycle.rho - (4.0 + 2.0 * r - r * r)) < 1e-6
    )
    coop_cls = classify_orbit(coop, [0.9, -0.3])
    ok_coop = coop_cls.cycle is not None and abs(coop_cls.cycle.rho - 0.7) < 1e-8
    report(
        1,
        "closed-form oracles (cubic 1.1/0.8, logistic 0.16, cooperative 0.7)",
        ok_cubic and ok_logistic and ok_coop,
        f"rho values {repeller.cycle.rho:.8f}/{attractor.cycle.rho:.8f}, "
        f"{log_cls.cycle.rho:.8f}, {coop_cls.cycle.rho:.8f}",
    )


def test_02_discretization_fidelity(report):
    n, m_steps = 31, 200
    system = parabolic_system(
        "dirichlet", n, strength=0.0, modulation=0.0, form="linear",
        steps_per_period=m_steps, name="diffusion_only",
    )
    xs = system.grid.nodes()
    u0 = np.sin(np.pi * xs)
    out = evaluate(system, system.state(u0)).values
    h = 1.0 / (n + 1)
    mu = 4.0 / (h * h) * np.sin(np.pi * h / 2.0) ** 2
    dt = 1.0 / m_steps
    exact = ((1.0 - dt * mu / 2.0) / (1.0 + dt * mu / 2.0)) ** m_steps
    rel_discrete = float(np.max(np.abs(out / u0 - exact)) / exact)
    rel_continuum = abs(out[15] / u0[15] - np.exp(-mu)) / np.exp(-mu)

    def run_time(m):
        s = parabolic_system("dirichlet", 31, 15.0, steps_per_period=m)
        x = s.grid.nodes()
        w0 = 0.8 * np.sin(np.pi * x) + 0.3 * np.sin(2 * np.pi * x)
        return evaluate(s, s.state(w0)).values

    ref_t = run_time(3200)
    errs_t = [np.max(np.abs(run_time(m) - ref_t)) for m in (100, 200, 400)]
    time_ratios = (errs_t[0] / errs_t[1], errs_t[1] / errs_t[2])

    def run_grid(nn):
        s = parabolic_system("dirichlet", nn, 15.0, steps_per_period=1600)
        x = s.grid.nodes()
        w0 = 0.8 * np.sin(np.pi * x) + 0.3 * np.sin(2 * np.pi * x)
        return evaluate(s, s.state(w0)).values

    ref_g = run_grid(255)
    errs_g = []
    for nn in (15, 31, 63):
        stride = 256 // (nn + 1)
        idx = np.arange(1, nn + 1) * stride - 1
        errs_g.append(np.max(np.abs(run_grid(nn) - ref_g[idx])))
    grid_ratios = (errs_g[0] / errs_g[1], errs_g[1] / errs_g[2])

    ok = (
        rel_discrete < 1e-10
        and rel_continuum < 5e-3
        and all(3.2 < r < 4.8 for r in time_ratios + grid_ratios)
    )
    report(
        2,
        "pure-diffusion decay and order-2 refinement",
        ok,
        f"CN rel {rel_discrete:.2e}, continuum rel {rel_continuum:.4f}, "
        f"time ratios {time_ratios[0]:.2f}/{time_ratios[1]:.2f}, "
        f"grid ratios {grid_ratios[0]:.2f}/{grid_ratios[1]:.2f}",
    )


def test_03_jacobian_matches_finite_differences(cat, report):
    rng = np.random.default_rng(20260803)
    eps = 1e-6
    worst = 0.0
    plan = [("dirichlet_cubic_15", 10), ("neumann_cubic_5", 5), ("radial_cubic_15", 5)]
    for name, count in plan:
        system = cat[name]
        for _ in range(count):
            x = system.state(rng.uniform(-0.8, 0.8, system.n))
            v = rng.uniform(-1.0, 1.0, system.n)
            tv = propagate_tangent(x, system.state(v), system).values
            plus = evaluate(system, system.state(x.values + eps * v)).values
            minus = evaluate(system, system.state(x.values - eps * v)).values
            fd = (plus - minus) / (2.0 * eps)
            scale = max(1.0, float(np.max(np.abs(tv))))
            worst = max(worst, float(np.max(np.abs(tv - fd)) / scale))
    report(
        3,
        "tangent propagation vs central differences on 20 random pairs",
        worst < 1e-4,
        f"worst relative error {worst:.2e}",
    )


def test_04_standing_assumptions_across_catalog(cat, report):
    actions = {
        "dirichlet_cubic_5": interval_reflection,
        "dirichlet_cubic_15": interval_reflection,
        "neumann_cubic_5": interval_reflection,
        "ring_cubic_5": ring_rotation,
        "radial_cubic_15": trivial_action,
    }
    ok = True
    details = []
    for name, system in shipped_parabolic().items():
        mono = check_monotone(system, pair_count=200)
        strong = check_strong_monotone(system, pair_count=200)
        positive = check_strong_positivity(system)
        dissip = validate_dissipativity(system)
        trap = trapping_check(system, horizon=200)
        equiv = check_equivariance(system, actions[name](system.grid))
        passed = all(
            rep.passed for rep in (mono, strong, positive, dissip, trap, equiv)
        ) and mono.violations == 0 and equiv.worst_margin < 1e-10
        ok = ok and passed
        details.append(
            f"{name}: {'ok' if passed else 'FAIL'} "
            f"(gap {strong.worst_margin:.1e}, equiv {equiv.worst_margin:.1e})"
        )
    report(
        4,
        "monotone/strong/positivity/dissipativity/trapping/equivariance "
        "on all parabolic systems",
        ok,
        "; ".join(details),
    )


def test_05_prevalence_of_stable_cycles_dirichlet(dirichlet15, report):
    rep = estimate_prevalence(
        dirichlet15,
        sampler=smooth_field(amplitude=1.0, modes=6, seed=20260822),
        count=500,
        budget=PARABOLIC_BUDGET,
        threads=4,
    )
    stable_fraction = rep.stable_fraction
    unresolved_fraction = rep.counts["unresolved"] / rep.count
    periods_ok = (
        set(rep.period_histogram)
        and all(int(k) >= 1 for k in rep.period_histogram)
        and sum(rep.period_histogram.values())
        == rep.counts["stable_cycle"] + rep.counts["unstable_cycle"]
    )
    ok = stable_fraction >= 0.95 and bool(periods_ok)
    report(
        5,
        "500 smooth-field samples on the strength-15 interval problem",
        ok,
        f"stable fraction {stable_fraction:.3f}, unresolved fraction "
        f"{unresolved_fraction:.3f}, periods {dict(sorted(rep.period_histogram.items()))}",
    )


def test_06_homogeneous_periodic_limits_neumann(neumann5, report):
    sampler = smooth_field(amplitude=1.0, modes=6, seed=20260823)
    stable = 0
    worst_var = 0.0
    periods = set()
    for i in range(200):
        x0 = sample_initial(sampler, i, neumann5.grid)
        cls = classify_orbit(neumann5, x0, PARABOLIC_BUDGET)
        if cls.verdict != "stable_cycle":
            continue
        stable += 1
        periods.add(cls.cycle.period)
        worst_var = max(
            worst_var, max(spatial_variance(pt) for pt in cls.cycle.points)
        )
    ok = stable >= 150 and periods == {1} and worst_var < 1e-6
    report(
        6,
        "zero-flux limits are spatially homogeneous fixed profiles",
        ok,
        f"{stable}/200 stable, periods {sorted(periods)}, "
        f"worst variance {worst_var:.2e}",
    )


def test_07_symmetric_limits_on_ring(ring5, report):
    sampler = smooth_field(amplitude=1.0, modes=6, seed=20260824)
    states = [sample_initial(sampler, i, ring5.grid) for i in range(100)]
    survey = symmetric_limit_survey(
        ring5, ring_rotation(ring5.grid), states, budget=PARABOLIC_BUDGET
    )
    ok = survey.symmetric_fraction >= 0.98 and survey.max_deviation < 1e-5
    report(
        7,
        "rotation-symmetric limits on the ring, 100 samples",
        ok,
        f"fraction {survey.symmetric_fraction:.3f}, "
        f"max deviation {survey.max_deviation:.2e}",
    )


def test_08_radial_limits_are_fixed_points(radial15, report):
    sampler = smooth_field(amplitude=1.0, modes=6, seed=20260825)
    stable = 0
    bad_periods = 0
    for i in range(100):
        x0 = sample_initial(sampler, i, radial15.grid)
        cls = classify_orbit(radial15, x0, PARABOLIC_BUDGET)
        if cls.verdict == "stable_cycle":
            stable += 1
            if cls.cycle.period != 1:
                bad_periods += 1
    ok = stable >= 90 and bad_periods == 0
    report(
        8,
        "radial-profile limits settle on fixed points",
        ok,
        f"{stable}/100 stable, {bad_periods} with period > 1",
    )


def test_09_line_probe_isolated_exceptions(cubic, report):
    budget = ClassifyBudget(max_iterations=300, p_max=8)

    def sweep(resolution):
        sampler = line_scan(
            [-0.505], [1.0], s_min=0.0, s_max=1.01, resolution=resolution
        )
        return line_probe(cubic, sampler, budget=budget)

    coarse = sweep(101)
    fine = sweep(201)
    spacing = 1.01 / 100.0
    confined = all(
        any(abs(entry["s"] - s["s"]) <= spacing for s in coarse.bad)
        for entry in fine.bad
    ) if coarse.bad else not fine.bad
    ok = len(coarse.bad) <= 1 and len(fine.bad) <= 1 and confined
    report(
        9,
        "non-stable verdicts on the line stay confined to one parameter",
        ok,
        f"coarse bad {[e['s'] for e in coarse.bad]}, "
        f"fine bad {[e['s'] for e in fine.bad]}",
    )


def test_10_instability_probes_at_zero_and_one(cubic, report):
    probe = omega_plus_probe(cubic, 0.0)
    member_ok = (
        probe.upper.membership == "member"
        and probe.upper.consistent
        and probe.upper.limit is not None
        and abs(probe.upper.limit[0, 0] - 1.0) < 1e-6
    )
    sep_zero = separation_probe(cubic, 0.0)
    sep_one = separation_probe(cubic, 1.0)
    ok = member_ok and sep_zero >= 0.9 and sep_one < 1e-4
    report(
        10,
        "one-sided limit membership at 0 and separation contrast at 0 vs 1",
        ok,
        f"upper {probe.upper.membership}, separation {sep_zero:.3f} vs "
        f"{sep_one:.2e}",
    )


def test_11_report_determinism_across_threads(tmp_path, report):
    env = dict(os.environ)
    env.pop("MONOTONE_LAB_THREADS", None)
    # the subprocess imports the package from this checkout
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    outputs = []
    for threads in ("1", "8"):
        out_path = tmp_path / f"threads_{threads}.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "monotone_lab.cli", "prevalence",
                str(ROOT / "configs" / "cubic.cfg"),
                "--samples", "300", "--seed", "4242",
                "--threads", threads, "--out", str(out_path),
            ],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        text = out_path.read_text()
        stripped = "\n".join(
            line for line in text.splitlines() if '"wall_time"' not in line
        )
        outputs.append((text, stripped))
        doc = json.loads(text)
        assert doc["count"] == 300
    identical = outputs[0][1] == outputs[1][1]
    report(
        11,
        "prevalence reports byte-identical across 1 and 8 threads",
        identical,
        f"{len(outputs[0][1])} bytes compared after dropping wall_time",
    )
