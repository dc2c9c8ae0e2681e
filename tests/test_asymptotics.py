"""Orbit classification: detection, refinement, stability, and probes."""

from collections import deque
from pathlib import Path

import numpy as np
import pytest

from monotone_lab import (
    ClassifyBudget,
    CycleCandidate,
    DimensionMismatchError,
    EscapeError,
    OrderError,
    Parabolic,
    VERDICTS,
    apply_map,
    build_experiment,
    classify_many,
    classify_orbit,
    cycle_spectral_radius,
    default_tol_cyc,
    detect_cycle,
    evaluate,
    iterate_orbit,
    jacobian,
    leq,
    linear_cooperative,
    negation_map,
    omega_plus_probe,
    refine_cycle,
    separation_probe,
    load_config,
    sample_initial,
    set_distance,
    smooth_field,
)
from monotone_lab import asymptotics
from monotone_lab.asymptotics import _perron_root
from monotone_lab.systems import apply_map_columns

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

LOGISTIC_R = 3.2


def logistic_two_cycle():
    r = LOGISTIC_R
    root = np.sqrt((r - 3.0) * (r + 1.0))
    return sorted(((r + 1.0 - root) / (2.0 * r), (r + 1.0 + root) / (2.0 * r)))


# ----------------------------------------------------------------- budget

def test_budget_validation():
    with pytest.raises(ValueError):
        ClassifyBudget(max_iterations=0)
    with pytest.raises(ValueError):
        ClassifyBudget(p_max=0)
    with pytest.raises(ValueError):
        ClassifyBudget(check_every=0)
    with pytest.raises(ValueError):
        ClassifyBudget(tol_stab=-1.0)
    with pytest.raises(ValueError):
        ClassifyBudget(newton_max_iter=-1)
    for name in ("tol_cyc", "tol_stab", "newton_tol"):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            ClassifyBudget(**{name: float("nan")})


def test_budget_resolution(cubic, dirichlet15):
    assert default_tol_cyc(cubic) == 1e-8
    assert default_tol_cyc(dirichlet15) == 1e-6
    resolved = ClassifyBudget(p_max=8).resolve(cubic)
    assert resolved.check_every == 8
    assert resolved.tol_cyc == 1e-8
    assert resolved.newton_tol == pytest.approx(1e-12)
    par = ClassifyBudget().resolve(dirichlet15)
    assert par.tol_cyc == 1e-6
    assert par.newton_tol == pytest.approx(1e-10)


# ----------------------------------------------------------------- orbits

def test_iterate_orbit_thinning(cubic):
    orb = iterate_orbit(cubic, 0.3, 10, thinning=3)
    np.testing.assert_array_equal(orb.indices, [0, 3, 6, 9])
    assert len(orb) == 4
    assert orb.state(0).values[0] == 0.3
    assert not orb.escaped


def test_iterate_orbit_escape_truncates():
    system = linear_cooperative(matrix=[[2.0]], kappa=1.0)
    orb = iterate_orbit(system, 1.0, 10)
    assert orb.escaped
    np.testing.assert_array_equal(orb.indices, [0, 1])
    np.testing.assert_allclose(orb.samples[:, 0], [1.0, 2.0])


def test_iterate_orbit_validation(cubic, coop):
    with pytest.raises(ValueError):
        iterate_orbit(cubic, 0.3, 10, thinning=0)
    with pytest.raises(ValueError):
        iterate_orbit(cubic, 0.3, -1)
    with pytest.raises(DimensionMismatchError):
        iterate_orbit(coop, np.zeros(3), 5)
    with pytest.raises(DimensionMismatchError):
        iterate_orbit(cubic, coop.zero_state(), 5)


def test_orbit_csv_shape(coop):
    orb = iterate_orbit(coop, [0.4, -0.1], 5)
    text = orb.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "iter,node_0,node_1"
    assert len(lines) == 7
    assert lines[1].startswith("0,")


# -------------------------------------------------------------- detection

def test_detect_cycle_finds_minimal_period():
    four = np.tile([0.0, 1.0, 0.0, 2.0], 3)
    cand = detect_cycle(four, p_max=4, tol_cyc=1e-8)
    assert cand.period == 4
    two = np.tile([0.0, 1.0], 6)
    assert detect_cycle(two, p_max=4, tol_cyc=1e-8).period == 2
    assert detect_cycle(np.ones(12), p_max=4, tol_cyc=1e-8).period == 1


def test_detect_cycle_rejects_transients():
    assert detect_cycle(np.arange(12.0), p_max=4, tol_cyc=1e-8) is None


def test_detect_cycle_needs_long_tail():
    with pytest.raises(ValueError):
        detect_cycle(np.ones(11), p_max=4, tol_cyc=1e-8)
    with pytest.raises(ValueError):
        detect_cycle(np.ones(12), p_max=0, tol_cyc=1e-8)


# ------------------------------------------------------------- refinement

def test_refine_polishes_logistic_two_cycle(logistic):
    lo, hi = logistic_two_cycle()
    cand = CycleCandidate(2, np.array([[lo + 1e-3], [hi - 1e-3]]))
    rec = refine_cycle(logistic, cand, newton_tol=1e-12)
    assert rec.newton_converged
    assert rec.residual < 1e-12
    assert sorted(rec.points[:, 0]) == pytest.approx([lo, hi], abs=1e-10)


def test_refine_handles_neutral_multiplier(logistic):
    # f'(u) = 1 at u = (1 - 1/r)/2, so the period-1 Newton matrix is singular
    u = (1.0 - 1.0 / LOGISTIC_R) / 2.0
    cand = CycleCandidate(1, np.array([[u]]))
    rec = refine_cycle(logistic, cand, newton_tol=1e-12)
    assert not rec.newton_converged
    fu = LOGISTIC_R * u * (1.0 - u)
    assert rec.residual == pytest.approx(abs(fu - u))
    assert rec.points[0, 0] == pytest.approx(u)


def test_refine_accepts_exact_cycle(cubic):
    rec = refine_cycle(cubic, CycleCandidate(1, np.array([[1.0]])), newton_tol=1e-12)
    assert rec.newton_converged
    assert rec.residual == 0.0
    assert rec.newton_iterations == 0


# ---------------------------------------------------------------- spectra

def test_spectral_radius_of_fixed_points(cubic, coop):
    det = cycle_spectral_radius(cubic, np.array([[0.0]]), detail=True)
    assert det.method == "power"
    assert det.rho == pytest.approx(1.1, abs=1e-10)
    rho = cycle_spectral_radius(cubic, np.array([[1.0]]))
    assert rho == pytest.approx(0.8, abs=1e-10)
    det = cycle_spectral_radius(coop, np.array([[0.0, 0.0]]), detail=True)
    assert det.rho == pytest.approx(0.7, abs=1e-8)


def test_spectral_radius_neutral_flip_cycle():
    neg = negation_map()
    det = cycle_spectral_radius(neg, np.array([[0.5], [-0.5]]), detail=True)
    assert det.rho == pytest.approx(1.0, abs=1e-12)


def test_spectral_radius_dense_fallback():
    # leading eigenvalues +-sqrt(2): the power ratio oscillates forever
    system = linear_cooperative(matrix=[[0.0, 2.0], [1.0, 0.0]], kappa=10.0)
    det = cycle_spectral_radius(
        system, np.array([[0.1, 0.1]]), max_power_iter=50, detail=True
    )
    assert det.method == "dense"
    assert det.rho == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_periodic_power_iteration_goes_dense_at_once():
    # from the ones vector the normalised iterate of [[0, 2], [1, 0]]
    # repeats every two steps, so the power ratio never settles: the dense
    # solve follows the first repeat, reported as after the whole budget
    products = []

    class Counted(np.ndarray):
        def __matmul__(self, other):
            products.append(other.shape)
            return np.asarray(self) @ other

    mat = np.array([[0.0, 2.0], [1.0, 0.0]]).view(Counted)
    det = _perron_root([mat], 1e-8, 10_000)
    assert (det.method, det.iterations) == ("dense", 10_000)
    assert det.rho == pytest.approx(np.sqrt(2.0), abs=1e-12)
    # three power steps (w_3 repeats w_1) and the monodromy product
    assert products == [(2,), (2,), (2,), (2, 2)]


def test_power_and_dense_radii_agree_on_catalog(cat):
    for name, system in cat.items():
        if not system.monotone_expected:
            continue
        if isinstance(system.kind, Parabolic):
            x0 = 0.5 * np.ones(system.n)
        else:
            x0 = 0.3 * np.ones(system.n)
        orb = iterate_orbit(system, x0, 60)
        point = orb.samples[-1]
        det = cycle_spectral_radius(system, point[None, :], detail=True)
        mono = jacobian(system, system.state(point))
        rho_dense = float(np.max(np.abs(np.linalg.eigvals(mono))))
        assert abs(det.rho - rho_dense) <= 1e-6 * max(1.0, rho_dense), name


# ---------------------------------------------------------- classification

def test_classify_cubic_attractors(cubic):
    up = classify_orbit(cubic, 0.5)
    assert up.verdict == "stable_cycle"
    assert up.cycle.period == 1
    assert up.cycle.points[0, 0] == pytest.approx(1.0, abs=1e-8)
    assert up.cycle.rho == pytest.approx(0.8, abs=1e-6)
    assert "period 1" in up.diagnostics
    down = classify_orbit(cubic, -0.5)
    assert down.cycle.points[0, 0] == pytest.approx(-1.0, abs=1e-8)


def test_classify_cubic_repeller(cubic):
    at_zero = classify_orbit(cubic, 0.0)
    assert at_zero.verdict == "unstable_cycle"
    assert at_zero.cycle.rho == pytest.approx(1.1, abs=1e-8)
    assert at_zero.cycle.stability == "unstable"


def test_classify_logistic_two_cycle(logistic):
    cls = classify_orbit(logistic, 0.3)
    assert cls.verdict == "stable_cycle"
    assert cls.cycle.period == 2
    r = LOGISTIC_R
    multiplier = 4.0 + 2.0 * r - r * r
    assert cls.cycle.rho == pytest.approx(multiplier, abs=1e-6)
    lo, hi = logistic_two_cycle()
    assert sorted(cls.cycle.points[:, 0]) == pytest.approx([lo, hi], abs=1e-8)


def test_classify_linear_contraction(coop):
    cls = classify_orbit(coop, [0.9, -0.3])
    assert cls.verdict == "stable_cycle"
    assert cls.cycle.period == 1
    assert cls.cycle.rho == pytest.approx(0.7, abs=1e-6)
    np.testing.assert_allclose(cls.cycle.points[0], 0.0, atol=1e-7)


def test_classify_escape():
    system = linear_cooperative(matrix=[[2.0]], kappa=1.0)
    cls = classify_orbit(system, 1.0)
    assert cls.verdict == "escaped"
    assert cls.cycle is None
    assert "escaped" in cls.diagnostics


def test_classify_unresolved_when_budget_short(logistic):
    cls = classify_orbit(logistic, 0.3, ClassifyBudget(max_iterations=5, p_max=4))
    assert cls.verdict == "unresolved"
    assert "5 iterations" in cls.diagnostics
    assert cls.iterations_used == 5


def test_classify_final_check_fires(cubic):
    # check_every beyond the budget: only the terminal check can detect
    cls = classify_orbit(
        cubic, 0.5, ClassifyBudget(max_iterations=300, p_max=4, check_every=1000)
    )
    assert cls.verdict == "stable_cycle"
    assert cls.iterations_used == 300


def test_classify_parabolic_fixed_profile(neumann5):
    budget = ClassifyBudget(max_iterations=120, p_max=8)
    cls = classify_orbit(neumann5, 0.2 * np.ones(neumann5.n), budget)
    assert cls.verdict == "stable_cycle"
    assert cls.cycle.period == 1
    np.testing.assert_allclose(cls.cycle.points[0], 1.0, atol=1e-6)
    # homogeneous-mode multiplier of the forced ODE w' = -10 a(t) w
    assert cls.cycle.rho == pytest.approx(np.exp(-10.0), rel=0.05)


def engine_case(name, cat):
    """(system, starts as columns, budget) for one engine-equivalence case."""
    rng = np.random.default_rng(31)
    if name == "cubic_map":
        starts = np.concatenate([[0.0, 1.0, -1.0], rng.uniform(-1.4, 1.4, 20)])
        return cat[name], starts[None, :], None
    if name == "linear_cooperative":
        starts = rng.uniform(-1.4, 1.4, (2, 12))
        starts[:, 3] = [10.0, 0.0]  # escapes at the first map
        return cat[name], starts, None
    exp = build_experiment(load_config(CONFIGS / name))
    sampler = smooth_field(amplitude=1.0, seed=31)
    starts = np.stack(
        [sample_initial(sampler, i, exp.system.grid).values for i in range(6)], axis=1
    )
    return exp.system, starts, exp.budget


@pytest.mark.parametrize(
    "name",
    [
        "cubic_map",
        "linear_cooperative",
        "dirichlet_cubic_5.cfg",
        "dirichlet_cubic_15.cfg",
        "neumann_cubic_5.cfg",
        "radial_cubic_15.cfg",
        "ring_cubic_5.cfg",
    ],
)
def test_classify_many_matches_classify_orbit(name, cat):
    system, starts, budget = engine_case(name, cat)
    together = classify_many(system, starts, budget)
    assert len(together) == starts.shape[1]
    for j, got in enumerate(together):
        want = classify_orbit(system, starts[:, j], budget)
        assert (got.verdict, got.iterations_used) == (want.verdict, want.iterations_used)
        if want.cycle is None:
            assert got.cycle is None
            assert got.diagnostics == want.diagnostics
        else:
            assert got.cycle.period == want.cycle.period
            assert got.cycle.rho == pytest.approx(want.cycle.rho, rel=1e-9)
    verdicts = {cls.verdict for cls in together}
    if name == "cubic_map":
        assert verdicts == {"stable_cycle", "unstable_cycle"}
    if name == "linear_cooperative":
        assert verdicts == {"stable_cycle", "escaped"}


def test_classify_many_validates_block_shape(coop):
    with pytest.raises(DimensionMismatchError):
        classify_many(coop, np.zeros((3, 2)))
    assert classify_many(coop, np.zeros((2, 0))) == []


@pytest.mark.parametrize("name", ["dirichlet_cubic_15", "ring_cubic_5"])
def test_classify_orbit_matches_stagewise_rerun(name, cat):
    # the stages by hand: map iterates, window scans at the checkpoints,
    # polish and grading; classify_orbit must reproduce them bit for bit
    system = cat[name]
    budget = ClassifyBudget(max_iterations=400, p_max=8).resolve(system)
    xs = system.grid.nodes()
    for amp in (0.4, -0.7):
        u = amp * np.sin(np.pi * xs) + 0.1 * np.cos(3.0 * xs)
        cls = classify_orbit(system, u, budget)
        window = deque([u], maxlen=3 * budget.p_max)
        cand = None
        k = 0
        while cand is None:
            k += 1
            u = apply_map(system, u, iteration=k)
            window.append(u)
            if len(window) == window.maxlen and k % budget.check_every == 0:
                cand = detect_cycle(np.asarray(window), budget.p_max, budget.tol_cyc)
        rec = refine_cycle(
            system, cand, newton_tol=budget.newton_tol, max_newton=budget.newton_max_iter
        )
        assert cls.iterations_used == k
        assert cls.cycle.period == rec.period
        np.testing.assert_array_equal(cls.cycle.points, rec.points)
        assert cls.cycle.rho == cycle_spectral_radius(system, rec)


def test_classification_serialization(cubic):
    cls = classify_orbit(cubic, 0.5)
    data = cls.to_json()
    assert data["verdict"] in VERDICTS
    assert set(data) == {"verdict", "iterations_used", "diagnostics", "cycle"}
    assert data["cycle"]["period"] == 1


# ------------------------------------------------------------- omega sets

def test_set_distance_hand_values():
    assert set_distance([[0.0]], [[1.0]]) == pytest.approx(1.0)
    assert set_distance([[0.0], [1.0]], [[1.0], [0.0]]) == 0.0
    assert set_distance([[0.0]], [[0.0], [2.0]]) == pytest.approx(2.0)
    with pytest.raises(DimensionMismatchError):
        set_distance([[0.0]], [[0.0, 1.0]])


# ----------------------------------------------------------------- probes

def test_omega_probe_unstable_point_is_two_sided_member(cubic):
    rep = omega_plus_probe(cubic, 0.0)
    assert rep.base_verdict == "unstable_cycle"
    assert rep.upper.membership == "member"
    assert rep.lower.membership == "member"
    assert rep.upper.consistent and rep.lower.consistent
    assert rep.upper.limit[0, 0] == pytest.approx(1.0, abs=1e-6)
    assert rep.lower.limit[0, 0] == pytest.approx(-1.0, abs=1e-6)
    assert rep.upper.distance_to_base == pytest.approx(1.0, abs=1e-6)


def test_omega_probe_stable_point_is_no_member(cubic):
    rep = omega_plus_probe(cubic, 1.0)
    assert rep.base_verdict == "stable_cycle"
    assert rep.upper.membership == "not_member"
    assert rep.lower.membership == "not_member"
    assert rep.upper.distance_to_base < 1e-6


def test_omega_probe_degrades_to_inconclusive(cubic):
    rep = omega_plus_probe(
        cubic, 0.0, budget=ClassifyBudget(max_iterations=5, p_max=4)
    )
    assert rep.base_verdict == "unresolved"
    assert rep.upper.membership == "inconclusive"
    assert "unresolved" in rep.notes


def test_omega_probe_multi_direction_consistency(cubic):
    rep = omega_plus_probe(cubic, 0.0, extra_directions=[[2.0]])
    assert rep.direction_disagreement is not None
    assert rep.direction_disagreement < 1e-6


def test_omega_probe_block_matches_starts_alone(cat):
    # the base point and every perturbed start run as one block; each
    # column's verdict and limit are those of its start classified alone
    ring = cat["ring_cubic_5"]
    budget = ClassifyBudget(max_iterations=200, p_max=4)
    base = np.zeros(ring.n)
    other = 1.0 + 0.5 * np.cos(2.0 * np.pi * ring.grid.nodes())
    eps_values = (1e-2, 1e-3)
    rep = omega_plus_probe(ring, base, eps_values=eps_values, budget=budget,
                           extra_directions=[other])
    assert rep.base_verdict == classify_orbit(ring, base, budget).verdict
    ones = np.ones(ring.n)
    for side, sign in ((rep.upper, 1.0), (rep.lower, -1.0)):
        alone = [classify_orbit(ring, base + sign * eps * ones, budget)
                 for eps in eps_values]
        assert side.verdicts == [cls.verdict for cls in alone]
        np.testing.assert_allclose(side.limit, alone[-1].cycle.points, atol=1e-12)
    assert rep.upper.membership == rep.lower.membership == "member"
    assert rep.direction_disagreement < 1e-6


def test_omega_probe_validation(cubic, coop):
    with pytest.raises(ValueError):
        omega_plus_probe(cubic, 1.0, eps_values=(1.0,))
    with pytest.raises(ValueError):
        omega_plus_probe(cubic, 0.0, eps_values=())
    with pytest.raises(ValueError):
        omega_plus_probe(cubic, 0.0, eps_values=(-1e-3,))
    with pytest.raises(OrderError):
        omega_plus_probe(coop, [0.0, 0.0], direction=[1.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        omega_plus_probe(coop, [0.0, 0.0], direction=[1.0])


def test_omega_probe_holds_extra_directions_to_the_box(cubic):
    # the primary push 1.4 + 0.2 * 0.01 stays inside kappa = 1.5; the extra
    # direction's push 1.4 + 0.2 * 1.0 leaves it
    with pytest.raises(ValueError, match="trapping box"):
        omega_plus_probe(
            cubic, [1.4], direction=[0.01], eps_values=(0.2,),
            extra_directions=[[1.0]],
        )


def test_omega_probe_serialization(cubic):
    data = omega_plus_probe(cubic, 0.0).to_json()
    assert data["upper"]["membership"] == "member"
    assert data["eps_values"] == [1e-2, 1e-3, 1e-4]
    assert isinstance(data["base_point"], list)


def test_separation_probe_contrasts_repeller_and_attractor(cubic, coop):
    assert separation_probe(cubic, 0.0) >= 0.9
    assert separation_probe(cubic, 1.0) < 1e-4
    assert separation_probe(coop, [0.0, 0.0]) < 1e-6


def test_separation_probe_validation(cubic):
    with pytest.raises(ValueError):
        separation_probe(cubic, 0.0, scales=(-1e-2,))
    with pytest.raises(ValueError):
        separation_probe(cubic, 0.0, scales=(2.0,))


def test_separation_probe_refuses_before_mapping(dirichlet15, monkeypatch):
    # every push of scale 2 leaves the box, so no period map may run
    def no_map(*args, **kwargs):
        raise AssertionError("the base orbit was mapped")

    monkeypatch.setattr(asymptotics, "apply_map_columns", no_map)
    with pytest.raises(ValueError, match="no admissible probe"):
        separation_probe(dirichlet15, np.zeros(dirichlet15.n), scales=(2.0,))


def test_separation_probe_counts_escape_as_separated():
    system = linear_cooperative(matrix=[[1.5]], kappa=1.0)
    # base at the fixed point 0, pushes blow up and leave the box
    gap = separation_probe(system, 0.0, scales=(1e-2,),
                           budget=ClassifyBudget(max_iterations=60))
    assert gap >= 1.0


# --------------------------------------------------- order-theoretic facts

def test_orbit_from_subequilibrium_is_increasing(cubic, dirichlet15):
    orb = iterate_orbit(cubic, 0.1, 40)
    for i in range(len(orb) - 1):
        assert leq(orb.state(i), orb.state(i + 1))

    xs = dirichlet15.grid.nodes()
    x0 = dirichlet15.state(0.05 * np.sin(np.pi * xs))
    assert leq(x0, evaluate(dirichlet15, x0))
    orb = iterate_orbit(dirichlet15, x0, 25)
    for i in range(len(orb) - 1):
        assert leq(orb.state(i), orb.state(i + 1))


def test_stable_cycles_have_collapsing_separation(cubic, coop):
    for system, x0 in ((cubic, 0.5), (coop, [0.4, 0.2])):
        cls = classify_orbit(system, x0)
        assert cls.verdict == "stable_cycle" and cls.cycle.rho < 0.95
        budget = ClassifyBudget(max_iterations=80)
        gap = separation_probe(system, cls.cycle.points[0], budget=budget)
        assert gap < 10.0 * default_tol_cyc(system)


def test_stable_parabolic_cycle_separation(dirichlet15):
    budget = ClassifyBudget(max_iterations=60, p_max=8)
    cls = classify_orbit(dirichlet15, 0.5 * np.ones(dirichlet15.n), budget)
    assert cls.verdict == "stable_cycle"
    gap = separation_probe(
        dirichlet15, cls.cycle.points[0], budget=ClassifyBudget(max_iterations=60)
    )
    assert gap < 10.0 * default_tol_cyc(dirichlet15)


def separation_one_push_at_a_time(system, x, scales, budget):
    """separation_probe as a loop over pushes, each run alone beside its own
    copy of the base orbit, the two as one two-column block (a linear map
    rounds a block product apart from a vector product)."""
    steps = budget.resolve(system).max_iterations
    tail_start = max(1, steps // 2)
    base0 = np.atleast_1d(np.asarray(x, dtype=float))
    gaps = []
    for scale in scales:
        for sign in (1.0, -1.0):
            pair = np.stack([base0, base0 + sign * scale * np.ones(system.n)], axis=1)
            if np.max(np.abs(pair[:, 1])) >= system.kappa:
                continue
            gap = 0.0
            for k in range(1, steps + 1):
                pair, failures = apply_map_columns(system, pair, iteration=k)
                if failures:
                    assert list(failures) == [1]
                    gap = max(gap, system.kappa)
                    break
                if k >= tail_start:
                    gap = max(gap, float(np.max(np.abs(pair[:, 1] - pair[:, 0]))))
            gaps.append(gap)
    return min(gaps)


@pytest.mark.parametrize("name, x, scales, iterations", [
    ("cubic_map", 0.0, (1e-2, 1e-4), 400),
    ("cubic_map", 0.5, (1e-2, 1e-4, 0.6), 80),
    ("linear_cooperative", [0.4, 0.2], (1e-2, 1e-4), 80),
    ("linear_cooperative", [0.0, 0.0], (0.5, 1e-3), 120),
    ("escaping", 0.0, (1e-2, 1e-4, 0.5), 60),
    ("dirichlet_cubic_15", "zero", (1e-2, 1e-4), 24),
])
def test_separation_probe_block_matches_one_push_at_a_time(cat, name, x, scales, iterations):
    # the pushes run as the columns of one block with the base orbit, and
    # pushes that escape (at different iterations) retire from it
    system = (linear_cooperative(matrix=[[1.5]], kappa=1.0) if name == "escaping"
              else cat[name])
    if x == "zero":
        x = np.zeros(system.n)
    budget = ClassifyBudget(max_iterations=iterations)
    got = separation_probe(system, x, scales=scales, budget=budget)
    want = separation_one_push_at_a_time(system, x, scales, budget)
    if isinstance(system.kind, Parabolic):
        assert want > 0.1
        assert got == pytest.approx(want, rel=0.0, abs=1e-12)
    else:
        assert got == want


def test_separation_probe_raises_the_base_orbit_error():
    # the base 0.5 * 1.5^k leaves the inflated box (sup > 2) at k = 4
    system = linear_cooperative(matrix=[[1.5]], kappa=1.0)
    with pytest.raises(EscapeError) as info:
        separation_probe(system, 0.5, scales=(1e-3,),
                         budget=ClassifyBudget(max_iterations=20))
    assert (info.value.iteration, info.value.sup) == (4, 2.53125)
