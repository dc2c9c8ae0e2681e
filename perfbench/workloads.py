"""The benchmark's three workloads, driven through the package's public API.

Each workload builds its system from a shipped config, turns the workload
seed into inputs, and offers four things to ``run.py``:

* ``run_chunk(j)``: the j-th unit of timed work, returning the result to
  check. A chunk holds ``chunk_ops`` ops.
* ``check(result)``: how many ops of the chunk failed the output check;
  ``finish()`` adds failures only visible over the whole run.
* ``reference()`` / ``compare(got, want)``: outputs on the workload's
  default seeds, compared with what ``reference.json`` recorded.
* ``traced(tracer)``: a fixed op set run untraced and then traced, returning
  the per-layer metrics of ``layers.py``.

Why these workloads: ``prevalence_dirichlet`` is prediction 1, the paper's
headline experiment, and the only one through the thread pool;
``line_cubic`` is prediction 2 on the analytic cubic map, with no PDE
stepping, so a ``numerics`` optimisation should leave it unchanged;
``validate_ring`` runs the standing-assumption checks serially on long
orbits through ``evaluate`` and vector tangents at n=16, and is the only
workload that reaches ``order`` and ``symmetry``.
"""

import inspect
import json
import time
from collections import deque
from dataclasses import replace

import numpy as np

from monotone_lab import (
    asymptotics,
    config,
    numerics,
    order,
    prevalence,
    symmetry,
    systems,
)

from tracing import p50, p90

# Independent random streams drawn from one workload seed.
CHUNK_STREAM, TRACE_STREAM, LINE_STREAM, CHECK_STREAM, REPLAY_STREAM = range(5)

# Relative bound on line rhos against the reference: batched (gemm) and
# per-state (gemv) products may round differently, verdicts may not differ.
RHO_REL = 1e-9
# Bound on validation worst margins against the reference, relative plus an
# absolute part for margins that sit at roundoff (the equivariance gap).
MARGIN_REL, MARGIN_ABS = 1e-6, 1e-12


def derive_seed(seed, stream, index=0):
    entropy = [seed % 2**64, stream, index]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def load(root, config_file):
    return config.build_experiment(config.load_config(root / "configs" / config_file))


def first_map(exp):
    """One map from the zero state; builds the propagator of a parabolic system."""
    return systems.apply_map(exp.system, np.zeros(exp.system.n))


def is_parabolic(system):
    return isinstance(system.kind, systems.Parabolic)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


# ---------------------------------------------------------------------------
# classification replay, shared by the two ensemble workloads

def refine_jacobian_passes(rec, max_newton):
    """Dense Jacobians refine_cycle assembled, read from its returned record.

    Every Newton iteration that runs assembles one monodromy of ``period``
    Jacobians; a converged polish stops at the gap test before assembling,
    a rejected step or singular solve stops after it.
    """
    iters = rec.newton_iterations
    stopped_after_assembly = not rec.newton_converged and iters < max_newton
    return rec.period * (iters + int(stopped_after_assembly))


def replay_classification(tracer, system, x0, budget, cls, classify_id):
    """Re-run the stages of one classify_orbit call as spans.

    The orbit is re-iterated with ``systems.apply_map``, the window is
    scanned with ``detect_cycle`` at the same checkpoints, and the candidate
    goes through ``refine_cycle`` and ``cycle_spectral_radius``. Each span
    names ``classify_id`` as the span it replays. Returns the counts of the
    replay and whether it reproduced the classification.
    """
    map_span = "numerics.period" if is_parabolic(system) else "systems.apply_map"
    window = deque(maxlen=3 * budget.p_max)
    u = np.array(x0.values, dtype=float)
    window.append(u)
    out = {"detects": 0, "hits": 0, "power": 0, "matches": cls.cycle is None}
    cand = None
    for k in range(1, cls.iterations_used + 1):
        u = tracer.call(map_span, systems.apply_map, system, u, iteration=k,
                        replay_of=classify_id)
        window.append(u)
        if len(window) == window.maxlen and (
            k % budget.check_every == 0 or k == budget.max_iterations
        ):
            tail = np.asarray(window)
            cand = tracer.call("asymptotics.detect_cycle", asymptotics.detect_cycle,
                               tail, budget.p_max, budget.tol_cyc,
                               replay_of=classify_id)
            out["detects"] += 1
            if cand is not None:
                out["hits"] += 1
                break
    if cand is None:
        return out
    rec = tracer.call("asymptotics.refine_cycle", asymptotics.refine_cycle,
                      system, cand, newton_tol=budget.newton_tol,
                      max_newton=budget.newton_max_iter, replay_of=classify_id)
    det = tracer.call("asymptotics.cycle_spectral_radius",
                      asymptotics.cycle_spectral_radius, system, rec, detail=True,
                      replay_of=classify_id)
    out["power"] = det.iterations
    out["matches"] = (
        cls.cycle is not None
        and rec.period == cls.cycle.period
        and det.rho == cls.cycle.rho
    )
    return out


def trace_ensemble(tracer, system, sampler, count, budget):
    """Classify samples 0..count-1 serially, each followed by its replay.

    Returns the layer metrics of the ensemble layers, the traced wall time
    and the number of samples whose replay disagreed with classify_orbit.
    """
    resolved = (budget or asymptotics.ClassifyBudget()).resolve(system)
    parabolic = is_parabolic(system)
    iterations, newton, power, dense, jac_calls, detects, hits = 0, 0, 0, 0, 0, 0, 0
    mismatches = 0
    start = time.perf_counter()
    for i in range(count):
        tracer.op = i
        x0 = tracer.call("prevalence.sample_initial", prevalence.sample_initial,
                         sampler, i, system.grid)
        with tracer.span("asymptotics.classify_orbit") as span:
            cls = asymptotics.classify_orbit(system, x0, budget)
        rep = replay_classification(tracer, system, x0, resolved, cls, span["id"])
        iterations += cls.iterations_used
        detects += rep["detects"]
        hits += rep["hits"]
        power += rep["power"]
        mismatches += not rep["matches"]
        rec = cls.cycle
        if rec is None:
            continue
        newton += rec.newton_iterations
        dense += rec.rho_method == "dense"
        if parabolic:
            jac_calls += refine_jacobian_passes(rec, resolved.newton_max_iter)
            jac_calls += rec.period
            tracer.call("numerics.jacobian", systems.jacobian, system, rec.state(0))
    wall = time.perf_counter() - start
    classify = tracer.durations("asymptotics.classify_orbit")
    map_calls = tracer.count("numerics.period" if parabolic else "systems.apply_map")
    metrics = {
        "asymptotics.classify_s_p50": p50(classify),
        "asymptotics.classify_s_p90": p90(classify),
        "asymptotics.iterations_per_sample": iterations / count,
        "asymptotics.classify_self_s": p50(
            tracer.self_durations("asymptotics.classify_orbit")),
        "asymptotics.detect_cycle_s": p50(tracer.durations("asymptotics.detect_cycle")),
        "asymptotics.detect_cycle_calls": detects,
        "asymptotics.detect_hit_ratio": hits / detects if detects else 0.0,
        "asymptotics.refine_cycle_s": p50(tracer.durations("asymptotics.refine_cycle")),
        "asymptotics.newton_iterations": newton,
        "asymptotics.spectral_radius_s": p50(
            tracer.durations("asymptotics.cycle_spectral_radius")),
        "asymptotics.power_iterations": power,
        "asymptotics.dense_fallbacks": dense,
        "prevalence.sample_initial_s": p50(tracer.durations("prevalence.sample_initial")),
        "numerics.jacobian_s": p50(tracer.durations("numerics.jacobian")),
        "numerics.jacobian_calls": jac_calls,
        "numerics.period_calls" if parabolic else "systems.apply_map_calls": map_calls,
    }
    if not parabolic:
        metrics["systems.apply_map_scalar_s"] = p50(tracer.durations("systems.apply_map"))
    return metrics, wall, sum(classify), mismatches


def kernel_figures(system, period_s):
    """Computed period-map kernel figures: two dense n x n mat-vecs per step.

    Both matrices fit in cache at these sizes, so the achieved rate is an
    indicator of interpreter overhead per step, not a bandwidth roofline.
    """
    n = system.n
    steps = system.kind.scheme.steps_per_period
    flops = 4 * n * n * steps
    return {
        "numerics.period_s": period_s,
        "numerics.period_flops_computed": flops,
        "numerics.period_bytes_computed": 2 * n * n * 8 * steps,
        "numerics.period_gflops_computed": flops / period_s / 1e9 if period_s else 0.0,
    }


# ---------------------------------------------------------------------------
# workloads

class PrevalenceDirichlet:
    """estimate_prevalence on dirichlet_cubic_15 with the config's budget."""

    name = "prevalence_dirichlet"
    config_file = "dirichlet_cubic_15.cfg"
    reference_count = 16

    def __init__(self, exp, seed, smoke, threads):
        self.exp = exp
        self.seed = seed
        self.threads = threads
        self.chunk_ops = 2 if smoke else 4
        self.trace_count = 4 if smoke else 40
        self.stable = 0
        self.total = 0

    def _sampler(self, stream, index=0):
        return replace(self.exp.sampler, seed=derive_seed(self.seed, stream, index))

    def _estimate(self, sampler, count, threads):
        return prevalence.estimate_prevalence(
            self.exp.system, sampler, count=count, budget=self.exp.budget,
            threads=threads,
        )

    def run_chunk(self, j):
        return self._estimate(self._sampler(CHUNK_STREAM, j), self.chunk_ops, self.threads)

    def check(self, report):
        counts = report.counts
        self.stable += counts["stable_cycle"]
        self.total += report.count
        cycles = counts["stable_cycle"] + counts["unstable_cycle"]
        if sum(report.period_histogram.values()) != cycles:
            return report.count
        return 0

    def finish(self):
        # prediction 1 over the whole run: at least 95% stable
        if self.total and self.stable < 0.95 * self.total:
            return self.total - self.stable
        return 0

    def reference(self):
        report = self._estimate(self.exp.sampler, self.reference_count, self.threads)
        doc = report.to_json()
        del doc["wall_time"]
        return {"report": doc}

    @staticmethod
    def compare(got, want):
        if json.dumps(got["report"], indent=2) != json.dumps(want["report"], indent=2):
            return ["prevalence report bytes (wall_time removed) differ"]
        return []

    def traced(self, tracer):
        system = self.exp.system
        sampler = self._sampler(TRACE_STREAM)
        count = self.trace_count
        serial, wall_1 = _timed(self._estimate, sampler, count, 1)
        pooled, wall_n = _timed(self._estimate, sampler, count, self.threads)
        metrics, traced_wall, classify_sum, mismatches = trace_ensemble(
            tracer, system, sampler, count, self.exp.budget)
        metrics.update(kernel_figures(system, p50(tracer.durations("numerics.period"))))
        metrics["prevalence.parallel_efficiency"] = classify_sum / (self.threads * wall_n)
        metrics["trace.overhead_ratio"] = wall_n / traced_wall
        strip = [dict(r.to_json(), wall_time=None) for r in (serial, pooled)]
        failed = self.check(pooled) + count * (mismatches > 0 or strip[0] != strip[1])
        reanchor = {
            "period_map_ms": 1e3 * metrics["numerics.period_s"],
            "jacobian_ms": 1e3 * metrics["numerics.jacobian_s"],
            f"prevalence_{count}_samples_1_thread_s": wall_1,
            f"prevalence_{count}_samples_{self.threads}_threads_s": wall_n,
        }
        return metrics, 3 * count, failed, reanchor


def seeded_line(seed, resolution=None):
    """A line_scan through the cubic map's unstable point u = 0.

    The seed draws the resolution, the crossing index, the direction and the
    spacing; the base is placed so that the crossing sample is exactly 0.
    Both endpoints stay within |u| <= 1.4, inside the trapping box.
    """
    rng = np.random.default_rng(derive_seed(seed, LINE_STREAM))
    if resolution is None:
        resolution = int(rng.integers(81, 122))
    crossing = int(rng.integers(resolution // 4, 3 * resolution // 4 + 1))
    direction = float(rng.uniform(0.5, 2.0))
    spacing = float(rng.uniform(0.5, 1.0)) * 1.4 / max(crossing, resolution - 1 - crossing)
    width = spacing * (resolution - 1) / direction
    s_cross = np.linspace(0.0, width, resolution)[crossing]
    base = -(s_cross * direction)
    sampler = prevalence.line_scan([base], [direction], 0.0, width, resolution)
    return sampler, crossing


class LineCubic:
    """line_probe on the analytic cubic map with the default budget, one thread."""

    name = "line_cubic"
    config_file = "cubic_line.cfg"

    def __init__(self, exp, seed, smoke, threads):
        self.exp = exp
        self.sampler, self.crossing = seeded_line(seed, 21 if smoke else None)
        self.chunk_ops = self.sampler.resolution

    def _probe(self, sampler):
        return prevalence.line_probe(self.exp.system, sampler, budget=self.exp.budget,
                                     threads=1)

    def run_chunk(self, j):
        return self._probe(self.sampler)

    def check(self, report):
        # acceptance 09: the only non-stable sample is the crossing, unstable
        expected = ["stable_cycle"] * self.chunk_ops
        expected[self.crossing] = "unstable_cycle"
        return sum(got != want for got, want in zip(report.verdicts, expected))

    def finish(self):
        return 0

    def reference(self):
        report = self._probe(self.exp.sampler)
        return {"verdicts": report.verdicts, "bad": report.bad, "rhos": report.rhos}

    @staticmethod
    def compare(got, want):
        problems = []
        for key in ("verdicts", "bad"):
            if got[key] != want[key]:
                problems.append(f"line {key} differ")
        for i, (a, b) in enumerate(zip(got["rhos"], want["rhos"])):
            if (a is None) != (b is None) or (
                a is not None and abs(a - b) > RHO_REL * abs(b)
            ):
                problems.append(f"line rho {i}: {a} vs reference {b}")
        return problems

    def traced(self, tracer):
        system = self.exp.system
        count = self.sampler.resolution
        report, wall = _timed(self._probe, self.sampler)
        metrics, traced_wall, _, mismatches = trace_ensemble(
            tracer, system, self.sampler, count, self.exp.budget)
        metrics["trace.overhead_ratio"] = wall / traced_wall
        failed = self.check(report) + count * (mismatches > 0)
        return metrics, 2 * count, min(failed, 2 * count), {}


# check name -> (span name, function); the layer metric is the span name + "_s"
VALIDATE_CHECKS = {
    "check_monotone": ("order.check_monotone", order.check_monotone),
    "check_strong_monotone": ("order.check_strong_monotone", order.check_strong_monotone),
    "check_strong_positivity": (
        "systems.strong_positivity", systems.check_strong_positivity),
    "validate_dissipativity": ("systems.dissipativity", systems.validate_dissipativity),
    "trapping_check": ("systems.trapping", systems.trapping_check),
    "check_equivariance": ("symmetry.check_equivariance", symmetry.check_equivariance),
}

# Reference size: the checks at their default seeds with fewer samples.
REFERENCE_SIZES = {
    "check_monotone": {"pair_count": 40},
    "check_strong_monotone": {"pair_count": 40},
    "check_strong_positivity": {"probe_count": 20},
    "trapping_check": {"sample_count": 2},
    "check_equivariance": {"sample_count": 10},
}
SMOKE_SIZES = {
    "check_monotone": {"pair_count": 4},
    "check_strong_monotone": {"pair_count": 4},
    "check_strong_positivity": {"probe_count": 4},
    "validate_dissipativity": {"sample_count": 20},
    "trapping_check": {"sample_count": 2, "horizon": 5},
    "check_equivariance": {"sample_count": 2},
}


class ValidateRing:
    """The checks of ``monotone-lab validate`` on ring_cubic_5, as functions."""

    name = "validate_ring"
    config_file = "ring_cubic_5.cfg"
    replay_maps = 40
    replay_tangents = 20

    def __init__(self, exp, seed, smoke, threads):
        self.exp = exp
        self.seed = seed
        self.sizes = SMOKE_SIZES if smoke else {}
        self.chunk_ops = 1

    def _validate(self, sizes, seeds=None, tracer=None):
        system = self.exp.system
        reports = {}
        for i, (check, (span, fn)) in enumerate(VALIDATE_CHECKS.items()):
            args = (system, self.exp.action) if check == "check_equivariance" else (system,)
            kwargs = dict(sizes.get(check, {}))
            if seeds is not None:
                kwargs["seed"] = int(seeds[i])
            if tracer is None:
                reports[check] = fn(*args, **kwargs)
            else:
                reports[check] = tracer.call(span, fn, *args, **kwargs)
        return reports

    def _seeds(self, j):
        ss = np.random.SeedSequence([self.seed % 2**64, CHECK_STREAM, j])
        return ss.generate_state(len(VALIDATE_CHECKS))

    def run_chunk(self, j):
        return self._validate(self.sizes, self._seeds(j))

    def check(self, reports):
        return int(not all(r.passed for r in reports.values()))

    def finish(self):
        return 0

    def reference(self):
        return {
            name: {
                "passed": r.passed,
                "violations": r.violations,
                "pairs_tested": r.pairs_tested,
                "worst_margin": r.worst_margin,
            }
            for name, r in self._validate(REFERENCE_SIZES).items()
        }

    @staticmethod
    def compare(got, want):
        problems = []
        for name, ref in want.items():
            res = got[name]
            for key in ("passed", "violations", "pairs_tested"):
                if res[key] != ref[key]:
                    problems.append(f"{name} {key}: {res[key]} vs reference {ref[key]}")
            a, b = res["worst_margin"], ref["worst_margin"]
            if not (a == b or abs(a - b) <= MARGIN_REL * abs(b) + MARGIN_ABS):
                problems.append(f"{name} worst_margin: {a} vs reference {b}")
        return problems

    def _map_calls(self, reports):
        """Period maps the checks made, from their reports and sizes."""
        trap = self.sizes.get("trapping_check", {})
        default = inspect.signature(systems.trapping_check).parameters["horizon"].default
        horizon = trap.get("horizon", default)
        generators = len(self.exp.action.generators)
        return (
            2 * reports["check_monotone"].pairs_tested
            + 2 * reports["check_strong_monotone"].pairs_tested
            + horizon * reports["trapping_check"].pairs_tested
            + (1 + generators) * reports["check_equivariance"].pairs_tested
        )

    def traced(self, tracer):
        system = self.exp.system
        seeds = self._seeds(0)
        plain, wall = _timed(self._validate, self.sizes, seeds)
        tracer.op = 0
        start = time.perf_counter()
        with tracer.span("validate"):
            reports = self._validate(self.sizes, seeds, tracer)
        traced_wall = time.perf_counter() - start
        # single calls into numerics, from box states drawn from the seed
        rng = np.random.default_rng(derive_seed(self.seed, REPLAY_STREAM))
        tracer.op = 1
        for _ in range(self.replay_maps):
            u = order.draw_box_state(system, rng).values
            tracer.call("numerics.period", systems.apply_map, system, u)
        for _ in range(self.replay_tangents):
            x = order.draw_box_state(system, rng)
            v = x.with_values(rng.uniform(0.0, 1.0, system.n))
            tracer.call("numerics.propagate_tangent", numerics.propagate_tangent,
                        x, v, system)
        metrics = kernel_figures(system, p50(tracer.durations("numerics.period")))
        metrics["numerics.period_calls"] = self._map_calls(reports)
        metrics["numerics.tangent_vec_s"] = p50(
            tracer.durations("numerics.propagate_tangent"))
        for span, _ in VALIDATE_CHECKS.values():
            metrics[f"{span}_s"] = p50(tracer.durations(span))
        metrics["trace.overhead_ratio"] = wall / traced_wall
        same = all(
            plain[k].to_json() == reports[k].to_json() for k in VALIDATE_CHECKS
        )
        failed = self.check(plain) + self.check(reports) + (0 if same else 1)
        return metrics, 2, min(failed, 2), {}


WORKLOADS = {w.name: w for w in (PrevalenceDirichlet, LineCubic, ValidateRing)}
