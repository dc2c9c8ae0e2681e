"""Per-layer metrics of the traced run, and what each is meant to move.

Each entry is (name, unit, better, moves). ``moves`` names the end-to-end
metric the layer metric should move and the workloads on which it should
move it; on the other workloads the prediction is no change. A layer that a
workload never calls reports 0 there.

``BENCHMARK.json`` lists the same names, units and directions under
``per_layer``; the smoke test keeps the two in step.
"""

PREV = "prevalence_dirichlet"
LINE = "line_cubic"
RING = "validate_ring"

LAYER_METRICS = [
    # set-up
    ("config.build_s", "s", "lower", ("setup_s", (PREV, LINE, RING))),
    ("numerics.propagator_build_s", "s", "lower", ("setup_s", (PREV, RING))),
    # numerics
    ("numerics.period_s", "s", "lower", ("ops_per_s", (PREV, RING))),
    ("numerics.period_calls", "count", "lower", ("ops_per_s", (PREV, RING))),
    ("numerics.period_gflops_computed", "GFLOP/s", "higher", ("ops_per_s", (PREV, RING))),
    ("numerics.period_flops_computed", "flop", "lower", ("ops_per_s", (PREV, RING))),
    ("numerics.period_bytes_computed", "B", "lower", ("ops_per_s", (PREV, RING))),
    ("numerics.jacobian_s", "s", "lower", ("ops_per_s", (PREV,))),
    ("numerics.jacobian_calls", "count", "lower", ("ops_per_s", (PREV,))),
    ("numerics.tangent_vec_s", "s", "lower", ("ops_per_s", (RING,))),
    # systems
    ("systems.apply_map_scalar_s", "s", "lower", ("ops_per_s", (LINE,))),
    ("systems.apply_map_calls", "count", "lower", ("ops_per_s", (LINE,))),
    ("systems.trapping_s", "s", "lower", ("ops_per_s", (RING,))),
    ("systems.strong_positivity_s", "s", "lower", ("ops_per_s", (RING,))),
    ("systems.dissipativity_s", "s", "lower", ("ops_per_s", (RING,))),
    # order and symmetry
    ("order.check_monotone_s", "s", "lower", ("ops_per_s", (RING,))),
    ("order.check_strong_monotone_s", "s", "lower", ("ops_per_s", (RING,))),
    ("symmetry.check_equivariance_s", "s", "lower", ("ops_per_s", (RING,))),
    # asymptotics
    ("asymptotics.classify_s_p50", "s", "lower", ("ops_per_s", (PREV, LINE))),
    ("asymptotics.classify_s_p90", "s", "lower", ("ops_per_s", (PREV, LINE))),
    ("asymptotics.iterations_per_sample", "count", "lower", ("ops_per_s", (PREV, LINE))),
    ("asymptotics.classify_self_s", "s", "lower", ("ops_per_s", (LINE,))),
    ("asymptotics.detect_cycle_s", "s", "lower", ("ops_per_s", (LINE,))),
    ("asymptotics.detect_cycle_calls", "count", "lower", ("ops_per_s", (LINE,))),
    ("asymptotics.detect_hit_ratio", "ratio", "higher", ("ops_per_s", (LINE,))),
    ("asymptotics.refine_cycle_s", "s", "lower", ("ops_per_s", (PREV, LINE))),
    ("asymptotics.newton_iterations", "count", "lower", ("ops_per_s", (PREV, LINE))),
    ("asymptotics.spectral_radius_s", "s", "lower", ("ops_per_s", (PREV,))),
    ("asymptotics.power_iterations", "count", "lower", ("ops_per_s", (PREV,))),
    ("asymptotics.dense_fallbacks", "count", "lower", ("ops_per_s", (PREV,))),
    # prevalence
    ("prevalence.sample_initial_s", "s", "lower", ("ops_per_s", ())),
    ("prevalence.parallel_efficiency", "ratio", "higher", ("ops_per_s", (PREV,))),
    # tracing
    ("trace.overhead_ratio", "ratio", "higher", ("ops_per_s", ())),
]

UNITS = {name: unit for name, unit, _, _ in LAYER_METRICS}


def describe_moves(moves):
    metric, workloads = moves
    if not workloads:
        return f"{metric}: none (kept visible)"
    return f"{metric} on {', '.join(workloads)}"
