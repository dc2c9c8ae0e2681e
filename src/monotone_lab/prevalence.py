"""Ensemble experiments: prevalence estimates and line probes.

The prevalence estimate classifies many independently sampled initial
states and reports the fraction that converge to a linearly stable cycle,
with a Wilson 95% interval. That is Monte Carlo evidence of prevalence on
a box, not a certificate of shyness of the complement; the report says so
in its caveat field and records the sampler so runs are comparable.

The line probe classifies equally spaced states along a straight line with
strongly positive direction. The predicted picture is that non-stable
verdicts are confined to isolated parameter values, so refining the
resolution should never grow the exceptional set beyond shrinking
neighborhoods of the points already found.

Every ensemble, the symmetry survey's included, draws its starts through
``sample_starts`` as the columns of one block and classifies them in
lockstep (``asymptotics.classify_many``, which runs ``systems.BLOCK_WIDTH``
consecutive columns at a time); the prevalence and line reports read its
arrays over the columns rather than one Classification per sample.

Determinism contract: the random stream of sample i is seeded by the pair
(sampler seed, i), and aggregation runs in index order. A sample's bits may
depend on the block it runs in, since a block product can round differently
from a vector product; its verdict, iterations and period do not, and its
rho agrees with ``classify_orbit``'s to roundoff. The block width is a
constant, so the report is a function of its inputs alone: identical for
any thread count, apart from the wall_time field.
"""

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import GridError, OrderError
from .order import StateVector
from .asymptotics import VERDICTS, ClassifyBudget, _classify_columns
from .reports import JsonReport

# each strategy's fields besides strategy and seed, in the order describe lists them
STRATEGIES = {
    "box_uniform": ("amplitude",),
    "smooth_field": ("amplitude", "modes"),
    "line_scan": ("base", "direction", "s_min", "s_max", "resolution"),
}

DEFAULT_COUNT = 200  # samples in an ensemble when none is given

CAVEAT = (
    "Monte Carlo evidence of prevalence on a box, not a certificate of "
    "shyness of the complement"
)

WILSON_Z = 1.959963984540054  # two-sided 95%

RHO_EDGES = np.linspace(0.0, 2.0, 21)

@dataclass(eq=False)
class SamplerSpec:
    """How to draw initial states. Unused fields are ignored per strategy.

    box_uniform: independent nodal values uniform in (-amplitude, amplitude).
    smooth_field: random low-frequency combination, amplitude-normalized so
        max|u| <= amplitude regardless of the drawn coefficients.
    line_scan: deterministic sweep base + s * direction over a linspace;
        the rng stream is unused and the index addresses the point.
    """

    strategy: str
    seed: int = 0
    amplitude: float = 1.0
    modes: int = 6
    base: Optional[np.ndarray] = None
    direction: Optional[np.ndarray] = None
    s_min: float = 0.0
    s_max: float = 1.0
    resolution: int = 101

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown sampler strategy {self.strategy!r}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.strategy in ("box_uniform", "smooth_field"):
            if not self.amplitude > 0.0:
                raise ValueError("amplitude must be positive")
            if self.amplitude == np.inf:
                raise ValueError("amplitude must be finite")
        if self.strategy == "smooth_field" and self.modes < 1:
            raise ValueError("smooth_field needs at least one mode")
        if self.strategy == "line_scan":
            if self.base is None or self.direction is None:
                raise ValueError("line_scan needs base and direction")
            self.base = np.atleast_1d(np.asarray(self.base, dtype=float))
            self.direction = np.atleast_1d(np.asarray(self.direction, dtype=float))
            if self.base.shape != self.direction.shape:
                raise ValueError("base and direction must have equal length")
            if not float(np.min(self.direction)) > 0.0:
                raise OrderError("line_scan direction must be strongly positive")
            line = np.r_[self.base, self.direction, self.s_min, self.s_max]
            if not np.all(np.isfinite(line)):
                raise ValueError("line_scan base, direction and range must be finite")
            if self.resolution < 1:
                raise ValueError("resolution must be at least 1")
            if self.s_max < self.s_min:
                raise ValueError("s_max must not be below s_min")

    def s_values(self):
        if self.strategy != "line_scan":
            raise ValueError("s_values applies to line_scan samplers")
        return np.linspace(self.s_min, self.s_max, self.resolution)

    def describe(self):
        out = {"strategy": self.strategy, "seed": self.seed}
        for key in STRATEGIES[self.strategy]:
            value = getattr(self, key)
            out[key] = value.tolist() if isinstance(value, np.ndarray) else value
        return out


def box_uniform(amplitude=1.0, seed=0):
    return SamplerSpec("box_uniform", seed=seed, amplitude=amplitude)


def smooth_field(amplitude=1.0, modes=6, seed=0):
    return SamplerSpec("smooth_field", seed=seed, amplitude=amplitude, modes=modes)


def default_amplitude(system):
    """Box and smooth-field amplitude when none is given: 0.9 kappa."""
    return 0.9 * system.kappa


def line_scan(base, direction, s_min=0.0, s_max=1.0, resolution=101):
    return SamplerSpec(
        "line_scan",
        base=base,
        direction=direction,
        s_min=s_min,
        s_max=s_max,
        resolution=resolution,
    )


def _smooth_mode(grid, k, x):
    """k-th basis function of the smooth sampler, bounded by 1 in sup norm."""
    if grid.kind == "dirichlet":
        return np.sin((k + 1) * np.pi * x)
    if grid.kind == "neumann":
        return np.cos(k * np.pi * x)
    if grid.kind == "ring":
        if k == 0:
            return np.ones_like(x)
        freq = (k + 1) // 2
        if k % 2 == 1:
            return np.sin(2.0 * np.pi * freq * x)
        return np.cos(2.0 * np.pi * freq * x)
    # radial: zero slope at the axis, zero value at the rim
    return np.cos((k + 0.5) * np.pi * x)


def sample_initial(sampler, index, grid):
    """Draw sample number `index` on `grid`. Deterministic in (seed, index)."""
    if index < 0:
        raise ValueError("sample index must be nonnegative")
    if sampler.strategy == "line_scan":
        if index >= sampler.resolution:
            raise ValueError(
                f"index {index} out of range for resolution {sampler.resolution}"
            )
        if sampler.base.shape != (grid.n,):
            raise ValueError("line_scan base does not fit the grid")
        s = sampler.s_values()[index]
        return StateVector(sampler.base + s * sampler.direction, grid)
    rng = np.random.default_rng([sampler.seed, index])
    if sampler.strategy == "box_uniform":
        values = rng.uniform(-sampler.amplitude, sampler.amplitude, grid.n)
        return StateVector(values, grid)
    if grid.kind == "flat":
        raise GridError("smooth_field sampling needs a spatial grid")
    x = grid.nodes()
    coeff = rng.uniform(-1.0, 1.0, sampler.modes)
    total = float(np.sum(np.abs(coeff)))
    u = np.zeros(grid.n)
    for k, c in enumerate(coeff):
        u += c * _smooth_mode(grid, k, x)
    # normalizing by the l1 coefficient mass bounds sup|u| by the amplitude
    u *= sampler.amplitude / max(total, 1e-300)
    return StateVector(u, grid)


def default_sampler(system):
    """The sampler of a run given none: box_uniform at default_amplitude."""
    return box_uniform(amplitude=default_amplitude(system))


def sample_starts(system, sampler, count):
    """Samples 0..count-1 as the columns of one (n, count) block, refusing a
    sampler that leaves the trapping box."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if sampler.strategy != "line_scan":
        if sampler.amplitude > system.kappa:
            raise ValueError(
                f"sampler amplitude {sampler.amplitude} exceeds the trapping "
                f"amplitude {system.kappa}"
            )
        starts = np.empty((system.n, count))
        for i in range(count):
            starts[:, i] = sample_initial(sampler, i, system.grid).values
        return starts
    if sampler.base.shape != (system.n,):
        raise ValueError("line_scan base does not fit the system")
    for s in (sampler.s_min, sampler.s_max):
        point = sampler.base + s * sampler.direction
        if float(np.max(np.abs(point))) >= system.kappa:
            raise ValueError(
                "line_scan endpoints leave the trapping box; shrink the range"
            )
    if count > sampler.resolution:
        raise ValueError("count exceeds the line_scan resolution")
    # the columns, cut from one sweep, are the sample_initial points to the bit
    s = sampler.s_values()[:count]
    return sampler.base[:, None] + s * sampler.direction[:, None]


@dataclass(eq=False)
class PrevalenceReport(JsonReport):
    KIND = "prevalence"

    system_name: str
    sampler: dict
    count: int
    budget: dict
    counts: dict
    stable_fraction: Optional[float]
    wilson_95: Optional[tuple]
    period_histogram: dict[int, int]
    rho_histogram: dict
    caveat: str = field(default=CAVEAT, init=False)
    wall_time: float = 0.0
    schema_version: int = field(default=1, init=False)

    def to_csv(self):
        lines = [f"{name},{self.counts[name]}" for name in VERDICTS]
        lines.append(f"samples,{self.count}")
        if self.stable_fraction is None:
            lines.append("stable_fraction,undefined")
            lines.append("wilson_95,undefined,undefined")
        else:
            lines.append(f"stable_fraction,{self.stable_fraction:.17g}")
            lo, hi = self.wilson_95
            lines.append(f"wilson_95,{lo:.17g},{hi:.17g}")
        return "\n".join(lines) + "\n"


def wilson_interval(successes, total, z=WILSON_Z):
    """Wilson score interval; always contains the point estimate."""
    if total <= 0:
        raise ValueError("Wilson interval needs a positive total")
    if not 0 <= successes <= total:
        raise ValueError(f"successes {successes} outside [0, {total}]")
    p_hat = successes / total
    denom = 1.0 + z * z / total
    center = (p_hat + z * z / (2.0 * total)) / denom
    half = (
        z
        * np.sqrt(p_hat * (1.0 - p_hat) / total + z * z / (4.0 * total * total))
        / denom
    )
    # rounding at p_hat in {0, 1} can push a limit past the estimate
    lo = min(float(center - half), p_hat)
    hi = max(float(center + half), p_hat)
    return (max(0.0, lo), min(1.0, hi))


def _classify_samples(system, sampler, count, budget):
    """Samples 0..count-1 classified in lockstep, as ``classify_many``'s
    arrays over the columns, and the report fields every ensemble shares:
    system name, sampler, resolved budget and wall time."""
    resolved = (budget if budget is not None else ClassifyBudget()).resolve(system)
    start = time.perf_counter()
    columns = _classify_columns(system, sample_starts(system, sampler, count), resolved)
    wall = time.perf_counter() - start
    keys = ("max_iterations", "p_max", "check_every", "tol_cyc", "tol_stab")
    return columns, {
        "system_name": system.name or system.kind.__class__.__name__,
        "sampler": sampler.describe(),
        "budget": {key: getattr(resolved, key) for key in keys},
        "wall_time": wall,
    }


def estimate_prevalence(system, sampler=None, count=DEFAULT_COUNT, budget=None,
                        threads=None):
    """Classify `count` sampled initial states and aggregate the verdicts.

    The stable fraction is conservative: unresolved and escaped samples stay
    in the denominator and never in the numerator. Detected periods count
    the applications of the map until closure, which for a period map of a
    time-periodic problem is the multiple k of the forcing period. Refuses
    systems declared non-monotone, since the prevalence prediction is about
    monotone dynamics. ``threads`` is accepted and ignored.
    """
    if not system.monotone_expected:
        raise ValueError(
            "prevalence experiments apply to monotone systems; "
            f"{system.name or system.kind} is declared non-monotone"
        )
    columns, shared = _classify_samples(system, sampler or default_sampler(system), count,
                                        budget)
    counts = dict(zip(VERDICTS, np.bincount(columns.verdict, minlength=len(VERDICTS)).tolist()))
    cycles = columns.period > 0
    periods, held = np.unique(columns.period[cycles], return_counts=True)
    rhos = columns.rho[cycles]
    fraction = counts["stable_cycle"] / count if count else None
    wilson = wilson_interval(counts["stable_cycle"], count) if count else None
    in_range, _ = np.histogram(rhos[rhos <= RHO_EDGES[-1]], bins=RHO_EDGES)
    overflow = np.count_nonzero(rhos > RHO_EDGES[-1])
    return PrevalenceReport(
        count=count,
        counts=counts,
        stable_fraction=fraction,
        wilson_95=wilson,
        period_histogram=dict(zip(periods.tolist(), held.tolist())),
        rho_histogram={
            "edges": [float(e) for e in RHO_EDGES],
            "counts": [int(c) for c in in_range],
            "overflow": int(overflow),
        },
        **shared,
    )


@dataclass(eq=False)
class LineReport(JsonReport):
    KIND = "line_probe"

    system_name: str
    sampler: dict
    budget: dict
    s_values: list
    verdicts: list
    rhos: list
    stable_count: int
    bad: list  # entries {index, s, verdict}
    bad_fraction: float
    wall_time: float = 0.0
    schema_version: int = field(default=1, init=False)

    def to_csv(self):
        lines = ["index,s,verdict,rho"]
        for i, (s, verdict, rho) in enumerate(
            zip(self.s_values, self.verdicts, self.rhos)
        ):
            rho_txt = "" if rho is None else f"{rho:.17g}"
            lines.append(f"{i},{s:.17g},{verdict},{rho_txt}")
        return "\n".join(lines) + "\n"


def line_probe(system, sampler, budget=None, threads=None):
    """Classify every point of a line_scan sweep and list the exceptions.

    The exceptional list holds every index whose verdict is not
    stable_cycle together with its parameter value; the prediction under
    test is that these stay confined to isolated parameter values as the
    resolution grows. ``threads`` is accepted and ignored.
    """
    if sampler.strategy != "line_scan":
        raise ValueError("line_probe needs a line_scan sampler")
    if not system.monotone_expected:
        raise ValueError("line probes apply to monotone systems")
    columns, shared = _classify_samples(system, sampler, sampler.resolution, budget)
    s_values = [float(s) for s in sampler.s_values()]
    verdicts = [VERDICTS[v] for v in columns.verdict.tolist()]
    rhos = [rho if p else None for p, rho in zip(columns.period.tolist(), columns.rho.tolist())]
    bad = [
        {"index": i, "s": s_values[i], "verdict": verdicts[i]}
        for i in range(len(verdicts))
        if verdicts[i] != "stable_cycle"
    ]
    stable = sum(1 for v in verdicts if v == "stable_cycle")
    return LineReport(
        s_values=s_values,
        verdicts=verdicts,
        rhos=rhos,
        stable_count=stable,
        bad=bad,
        bad_fraction=len(bad) / len(verdicts) if verdicts else 0.0,
        **shared,
    )
