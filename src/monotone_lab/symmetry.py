"""Group actions on discretized states and symmetry of limit sets.

Actions are node permutations, so they are exactly order preserving and
norm preserving: the cyclic rotations of the ring lattice (the discrete
stand-in for rotations of a circle), the mirror flip of the interval, and
the trivial group. Equivariance of a system under an action is a checkable
property, not an assumption; a limit gets a symmetry verdict per cycle
point, and the survey reads the cycle points from the column arrays of
classify_many, building no per-sample Classification.

Symmetry is judged at cycle points only. Transients of an equivariant
system are generally asymmetric and say nothing about the limit.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, GridError
from .grids import Grid
from .order import PropertyReport, StateVector, draw_box_states
from .reports import JsonReport
from .asymptotics import VERDICTS, _classify_columns, _initial_values, classify_orbit
from .systems import tangent_columns

DEFAULT_TOL_SYM = 1e-5  # sup deviation below which a state counts as invariant


@dataclass(eq=False)
class GroupAction:
    """A finite group acting on grid nodes by permutations.

    generators holds index permutations: element g acts by u -> u[g].
    Invariance under every generator is equivalent to invariance under the
    generated group, which for the ring rotation is the full cyclic group.
    """

    kind: str
    grid: Grid
    generators: tuple

    def __post_init__(self):
        if self.kind not in ACTIONS:
            raise ValueError(f"unknown action kind {self.kind!r}")
        checked = []
        for perm in self.generators:
            arr = np.asarray(perm, dtype=int)
            if arr.shape != (self.grid.n,) or not np.array_equal(
                np.sort(arr), np.arange(self.grid.n)
            ):
                raise ValueError("generators must be permutations of the grid nodes")
            checked.append(arr)
        self.generators = tuple(checked)


def ring_rotation(grid):
    """Full cyclic rotation group of a ring grid, generated by a one-node shift."""
    if grid.kind != "ring":
        raise GridError("ring_rotation acts on ring grids only")
    shift = (np.arange(grid.n) - 1) % grid.n  # u[shift] == roll(u, 1)
    return GroupAction("ring_rotation", grid, (shift,))


def interval_reflection(grid):
    """Mirror flip of an interval grid about its midpoint."""
    if grid.kind not in ("dirichlet", "neumann"):
        raise GridError("interval_reflection acts on interval grids only")
    return GroupAction("interval_reflection", grid, (np.arange(grid.n)[::-1],))


def trivial_action(grid):
    return GroupAction("trivial", grid, (np.arange(grid.n),))


# every action kind and the builder of its group on a grid
ACTIONS = {
    "ring_rotation": ring_rotation,
    "interval_reflection": interval_reflection,
    "trivial": trivial_action,
}


@dataclass(eq=False)
class SymmetryVerdict(JsonReport):
    """Deviation of one state from invariance under an action."""

    deviation: float
    symmetric: bool
    per_generator: list
    tol_sym: float


def symmetry_deviation(u, action, tol_sym=DEFAULT_TOL_SYM):
    """Max over generators of sup|g.u - u|, with a verdict at tol_sym; ``u``
    is one state or a (p, n) stack of them, such as a cycle's points.
    Refuses a tol_sym that is not positive (or NaN)."""
    _refuse_tolerance(tol_sym)
    values = u.values if isinstance(u, StateVector) else np.asarray(u, dtype=float)
    per = [float(np.max(np.abs(values[..., perm] - values))) for perm in action.generators]
    deviation = max(per)
    return SymmetryVerdict(deviation, deviation < tol_sym, per, tol_sym)


def _refuse_tolerance(tol_sym):
    if not tol_sym > 0.0:
        raise ValueError("tol_sym must be positive")


def spatial_variance(u):
    """Mean squared deviation of nodal values from their mean."""
    values = u.values if isinstance(u, StateVector) else np.asarray(u, dtype=float)
    return float(np.var(values))


def check_equivariance(system, action, sample_count=30, seed=7086):
    """Check sup|F(g.u) - g.F(u)| <= 1e-10 for random box states and all generators.

    The states are drawn first, in one generator call with the bits of
    one-at-a-time draws; each then contributes the columns
    [u | g1.u | g2.u ...], all advancing as the columns of one block, and
    g.F(u) is the permuted image of u. A sample with a column whose map
    fails has gap inf.
    """
    if action.grid != system.grid:
        raise DimensionMismatchError(
            f"action grid {action.grid} does not match system grid {system.grid}"
        )
    if sample_count < 0:
        raise ValueError("sample_count must be nonnegative")
    perms = [np.arange(system.n)] + list(action.generators)
    states = draw_box_states(system, np.random.default_rng(seed), sample_count)
    # column k of sample s is perms[k] acting on its state
    moved = np.stack([states[perm] for perm in perms], axis=2).reshape(system.n, -1)
    images, _, failures = tangent_columns(system, moved)
    images = images.reshape(system.n, sample_count, len(perms))
    failed = np.zeros(sample_count, dtype=bool)
    failed[[col // len(perms) for col in failures]] = True
    images[:, failed] = 0.0
    fx = images[:, :, 0]
    gaps = np.max(
        [np.max(np.abs(images[:, :, k] - fx[perm]), axis=0)
         for k, perm in enumerate(action.generators, 1)],
        axis=0, initial=-np.inf,
    )
    gaps = np.where(failed, np.inf, gaps)
    return PropertyReport(
        "equivariance", sample_count, int(np.sum(gaps > 1e-10)),
        float(np.max(gaps, initial=-np.inf)), seed,
    )


def classify_symmetric_limit(system, action, x0, budget=None,
                             tol_sym=DEFAULT_TOL_SYM):
    """Classify the orbit and grade every cycle point against the action.

    Returns the Classification together with one SymmetryVerdict per cycle
    point (an empty list when no cycle was detected). Refuses a tol_sym
    that is not positive before the orbit runs.
    """
    _refuse_tolerance(tol_sym)
    cls = classify_orbit(system, x0, budget)
    points = [] if cls.cycle is None else cls.cycle.points
    return cls, [symmetry_deviation(pt, action, tol_sym) for pt in points]


@dataclass(eq=False)
class SymmetrySurvey(JsonReport):
    """Aggregated symmetric-limit statistics over an ensemble of starts.

    The survey is handed the starts, not their sampler: ``sampler`` stays
    None unless the caller describes where the starts came from.
    """

    KIND = "symmetry_survey"

    count: int
    stable_count: int
    symmetric_count: int
    symmetric_fraction: Optional[float]
    max_deviation: float
    verdicts: list
    deviations: list
    tol_sym: float
    system_name: str
    sampler: Optional[dict] = None
    schema_version: int = field(default=1, init=False)


def symmetric_limit_survey(system, action, states, budget=None,
                           tol_sym=DEFAULT_TOL_SYM):
    """Classify given starts, grade their cycle points and aggregate.

    The starts advance as the columns of one ``classify_many`` block, whose
    column arrays the survey reads, building no Classification; each
    sample's verdicts are those of ``classify_symmetric_limit`` on it, up
    to block roundoff.
    symmetric_fraction (None without samples) counts samples whose every
    cycle point is invariant at tol_sym, over all samples; unresolved and
    escaped samples therefore lower the fraction rather than dropping out.
    Refuses a tol_sym that is not positive before any start runs.
    """
    _refuse_tolerance(tol_sym)
    starts = [_initial_values(system, x0) for x0 in states]
    block = np.stack(starts, axis=1) if starts else np.empty((system.n, 0))
    columns = _classify_columns(system, block, budget)
    verdicts = [VERDICTS[v] for v in columns.verdict.tolist()]
    graded = [None if points is None else symmetry_deviation(points, action, tol_sym)
              for points in columns.points]
    deviations = [None if v is None else v.deviation for v in graded]
    count = len(verdicts)
    symmetric = sum(v is not None and v.symmetric for v in graded)
    return SymmetrySurvey(
        count, verdicts.count("stable_cycle"), symmetric, symmetric / count if count else None,
        max((d for d in deviations if d is not None), default=0.0), verdicts, deviations,
        tol_sym, system.name,
    )
