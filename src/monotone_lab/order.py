"""Partial order induced by the nonnegative cone, and monotonicity probes.

States are compared componentwise. For x, y on the same grid:

* ``leq``: y - x lies in the nonnegative cone, up to an equality slack.
* ``strictly_less``: leq holds and the states differ beyond the slack.
* ``strongly_less``: y - x lies in the interior of the cone, meaning every
  component exceeds a strictly positive margin.

Finite precision forces both tolerances, module constants: the equality
slack ``TOL_EQ`` absorbs roundoff when deciding equality, and the interior
margin ``ETA_INTERIOR`` certifies interior membership. The monotonicity
checks use the tighter ``CHECK_TOL_EQ`` and ``CHECK_ETA_INTERIOR``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, EscapeError, OrderError
from .grids import Grid
from .reports import JsonReport

# Each slack lies below its margin (0 <= TOL_EQ < ETA_INTERIOR), so strongly
# below implies strictly below implies below. The checks' interior margin is
# deliberately small: randomly drawn ordered pairs can be nearly degenerate,
# and the interior gap of the image pair scales down with the input separation.
TOL_EQ, ETA_INTERIOR = 1e-12, 1e-10
CHECK_TOL_EQ, CHECK_ETA_INTERIOR = 1e-13, 1e-12


@dataclass(frozen=True, eq=False)
class StateVector:
    """Nodal values on a grid. Values are copied and frozen on construction."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True).reshape(-1)
        if arr.ndim != 1 or arr.size != self.grid.n:
            raise DimensionMismatchError(
                f"state has {arr.size} values for a grid with {self.grid.n} nodes"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("state values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def sup_norm(self):
        return float(np.max(np.abs(self.values)))

    def with_values(self, values):
        """New state on the same grid."""
        return StateVector(np.asarray(values, dtype=float), self.grid)


def _check_same_grid(x, y):
    if x.grid != y.grid:
        raise DimensionMismatchError(f"grids differ: {x.grid} vs {y.grid}")


def leq(x, y):
    """True when x is below y componentwise, up to the equality slack TOL_EQ."""
    _check_same_grid(x, y)
    return bool(np.all(y.values - x.values >= -TOL_EQ))


def strictly_less(x, y):
    """True when leq(x, y) and the two states differ beyond the slack."""
    _check_same_grid(x, y)
    diff = y.values - x.values
    return bool(np.all(diff >= -TOL_EQ) and np.max(diff) > TOL_EQ)


def strongly_less(x, y):
    """True when y - x lies in the cone interior: every gap exceeds ETA_INTERIOR."""
    _check_same_grid(x, y)
    return bool(np.min(y.values - x.values) > ETA_INTERIOR)


def order_interval_sample(a, b, count, seed):
    """Uniform draws from the order interval [a, b], componentwise.

    Requires a below b componentwise (exactly, no slack). Degenerate
    components a_i = b_i reproduce the shared value. Deterministic in seed.
    """
    _check_same_grid(a, b)
    if np.any(b.values < a.values):
        raise OrderError("order_interval_sample needs a <= b componentwise")
    rng = np.random.default_rng(seed)
    draws = rng.uniform(a.values, b.values, size=(count, a.grid.n))
    return [StateVector(row, a.grid) for row in draws]


@dataclass
class PropertyReport(JsonReport):
    """Outcome of a sampled property check.

    ``worst_margin`` is check-specific: for violation-style checks it is the
    largest violation observed (values at or below the passing threshold mean
    the check passed); for gap-style checks it is the smallest gap observed.
    """

    check_name: str
    pairs_tested: int
    violations: int
    worst_margin: float
    seed: int

    @property
    def passed(self):
        return self.violations == 0


@dataclass(eq=False)
class ValidationReport(JsonReport):
    """Standing-assumption checks by name; a check that could not run is
    ``{"skipped": True, "reason": ...}`` and does not count in all_pass."""

    KIND = "validate"

    system_name: str
    all_pass: bool
    checks: dict
    schema_version: int = field(default=2, init=False)


def draw_box_states(system, rng, count, units=0):
    """``count`` states uniform in the open trapping box, as the columns of
    an (n, count) block, each with ``units`` more rows uniform in [0, 1].
    One generator call, bit for bit as one column at a time: the array form
    of ``uniform`` reads doubles in row order, each low + (high - low) U."""
    kappa, n = system.kappa, system.n
    low = np.concatenate([np.full(n, -kappa), np.zeros(units)])
    high = np.concatenate([np.full(n, kappa), np.ones(units)])
    return rng.uniform(low, high, size=(count, n + units)).T.copy()


def draw_box_state(system, rng):
    """One state drawn uniformly from the open trapping box of the system."""
    return StateVector(draw_box_states(system, rng, 1)[:, 0], system.grid)


def draw_ordered_pairs(system, rng, count):
    """``count`` ordered pairs x <= y in the trapping box, as (n, count) blocks.

    x is uniform in the box; y = x + r w with w componentwise uniform in
    [0, 1] and r a uniform fraction of the largest step keeping y inside.
    One generator call draws every pair's x, w and r, with the bits of
    drawing the pairs one at a time.
    """
    kappa, n = system.kappa, system.n
    draws = draw_box_states(system, rng, count, n + 1)
    x, w = draws[:n], draws[n:2 * n]
    with np.errstate(divide="ignore"):
        headroom = np.where(w > 0.0, (kappa - x) / np.where(w > 0.0, w, 1.0), np.inf)
    r = draws[2 * n] * np.min(headroom, axis=0)
    return x, x + r * w


def _pair_images(system, xs, ys):
    """Images of both ends of every pair, mapped as the columns of one block.

    Returns ``(fx, fy, escaped)``: images of shape (n, P) and a mask of the
    pairs whose map escapes, whose image columns are zero. Any other
    failure raises, the first in pair order (x before y) first, as mapping
    the pairs one at a time would.
    """
    from .systems import tangent_columns

    ends = np.empty((system.n, 2 * xs.shape[1]))
    ends[:, 0::2], ends[:, 1::2] = xs, ys
    images, _, failures = tangent_columns(system, ends)
    escaped = np.zeros(xs.shape[1], dtype=bool)
    for col, exc in sorted(failures.items()):
        if escaped[col // 2]:
            continue  # y of a pair whose x escaped is never looked at
        if not isinstance(exc, EscapeError):
            raise exc
        escaped[col // 2] = True
    images[:, np.repeat(escaped, 2)] = 0.0
    return images[:, 0::2], images[:, 1::2], escaped


def check_monotone(system, pair_count=200, seed=7081):
    """Sampled order preservation: x <= y must give F(x) <= F(y).

    Draws ordered pairs from the trapping box and reports every pair whose
    images violate the order beyond the equality slack TOL_EQ = 1e-12.
    worst_margin is the largest componentwise excess of F(x) over F(y)
    seen across pairs, so any value at or below TOL_EQ means
    a clean pass; a pair whose map escapes is a violation with margin inf.
    The pairs are drawn first, in one generator call with the bits of
    one-at-a-time draws, then both ends of all of them advance as the
    columns of blocks.
    """
    if pair_count < 0:
        raise ValueError("pair_count must be nonnegative")
    xs, ys = draw_ordered_pairs(system, np.random.default_rng(seed), pair_count)
    fx, fy, escaped = _pair_images(system, xs, ys)
    margins = np.where(escaped, np.inf, np.max(fx - fy, axis=0))
    return PropertyReport(
        "monotone", pair_count, int(np.sum(margins > TOL_EQ)),
        float(np.max(margins, initial=-np.inf)), seed,
    )


def check_strong_monotone(system, pair_count=200, seed=7082):
    """Sampled strong order preservation: x < y must give F(x) strongly below F(y).

    Pairs indistinguishable from equal (within CHECK_TOL_EQ = 1e-13) are
    skipped as vacuous. worst_margin is the minimum interior gap
    min(F(y) - F(x)) observed, so the check passes exactly when that gap
    stays above CHECK_ETA_INTERIOR = 1e-12; a pair whose map escapes is a
    violation with gap -inf. The pairs are drawn first, in one generator
    call with the bits of one-at-a-time draws, then both ends of the tested
    ones advance as the columns of blocks.
    """
    if pair_count < 0:
        raise ValueError("pair_count must be nonnegative")
    xs, ys = draw_ordered_pairs(system, np.random.default_rng(seed), pair_count)
    tested = np.max(ys - xs, axis=0) > CHECK_TOL_EQ
    fx, fy, escaped = _pair_images(system, xs[:, tested], ys[:, tested])
    gaps = np.where(escaped, -np.inf, np.min(fy - fx, axis=0))
    return PropertyReport(
        "strong_monotone", int(np.sum(tested)), int(np.sum(gaps <= CHECK_ETA_INTERIOR)),
        float(np.min(gaps, initial=np.inf)), seed,
    )
