"""Partial order induced by the nonnegative cone, and monotonicity probes.

States are compared componentwise. For x, y on the same grid:

* ``leq``: y - x lies in the nonnegative cone, up to an equality slack.
* ``strictly_less``: leq holds and the states differ beyond the slack.
* ``strongly_less``: y - x lies in the interior of the cone, meaning every
  component exceeds a strictly positive margin.

Finite precision forces both tolerances. ``tol_eq`` absorbs roundoff when
deciding equality; ``eta_interior`` is the margin certifying interior
membership, and must dominate ``tol_eq`` so that strongly below implies
strictly below implies below.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, EscapeError, OrderError
from .grids import Grid
from .reports import JsonReport


@dataclass(frozen=True)
class OrderTolerances:
    """Comparison slacks: equality slack tol_eq, interior margin eta_interior.

    Requires 0 <= tol_eq < eta_interior.
    """

    tol_eq: float = 1e-12
    eta_interior: float = 1e-10

    def __post_init__(self):
        if not (0.0 <= self.tol_eq < self.eta_interior):
            raise ValueError(
                f"need 0 <= tol_eq < eta_interior, got {self.tol_eq} and {self.eta_interior}"
            )


DEFAULT_TOL = OrderTolerances()

# Tighter slacks used by the monotonicity property checks below. The interior
# margin is deliberately small: randomly drawn ordered pairs can be nearly
# degenerate, and the interior gap of the image pair scales down with the
# input separation.
CHECK_TOL = OrderTolerances(tol_eq=1e-13, eta_interior=1e-12)


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


def leq(x, y, tol=None):
    """True when x is below y componentwise, up to the equality slack."""
    _check_same_grid(x, y)
    tol = tol or DEFAULT_TOL
    return bool(np.all(y.values - x.values >= -tol.tol_eq))


def strictly_less(x, y, tol=None):
    """True when leq(x, y) and the two states differ beyond the slack."""
    _check_same_grid(x, y)
    tol = tol or DEFAULT_TOL
    diff = y.values - x.values
    return bool(np.all(diff >= -tol.tol_eq) and np.max(diff) > tol.tol_eq)


def strongly_less(x, y, tol=None):
    """True when y - x lies in the cone interior: every gap exceeds eta_interior."""
    _check_same_grid(x, y)
    tol = tol or DEFAULT_TOL
    return bool(np.min(y.values - x.values) > tol.eta_interior)


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


def draw_box_state(system, rng):
    """One state drawn uniformly from the open trapping box of the system."""
    kappa = system.kappa
    values = rng.uniform(-kappa, kappa, size=system.grid.n)
    return StateVector(values, system.grid)


def draw_ordered_pair(system, rng):
    """An ordered pair x <= y inside the trapping box.

    x is uniform in the box; y = x + r w with w componentwise uniform in
    [0, 1] and r a uniform fraction of the largest step keeping y inside.
    """
    kappa = system.kappa
    n = system.grid.n
    x = rng.uniform(-kappa, kappa, size=n)
    w = rng.uniform(0.0, 1.0, size=n)
    with np.errstate(divide="ignore"):
        headroom = np.where(w > 0.0, (kappa - x) / np.where(w > 0.0, w, 1.0), np.inf)
    r = rng.uniform(0.0, 1.0) * float(np.min(headroom))
    y = x + r * w
    grid = system.grid
    return StateVector(x, grid), StateVector(y, grid)


def _pair_images(system, pairs):
    """Images of both ends of every pair, mapped as the columns of one block.

    Returns ``(fx, fy, escaped)``: images of shape (n, P) and a mask of the
    pairs whose map escapes, whose image columns are zero. Any other
    failure raises, the first in pair order (x before y) first, as mapping
    the pairs one at a time would.
    """
    from .systems import apply_map_columns

    ends = np.empty((system.n, 2 * len(pairs)))
    for col, end in enumerate(end for pair in pairs for end in pair):
        ends[:, col] = end.values
    images, failures = apply_map_columns(system, ends)
    escaped = np.zeros(len(pairs), dtype=bool)
    for col, exc in sorted(failures.items()):
        if escaped[col // 2]:
            continue  # y of a pair whose x escaped is never looked at
        if not isinstance(exc, EscapeError):
            raise exc
        escaped[col // 2] = True
    images[:, np.repeat(escaped, 2)] = 0.0
    return images[:, 0::2], images[:, 1::2], escaped


def check_monotone(system, pair_count=200, seed=7081, tol=None):
    """Sampled order preservation: x <= y must give F(x) <= F(y).

    Draws ordered pairs from the trapping box and reports every pair whose
    images violate the order beyond the equality slack. worst_margin is the
    largest componentwise excess of F(x) over F(y) seen across pairs,
    so any value at or below tol_eq means a clean pass; a pair whose map
    escapes is a violation with margin inf. The pairs are drawn first, then
    both ends of all of them advance as the columns of blocks.
    """
    tol = tol or DEFAULT_TOL
    rng = np.random.default_rng(seed)
    pairs = [draw_ordered_pair(system, rng) for _ in range(pair_count)]
    fx, fy, escaped = _pair_images(system, pairs)
    margins = np.where(escaped, np.inf, np.max(fx - fy, axis=0))
    return PropertyReport(
        "monotone", pair_count, int(np.sum(margins > tol.tol_eq)),
        float(np.max(margins, initial=-np.inf)), seed,
    )


def check_strong_monotone(system, pair_count=200, seed=7082, tol=None):
    """Sampled strong order preservation: x < y must give F(x) strongly below F(y).

    Pairs indistinguishable from equal (within tol_eq) are skipped as vacuous.
    worst_margin is the minimum interior gap min(F(y) - F(x)) observed, so the
    check passes exactly when that gap stays above eta_interior; a pair
    whose map escapes is a violation with gap -inf. The pairs are drawn
    first, then both ends of the tested ones advance as the columns of
    blocks.
    """
    tol = tol or CHECK_TOL
    rng = np.random.default_rng(seed)
    pairs = [draw_ordered_pair(system, rng) for _ in range(pair_count)]
    pairs = [(x, y) for x, y in pairs if np.max(y.values - x.values) > tol.tol_eq]
    fx, fy, escaped = _pair_images(system, pairs)
    gaps = np.where(escaped, -np.inf, np.min(fy - fx, axis=0))
    return PropertyReport(
        "strong_monotone", len(pairs), int(np.sum(gaps <= tol.eta_interior)),
        float(np.min(gaps, initial=np.inf)), seed,
    )
