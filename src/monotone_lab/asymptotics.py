"""Long-run behavior of the iterated maps.

The pipeline is: iterate an orbit, watch a sliding window for low-period
recurrence, close the candidate cycle by iterating its first point (with a
damped Newton step on the period-p displacement when it does not close),
and grade stability by the spectral radius of the monodromy product of
Jacobians around the cycle. ``classify_many`` runs it on a block of starts:
the cycles that resolve together are closed, polished where needed and
graded in block tangent passes, whose base images are the closure orbit;
``refine_cycle`` is that closure on one column. On top of that sit two
probe experiments:

* ``omega_plus_probe`` estimates the one-sided limit of omega sets under
  perturbations eps * v with v strongly positive and eps shrinking through
  decades, and decides whether the base point is separated from that limit
  (membership in the upper or lower instability set).
* ``separation_probe`` measures the smallest eventual sup-distance between
  the base trajectory and trajectories started a small push away, which is
  an order-of-magnitude proxy for asymptotic (in)stability of the base
  point itself.

Escape of an orbit past twice the trapping amplitude is a verdict here, not
an error; non-finite arithmetic still raises.
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, EscapeError, OrderError
from .grids import Grid
from .order import StateVector
from .reports import JsonReport
from .systems import (
    BLOCK_WIDTH, Parabolic, apply_map, apply_map_columns, jacobian, tangent_columns,
)

VERDICTS = ("stable_cycle", "unstable_cycle", "unresolved", "escaped")


def default_tol_cyc(system):
    """Recurrence tolerance: looser for discretized PDE period maps."""
    return 1e-6 if isinstance(system.kind, Parabolic) else 1e-8


@dataclass(frozen=True)
class ClassifyBudget:
    """Iteration and tolerance budget for orbit classification.

    ``None`` fields are resolved against the system: check_every defaults to
    p_max, tol_cyc to default_tol_cyc, newton_tol to max(1e-12, tol_cyc*1e-4).
    """

    max_iterations: int = 500
    p_max: int = 64
    check_every: Optional[int] = None
    tol_cyc: Optional[float] = None
    tol_stab: float = 1e-6
    newton_tol: Optional[float] = None
    newton_max_iter: int = 12

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.p_max < 1:
            raise ValueError("p_max must be at least 1")
        if self.check_every is not None and self.check_every < 1:
            raise ValueError("check_every must be at least 1")
        for name in ("tol_cyc", "tol_stab", "newton_tol"):
            val = getattr(self, name)
            if val is not None and not val > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.newton_max_iter < 0:
            raise ValueError("newton_max_iter must be nonnegative")

    def resolve(self, system):
        tol_cyc = self.tol_cyc if self.tol_cyc is not None else default_tol_cyc(system)
        newton_tol = self.newton_tol
        if newton_tol is None:
            newton_tol = max(1e-12, tol_cyc * 1e-4)
        check_every = self.check_every if self.check_every is not None else self.p_max
        return replace(
            self,
            check_every=check_every,
            tol_cyc=tol_cyc,
            newton_tol=newton_tol,
        )


# ---------------------------------------------------------------------------
# orbits

@dataclass(eq=False)
class OrbitRecord:
    """Stored iterates of one orbit. Row k of samples is iterate indices[k]."""

    grid: Grid
    samples: np.ndarray
    indices: np.ndarray
    escaped: bool = False

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        self.indices = np.asarray(self.indices, dtype=int)
        if self.samples.shape[0] != self.indices.shape[0]:
            raise DimensionMismatchError("one index per stored sample required")
        if self.samples.shape[1] != self.grid.n:
            raise DimensionMismatchError(
                f"samples have {self.samples.shape[1]} nodes, grid has {self.grid.n}"
            )

    def __len__(self):
        return self.samples.shape[0]

    def state(self, i):
        return StateVector(self.samples[i], self.grid)

    def to_csv(self):
        cols = ",".join(f"node_{j}" for j in range(self.samples.shape[1]))
        lines = [f"iter,{cols}"]
        for idx, row in zip(self.indices, self.samples):
            lines.append(str(int(idx)) + "," + ",".join(f"{v:.17g}" for v in row))
        return "\n".join(lines) + "\n"


def iterate_orbit(system, x0, n_iter, thinning=1):
    """Iterate the map n_iter times, storing every thinning-th iterate.

    Iterate 0 (the initial state) is always stored. Escape truncates the
    record and sets the escaped flag instead of raising.
    """
    if thinning < 1:
        raise ValueError("thinning must be at least 1")
    if n_iter < 0:
        raise ValueError("n_iter must be nonnegative")
    u = _initial_values(system, x0)
    rows = [u.copy()]
    idx = [0]
    escaped = False
    for k in range(1, n_iter + 1):
        try:
            u = apply_map(system, u, iteration=k)
        except EscapeError:
            escaped = True
            break
        if k % thinning == 0:
            rows.append(u.copy())
            idx.append(k)
    return OrbitRecord(system.grid, np.array(rows), np.array(idx), escaped)


def _initial_values(system, x0):
    if isinstance(x0, StateVector):
        system.check_grid(x0)
        return x0.values.copy()
    u = np.atleast_1d(np.asarray(x0, dtype=float))
    if u.shape != (system.n,):
        raise DimensionMismatchError(
            f"initial state has shape {u.shape}, system expects ({system.n},)"
        )
    return u.copy()


def _as_state_array(obj):
    """Coerce a cycle or an array of states to shape (k, n)."""
    if isinstance(obj, (CycleRecord, CycleCandidate)):
        return obj.points
    arr = np.asarray(obj, dtype=float)
    if arr.ndim == 1:
        # sequence of scalar states
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError("expected a 1-D or 2-D collection of states")
    return arr


# ---------------------------------------------------------------------------
# cycle detection and refinement

@dataclass(eq=False)
class CycleCandidate:
    """Raw window detection: the last `period` iterates of the tail."""

    period: int
    points: np.ndarray


def _scan_periods(tails, p_max, tol_cyc):
    """Minimal period of each column of a tail block, 0 where none is found.

    ``tails`` has shape (length, n, K): row t holds state t of K tails. A
    period p is accepted for a column when the last 2 * p_max states agree
    with their p-shifted predecessors to within tol_cyc in sup norm over
    window and nodes; the smallest accepted p wins.
    """
    length, _, count = tails.shape
    window = 2 * p_max
    base = tails[length - window:]
    periods = np.zeros(count, dtype=int)
    for p in range(1, p_max + 1):
        shifted = tails[length - window - p: length - p]
        gaps = np.abs(base - shifted).reshape(-1, count).max(axis=0)
        periods[(periods == 0) & (gaps < tol_cyc)] = p
        if periods.all():
            break
    return periods


def detect_cycle(tail, p_max, tol_cyc):
    """Scan a trajectory tail for the minimal period p <= p_max.

    The tail must hold at least 3 * p_max states. A period p is accepted when
    the last 2 * p_max states agree with their p-shifted predecessors to
    within tol_cyc in sup norm, so each candidate is vetted over at least two
    full turns of the cycle and divisor aliasing picks the smallest period
    first. Returns a CycleCandidate or None. This is the one-column case of
    the scan ``classify_many`` runs on a block of orbits.
    """
    arr = _as_state_array(tail)
    length = arr.shape[0]
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    if length < 3 * p_max:
        raise ValueError(
            f"tail holds {length} states, need at least 3 * p_max = {3 * p_max}"
        )
    p = int(_scan_periods(arr[:, :, None], p_max, tol_cyc)[0])
    if p == 0:
        return None
    return CycleCandidate(p, arr[length - p:].copy())


@dataclass(eq=False)
class CycleRecord(JsonReport):
    """A polished periodic orbit: consecutive iterates, one row per point."""

    grid: Grid = field(metadata={"json": False})
    period: int
    residual: float
    rho: Optional[float] = None
    stability: str = "undetermined"
    rho_method: str = ""
    newton_converged: bool = False
    newton_iterations: int = 0
    points: np.ndarray = field(kw_only=True)

    def state(self, i):
        return StateVector(self.points[i], self.grid)


def refine_cycle(system, candidate, newton_tol=1e-12, max_newton=12):
    """Polish a cycle candidate by damped Newton on G(z) = F^p(z) - z.

    The Jacobian of G is the monodromy product minus the identity; a
    singular or stalled solve leaves the candidate unrefined with the
    converged flag down. The returned points are regenerated by iterating
    the refined base point, so they are consecutive iterates by
    construction and the residual is the closure defect sup|F(last)-first|.
    A candidate whose orbit fails on the way round raises its EscapeError
    or NumericalError.

    This is the one-column case of the block closure ``classify_many``
    runs on the cycles that resolve together.
    """
    pts = _as_state_array(candidate)
    return _close_cycles(system, pts[:1].T, pts.shape[0], newton_tol, max_newton)[0][0]


def _closure_passes(system, firsts, period):
    """``period`` tangent passes from the columns of ``firsts`` (n, K).

    Pass j maps point j of every column's closure orbit and carries each
    column's identity along it. Returns the orbits (period + 1, n, K), the
    dense Jacobians around them (period, K, n, n) and the first error of
    every column that fails in a pass; a failed column is kept finite
    through the remaining passes.
    """
    n, count = firsts.shape
    seed = np.repeat(np.eye(n)[:, None, :], count, axis=1)
    xs = np.empty((period + 1, n, count))
    mats = np.empty((period, count, n, n))
    xs[0] = firsts
    failed = {}
    for j in range(period):
        xs[j + 1], jac, failures = tangent_columns(system, xs[j], seed)
        failed = {**failures, **failed}  # each column keeps its first error
        xs[j + 1][:, list(failures)] = xs[j][:, list(failures)]
        mats[j] = jac.transpose(1, 0, 2)
    return xs, mats, failed


def _close_cycles(system, firsts, period, newton_tol, max_newton):
    """Close K candidate cycles of one period as a block.

    ``firsts`` (n, K) holds each candidate's first point; a column that
    fails in the first closure passes raises its error. A column whose
    closure gap exceeds newton_tol takes damped Newton steps on
    F^p(z) - z, solved column by column against its monodromy minus the
    identity: a singular solve stops that column, and the trial points of
    all pending columns are mapped as one block of closure passes, the
    step halved up to four times until the gap falls (a column that fails
    in a trial has gap inf). The accepted trial's passes carry the
    Jacobians at its points. Returns one CycleRecord per column, rho not
    yet graded, and the Jacobians (period, K, n, n) around its points.
    """
    xs, mats, failed = _closure_passes(system, firsts, period)
    if failed:
        raise failed[min(failed)]
    gaps = np.max(np.abs(xs[period] - xs[0]), axis=0)
    iters = np.zeros(gaps.size, dtype=int)
    pending = np.flatnonzero(gaps > newton_tol)
    it = 0
    while pending.size and it < max_newton:
        it += 1
        eye = np.eye(firsts.shape[0])
        cols, steps = [], []
        for k in pending:
            mono = eye
            for j in range(period):
                mono = mats[j, k] @ mono
            try:
                steps.append(np.linalg.solve(mono - eye, xs[0, :, k] - xs[period, :, k]))
                cols.append(k)
            except np.linalg.LinAlgError:
                pass  # neutral multiplier, nothing to polish against
        cols, step = np.array(cols, dtype=int), np.array(steps).T
        for _ in range(4):
            if not cols.size:
                break
            z_try = xs[0][:, cols] + step
            xs_try, mats_try, failed = _closure_passes(system, z_try, period)
            gap_try = np.max(np.abs(xs_try[period] - xs_try[0]), axis=0)
            gap_try[list(failed)] = np.inf
            won = gap_try < gaps[cols]
            took = cols[won]
            xs[:, :, took], mats[:, took] = xs_try[:, :, won], mats_try[:, won]
            gaps[took], iters[took] = gap_try[won], it
            cols, step = cols[~won], 0.5 * step[:, ~won]
        # a column goes on only after an accepted step that left it open
        pending = np.flatnonzero((iters == it) & (gaps > newton_tol))
    return [
        CycleRecord(system.grid, period, gap, newton_converged=gap <= newton_tol,
                    newton_iterations=used, points=xs[:period, :, k].copy())
        for k, (gap, used) in enumerate(zip(gaps.tolist(), iters.tolist()))
    ], mats


# ---------------------------------------------------------------------------
# stability

@dataclass(frozen=True)
class SpectralRadiusResult:
    rho: float
    method: str
    iterations: int


# power iteration defaults of every spectral radius
_POWER_TOL = 1e-8
_POWER_MAX_ITER = 10_000


def cycle_spectral_radius(system, cycle, tol=_POWER_TOL, max_power_iter=_POWER_MAX_ITER,
                          detail=False):
    """Spectral radius of the product of Jacobians around a cycle.

    Power iteration from the all-ones vector, normalized in sup norm, stops
    at the first two successive ratios that agree to tol. For a primitive
    nonnegative monodromy the Perron value dominates and that ratio is the
    radius, but an imprimitive one can stop early: on
    linear_cooperative([[0, 0, 2], [1, 0, 0], [0, 1, 0]]) at the origin the
    ratios run 2, 1, 1 and rho is 1.0 by power, where the radius is
    2 ** (1 / 3). When the ratio has not stabilized within the budget
    (rotating complex pair, near-degenerate leading pair) or the iterate
    repeats from two steps back, the dense eigenvalue solve of the
    assembled product is used instead and reported as such.

    ``classify_many`` grades the Jacobians of its block closure passes the
    same way; a start classified alone gets this rho bit for bit.
    """
    pts = _as_state_array(cycle)
    det = _perron_root(
        [jacobian(system, system.state(row)) for row in pts], tol, max_power_iter
    )
    return det if detail else det.rho


def _perron_root(mats, tol=_POWER_TOL, max_power_iter=_POWER_MAX_ITER):
    """Power iteration on the product of ``mats``, dense eigvals fallback."""
    dim = mats[0].shape[0]
    w = np.ones(dim)
    w_back = lam_prev = lam_back = None
    for k in range(1, max_power_iter + 1):
        w_next = w
        for mat in mats:
            w_next = mat @ w_next
        lam = float(np.max(np.abs(w_next)))
        if lam == 0.0:
            return SpectralRadiusResult(0.0, "power", k)
        w_next = w_next / lam
        if lam_prev is not None and abs(lam - lam_prev) <= tol * max(1.0, lam):
            return SpectralRadiusResult(lam, "power", k)
        # (w, lam) repeating bit for bit from two steps back (a +- leading
        # pair) makes the iteration periodic: the test above has seen every
        # pair of ratios it will see and never fires
        if lam == lam_back and np.array_equal(w_next, w_back):
            break
        w_back, w = w, w_next
        lam_back, lam_prev = lam_prev, lam
    mono = np.eye(dim)
    for mat in mats:
        mono = mat @ mono
    rho = float(np.max(np.abs(np.linalg.eigvals(mono))))
    return SpectralRadiusResult(rho, "dense", max_power_iter)


# ---------------------------------------------------------------------------
# classification

@dataclass(eq=False)
class Classification(JsonReport):
    """Outcome of one classify_orbit run."""

    verdict: str
    iterations_used: int
    diagnostics: str = ""
    cycle: Optional[CycleRecord] = None


@dataclass(eq=False)
class ClassificationReport(JsonReport):
    """The document of one classification: the Classification fields after
    the system name, and the SymmetryVerdict of every cycle point when the
    system has a group action (None without one)."""

    KIND = "classification"

    system_name: str
    verdict: str
    iterations_used: int
    diagnostics: str
    cycle: Optional[CycleRecord]
    symmetry: Optional[list]
    schema_version: int = field(default=2, init=False)


def classify_orbit(system, x0, budget=None):
    """Iterate from x0 and classify the orbit's eventual behavior.

    Verdicts: stable_cycle / unstable_cycle when a cycle of period at most
    p_max is detected and graded, escaped when the orbit leaves the inflated
    trapping box, unresolved when the budget runs out first. Detection runs
    on a sliding window of the last 3 * p_max iterates, every check_every
    steps once the window fills, and once more at the final iterate. This
    is ``classify_many`` on a single start.
    """
    u = _initial_values(system, x0)
    return classify_many(system, u[:, None], budget)[0]


def classify_many(system, starts, budget=None):
    """Classify the orbits of the columns of ``starts`` (n, K) in lockstep.

    The columns run BLOCK_WIDTH at a time. All live orbits of a block
    advance together through the map, each column with its own sliding
    window; a column retires when it escapes or when its cycle is detected
    and graded, and the rest run on. Returns one Classification per
    column, in column order.

    The cycles detected at one checkpoint are closed as one block per
    period p: p tangent passes from the candidates' first points, each
    column carrying its identity (``tangent_columns`` runs such a pass
    BLOCK_WIDTH // n columns at a time, at least one), give the closure
    orbit and the dense Jacobians around it, and the columns whose gap
    exceeds newton_tol take their Newton steps together (``refine_cycle``
    is the one-column case). The Jacobians at the final points are graded
    by power iteration from the all-ones vector with the dense eigvals
    fallback, as ``cycle_spectral_radius`` grades them; a column that fails
    in its first closure passes raises its error.

    A column's states may differ in the last bits from those of its start
    classified alone, because a block product rounds differently from a
    vector product, and the rounding depends on the block's width. So rho
    agrees with ``classify_orbit``'s to roundoff; verdicts, iterations and
    periods agree unless a recurrence gap or an escape sits within roundoff
    of its threshold.
    """
    budget = (budget if budget is not None else ClassifyBudget()).resolve(system)
    block = np.array(starts, dtype=float)
    if block.ndim != 2 or block.shape[0] != system.n:
        raise DimensionMismatchError(
            f"starts have shape {block.shape}, system expects ({system.n}, K)"
        )
    if block.shape[1] > BLOCK_WIDTH:
        return [cls for lo in range(0, block.shape[1], BLOCK_WIDTH)
                for cls in classify_many(system, block[:, lo:lo + BLOCK_WIDTH], budget)]
    window_len = 3 * budget.p_max
    window = np.empty((window_len,) + block.shape)
    window[0] = block
    live = np.arange(block.shape[1])
    results = [None] * block.shape[1]
    iters = 0

    def retire(done):
        return np.delete(live, done), np.delete(block, done, 1), np.delete(window, done, 2)

    while iters < budget.max_iterations and live.size:
        block, failures = apply_map_columns(system, block, iteration=iters + 1)
        iters += 1
        if failures:
            for j, exc in sorted(failures.items()):
                if not isinstance(exc, EscapeError):
                    raise exc
                results[live[j]] = Classification(
                    "escaped", iters - 1,
                    f"orbit escaped at iteration {iters}: {exc}",
                )
            live, block, window = retire(list(failures))
            if not live.size:
                break
        window[iters % window_len] = block
        if iters >= window_len - 1 and (
            iters % budget.check_every == 0 or iters == budget.max_iterations
        ):
            # the window rows in iterate order, oldest first
            tails = window[(iters + 1 + np.arange(window_len)) % window_len]
            periods = _scan_periods(tails, budget.p_max, budget.tol_cyc)
            resolved = np.flatnonzero(periods)
            for p in sorted(set(periods[resolved].tolist())):
                group = resolved[periods[resolved] == p]
                records, mats = _close_cycles(system, tails[window_len - p][:, group], p,
                                              budget.newton_tol, budget.newton_max_iter)
                for j, rec, jacs in zip(group, records, zip(*mats)):
                    results[live[j]] = _graded_classification(rec, jacs, budget, iters)
            if resolved.size:
                live, block, window = retire(resolved)
    for i in live:
        results[i] = Classification(
            "unresolved",
            iters,
            f"no cycle of period at most {budget.p_max} within "
            f"{budget.max_iterations} iterations at tolerance {budget.tol_cyc:g}",
        )
    return results


def _graded_classification(rec, jacs, budget, iters):
    det = _perron_root(jacs)
    rec.rho, rec.rho_method = det.rho, det.method
    stable = rec.rho <= 1.0 + budget.tol_stab
    rec.stability = "stable" if stable else "unstable"
    verdict = "stable_cycle" if stable else "unstable_cycle"
    notes = (
        f"period {rec.period}, spectral radius {rec.rho:.6g} ({rec.rho_method}), "
        f"closure residual {rec.residual:.3g}"
    )
    if not rec.newton_converged:
        notes += ", refinement did not converge"
    return Classification(verdict, iters, notes, rec)


# ---------------------------------------------------------------------------
# omega limit sets

def set_distance(first, second):
    """Symmetric Hausdorff distance between two finite state sets, sup norm."""
    a = _as_state_array(first)
    b = _as_state_array(second)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("set_distance needs nonempty sets")
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError("state dimensions differ")
    pair = np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2)
    return float(max(pair.min(axis=1).max(), pair.min(axis=0).max()))


# ---------------------------------------------------------------------------
# probes

@dataclass(eq=False)
class SideEstimate(JsonReport):
    """One-sided omega limit estimate for a fixed perturbation direction."""

    sign: int
    verdicts: list
    sets: list = field(metadata={"json": False})
    consistent: bool
    limit: Optional[np.ndarray]
    distance_to_base: Optional[float]
    membership: str  # member / not_member / inconclusive


@dataclass(eq=False)
class OmegaProbeReport(JsonReport):
    KIND = "omega_probe"

    base_point: np.ndarray
    direction: np.ndarray
    eps_values: tuple
    tol_set: float
    base_verdict: str
    omega_base: Optional[np.ndarray]
    upper: SideEstimate
    lower: SideEstimate
    direction_disagreement: Optional[float] = None
    notes: str = ""
    schema_version: int = field(default=1, init=False)


def _probe_direction(system, direction):
    if direction is None:
        v = np.ones(system.n)
    else:
        v = np.atleast_1d(np.asarray(direction, dtype=float))
    if v.shape != (system.n,):
        raise DimensionMismatchError(
            f"direction has shape {v.shape}, system expects ({system.n},)"
        )
    if np.min(v) <= 0.0:
        raise OrderError("probe direction must be strongly positive")
    return v


def _one_side(sign, classifications, tol_set, omega_base):
    sets = []
    verdicts = []
    for cls in classifications:
        verdicts.append(cls.verdict)
        if cls.cycle is not None:
            sets.append(cls.cycle.points)
    if len(sets) < len(classifications):
        # some perturbed orbit failed to settle, no limit to speak of
        return SideEstimate(sign, verdicts, sets, False, None, None, "inconclusive")
    consistent = all(
        set_distance(sets[i], sets[j]) <= tol_set
        for i in range(len(sets))
        for j in range(i + 1, len(sets))
    )
    limit = sets[-1]
    if not consistent or omega_base is None:
        return SideEstimate(sign, verdicts, sets, consistent, limit, None,
                            "inconclusive")
    dist = set_distance(omega_base, limit)
    membership = "member" if dist > tol_set else "not_member"
    return SideEstimate(sign, verdicts, sets, consistent, limit, dist, membership)


def omega_plus_probe(system, x, direction=None, eps_values=(1e-2, 1e-3, 1e-4),
                     budget=None, tol_set=1e-4, extra_directions=None):
    """Estimate the one-sided limits of omega sets under x + eps * v, eps -> 0.

    For each sign the perturbed orbits are classified at each eps; the side
    estimate is consistent when all resolved omega sets agree pairwise within
    tol_set, and its limit is the set at the smallest eps. The base point is
    reported as a member of the one-sided instability set when its own omega
    set sits farther than tol_set from that limit. Any unresolved or escaped
    ingredient degrades the verdict to inconclusive rather than guessing.

    extra_directions, when given, repeats the upper estimate along other
    strongly positive directions and reports the worst pairwise disagreement
    of the limits without altering the primary verdicts.

    The base point and every perturbed start are classified together, as
    the columns of one ``classify_many`` block.
    """
    base = _initial_values(system, x)
    v = _probe_direction(system, direction)
    eps_values = tuple(sorted((float(e) for e in eps_values), reverse=True))
    if len(eps_values) == 0:
        raise ValueError("need at least one eps value")
    if any(e <= 0.0 for e in eps_values):
        raise ValueError("eps values must be positive")
    # (sign, direction) of each side: upper, lower, then the extra uppers
    sides = [(1, v), (-1, v)]
    sides += [(1, _probe_direction(system, other)) for other in extra_directions or ()]
    for sign, w in sides:
        if float(np.max(np.abs(base + sign * eps_values[0] * w))) >= system.kappa:
            raise ValueError(
                "largest perturbation leaves the trapping box; shrink eps or v"
            )
    starts = [base] + [base + sign * eps * w for sign, w in sides for eps in eps_values]
    results = classify_many(system, np.stack(starts, axis=1), budget)
    base_cls = results[0]
    omega_base = None if base_cls.cycle is None else base_cls.cycle.points
    notes = ""
    if base_cls.verdict in ("unresolved", "escaped"):
        notes = f"base orbit {base_cls.verdict}; membership cannot be graded"
    count = len(eps_values)
    estimates = [
        _one_side(sign, results[1 + i * count: 1 + (i + 1) * count], tol_set, omega_base)
        for i, (sign, _) in enumerate(sides)
    ]
    upper, lower = estimates[:2]
    disagreement = None
    if extra_directions:
        limits = [est.limit for est in [upper] + estimates[2:] if est.limit is not None]
        if len(limits) >= 2:
            disagreement = max(
                set_distance(limits[i], limits[j])
                for i in range(len(limits))
                for j in range(i + 1, len(limits))
            )
            if disagreement > tol_set and not notes:
                notes = "one-sided limits disagree across directions"
    return OmegaProbeReport(
        base_point=base,
        direction=v,
        eps_values=eps_values,
        tol_set=tol_set,
        base_verdict=base_cls.verdict,
        omega_base=omega_base,
        upper=upper,
        lower=lower,
        direction_disagreement=disagreement,
        notes=notes,
    )


def separation_probe(system, x, scales=(1e-2, 1e-4), direction=None, budget=None):
    """Smallest eventual separation between the base orbit and pushed copies.

    For each scale s and each sign, the orbit of x + sign * s * v is run
    alongside the base orbit and the largest sup-distance over the trailing
    half of the run is recorded; the probe value is the minimum over all
    admissible pushes. Values near or above the attractor gap indicate the
    base point sits on a repelling structure; values collapsing with s
    indicate stability. A pushed orbit that escapes counts as separated at
    the trapping amplitude, since the base orbit is assumed trapped; an
    escape of the base orbit raises its error. The base orbit and every
    admissible push advance as the columns of one block.
    """
    budget = (budget if budget is not None else ClassifyBudget()).resolve(system)
    steps = budget.max_iterations
    tail_start = max(1, steps // 2)
    base0 = _initial_values(system, x)
    v = _probe_direction(system, direction)
    pushes = []
    for scale in scales:
        if scale <= 0.0:
            raise ValueError("scales must be positive")
        for sign in (1.0, -1.0):
            y = base0 + sign * scale * v
            if float(np.max(np.abs(y))) < system.kappa:
                pushes.append(y)
    if not pushes:
        raise ValueError("no admissible probe stayed inside the trapping box")
    # the base orbit is column 0 of the block, live pushes the others
    block = np.stack([base0, *pushes], axis=1)
    live = np.arange(len(pushes))
    gaps = np.zeros(len(pushes))
    for k in range(1, steps + 1):
        block, failures = apply_map_columns(system, block, iteration=k)
        if 0 in failures:
            raise failures[0]
        if failures:
            gone = np.array(sorted(failures)) - 1
            gaps[live[gone]] = np.maximum(gaps[live[gone]], float(system.kappa))
            keep = np.delete(np.arange(len(live)), gone)
            block = block[:, np.concatenate(([0], keep + 1))]
            live = live[keep]
        if k >= tail_start:
            dist = np.max(np.abs(block[:, 1:] - block[:, :1]), axis=0)
            gaps[live] = np.maximum(gaps[live], dist)
    return float(min(gaps))
