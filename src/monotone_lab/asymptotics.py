"""Long-run behavior of the iterated maps.

The pipeline is: iterate an orbit, watch a sliding window for low-period
recurrence, close the candidate cycle by iterating its first point (with a
damped Newton step on the period-p displacement when it does not close),
and grade stability by the spectral radius of the monodromy product of
Jacobians around the cycle, from power products of thin tangent passes.
``classify_many`` runs it on a block of starts: the cycles that resolve
together are closed, polished where needed and graded in block tangent
passes, whose base images are the closure orbit; ``refine_cycle`` is that
closure on one column. On top of that sit two probe experiments:

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
from numbers import Integral
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, EscapeError, OrderError
from .grids import Grid
from .order import StateVector
from .reports import JsonReport
from .systems import BLOCK_WIDTH, Parabolic, apply_map, map_rows, tangent_columns

VERDICTS = ("stable_cycle", "unstable_cycle", "unresolved", "escaped")


def default_tol_cyc(system):
    """Recurrence tolerance: looser for discretized PDE period maps."""
    return 1e-6 if isinstance(system.kind, Parabolic) else 1e-8


@dataclass(frozen=True)
class ClassifyBudget:
    """Iteration and tolerance budget for orbit classification.

    ``None`` fields are resolved against the system: check_every defaults to
    p_max, tol_cyc to default_tol_cyc, newton_tol to max(1e-12, tol_cyc*1e-4).
    The counts (max_iterations, p_max, check_every, newton_max_iter) must be
    Python or numpy integers.
    """

    max_iterations: int = 500
    p_max: int = 64
    check_every: Optional[int] = None
    tol_cyc: Optional[float] = None
    tol_stab: float = 1e-6
    newton_tol: Optional[float] = None
    newton_max_iter: int = 12

    def __post_init__(self):
        for name in ("max_iterations", "p_max", "check_every", "newton_max_iter"):
            val = getattr(self, name)
            if not (isinstance(val, Integral) or val is None and name == "check_every"):
                raise ValueError(f"{name} must be an integer")
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
    if isinstance(obj, CycleRecord):
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

def _scan_periods(tails, p_max, tol_cyc):
    """Minimal period of each column of a tail block, 0 where none is found.

    ``tails`` has shape (length, n, K): row t holds state t of K tails. A
    period p is accepted for a column when the last 2 * p_max states agree
    with their p-shifted predecessors to within tol_cyc in sup norm over
    window and nodes; the smallest accepted p wins. The oldest window row
    is tested first, for every p at once: that gap is part of the sup, so
    only the (p, column) pairs it lets through and that have no period yet
    take the full window test, and the scan stops when none is left. A NaN
    gap fails both, and so does the NaN of inf - inf, without a warning.
    """
    length, _, count = tails.shape
    oldest = length - 2 * p_max
    periods = np.zeros(count, dtype=int)
    with np.errstate(invalid="ignore"):
        near = tails[oldest] - tails[oldest - p_max:oldest][::-1]  # row p - 1: shift p
        near = np.abs(near, out=near).max(axis=1) < tol_cyc
        p = 0
        while (todo := near[p:] & (periods == 0)).any():
            step = int(np.flatnonzero(todo.any(axis=1))[0])
            p, cols = p + step + 1, np.flatnonzero(todo[step])
            pick = slice(None) if cols.size == count else cols  # a slice copies nothing
            gaps = tails[oldest:, :, pick] - tails[oldest - p: length - p, :, pick]
            gaps = np.abs(gaps, out=gaps).reshape(-1, cols.size).max(axis=0)
            periods[cols[gaps < tol_cyc]] = p
    return periods


def detect_cycle(tail, p_max, tol_cyc):
    """Scan a trajectory tail for the minimal period p <= p_max.

    The tail must hold at least 3 * p_max states. A period p is accepted when
    the last 2 * p_max states agree with their p-shifted predecessors to
    within tol_cyc in sup norm, so each candidate is vetted over at least two
    full turns of the cycle and divisor aliasing picks the smallest period
    first. Returns the cycle's points, the last p states of the tail as a
    (p, n) array, or None. This is the one-column case of the scan
    ``classify_many`` runs on a block of orbits.
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
    return arr[length - p:].copy()


@dataclass(eq=False)
class CycleRecord(JsonReport):
    """A polished periodic orbit: consecutive iterates, one row per point.
    The records of one period group of ``classify_many`` share the base
    array of their points."""

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

    The candidate is a cycle's points, one row per point, as ``detect_cycle``
    returns them, or a CycleRecord; the period is the number of rows.
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
    xs, gaps, used, _, _ = _close_cycles(system, pts[:1].T, len(pts), newton_tol, max_newton)
    gap = float(gaps[0])
    return CycleRecord(system.grid, len(pts), gap, newton_converged=gap <= newton_tol,
                       newton_iterations=int(used[0]), points=xs[:, :, 0].copy())


def _closure_passes(system, firsts, period, seed=None):
    """``period`` tangent passes from the columns of ``firsts`` (n, K).

    Pass j maps point j of every column's closure orbit and carries the
    tangents of the pass before, from ``seed``: None, (n, K) or (n, K, m).
    Returns the orbits (period + 1, n, K), the tangents carried round and
    the first error of every column that fails in a pass; a failed column
    is kept finite through the remaining passes.
    """
    xs = np.empty((period + 1,) + firsts.shape)
    xs[0] = firsts
    failed = {}
    for j in range(period):
        xs[j + 1], seed, failures = tangent_columns(system, xs[j], seed)
        failed = {**failures, **failed}  # each column keeps its first error
        xs[j + 1][:, list(failures)] = xs[j][:, list(failures)]
    return xs, seed, failed


def _close_cycles(system, firsts, period, newton_tol, max_newton, graded=False):
    """Close K candidate cycles of one period as a block.

    ``firsts`` (n, K) holds each candidate's first point; a column that
    fails in the first closure passes raises its error. With ``graded``
    those passes carry the all-ones tangent, whose image M 1 is the first
    power product of ``_perron_roots``; without, none (a column maps the
    same bits either way). A column whose closure gap exceeds newton_tol
    takes damped Newton steps on F^p(z) - z, solved column by column
    against its monodromy minus the identity, from identity passes of
    these columns only: a singular solve stops that column, and the trial
    points of all pending columns are mapped as one block of identity
    passes, the step halved up to four times until the gap falls (a column
    that fails in a trial has gap inf). Returns arrays over the columns:
    the closed cycles' points (period, n, K), a view of the closure orbit,
    their closure gaps and Newton iterations; then M 1 around the points
    (None without ``graded``) and column -> monodromy at its points for the
    columns Newton saw.
    """
    n, count = firsts.shape
    xs, mw, failed = _closure_passes(system, firsts, period,
                                     np.ones((n, count)) if graded else None)
    if failed:
        raise failed[min(failed)]
    gaps = np.max(np.abs(xs[period] - xs[0]), axis=0)
    iters = np.zeros(count, dtype=int)
    pending = np.flatnonzero(gaps > newton_tol)
    eye, monos = np.eye(n), {}  # the monodromy at the points of each column Newton sees
    if pending.size:
        turn = _turn(system, xs[:period][:, :, pending], eye[:, None].repeat(pending.size, 1))
        monos.update(zip(pending.tolist(), turn.transpose(1, 0, 2)))
    it = 0
    while pending.size and it < max_newton:
        it += 1
        cols, steps = [], []
        for k in pending:
            try:
                steps.append(np.linalg.solve(monos[k] - eye, xs[0, :, k] - xs[period, :, k]))
                cols.append(k)
            except np.linalg.LinAlgError:
                pass  # neutral multiplier, nothing to polish against
        cols, step = np.array(cols, dtype=int), np.array(steps).T
        for _ in range(4):
            if not cols.size:
                break
            z_try = xs[0][:, cols] + step
            xs_try, monos_try, failed = _closure_passes(system, z_try, period,
                                                        eye[:, None].repeat(cols.size, 1))
            gap_try = np.max(np.abs(xs_try[period] - xs_try[0]), axis=0)
            gap_try[list(failed)] = np.inf
            won = gap_try < gaps[cols]
            took = cols[won]
            xs[:, :, took] = xs_try[:, :, won]
            monos.update(zip(took.tolist(), monos_try[:, won].transpose(1, 0, 2)))
            gaps[took], iters[took] = gap_try[won], it
            cols, step = cols[~won], 0.5 * step[:, ~won]
        # a column goes on only after an accepted step that left it open
        pending = np.flatnonzero((iters == it) & (gaps > newton_tol))
    if graded and (moved := np.flatnonzero(iters)).size:
        mw[:, moved] = _turn(system, xs[:period][:, :, moved], np.ones((n, moved.size)))
    return xs[:period], gaps, iters, mw, monos


def _turn(system, points, seed):
    """``seed`` carried round the cycles ``points`` (period, n, K), pass j
    from point j, as the closure passes do; a failing column raises."""
    for point in points:
        _, seed, failed = tangent_columns(system, point, seed)
        if failed:
            raise failed[min(failed)]
    return seed


# ---------------------------------------------------------------------------
# stability

@dataclass(frozen=True)
class SpectralRadiusResult:
    rho: float
    method: str
    iterations: int


# relative width at which a Collatz-Wielandt enclosure counts as closed
_POWER_TOL = 1e-8


def cycle_spectral_radius(system, cycle, detail=False):
    """Spectral radius of the product of Jacobians around a cycle.

    Power products M w from w = 1, each one turn of thin tangent passes
    along the cycle and normalized in sup norm, stop when the
    Collatz-Wielandt enclosure min_i (M w)_i / w_i <= rho <= max_i
    (M w)_i / w_i (M >= 0, w > 0; Horn & Johnson, Matrix Analysis, 2nd ed.,
    8.1) closes to a relative 1e-8; rho is |M w|_inf, inside it, or 0 when
    M w = 0. A product with an entry <= 0, or an enclosure open after
    ceil((n + 1) / 2) products, takes the dense eigenvalue solve of M from
    identity passes, reported as such. ``detail`` returns the
    SpectralRadiusResult, whose iterations count the products made.

    This is the one-column case of ``_perron_roots``, which grades each
    period group of ``classify_many``'s block closure passes as arrays over
    the columns; only this function makes a SpectralRadiusResult of them,
    and a start classified alone gets this rho bit for bit.
    """
    pts = _as_state_array(cycle)
    rho, dense, products = _perron_roots(system, pts[:, :, None], None, {})
    det = SpectralRadiusResult(float(rho[0]), "dense" if dense[0] else "power", int(products[0]))
    return det if detail else det.rho


def _perron_roots(system, points, mw, monos):
    """``cycle_spectral_radius`` of each cycle of ``points`` (period, n, K).

    Each product is one turn of thin passes for the columns still open
    (``mw``, unless None, is the first, M 1), and each column stops at its
    own test; ceil((n + 1) / 2) products cost about one identity pass. A
    column that goes dense takes its M from ``monos`` (column -> M, from
    ``_close_cycles``), or else from one shared turn of identity passes.
    Returns arrays over the columns: rho, whether it is the dense solve's,
    and the power products made.
    """
    _, n, count = points.shape
    live, w = np.arange(count), np.ones((n, count))
    rho, dense, products = np.zeros(count), np.ones(count, dtype=bool), np.zeros(count, dtype=int)
    for k in range(1, (n + 2) // 2 + 1):
        mw = _turn(system, points[:, :, live], w) if mw is None else mw
        products[live], lam, ratios = k, np.abs(mw).max(axis=0), mw / w
        positive = (mw > 0.0).all(axis=0)
        done = (lam == 0.0) | positive & (np.ptp(ratios, 0) <= _POWER_TOL * ratios.max(0))
        rho[live[done]], dense[live[done]] = lam[done], False
        keep = positive & ~done
        live, w, mw = live[keep], mw[:, keep] / lam[keep], None
        if not live.size:
            break
    slow = np.flatnonzero(dense).tolist()
    if todo := [j for j in slow if j not in monos]:
        turn = _turn(system, points[:, :, todo], np.eye(n)[:, None].repeat(len(todo), 1))
        monos = {**monos, **dict(zip(todo, turn.transpose(1, 0, 2)))}
    for j in slow:
        rho[j] = np.max(np.abs(np.linalg.eigvals(monos[j])))
    return rho, dense, products


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
    steps once the window fills, and once more at the final iterate. The
    orbit maps a segment (checkpoint to checkpoint) at a time, bit for bit
    as map by map. This is ``classify_many`` on a single start.
    """
    u = _initial_values(system, x0)
    return classify_many(system, u[:, None], budget)[0]


def classify_many(system, starts, budget=None):
    """Classify the orbits of the columns of ``starts`` (n, K) in lockstep.

    The columns run BLOCK_WIDTH at a time. All live orbits of a block
    advance together through the map, each column with its own sliding
    window; a column retires when it escapes or when its cycle is detected
    and graded, and the rest run on. A block maps into its window a segment
    at a time (``systems.map_rows``): to the next checkpoint or the budget,
    at most one turn. Rows after a failing map are dropped, its failing
    columns retire and the rest map on, so no map runs wider than map by
    map. A block of any kind that maps to itself bit for bit fills the rest
    of its segment unmapped (closed forms test every SETTLE_SPAN-th map),
    with the rows every map would write. Returns one Classification per
    column, in column order, built from the arrays over the columns that
    the blocks fill (``_Columns``), which every multi-start experiment
    reads instead, building none.

    The cycles detected at one checkpoint are closed as one block per
    period p: p tangent passes from the candidates' first points, each
    column carrying the all-ones tangent, give the closure orbit and the
    first power product M 1 around it, and the columns whose gap exceeds
    newton_tol take their Newton steps together, on identity passes of
    those columns alone (``refine_cycle`` is the one-column case). The
    group is then graded as arrays on its closure points by power
    products, each one turn of thin passes around them, every column
    stopping when its Collatz-Wielandt enclosure closes and taking the
    dense eigvals solve, on identity passes, when it does not
    (``_perron_roots``; ``cycle_spectral_radius`` is its one-column case).
    The CycleRecord points of one group are views of one (K, p, n) array.
    A column that fails in its first closure passes raises its error.

    A column's states may differ in the last bits from those of its start
    classified alone, because a block product rounds differently from a
    vector product, and the rounding depends on the block's width. So rho
    agrees with ``classify_orbit``'s to roundoff; verdicts, iterations and
    periods agree unless a recurrence gap or an escape sits within roundoff
    of its threshold.
    """
    columns = _classify_columns(system, starts, budget)
    return [columns.classification(j) for j in range(columns.verdict.size)]


class _Columns:
    """What ``classify_many`` finds, as arrays over its columns: the index
    into VERDICTS, iterations used, the escape message (None unless
    escaped), and for a graded cycle its period (0 without one), closure
    gap, Newton iterations, rho, whether rho is the dense solve's, and its
    points (p, n), a view of its period group's (K, p, n) copy. Every
    column starts unresolved; ``budget`` is resolved."""

    def __init__(self, budget, grid, count):
        self.budget, self.grid = budget, grid
        self.verdict = np.full(count, VERDICTS.index("unresolved"))
        self.iterations, self.period, self.newton = (np.zeros(count, dtype=int)
                                                     for _ in range(3))
        self.gap, self.rho, self.dense = np.zeros(count), np.zeros(count), np.zeros(count, bool)
        self.escape, self.points = [None] * count, [None] * count

    def classification(self, j):
        """The Classification of column ``j``, with its CycleRecord."""
        verdict, iters, budget = VERDICTS[self.verdict[j]], int(self.iterations[j]), self.budget
        if self.points[j] is None:
            notes = self.escape[j] or (
                f"no cycle of period at most {budget.p_max} within "
                f"{budget.max_iterations} iterations at tolerance {budget.tol_cyc:g}")
            return Classification(verdict, iters, notes)
        period, gap, rho = int(self.period[j]), float(self.gap[j]), float(self.rho[j])
        method, converged = "dense" if self.dense[j] else "power", gap <= budget.newton_tol
        stability = "stable" if verdict == "stable_cycle" else "unstable"
        rec = CycleRecord(self.grid, period, gap, rho, stability, method, converged,
                          int(self.newton[j]), points=self.points[j])
        notes = (f"period {period}, spectral radius {rho:.6g} ({method}), "
                 f"closure residual {gap:.3g}")
        if not converged:
            notes += ", refinement did not converge"
        return Classification(verdict, iters, notes, rec)


def _classify_columns(system, starts, budget):
    """``classify_many``'s arrays over the columns of ``starts``."""
    budget = (budget if budget is not None else ClassifyBudget()).resolve(system)
    starts = np.array(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[0] != system.n:
        raise DimensionMismatchError(
            f"starts have shape {starts.shape}, system expects ({system.n}, K)"
        )
    out = _Columns(budget, system.grid, starts.shape[1])
    for lo in range(0, starts.shape[1], BLOCK_WIDTH):
        _classify_block(system, starts[:, lo:lo + BLOCK_WIDTH], budget, out, lo)
    return out


def _classify_block(system, block, budget, out, lo):
    """Classify the columns of ``block`` into ``out`` from column ``lo`` on."""
    window_len, every = 3 * budget.p_max, budget.check_every
    window = np.empty((window_len,) + block.shape)
    window[0] = block
    live = lo + np.arange(block.shape[1])
    iters = 0

    def retire(done):
        return np.delete(live, done), np.delete(window, done, 2)

    while iters < budget.max_iterations and live.size:
        # a segment: to the next checkpoint (or the budget), at most one turn
        checkpoint = min(-(-max(iters + 1, window_len - 1) // every) * every,
                         budget.max_iterations)
        slots = np.arange(iters + 1, min(checkpoint, iters + window_len) + 1) % window_len
        done, failures = map_rows(system, window[iters % window_len].copy(), window,
                                  slots, iters + 1)
        iters += done
        if failures:
            iters += 1
            for j, exc in sorted(failures.items()):
                if not isinstance(exc, EscapeError):
                    raise exc
                out.escape[live[j]] = f"orbit escaped at iteration {iters}: {exc}"
            gone = live[list(failures)]
            out.verdict[gone], out.iterations[gone] = VERDICTS.index("escaped"), iters - 1
            live, window = retire(list(failures))
            if not live.size:
                break
        if iters == checkpoint >= window_len - 1:
            # the window rows in iterate order, oldest first
            tails = window[(iters + 1 + np.arange(window_len)) % window_len]
            resolved = _grade_checkpoint(system, tails, budget, out, live, iters)
            if resolved.size:
                live, window = retire(resolved)
    out.iterations[live] = iters


def _grade_checkpoint(system, tails, budget, out, live, iters):
    """Scan the window ``tails`` of the columns ``live`` of ``out`` at
    iteration ``iters``, and close and grade each period group found, into
    ``out``. Returns the positions in ``live`` of the columns graded."""
    periods = _scan_periods(tails, budget.p_max, budget.tol_cyc)
    resolved = np.flatnonzero(periods)
    for p in sorted(set(periods[resolved].tolist())):
        group = resolved[periods[resolved] == p]
        xs, gaps, newton, mw, monos = _close_cycles(system, tails[-p][:, group], p,
                                                    budget.newton_tol,
                                                    budget.newton_max_iter, True)
        rho, dense, _ = _perron_roots(system, xs, mw, monos)
        ids = live[group]
        out.period[ids], out.gap[ids], out.newton[ids] = p, gaps, newton
        out.rho[ids], out.dense[ids], out.iterations[ids] = rho, dense, iters
        out.verdict[ids] = np.where(rho <= 1.0 + budget.tol_stab, 0, 1)  # stable_cycle or not
        for j, points in zip(ids.tolist(), xs.transpose(2, 0, 1).copy()):
            out.points[j] = points
    return resolved


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
    """One-sided omega limit estimate for a fixed perturbation direction: the
    cycle at the smallest eps, consistent when all agree within 1e-4."""

    sign: int
    verdicts: list
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
    if not np.min(v) > 0.0:
        raise OrderError("probe direction must be strongly positive")
    return v


# set distance within which two omega set estimates count as the same set
_TOL_SET = 1e-4


def _widest_gap(sets):
    """Largest ``set_distance`` over the pairs of ``sets``, 0 for fewer than two."""
    return max((set_distance(a, b) for i, a in enumerate(sets) for b in sets[i + 1:]),
               default=0.0)


def _one_side(sign, columns, cols, omega_base):
    """The SideEstimate of ``sign`` from the columns ``cols`` of ``columns``."""
    verdicts = [VERDICTS[columns.verdict[j]] for j in cols]
    sets = [columns.points[j] for j in cols]
    if any(points is None for points in sets):
        # some perturbed orbit failed to settle, no limit to speak of
        return SideEstimate(sign, verdicts, False, None, None, "inconclusive")
    consistent = _widest_gap(sets) <= _TOL_SET
    limit = sets[-1]
    if not consistent or omega_base is None:
        return SideEstimate(sign, verdicts, consistent, limit, None, "inconclusive")
    dist = set_distance(omega_base, limit)
    membership = "member" if dist > _TOL_SET else "not_member"
    return SideEstimate(sign, verdicts, consistent, limit, dist, membership)


def omega_plus_probe(system, x, direction=None, eps_values=(1e-2, 1e-3, 1e-4),
                     budget=None, extra_directions=None):
    """Estimate the one-sided limits of omega sets under x + eps * v, eps -> 0.

    For each sign the perturbed orbits are classified at each eps; the side
    estimate is consistent when all resolved omega sets agree pairwise within
    tol_set = 1e-4 (fixed, and written to the report), and its limit is the
    set at the smallest eps. The base point is a member of the one-sided
    instability set when its own omega set sits farther than tol_set from
    that limit. Any unresolved or escaped ingredient degrades the verdict to
    inconclusive rather than guessing.

    extra_directions, when given, repeats the upper estimate along other
    strongly positive directions and reports the worst pairwise disagreement
    of the limits without altering the primary verdicts.

    The base point and every perturbed start are classified together, as
    the columns of one ``classify_many`` block, and the probe reads their
    verdicts and omega sets from its column arrays, building no Classification.
    """
    base = _initial_values(system, x)
    v = _probe_direction(system, direction)
    eps_values = tuple(sorted((float(e) for e in eps_values), reverse=True))
    if len(eps_values) == 0:
        raise ValueError("need at least one eps value")
    if any(not e > 0.0 for e in eps_values):
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
    columns = _classify_columns(system, np.stack(starts, axis=1), budget)
    base_verdict, omega_base = VERDICTS[columns.verdict[0]], columns.points[0]
    notes = ""
    if base_verdict in ("unresolved", "escaped"):
        notes = f"base orbit {base_verdict}; membership cannot be graded"
    count = len(eps_values)
    estimates = [
        _one_side(sign, columns, range(1 + i * count, 1 + (i + 1) * count), omega_base)
        for i, (sign, _) in enumerate(sides)
    ]
    upper, lower = estimates[:2]
    disagreement = None
    if extra_directions:
        limits = [est.limit for est in [upper] + estimates[2:] if est.limit is not None]
        if len(limits) >= 2:
            disagreement = _widest_gap(limits)
            if disagreement > _TOL_SET and not notes:
                notes = "one-sided limits disagree across directions"
    return OmegaProbeReport(
        base_point=base,
        direction=v,
        eps_values=eps_values,
        tol_set=_TOL_SET,
        base_verdict=base_verdict,
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
        if not scale > 0.0:
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
        block, _, failures = tangent_columns(system, block, iteration=k)
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
