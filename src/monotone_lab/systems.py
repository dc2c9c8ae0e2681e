"""Systems: explicit test maps and periodically forced parabolic problems.

A system couples a map specification with a trapping amplitude kappa. The
open box of states with sup-norm below kappa is expected to be forward
invariant for the shipped monotone systems; the box inflated by a factor two
is the escape guard during iteration.

Three kinds are supported:

* ``AnalyticScalar``: closed-form scalar maps (a cubic Euler-style map, the
  logistic family, a sign flip). The non-monotone members exist to exercise
  the generic machinery and the violation paths of the property checks.
* ``LinearCooperative``: linear maps with entrywise nonnegative matrices.
* ``Parabolic``: the period map of a scalar reaction-diffusion problem with
  time-periodic reaction, realized by the discretization in ``numerics``.

The parabolic reaction is a(t) * strength * g(u) with the periodic factor
a(t) = 1 + modulation * sin(2 pi t / tau), mean one over a period, and
g(u) = u (1 - u^2) (cubic form) or g(u) = u (linear form). A strictly
positive spatial profile can multiply the reaction for symmetry-breaking
experiments.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import DimensionMismatchError, EscapeError, GridError, NumericalError
from .grids import Grid
from .numerics import SteppingScheme, _Propagator
from .order import PropertyReport, StateVector, draw_box_states


# the cubic's constants as 0-d arrays, for the in-place loop (see factor)
_ONE, _THREE = np.array(1.0), np.array(3.0)


@dataclass(frozen=True, eq=False)
class Nonlinearity:
    """Reaction specification for parabolic systems.

    The reaction at amplitude amp = ``amplitude(t, tau)`` is
    ``factor(amp)`` * g(u), amp * profile * g(u), and its derivative in u is
    ``factor(amp)`` * g'(u). ``factor`` and ``g_into`` are its only
    definition: the step loop multiplies their results, in that order.
    """

    form: str = "cubic"
    strength: float = 1.0
    modulation: float = 0.0
    profile: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.form not in ("cubic", "linear"):
            raise ValueError(f"unknown reaction form {self.form!r}")
        if not 0.0 <= self.modulation < 1.0:
            raise ValueError("modulation must lie in [0, 1)")
        if self.profile is not None:
            profile = np.asarray(self.profile, dtype=float)
            if profile.ndim != 1 or not np.all(np.isfinite(profile) & (profile > 0.0)):
                raise ValueError("spatial profile must be a 1-D array of finite positive values")
            object.__setattr__(self, "profile", profile)
        # the largest reaction factor of a step, in the propagator's order of
        # operations: if it is finite, no factor overflows
        scale = 1.0 if self.profile is None else float(self.profile.max(initial=0.0))
        if not np.isfinite(1.5 * ((1.0 + float(self.modulation)) * float(self.strength)) * scale):
            raise ValueError(f"strength {self.strength!r}: the reaction factor "
                             "1.5 * strength * (1 + modulation) * profile is not finite")

    def forcing(self, t, tau):
        """Periodic amplitude a(t), mean one over a period."""
        return 1.0 + self.modulation * np.sin(2.0 * np.pi * np.asarray(t) / tau)

    def amplitude(self, t, tau):
        """Reaction amplitude a(t) * strength at phase (or phases) t."""
        return self.forcing(t, tau) * self.strength

    def factor(self, amp):
        """The factor amp * profile of g(u) on a column block: a column
        (n, 1), since a block holds one state per column, or amp itself
        without a profile, as a 0-d array (numpy multiplies by one faster
        than by a scalar)."""
        if self.profile is None:
            return np.asarray(amp, dtype=float)
        return amp * self.profile[:, None]

    def g_into(self, u, out, sq, du=None):
        """Write g(u) into ``out`` and, if given, g'(u) into ``du``.

        The in-place form for the step loop: every array has the shape of
        ``u``, and ``sq`` is scratch that ends holding u * u. The reaction
        is ``factor(amp)`` times these.
        """
        mul, sub = np.multiply, np.subtract
        mul(u, u, sq)
        if self.form == "cubic":
            mul(sq, u, out)
            sub(u, out, out)
            if du is not None:
                mul(sq, _THREE, du)
                sub(_ONE, du, du)
        else:
            np.copyto(out, u)
            if du is not None:
                du.fill(1.0)


@dataclass(frozen=True)
class AnalyticScalar:
    """Closed-form scalar map, selected by family name.

    cubic:    u + param * u (1 - u^2)
    logistic: param * u (1 - u)
    negation: -u (deliberately non-monotone)
    """

    family: str
    param: float = 0.0

    def __post_init__(self):
        if self.family not in ("cubic", "logistic", "negation"):
            raise ValueError(f"unknown scalar family {self.family!r}")
        object.__setattr__(self, "_param", np.array(float(self.param)))  # 0-d, as _ONE

    def value(self, u, out=None):
        """F(u), written into ``out`` (an array other than ``u``) when given."""
        out = np.empty_like(u, dtype=float) if out is None else out
        if self.family == "cubic":
            np.multiply(u, u, out)  # u + param u (1 - u u), the same operations in place
            np.subtract(_ONE, out, out)
            out *= self._param * u
            out += u
        elif self.family == "logistic":
            np.multiply(self._param, u, out)
            out *= 1.0 - u
        else:
            np.negative(u, out)
        return out if out.ndim else type(u + 0.0)(out)  # float, or numpy's float64

    def deriv(self, u):
        if self.family == "cubic":
            return 1.0 + self.param * (1.0 - 3.0 * u * u)
        if self.family == "logistic":
            return self.param * (1.0 - 2.0 * u)
        return -1.0 + 0.0 * u


@dataclass(frozen=True, eq=False)
class LinearCooperative:
    """Linear map with entrywise nonnegative matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        if np.any(mat < 0.0):
            raise ValueError("cooperative matrices must be entrywise nonnegative")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def value(self, u, out=None):
        return np.matmul(self.matrix, u, out=out)


@dataclass(frozen=True, eq=False)
class Parabolic:
    """Period map of a forced reaction-diffusion problem on a spatial grid."""

    grid: Grid
    nonlinearity: Nonlinearity
    tau: float = 1.0
    scheme: SteppingScheme = SteppingScheme()
    diffusivity: float = 1.0

    def __post_init__(self):
        if self.grid.kind == "flat":
            raise GridError("parabolic systems need a spatial grid")
        if not self.tau > 0.0:
            raise ValueError("period tau must be positive")
        if not self.diffusivity >= 0.0:
            raise ValueError("diffusivity must be nonnegative")
        profile = self.nonlinearity.profile
        if profile is not None and profile.shape != (self.grid.n,):
            raise DimensionMismatchError(
                f"spatial profile has shape {profile.shape}, grid has {self.grid.n} nodes"
            )

    @cached_property
    def propagator(self):
        """The one-period integrator, built on first use and kept with the system."""
        return _Propagator(self)


SystemKind = Union[AnalyticScalar, LinearCooperative, Parabolic]


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """A map together with its trapping amplitude and a name."""

    kind: SystemKind
    kappa: float = 1.5
    monotone_expected: bool = True
    name: str = ""

    def __post_init__(self):
        if not self.kappa > 0.0:
            raise ValueError("kappa must be positive")
        if not np.isfinite(2.0 * self.kappa):
            raise ValueError("kappa must be finite, and so must the box width 2 kappa")

    @cached_property
    def grid(self):
        if isinstance(self.kind, Parabolic):
            return self.kind.grid
        if isinstance(self.kind, LinearCooperative):
            return Grid("flat", self.kind.matrix.shape[0])
        return Grid("flat", 1)

    @property
    def n(self):
        return self.grid.n

    def check_grid(self, *states):
        """Raise DimensionMismatchError unless every state is on this grid."""
        for x in states:
            if x.grid != self.grid:
                raise DimensionMismatchError(
                    f"state grid {x.grid} does not match system grid {self.grid}"
                )

    def state(self, values):
        """Convenience constructor for a state on this system's grid."""
        arr = np.atleast_1d(np.asarray(values, dtype=float))
        return StateVector(arr, self.grid)

    def zero_state(self):
        return StateVector(np.zeros(self.grid.n), self.grid)


# ---------------------------------------------------------------------------
# constructors (the shipped systems are the configs that call them)

def cubic_map(gain=0.1, kappa=1.5):
    return SystemSpec(AnalyticScalar("cubic", gain), kappa=kappa, name="cubic_map")


def logistic_map(r=3.2):
    return SystemSpec(
        AnalyticScalar("logistic", r), kappa=1.0, monotone_expected=False, name="logistic_map"
    )


def negation_map():
    return SystemSpec(
        AnalyticScalar("negation"), kappa=1.0, monotone_expected=False, name="negation_map"
    )


def linear_cooperative(matrix=None, kappa=1.5):
    if matrix is None:
        matrix = ((0.5, 0.2), (0.2, 0.5))
    return SystemSpec(LinearCooperative(np.asarray(matrix)), kappa=kappa, name="linear_cooperative")


def spatial_profile(grid, name):
    """Named strictly positive profiles for symmetry experiments.

    none: no profile. ramp: 1 + x/2. wave: 1 + sin(2 pi x)/2.
    """
    if name == "none":
        return None
    xs = grid.nodes()
    if name == "ramp":
        return 1.0 + 0.5 * xs
    if name == "wave":
        return 1.0 + 0.5 * np.sin(2.0 * np.pi * xs)
    raise ValueError(f"unknown spatial profile {name!r}")


def parabolic_system(
    domain,
    n=32,
    strength=15.0,
    modulation=0.3,
    form="cubic",
    tau=1.0,
    steps_per_period=200,
    kappa=1.5,
    radial_dim=3,
    diffusivity=1.0,
    profile=None,
    name="",
):
    """Assemble a parabolic system on the named domain kind."""
    grid = Grid(domain, n, dim=radial_dim if domain == "radial" else 1)
    if isinstance(profile, str):
        profile = spatial_profile(grid, profile)
    nl = Nonlinearity(form=form, strength=strength, modulation=modulation, profile=profile)
    scheme = SteppingScheme(steps_per_period=steps_per_period)
    kind = Parabolic(grid, nl, tau=tau, scheme=scheme, diffusivity=diffusivity)
    if not name:
        name = f"{domain}_{form}_{strength:g}"
    return SystemSpec(kind, kappa=kappa, name=name)


# ---------------------------------------------------------------------------
# evaluation

# One map call advances at most ``block_width(n, m)`` base columns of n
# entries with m tangents each: BLOCK_ENTRIES // n flat columns, as a step
# costs microseconds fixed, but at least BLOCK_WIDTH, below which a column
# costs more on large grids. ``tangent_columns`` chunks by it;
# ``classify_many`` runs its starts BLOCK_WIDTH at a time, each with a window
# of 3 p_max states. Fixed, since a column's bits depend on its block width.
BLOCK_WIDTH, BLOCK_ENTRIES = 128, 8192

# map_rows tests a closed-form segment for a settled block after every
# SETTLE_SPAN-th map. On a 105-column logistic block that never settles (the
# cheapest closed form), a test after each of 191 maps made the segment about
# 26% longer, a test after every 8th 0-6% (2 shared vCPUs); a settled block
# maps at most 7 times more than it must
SETTLE_SPAN = 8


def block_width(n, m=1):
    return max(1, max(BLOCK_WIDTH, BLOCK_ENTRIES // n) // m)


def tangent_columns(system, u, w=None, iteration=0):
    """Apply the map to a state or column block and its derivative to tangents.

    ``u`` is a state (n,) or a block (n, K); ``w`` is None, one tangent per
    state (the shape of ``u``) or m tangents along each state ((n, m) or
    (n, K, m)). Returns ``(y, dw, failures)``, ``dw`` None without
    tangents. ``failures`` maps the index of every column (0 for a state)
    whose image is non-finite or leaves the inflated box, or (parabolic
    systems) whose tangent turned non-finite, to its NumericalError or
    EscapeError; those columns of ``y`` and of a parabolic ``dw`` hold no
    meaningful values; closed-form kinds look for them only when the whole
    block's sup (NaN when one is) is not within the box. The one map call:
    it runs ``block_width(n, m)`` columns at a time (m is 1 unless along),
    parabolic systems in one lockstep pass of base and tangent. Loops that
    map blocks without tangents and retire the failing columns call it with
    ``w`` None and read ``failures``.
    """
    kind = system.kind
    u = np.asarray(u, dtype=float)
    w = None if w is None else np.asarray(w, dtype=float)
    along = w is not None and w.ndim > u.ndim  # m tangents along each column
    width = block_width(system.n, w.shape[-1] if along else 1)
    if u.ndim == 2 and u.shape[1] > width:
        y, dw, failures = np.empty_like(u), None if w is None else np.empty_like(w), {}
        for lo in range(0, u.shape[1], width):
            cols = slice(lo, lo + width)
            y[:, cols], dw_cols, chunk = tangent_columns(
                system, u[:, cols], None if w is None else w[:, cols], iteration
            )
            if w is not None:
                dw[:, cols] = dw_cols
            failures.update((lo + j, exc) for j, exc in chunk.items())
        return y, dw, failures
    if isinstance(kind, Parabolic):
        return kind.propagator.tangent_columns(u, w, 2.0 * system.kappa, iteration)
    dw = None
    with np.errstate(over="ignore", invalid="ignore"):  # failures are reported below
        y = kind.value(u)
        if w is not None and isinstance(kind, AnalyticScalar):
            dw = (kind.deriv(u)[..., None] if along else kind.deriv(u)) * w
        elif w is not None:
            dw = (kind.matrix @ w.reshape(len(w), -1)).reshape(w.shape)
    if np.abs(y).max(initial=0.0) <= 2.0 * system.kappa:
        return y, dw, {}
    sups = np.abs(y).max(axis=0)
    inside = sups <= 2.0 * system.kappa
    failures = {}
    for j in np.flatnonzero(~inside):
        sup = float(sups if y.ndim == 1 else sups[j])
        if not np.isfinite(sup):
            failures[int(j)] = NumericalError("map produced a non-finite value")
        else:
            failures[int(j)] = EscapeError(
                f"image left the inflated trapping box (sup {sup:.3g} > "
                f"{2.0 * system.kappa:.3g})",
                iteration=iteration,
                sup=sup,
            )
    return y, dw, failures


def map_rows(system, block, rows, slots, iteration=0):
    """Map ``block`` (n, K <= block_width(n)) in place into window rows,
    iterate k into ``rows[slots[k - 1]]``, up to the first map with a failing
    column; ``slots`` are distinct, ``block`` is no row written, and
    ``iteration`` numbers the first map. Returns ``(done, failures)``: the
    maps before that one and its ``tangent_columns`` failures ({} if none;
    its row holds its image). Closed forms map unchecked, test the rows'
    sup once (NaN fails) and replay the first failing map through
    ``tangent_columns``; parabolic maps call it per map. On every kind a
    block that maps to itself bit for bit fills the rest unmapped: parabolic
    maps test each map for it, closed forms every SETTLE_SPAN-th one."""
    kind, src = system.kind, block
    if isinstance(kind, Parabolic):
        for k, slot in enumerate(slots):
            rows[slot], _, failures = tangent_columns(system, src, iteration=iteration + k)
            if failures:
                return k, failures
            if _maps_to_itself(src, rows[slot]):
                rows[slots[k + 1:]] = rows[slot]
                break
            src = rows[slot]
        return len(slots), {}
    with np.errstate(over="ignore", invalid="ignore"):
        for k, slot in enumerate(slots.tolist(), 1):
            before, src = src, kind.value(src, rows[slot])
            if k % SETTLE_SPAN == 0 and _maps_to_itself(before, src):
                rows[slots[k:]] = src
                break
        sup = rows[slots]
        bad = ~(np.abs(sup, out=sup).max(axis=(1, 2)) <= 2.0 * system.kappa)
    if not bad.any():
        return len(slots), {}
    k = int(bad.argmax())
    before = rows[slots[k - 1]] if k else block
    return k, tangent_columns(system, before, iteration=iteration + k)[2]


def _maps_to_itself(before, after):
    """True when the block ``after`` = F(``before``) is ``before`` bit for bit.

    ``tangent_columns`` without tangents is a deterministic function of the
    block's bits and shape (``iteration`` only labels an error), so such a
    block maps to itself, without failures, on every later call: an orbit
    loop may stop mapping it. The test is on the bytes, not
    ``np.array_equal``, which takes -0.0 for 0.0 (and is slower).
    """
    return before.shape == after.shape and before.tobytes() == after.tobytes()


def apply_map(system, u, iteration=0):
    """Apply the map once to a raw value array. Fast path for orbit loops.

    ``tangent_columns`` without tangents, for a caller that stops at the
    first failure: a block (n, K) maps in chunks of ``block_width(n)``
    columns, and the first column that fails raises its EscapeError or
    NumericalError; one that overflows or turns non-finite does not warn.
    """
    y, _, failures = tangent_columns(system, u, iteration=iteration)
    if failures:
        raise failures[min(failures)]
    return y


def evaluate(system, x):
    """Apply the map once. Raises EscapeError outside the inflated box."""
    system.check_grid(x)
    return x.with_values(apply_map(system, x.values))


def jacobian(system, x):
    """Dense derivative of the map at x, shape (n, n).

    The identity case of ``tangent_columns``: n tangents along one state.
    Raises the EscapeError or NumericalError of a failing image, unwarned.
    """
    system.check_grid(x)
    _, dw, failures = tangent_columns(system, x.values, np.eye(system.n))
    if failures:
        raise failures[0]
    return dw


# ---------------------------------------------------------------------------
# standing-assumption validators

def validate_dissipativity(system, sample_count=200, seed=7083):
    """Sign condition pulling large states inward: u * f < 0 for kappa <= |u| <= 2 kappa.

    For explicit scalar maps the reaction is read as F(u) - u. worst_margin
    is the largest product u * f observed; any nonnegative value is a
    violation. Each sample (t, node, u) makes its own generator calls, then
    all margins are evaluated as one array, bit for bit as one at a time.
    """
    kind = system.kind
    if not isinstance(kind, (AnalyticScalar, Parabolic)):
        raise ValueError("dissipativity check applies to scalar reactions only")
    if sample_count < 0:
        raise ValueError("sample_count must be nonnegative")
    rng, kappa = np.random.default_rng(seed), system.kappa
    tau = kind.tau if isinstance(kind, Parabolic) else 1.0
    t, node, u = np.empty(sample_count), np.empty(sample_count, dtype=int), np.empty(sample_count)
    for j in range(sample_count):
        t[j] = rng.uniform(0.0, tau)
        node[j] = rng.integers(0, system.n)
        u[j] = rng.uniform(kappa, 2.0 * kappa) * (1.0 if rng.uniform() < 0.5 else -1.0)
    # an overflowing margin keeps its sign as an infinity, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(kind, AnalyticScalar):
            f = kind.value(u) - u
        else:
            nl, f = kind.nonlinearity, np.empty_like(u)
            nl.g_into(u, f, np.empty_like(u))
            f *= nl.amplitude(t, tau) * (1.0 if nl.profile is None else nl.profile[node])
        margins = u * f  # fmax skips NaN margins, as a running max() does
    return PropertyReport(
        "dissipativity", sample_count, int(np.sum(margins >= 0.0)),
        float(np.fmax.reduce(margins, initial=-np.inf)), seed,
    )


def trapping_check(system, horizon=200, sample_count=20, seed=7084, initial_states=None):
    """Iterate from box samples and report any exit from the open kappa-box.

    worst_margin is the largest excess max_sup - kappa over all recorded
    iterates (negative values mean the box was never left); a start whose
    orbit escapes or turns non-finite counts as exited with margin inf.
    Box starts are drawn in one generator call, bit for bit as one at a
    time, and advance together as the columns of one block. A block that
    maps to itself bit for bit is not mapped again: every later iterate
    would record the same sups, so the report is that of the full horizon.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if sample_count < 0:
        raise ValueError("sample_count must be nonnegative")
    if initial_states is None:
        block = draw_box_states(system, np.random.default_rng(seed), sample_count)
    else:
        system.check_grid(*initial_states)
        block = np.array([x.values for x in initial_states]).reshape(-1, system.n).T.copy()
    exited = np.zeros(block.shape[1], dtype=bool)
    worst = -np.inf
    if block.size:
        live = np.arange(block.shape[1])
        for k in range(1, horizon + 1):
            before = block
            block, _, failures = tangent_columns(system, block, iteration=k)
            if failures:
                gone = list(failures)
                exited[live[gone]] = True
                worst = np.inf
                live, block = np.delete(live, gone), np.delete(block, gone, axis=1)
                if not live.size:
                    break
            sups = np.max(np.abs(block), axis=0)
            worst = max(worst, float(np.max(sups - system.kappa)))
            exited[live[sups > system.kappa]] = True
            if _maps_to_itself(before, block):
                break
    return PropertyReport("trapping", len(exited), int(np.sum(exited)), worst, seed)


def check_strong_positivity(system, probe_count=50, seed=7085):
    """Derivative positivity: DF(x) v must be strictly positive for v >= 0, v != 0.

    Probes mix coordinate directions with random nonnegative vectors at
    random box states. worst_margin is the smallest component of DF(x) v
    observed; the check passes when it stays above 1e-12. All probes are
    drawn first, in two generator calls bit for bit as one at a time (the
    coordinate probes, then the random ones), then map as one
    ``tangent_columns`` call, one tangent column per base column. A
    parabolic probe that fails is a violation with gap -inf, as a pair that
    escapes is in ``check_strong_monotone``; the closed-form derivatives of
    the other kinds are read whatever the image does.
    """
    if probe_count < 0:
        raise ValueError("probe_count must be nonnegative")
    rng, n = np.random.default_rng(seed), system.n
    head = min(n, probe_count)
    xs = draw_box_states(system, rng, head)
    rows = draw_box_states(system, rng, probe_count - head, n)  # [x | v] per probe
    xs, vs = np.hstack([xs, rows[:n]]), np.hstack([np.eye(n, head), rows[n:]])
    vs[0, np.max(vs, axis=0) <= 0.0] = 1.0
    _, dv, failures = tangent_columns(system, xs, vs)
    gaps = np.min(dv, axis=0)
    if isinstance(system.kind, Parabolic):
        gaps[list(failures)] = -np.inf
    return PropertyReport(
        "strong_positivity", probe_count, int(np.sum(gaps <= 1e-12)),
        float(np.min(gaps, initial=np.inf)), seed,
    )
