"""System catalog: explicit test maps and periodically forced parabolic problems.

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
from .order import PropertyReport, StateVector, draw_box_state


# the cubic's constants as 0-d arrays, for the in-place loop (see factor)
_ONE, _THREE = np.array(1.0), np.array(3.0)


@dataclass(frozen=True, eq=False)
class Nonlinearity:
    """Reaction specification for parabolic systems.

    The reaction at amplitude amp = ``amplitude(t, tau)`` is
    ``factor(amp)`` * g(u), amp * profile * g(u). ``factor`` and ``g_into``
    are its only definition; ``rate`` and ``rate_du`` are their product.
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
            object.__setattr__(self, "profile", np.asarray(self.profile, dtype=float))

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
        np.multiply(u, u, out=sq)
        if self.form == "cubic":
            np.multiply(sq, u, out=out)
            np.subtract(u, out, out=out)
            if du is not None:
                np.multiply(sq, _THREE, out=du)
                np.subtract(_ONE, du, out=du)
        else:
            np.copyto(out, u)
            if du is not None:
                du.fill(1.0)

    def _rates(self, amp, u):
        u = np.asarray(u, dtype=float)
        block = u.reshape(len(u), -1)
        g, dg, sq = (np.empty_like(block) for _ in range(3))
        self.g_into(block, g, sq, dg)
        factor = self.factor(amp)
        return (g * factor).reshape(u.shape), (dg * factor).reshape(u.shape)

    def rate(self, amp, u):
        """Reaction amp * profile * g(u) on a state (n,) or column block (n, K)."""
        return self._rates(amp, u)[0]

    def rate_du(self, amp, u):
        """Derivative of ``rate`` in u, entrywise (the reaction is local)."""
        return self._rates(amp, u)[1]


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

    def value(self, u):
        if self.family == "cubic":
            return u + self.param * u * (1.0 - u * u)
        if self.family == "logistic":
            return self.param * u * (1.0 - u)
        return -u

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
    """A map together with its trapping amplitude and a catalog label."""

    kind: SystemKind
    kappa: float = 1.5
    monotone_expected: bool = True
    name: str = ""

    def __post_init__(self):
        if not self.kappa > 0.0:
            raise ValueError("kappa must be positive")
        if self.kappa == np.inf:
            raise ValueError("kappa must be finite")

    @property
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
# catalog constructors

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
    theta=0.5,
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
    scheme = SteppingScheme(steps_per_period=steps_per_period, theta=theta)
    kind = Parabolic(grid, nl, tau=tau, scheme=scheme, diffusivity=diffusivity)
    if not name:
        name = f"{domain}_{form}_{strength:g}"
    return SystemSpec(kind, kappa=kappa, name=name)


_CATALOG = None


def catalog():
    """The shipped systems, built once and shared (warm propagator caches)."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = {
            "cubic_map": cubic_map(),
            "logistic_map": logistic_map(),
            "linear_cooperative": linear_cooperative(),
            "dirichlet_cubic_5": parabolic_system("dirichlet", 32, 5.0, name="dirichlet_cubic_5"),
            "dirichlet_cubic_15": parabolic_system("dirichlet", 32, 15.0, name="dirichlet_cubic_15"),
            "neumann_cubic_5": parabolic_system("neumann", 32, 5.0, name="neumann_cubic_5"),
            # strength 5 on the ring: the period map then contracts like
            # exp(-10) near the homogeneous states, which keeps image gaps of
            # ordered pairs well above roundoff for the order property checks
            # (strength 15 would contract like exp(-30) and flatten them).
            "ring_cubic_5": parabolic_system("ring", 16, 5.0, name="ring_cubic_5"),
            "radial_cubic_15": parabolic_system(
                "radial", 32, 15.0, radial_dim=3, name="radial_cubic_15"
            ),
        }
    return dict(_CATALOG)


def parabolic_catalog():
    """Catalog restricted to the parabolic systems."""
    return {k: s for k, s in catalog().items() if isinstance(s.kind, Parabolic)}


# ---------------------------------------------------------------------------
# evaluation

# The most flat columns (base columns times tangents per column) one map
# call advances as a block: ``tangent_columns`` maps wider blocks in chunks
# of this many, and ``classify_many`` runs its starts and closes its cycles
# in blocks within it. Constant, since a column's bits depend on the width
# of the block it runs in.
BLOCK_WIDTH = 128


def apply_map_columns(system, u, iteration=0):
    """Apply the map to a state (n,) or to each column of a block (n, K).

    Returns ``(y, failures)``: ``failures`` maps the index of every column
    (0 for a vector) whose image is non-finite or leaves the inflated box
    to the NumericalError or EscapeError ``apply_map`` raises for it.
    Those columns of ``y`` hold no meaningful state. The no-tangent case
    of ``tangent_columns``.
    """
    y, _, failures = tangent_columns(system, u, None, iteration)
    return y, failures


def tangent_columns(system, u, w=None, iteration=0):
    """Apply the map to a state or column block and its derivative to tangents.

    ``u`` is a state (n,) or a block (n, K); ``w`` is None, one tangent per
    state (the shape of ``u``) or m tangents along each state ((n, m) or
    (n, K, m)). Returns ``(y, dw, failures)``, ``dw`` None without
    tangents. ``failures`` maps the index of every column (0 for a state)
    whose image is non-finite or leaves the inflated box, or (parabolic
    systems) whose tangent turned non-finite, to its NumericalError or
    EscapeError; those columns of ``y`` and of a parabolic ``dw`` hold no
    meaningful values. The one map call: it runs ``max(1, BLOCK_WIDTH // m)``
    columns at a time, parabolic systems in one lockstep pass of base and
    tangent.
    """
    kind = system.kind
    u = np.asarray(u, dtype=float)
    w = None if w is None else np.asarray(w, dtype=float)
    along = w is not None and w.ndim > u.ndim  # m tangents along each column
    width = max(1, BLOCK_WIDTH // w.shape[-1]) if along else BLOCK_WIDTH
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
    if isinstance(kind, AnalyticScalar):
        y = kind.value(u)
        if w is not None:
            dw = (kind.deriv(u)[..., None] if along else kind.deriv(u)) * w
    else:
        y = kind.matrix @ u
        if w is not None:
            dw = (kind.matrix @ w.reshape(len(w), -1)).reshape(w.shape)
    sups = np.max(np.abs(y), axis=0)
    failures = {}
    for j in np.flatnonzero(~(sups <= 2.0 * system.kappa)):
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


def apply_map(system, u, iteration=0):
    """Apply the map once to a raw value array. Fast path for orbit loops.

    A block (n, K) goes through ``tangent_columns`` in chunks of at most
    ``BLOCK_WIDTH`` columns; the first column that fails raises its
    EscapeError or NumericalError.
    """
    y, failures = apply_map_columns(system, u, iteration)
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
    Raises the EscapeError or NumericalError of a failing image.
    """
    system.check_grid(x)
    _, dw, failures = tangent_columns(system, x.values, np.eye(system.n))
    if failures:
        raise failures[0]
    return dw


# ---------------------------------------------------------------------------
# standing-assumption validators

def _reaction_sample(system, t, node, u):
    """Reaction value at one probe point, profile factor included."""
    kind = system.kind
    if isinstance(kind, AnalyticScalar):
        return kind.value(u) - u
    nl = kind.nonlinearity
    return float(nl.rate(nl.amplitude(t, kind.tau), np.full(system.n, u))[node])


def validate_dissipativity(system, sample_count=200, seed=7083):
    """Sign condition pulling large states inward: u * f < 0 for kappa <= |u| <= 2 kappa.

    For explicit scalar maps the reaction is read as F(u) - u. worst_margin
    is the largest product u * f observed; any nonnegative value is a
    violation.
    """
    kind = system.kind
    if not isinstance(kind, (AnalyticScalar, Parabolic)):
        raise ValueError("dissipativity check applies to scalar reactions only")
    rng = np.random.default_rng(seed)
    kappa = system.kappa
    tau = kind.tau if isinstance(kind, Parabolic) else 1.0
    n = system.n
    violations = 0
    worst = -np.inf
    for _ in range(sample_count):
        t = rng.uniform(0.0, tau)
        node = int(rng.integers(0, n))
        u = float(rng.uniform(kappa, 2.0 * kappa)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        margin = u * _reaction_sample(system, t, node, u)
        worst = max(worst, margin)
        if margin >= 0.0:
            violations += 1
    return PropertyReport("dissipativity", sample_count, violations, worst, seed)


def trapping_check(system, horizon=200, sample_count=20, seed=7084, initial_states=None):
    """Iterate from box samples and report any exit from the open kappa-box.

    worst_margin is the largest excess max_sup - kappa over all recorded
    iterates (negative values mean the box was never left); a start whose
    orbit escapes or turns non-finite counts as exited with margin inf.
    The starts advance together as the columns of one block.
    """
    rng = np.random.default_rng(seed)
    if initial_states is None:
        initial_states = [draw_box_state(system, rng) for _ in range(sample_count)]
    system.check_grid(*initial_states)
    exited = np.zeros(len(initial_states), dtype=bool)
    worst = -np.inf
    if initial_states:
        live = np.arange(len(initial_states))
        block = np.stack([x.values for x in initial_states], axis=1)
        for k in range(1, horizon + 1):
            block, failures = apply_map_columns(system, block, iteration=k)
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
    return PropertyReport(
        "trapping", len(initial_states), int(np.sum(exited)), worst, seed
    )


def check_strong_positivity(system, probe_count=50, seed=7085, eta=1e-12):
    """Derivative positivity: DF(x) v must be strictly positive for v >= 0, v != 0.

    Probes mix coordinate directions with random nonnegative vectors at
    random box states. worst_margin is the smallest component of DF(x) v
    observed; the check passes when it stays above eta. All probes are
    drawn first, then map as one ``tangent_columns`` call, one tangent
    column per base column. The first parabolic probe that fails raises
    its error; the closed-form derivatives of the other kinds are read
    whatever the image does.
    """
    rng = np.random.default_rng(seed)
    n = system.n
    xs = np.empty((n, probe_count))
    vs = np.zeros((n, probe_count))
    for j in range(probe_count):
        xs[:, j] = draw_box_state(system, rng).values
        if j < n:
            vs[j, j] = 1.0
        else:
            vs[:, j] = rng.uniform(0.0, 1.0, size=n)
            if np.max(vs[:, j]) <= 0.0:
                vs[0, j] = 1.0
    _, dv, failures = tangent_columns(system, xs, vs)
    if failures and isinstance(system.kind, Parabolic):
        raise failures[min(failures)]
    gaps = np.min(dv, axis=0)
    return PropertyReport(
        "strong_positivity", probe_count, int(np.sum(gaps <= eta)),
        float(np.min(gaps, initial=np.inf)), seed,
    )
