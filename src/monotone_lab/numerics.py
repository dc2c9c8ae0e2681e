"""Method-of-lines discretization and one-period propagation.

The continuous model is a scalar reaction-diffusion equation on the unit
interval (or ring, or radial segment) with a time-periodic reaction,

    du/dt = kappa_d * A u + f(t, x, u),      A = second-order operator,

whose time-tau solution operator is the period map studied everywhere else in
the package. Space is discretized by second-order central differences
(``build_diffusion``), time by an implicit-explicit two-step scheme:

* diffusion is advanced with a theta weighting (theta = 1/2 is
  Crank-Nicolson),
* the reaction is explicit Adams-Bashforth with weights 3/2 and -1/2, an
  implicit-Euler-style startup step supplying the missing history.

Both parts are second order at theta = 1/2, which the refinement tests
verify. One step of width dt = tau/M reads

    (I - theta dt A) u_{k+1} = (I + (1-theta) dt A) u_k
                               + dt (3/2 f_k - 1/2 f_{k-1}).

The implicit matrix is factored once per system (the grids here are small,
at most a few hundred nodes) and reused for every step, every trajectory.

Tangent propagation advances the exact derivative of the discrete step:
the same recursion with f replaced by its u-linearization frozen along the
base trajectory, including the Adams-Bashforth history of the linearized
reaction. Base and tangent advance in lockstep, so the result matches
divided differences of the fully discrete period map to roundoff plus the
differencing error.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EscapeError, GridError, NumericalError


@dataclass(frozen=True)
class SteppingScheme:
    """Time discretization of one forcing period.

    steps_per_period
        Number M of equal steps covering [0, tau].
    theta
        Implicitness of the diffusion solve, in [0, 1]. The default 1/2 is
        Crank-Nicolson; the reaction stays explicit regardless.
    """

    steps_per_period: int = 200
    theta: float = 0.5

    def __post_init__(self):
        if self.steps_per_period < 1:
            raise ValueError("steps_per_period must be at least 1")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")


def _tridiagonal(main, lower, upper):
    a = np.diag(main)
    a += np.diag(lower, -1)
    a += np.diag(upper, 1)
    return a


def build_diffusion(grid):
    """Second-order diffusion operator for the grid, as a dense (n, n) matrix.

    Boundary handling by kind:

    * dirichlet: homogeneous boundary values eliminated; first and last rows
      simply lose a neighbor.
    * neumann: mirrored ghost nodes, so boundary rows read 2 (u_1 - u_0)/h^2
      and rows sum to zero.
    * ring: periodic wrap through the corner entries (0, n-1) and (n-1, 0),
      rows sum to zero.
    * radial: profile u(r) in ``dim`` space dimensions. The interior stencil
      is the conservation form of u'' + (dim-1)/r u', with face weights
      (r +- h/2)^(dim-1) / r^(dim-1); this keeps every off-diagonal entry
      positive for any dim >= 2. The axis row uses the symmetry limit of the
      operator, dim * u'' with a mirrored ghost; r = 1 is held at zero.

    Off-diagonal entries are nonnegative for every kind, the sign structure
    behind order preservation of the heat propagator.
    """
    n = grid.n
    if grid.kind == "flat":
        raise GridError("no diffusion operator on a flat grid")
    if n < 3:
        raise GridError(f"diffusion operator needs at least 3 nodes, got {n}")
    h = grid.h
    inv = 1.0 / (h * h)
    if grid.kind == "dirichlet":
        main = np.full(n, -2.0 * inv)
        off = np.full(n - 1, inv)
        return _tridiagonal(main, off, off)
    if grid.kind == "neumann":
        main = np.full(n, -2.0 * inv)
        lower = np.full(n - 1, inv)
        upper = np.full(n - 1, inv)
        upper[0] = 2.0 * inv
        lower[-1] = 2.0 * inv
        return _tridiagonal(main, lower, upper)
    if grid.kind == "ring":
        main = np.full(n, -2.0 * inv)
        off = np.full(n - 1, inv)
        a = _tridiagonal(main, off, off)
        a[0, -1] = a[-1, 0] = inv
        return a
    # radial
    dim = grid.dim
    r = grid.nodes()
    main = np.empty(n)
    lower = np.empty(n - 1)
    upper = np.empty(n - 1)
    main[0] = -2.0 * dim * inv
    upper[0] = 2.0 * dim * inv
    power = dim - 1
    for i in range(1, n):
        w_minus = ((r[i] - h / 2.0) ** power) / (r[i] ** power) * inv
        w_plus = ((r[i] + h / 2.0) ** power) / (r[i] ** power) * inv
        lower[i - 1] = w_minus
        main[i] = -(w_minus + w_plus)
        if i < n - 1:
            upper[i] = w_plus
    return _tridiagonal(main, lower, upper)


class _Propagator:
    """Precomputed one-period integrator for a single parabolic system.

    Holds the dense step matrices and the reaction amplitudes at the step
    times, so that repeated propagation is a short numpy loop. Built once per
    system by ``Parabolic.propagator``.

    States are vectors (n,) or blocks (n, K) of K states as columns; a block
    costs the interpreter what one vector does. Escape is checked once per
    period from the running peak of |u|. A column whose peak is not inside
    the inflated box, or whose tangent turned non-finite, is replayed alone
    through the per-step guarded loop, which raises the error of the first
    offending step.
    """

    def __init__(self, par):
        grid = par.grid
        scheme = par.scheme
        n = grid.n
        m_steps = scheme.steps_per_period
        dt = par.tau / m_steps
        if par.diffusivity != 0.0:
            lap = par.diffusivity * build_diffusion(grid)
        else:
            lap = np.zeros((n, n))
        eye = np.eye(n)
        a_imp = eye - scheme.theta * dt * lap
        try:
            s_inv = np.linalg.inv(a_imp)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"implicit diffusion matrix is singular: {exc}") from None
        self.tau = par.tau
        self.nl = par.nonlinearity
        self.step_mat = s_inv @ (eye + (1.0 - scheme.theta) * dt * lap)
        self.source_mat = s_inv * dt
        # amplitudes over the whole step grid at once: one array evaluation
        # instead of a scalar forcing call per step
        self.amps = self.nl.amplitude(dt * np.arange(m_steps), par.tau)

    def _guard(self, u, k, escape_sup, iteration=0):
        sup = float(np.max(np.abs(u)))
        if not np.isfinite(sup):
            raise NumericalError(f"non-finite state at step {k}")
        if sup > escape_sup:
            raise EscapeError(
                f"trajectory left the inflated trapping box (sup {sup:.3g} > "
                f"{escape_sup:.3g}) at step {k}",
                iteration=iteration,
                step=k,
                sup=sup,
            )
        return sup

    def _run(self, u, v, escape_sup, iteration, guarded):
        """The step loop over one period, for a vector or a column block.

        ``v`` (or None) is the tangent, advanced in lockstep: one tangent
        per base column (the shape of ``u``), or m tangents along each base
        column ((n, m) for a vector, (n, K, m) for a block). Guarded runs
        check every step and raise at the first offending one; unguarded
        runs return the entrywise peak of |u| for the caller to test once.
        """
        rate, rate_du = self.nl.rate, self.nl.rate_du
        along = v is not None and v.ndim > u.ndim
        # the products take m tangents along each of K columns as K * m
        # plain columns
        flat = (len(v), -1) if v is not None and v.ndim == 3 else None
        peak = None if guarded else np.zeros_like(u)
        f_prev = None
        g_prev = None
        for k, amp in enumerate(self.amps):
            f_k = rate(amp, u)
            expl = f_k if f_prev is None else 1.5 * f_k - 0.5 * f_prev
            if v is not None:
                du = rate_du(amp, u)
                jv = du[..., None] * v if along else du * v
                expl_v = jv if g_prev is None else 1.5 * jv - 0.5 * g_prev
                if flat is None:
                    v = self.step_mat @ v + self.source_mat @ expl_v
                else:
                    v = (
                        self.step_mat @ v.reshape(flat)
                        + self.source_mat @ expl_v.reshape(flat)
                    ).reshape(jv.shape)
                g_prev = jv
            u = self.step_mat @ u + self.source_mat @ expl
            f_prev = f_k
            if guarded:
                self._guard(u, k, escape_sup, iteration)
                if v is not None and not np.all(np.isfinite(v)):
                    raise NumericalError(f"non-finite tangent at step {k}")
            else:
                np.maximum(peak, np.abs(u), out=peak)
        return u, v, peak

    def tangent_columns(self, u0, v0, escape_sup, iteration=0):
        """Advance a vector or column block and its tangent one period.

        ``v0`` is None (no tangent) or a tangent as ``_run`` takes it; the
        identity as m tangents along a column assembles that column's
        Jacobian. Returns ``(u, v, failures)``: ``failures`` maps the index
        of every column (0 for a vector) that left the box or whose tangent
        turned non-finite to the EscapeError or NumericalError the guarded
        loop raised when that column was replayed alone. Those columns of
        ``u`` and ``v`` hold no meaningful values.
        """
        u0 = np.asarray(u0, dtype=float)
        v0 = None if v0 is None else np.asarray(v0, dtype=float)
        # a column that leaves the box keeps stepping to the end of the
        # period, the replay below reports it; a non-finite tangent entry
        # stays non-finite, so one test at the end finds it
        with np.errstate(over="ignore", invalid="ignore"):
            u, v, peak = self._run(u0, v0, escape_sup, iteration, guarded=False)
        ok = np.max(peak, axis=0) <= escape_sup
        if v is not None:
            ok &= np.isfinite(v).all(axis=(0, *range(u.ndim, v.ndim)))
        failures = {}
        # the replay of a column is the authority: a block product may round
        # a column's peak across the threshold that the vector product keeps
        for j in np.flatnonzero(~ok):
            col = u0 if u0.ndim == 1 else u0[:, j]
            tan = v0 if v0 is None or u0.ndim == 1 else v0[:, j]
            try:
                self._run(col, tan, escape_sup, iteration, guarded=True)
            except (EscapeError, NumericalError) as exc:
                failures[int(j)] = exc
        return u, v, failures

    def period_columns(self, u0, escape_sup, iteration=0):
        """Advance a vector or column block one period; failures as values.

        Returns ``(u, failures)`` as ``tangent_columns`` does without a
        tangent.
        """
        u, _, failures = self.tangent_columns(u0, None, escape_sup, iteration)
        return u, failures

    def period(self, u0, escape_sup, iteration=0):
        """Advance one full period from phase t = 0. Returns the raw state.

        ``u0`` is a vector (n,) or a column block (n, K); the first column
        that leaves the box raises its EscapeError or NumericalError.
        """
        u, failures = self.period_columns(u0, escape_sup, iteration)
        if failures:
            raise failures[min(failures)]
        return u

    def period_with_tangent(self, u0, v0, escape_sup):
        """Advance base and tangent in lockstep for one period.

        Shapes as in ``tangent_columns``; the first failing column raises
        its error.
        """
        u, v, failures = self.tangent_columns(u0, v0, escape_sup)
        if failures:
            raise failures[min(failures)]
        return u, v

    def step_once(self, u0, t, escape_sup):
        """A single startup-weighted step from an arbitrary phase t."""
        u = np.asarray(u0, dtype=float)
        f_k = self.nl.rate(self.nl.amplitude(t, self.tau), u)
        u = self.step_mat @ u + self.source_mat @ f_k
        self._guard(u, 0, escape_sup)
        return u


def _require_parabolic(system):
    from .systems import Parabolic

    if not isinstance(system.kind, Parabolic):
        raise ValueError("stepping operations apply to parabolic systems only")


def _check_state(system, state):
    if state.grid != system.grid:
        raise DimensionMismatchError(
            f"state grid {state.grid} does not match system grid {system.grid}"
        )


def step(state, t, system):
    """One implicit-explicit step of width tau/M from phase t.

    A lone step has no reaction history, so it uses the startup weighting
    (plain explicit reaction); within ``propagate_period`` all subsequent
    steps use the two-step weights.
    """
    _require_parabolic(system)
    _check_state(system, state)
    u = system.kind.propagator.step_once(state.values, t, 2.0 * system.kappa)
    return state.with_values(u)


def propagate_period(state, system):
    """The period map: integrate one full forcing period from phase t = 0."""
    _require_parabolic(system)
    _check_state(system, state)
    u = system.kind.propagator.period(state.values, 2.0 * system.kappa)
    return state.with_values(u)


def propagate_tangent(state, tangent, system):
    """Derivative of the period map at ``state`` applied to ``tangent``.

    Integrates the variational recursion of the discrete scheme along the
    base trajectory, in lockstep, and returns the propagated tangent.
    """
    _require_parabolic(system)
    _check_state(system, state)
    _check_state(system, tangent)
    _, v = system.kind.propagator.period_with_tangent(
        state.values, tangent.values, 2.0 * system.kappa
    )
    return tangent.with_values(v)
