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

The implicit matrix is inverted once per system (the grids here are small,
at most a few hundred nodes), so that with S = (I - theta dt A)^{-1}
(I + (1-theta) dt A) and Src = dt (I - theta dt A)^{-1} a step is one
product for a whole block of states,

    u_{k+1} = [S | Src | -Src] @ [u_k; 3/2 f_k; 1/2 f_{k-1}].

Tangent propagation advances the exact derivative of the discrete step:
the same recursion with f replaced by its u-linearization frozen along the
base trajectory, including the Adams-Bashforth history of the linearized
reaction, as [S | Src] @ [v_k; 3/2 J_k v_k - 1/2 J_{k-1} v_{k-1}]. Base and
tangent advance in lockstep, so the result matches divided differences of
the fully discrete period map to roundoff plus the differencing error.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EscapeError, GridError, NumericalError


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
    a = _tridiagonal(np.full(n, -2.0 * inv), np.full(n - 1, inv), np.full(n - 1, inv))
    if grid.kind == "neumann":
        a[0, 1] *= 2.0
        a[-1, -2] *= 2.0
    elif grid.kind == "ring":
        a[0, -1] = a[-1, 0] = inv
    elif grid.kind == "radial":
        dim = grid.dim
        r = grid.nodes()
        a[0, 0] = -2.0 * dim * inv
        a[0, 1] = 2.0 * dim * inv
        power = dim - 1
        # node by node: a vectorised r ** power rounds differently from the
        # scalar pow() once dim >= 4
        for i in range(1, n):
            w_minus = ((r[i] - h / 2.0) ** power) / (r[i] ** power) * inv
            w_plus = ((r[i] + h / 2.0) ** power) / (r[i] ** power) * inv
            a[i, i - 1] = w_minus
            a[i, i] = -(w_minus + w_plus)
            if i < n - 1:
                a[i, i + 1] = w_plus
    return a


class _Propagator:
    """Precomputed one-period integrator for a single parabolic system.

    Holds the stacked step matrix and the reaction factors (now, then) of
    every step; built once per system by ``Parabolic.propagator``. Its one
    entry point is ``tangent_columns``, which ``systems.tangent_columns``
    calls in blocks of at most ``BLOCK_WIDTH`` flat columns. States are
    column blocks (n, K), and a vector runs as an (n, 1) block, so the two
    agree bit for bit. Two preallocated buffers [u_k; now_k; then_k]
    trade places every step: the product writes u_{k+1} into the other,
    whose then block the reaction filled in place in the same step.

    Escape is checked once per period from the running peak of u * u. A
    column whose peak is not inside the inflated box, or whose tangent
    turned non-finite, is replayed alone through the same loop guarded at
    every step, which raises the error of the first offending step.
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
        self.nl = par.nonlinearity
        source_mat = s_inv * dt
        self.stacked = np.hstack(
            [s_inv @ (eye + (1.0 - scheme.theta) * dt * lap), source_mat, -source_mat]
        )
        # amplitudes over the whole step grid at once: one array evaluation
        # instead of a scalar forcing call per step
        self.amps = self.nl.amplitude(dt * np.arange(m_steps), par.tau)
        # the reaction factors (now, then) of every step: step k weighs its
        # reaction 3/2 now (the startup step 1) and hands 1/2 of it to step
        # k + 1 as history
        self.factors = [
            (self.nl.factor((1.5 if k else 1.0) * amp), self.nl.factor(0.5 * amp))
            for k, amp in enumerate(self.amps)
        ]

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

    def _run(self, u, v, escape_sup, iteration, guarded):
        """The step loop over one period, on a block.

        ``u`` is a column block (n, K); ``v`` (or None) holds m tangents
        along each column, (n, K, m), stepped in lockstep as K * m flat
        columns. Guarded runs check every step and raise at the first
        offending one; unguarded runs return each column's peak of |u| over
        steps 1..M for the caller to test once.
        """
        n, count = u.shape
        g_into = self.nl.g_into
        stacked = self.stacked
        a, b = np.empty((3 * n, count)), np.empty((3 * n, count))
        a[:n] = u
        a[2 * n:] = 0.0  # no history before the startup step
        # per buffer: itself, its state block, and where the reaction of
        # that state goes: its own now block and the other's then block
        cur, nxt = [(z, z[:n], z[n:2 * n], other[2 * n:]) for z, other in ((a, b), (b, a))]
        sq = np.empty((n, count))
        peak = np.zeros((n, count))
        dg = None
        if v is not None:
            # buffers [v_k; e_k] for [S | Src], with views as (n, K, m)
            m = v.shape[2]
            tan, tan_nxt = [(t, t[:n], t[:n].reshape(n, count, m), t[n:].reshape(n, count, m))
                            for t in (np.empty((2 * n, count * m)) for _ in range(2))]
            tan[2][...] = v
            hist = np.zeros((n, count, m))  # 1/2 J_{k-1} v_{k-1}
            dg, dg_then = np.empty((n, count)), np.empty((n, count))
            d_now, d_then = dg[:, :, None], dg_then[:, :, None]
            stacked_v = stacked[:, :2 * n]
        for k, (now, then) in enumerate(self.factors):
            g = cur[2]
            g_into(cur[1], g, sq, dg)
            np.multiply(g, then, out=cur[3])
            np.multiply(g, now, out=g)
            if k and not guarded:
                np.maximum(peak, sq, out=peak)
            np.matmul(stacked, cur[0], out=nxt[1])
            cur, nxt = nxt, cur
            if v is not None:
                np.multiply(dg, then, out=dg_then)
                np.multiply(dg, now, out=dg)
                np.multiply(d_now, tan[2], out=tan[3])
                np.subtract(tan[3], hist, out=tan[3])
                np.multiply(d_then, tan[2], out=hist)
                np.matmul(stacked_v, tan[0], out=tan_nxt[1])
                tan, tan_nxt = tan_nxt, tan
            if guarded:
                self._guard(cur[1], k, escape_sup, iteration)
                if v is not None and not np.all(np.isfinite(tan[1])):
                    raise NumericalError(f"non-finite tangent at step {k}")
        u = cur[1].copy()
        v = None if v is None else tan[2].copy()
        if guarded:
            return u, v, None
        # sqrt(u * u) is |u| exactly, barring under- and overflow
        np.maximum(peak, np.multiply(u, u, out=sq), out=peak)
        return u, v, np.sqrt(np.max(peak, axis=0))

    def tangent_columns(self, u0, v0, escape_sup, iteration=0):
        """Advance a vector or column block and its tangent one period.

        ``v0`` is None (no tangent), one tangent per base column (the
        shape of ``u0``), or m tangents along each base column ((n, m) for
        a vector, (n, K, m) for a block); the identity as m tangents along
        a column assembles that column's Jacobian. Returns
        ``(u, v, failures)`` in the shapes given: ``failures`` maps the
        index of every column (0 for a vector) that left the box or whose
        tangent turned non-finite to the EscapeError or NumericalError the
        guarded loop raised when that column was replayed alone. Those
        columns of ``u`` and ``v`` hold no meaningful values.
        """
        u0 = np.asarray(u0, dtype=float)
        block = u0.reshape(len(u0), -1)
        n, count = block.shape
        tangents = None
        if v0 is not None:
            v0 = np.asarray(v0, dtype=float)
            tangents = v0.reshape(n, count, v0.shape[-1] if v0.ndim > u0.ndim else 1)
        # a column that leaves the box keeps stepping to the end of the
        # period, the replay below reports it; a non-finite tangent entry
        # stays non-finite, so one test at the end finds it
        with np.errstate(over="ignore", invalid="ignore"):
            u, v, sups = self._run(block, tangents, escape_sup, iteration, guarded=False)
        ok = sups <= escape_sup
        if v is not None:
            ok &= np.isfinite(v).all(axis=(0, 2))
        failures = {}
        # the replay of a column is the authority: a block product may round
        # a column's peak across the threshold that the vector product keeps
        for j in np.flatnonzero(~ok):
            tan = None if tangents is None else tangents[:, j:j + 1]
            try:
                self._run(block[:, j:j + 1], tan, escape_sup, iteration, guarded=True)
            except (EscapeError, NumericalError) as exc:
                failures[int(j)] = exc
        return u.reshape(u0.shape), None if v is None else v.reshape(v0.shape), failures


def _period_columns(system, *states):
    """``systems.tangent_columns`` on a parabolic system's state (and its
    tangent); a failing image raises its EscapeError or NumericalError."""
    from .systems import Parabolic, tangent_columns

    if not isinstance(system.kind, Parabolic):
        raise ValueError("stepping operations apply to parabolic systems only")
    system.check_grid(*states)
    u, v, failures = tangent_columns(system, *(x.values for x in states))
    if failures:
        raise failures[0]
    return u, v


def propagate_period(state, system):
    """The period map: integrate one full forcing period from phase t = 0."""
    return state.with_values(_period_columns(system, state)[0])


def propagate_tangent(state, tangent, system):
    """Derivative of the period map at ``state`` applied to ``tangent``.

    Integrates the variational recursion of the discrete scheme along the
    base trajectory, in lockstep, and returns the propagated tangent.
    """
    return tangent.with_values(_period_columns(system, state, tangent)[1])
