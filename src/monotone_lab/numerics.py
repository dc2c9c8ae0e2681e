"""Method-of-lines discretization and one-period propagation.

The continuous model is a scalar reaction-diffusion equation on the unit
interval (or ring, or radial segment) with a time-periodic reaction,

    du/dt = kappa_d * A u + f(t, x, u),      A = second-order operator,

whose time-tau solution operator is the period map studied everywhere else in
the package. Space is discretized by second-order central differences
(``build_diffusion``), time by an implicit-explicit two-step scheme:

* diffusion is advanced by Crank-Nicolson,
* the reaction is explicit Adams-Bashforth with weights 3/2 and -1/2, an
  implicit-Euler-style startup step supplying the missing history.

Both parts are second order, which the refinement tests verify. One step
of width dt = tau/M reads

    (I - dt/2 A) u_{k+1} = (I + dt/2 A) u_k + dt (3/2 f_k - 1/2 f_{k-1}).

The implicit matrix is inverted once per system (the grids here are small,
at most a few hundred nodes), so that with S = (I - dt/2 A)^{-1}
(I + dt/2 A) and Src = dt (I - dt/2 A)^{-1} a step is one
``np.dot`` product (matmul's bits, cheaper per call) for a block of states,

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
    """

    steps_per_period: int = 200

    def __post_init__(self):
        if self.steps_per_period < 1:
            raise ValueError("steps_per_period must be at least 1")


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
    a = np.diag(np.full(n, -2.0 * inv))
    a += np.diag(np.full(n - 1, inv), -1) + np.diag(np.full(n - 1, inv), 1)
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


def _aligned(a):
    """A C-contiguous copy of ``a`` on a 64-byte boundary, so the speed of the
    step products does not hang on where the heap put the matrix."""
    buf = np.empty(a.size + 8)
    start = -buf.ctypes.data % 64 // buf.itemsize
    buf[start:start + a.size] = a.ravel()
    return buf[start:start + a.size].reshape(a.shape)


class _Propagator:
    """Precomputed one-period integrator for a single parabolic system.

    Holds the stacked step matrix, [S | Src] as its own copy for the
    tangents (both aligned, see ``_aligned``), and the reaction factors
    (now, then) of every step; built once per system by
    ``Parabolic.propagator``. Its one entry point is ``tangent_columns``,
    which ``systems.tangent_columns`` calls in blocks of at most
    ``block_width(n, m)`` columns. States are column blocks (n, K), and a
    vector runs as an (n, 1) block, so the two agree bit for bit. Two
    preallocated buffers [u_k; now_k; then_k] trade places every step: the
    product writes u_{k+1} into the other, whose then block the reaction
    filled in place in the same step.

    Escape is checked once per period from the running peak of u * u. A
    column whose peak is not inside the inflated box, or whose tangent
    turned non-finite, is replayed alone through the same loop guarded at
    every step, which raises the error of the first offending step.
    """

    def __init__(self, par):
        grid = par.grid
        n = grid.n
        m_steps = par.scheme.steps_per_period
        dt = par.tau / m_steps
        eye = np.eye(n)
        self.nl = par.nonlinearity
        # a huge tau or diffusivity overflows here; refused below, unwarned
        with np.errstate(over="ignore", invalid="ignore"):
            if par.diffusivity != 0.0:
                lap = par.diffusivity * build_diffusion(grid)
            else:
                lap = np.zeros((n, n))
            half = 0.5 * dt * lap
            try:
                s_inv = np.linalg.inv(eye - half)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"implicit diffusion matrix is singular: {exc}") from None
            source_mat = s_inv * dt
            stacked = np.hstack([s_inv @ (eye + half), source_mat, -source_mat])
            # amplitudes over the whole step grid at once: one array evaluation
            # instead of a scalar forcing call per step
            self.amps = self.nl.amplitude(dt * np.arange(m_steps), par.tau)
        if not (np.isfinite(stacked).all() and np.isfinite(self.amps).all()):
            raise NumericalError(
                f"the step matrices or reaction amplitudes at dt = {dt:.3g} are not finite"
            )
        self.stacked = _aligned(stacked)
        # [S | Src] for the tangents: np.dot would copy the strided view
        # stacked[:, :2n] on every call
        self.stacked_v = _aligned(stacked[:, :2 * n])
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
        stacked, stacked_v = self.stacked, self.stacked_v
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
        # bound once, outputs positional: lookups and keywords cost M times;
        # np.dot gives np.matmul's bits here and dispatches faster
        mul, sub, dot = np.multiply, np.subtract, np.dot
        for k, (now, then) in enumerate(self.factors):
            z, state, g, g_then = cur
            g_into(state, g, sq, dg)
            mul(g, then, g_then)
            mul(g, now, g)
            if k and not guarded:
                np.maximum(peak, sq, out=peak)
            dot(stacked, z, nxt[1])
            cur, nxt = nxt, cur
            if v is not None:
                t, _, t_v, t_e = tan
                mul(dg, then, dg_then)
                mul(dg, now, dg)
                mul(d_now, t_v, t_e)
                sub(t_e, hist, t_e)
                mul(d_then, t_v, hist)
                dot(stacked_v, t, tan_nxt[1])
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
        # stays non-finite, so one test at the end finds it; none of it warns
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


def propagate_tangent(state, tangent, system):
    """Derivative of the period map at ``state`` applied to ``tangent``.

    Integrates the variational recursion of the discrete scheme along the
    base trajectory, in lockstep, and returns the propagated tangent. A
    failing image raises its EscapeError or NumericalError.
    """
    from .systems import Parabolic, tangent_columns

    if not isinstance(system.kind, Parabolic):
        raise ValueError("stepping operations apply to parabolic systems only")
    system.check_grid(state, tangent)
    _, v, failures = tangent_columns(system, state.values, tangent.values)
    if failures:
        raise failures[0]
    return tangent.with_values(v)
