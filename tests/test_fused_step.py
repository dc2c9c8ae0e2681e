"""The fused period loop against the two-product recursion, written out.

The propagator advances u_{k+1} = [S | Src | -Src] @ [u_k; 3/2 f_k; 1/2 f_{k-1}]
as one product per step over preallocated buffers. Here the same period runs
as the plain recursion S u + Src (3/2 f_k - 1/2 f_{k-1}), with the reaction
and its derivative spelled out, and the two must agree to roundoff. The
loop's own steps, written with np.matmul, must agree with it bit for bit.
"""

import numpy as np
import pytest

from monotone_lab import EscapeError, NumericalError, build_diffusion, parabolic_system
from shipped import shipped_parabolic

RTOL = 1e-13


def reference_period(system, u, v=None):
    """One period of the two-product recursion from a block u (n, K).

    ``v`` (or None) holds m tangents along each column, (n, K, m), advanced
    by the same recursion with the reaction linearized along the base.
    """
    kind = system.kind
    prop = kind.propagator
    nl = kind.nonlinearity
    n, count = u.shape
    step_mat, source_mat = prop.stacked[:, :n], prop.stacked[:, n:2 * n]
    profile = np.ones((n, 1)) if nl.profile is None else nl.profile[:, None]
    f_prev = jv_prev = None
    for amp in prop.amps:
        scale = amp * profile
        if nl.form == "cubic":
            f, df = scale * (u - u ** 3), scale * (1.0 - 3.0 * u ** 2)
        else:
            f, df = scale * u, scale * np.ones_like(u)
        expl = f if f_prev is None else 1.5 * f - 0.5 * f_prev
        if v is not None:
            jv = df[:, :, None] * v
            expl_v = jv if jv_prev is None else 1.5 * jv - 0.5 * jv_prev
            v = (step_mat @ v.reshape(n, -1)
                 + source_mat @ expl_v.reshape(n, -1)).reshape(v.shape)
            jv_prev = jv
        u = step_mat @ u + source_mat @ expl
        f_prev = f
    return u, v


def assert_close(got, want, err_msg=""):
    np.testing.assert_allclose(
        got, want, rtol=RTOL, atol=RTOL * np.max(np.abs(want)), err_msg=err_msg
    )


def check_block(system, count=5, m=3, seed=0, amplitude=1.0):
    """Base and both tangent shapes of a random block against the reference."""
    rng = np.random.default_rng(seed)
    n = system.n
    prop = system.kind.propagator
    sup = 2.0 * system.kappa
    u = amplitude * rng.uniform(-1.0, 1.0, (n, count))
    along = rng.uniform(-1.0, 1.0, (n, count, m))
    one = rng.uniform(-1.0, 1.0, (n, count))
    want_u, want_along = reference_period(system, u, along)
    _, want_one = reference_period(system, u, one[:, :, None])
    got_u, no_v, failures = prop.tangent_columns(u, None, sup)
    assert (no_v, failures) == (None, {})
    assert_close(got_u, want_u, system.name)
    got_u, got_along, failures = prop.tangent_columns(u, along, sup)
    assert failures == {}
    assert got_along.shape == (n, count, m)
    assert_close(got_u, want_u, system.name)
    assert_close(got_along, want_along, system.name)
    _, got_one, failures = prop.tangent_columns(u, one, sup)
    assert failures == {}
    assert got_one.shape == (n, count)
    assert_close(got_one, want_one[:, :, 0], system.name)


@pytest.mark.parametrize("name", sorted(shipped_parabolic()))
def test_catalog_blocks_match_the_two_product_recursion(name):
    check_block(shipped_parabolic()[name])


def test_linear_form_matches_the_two_product_recursion():
    check_block(parabolic_system("dirichlet", 16, 2.0, form="linear", name="linear_2"))
    # the ring's mean mode grows like exp(3) per period
    check_block(parabolic_system("ring", 12, 3.0, form="linear", profile="wave",
                                 name="linear_wave"), amplitude=0.05)


@pytest.mark.parametrize("profile", ["wave", "ramp"])
@pytest.mark.parametrize("domain", ["neumann", "ring"])
def test_profiles_match_the_two_product_recursion(domain, profile):
    check_block(parabolic_system(domain, 16, 5.0, profile=profile, name=profile))


def test_crank_nicolson_matches_the_two_product_recursion():
    check_block(parabolic_system("dirichlet", 8, 5.0, name="crank_nicolson"))


def test_vectors_match_and_equal_their_one_column_blocks(ring5):
    prop = ring5.kind.propagator
    sup = 2.0 * ring5.kappa
    rng = np.random.default_rng(3)
    u = rng.uniform(-1.0, 1.0, ring5.n)
    v = rng.uniform(-1.0, 1.0, ring5.n)
    along = rng.uniform(-1.0, 1.0, (ring5.n, 4))
    want_u, want_v = reference_period(ring5, u[:, None], v[:, None, None])
    _, want_along = reference_period(ring5, u[:, None], along[:, None, :])
    got_u, got_v, failures = prop.tangent_columns(u, v, sup)
    assert failures == {}
    assert got_u.shape == got_v.shape == (ring5.n,)
    assert_close(got_u, want_u[:, 0])
    assert_close(got_v, want_v[:, 0, 0])
    _, got_along, failures = prop.tangent_columns(u, along, sup)
    assert failures == {}
    assert got_along.shape == (ring5.n, 4)
    assert_close(got_along, want_along[:, 0])
    # a vector runs as its one-column block, bit for bit
    np.testing.assert_array_equal(prop.tangent_columns(u[:, None], None, sup)[0][:, 0],
                                  prop.tangent_columns(u, None, sup)[0])
    col_u, col_v, failures = prop.tangent_columns(u[:, None], v[:, None], sup)
    assert failures == {}
    np.testing.assert_array_equal(col_u[:, 0], got_u)
    np.testing.assert_array_equal(col_v[:, 0], got_v)
    _, col_along, failures = prop.tangent_columns(u[:, None], along[:, None, :], sup)
    assert failures == {}
    np.testing.assert_array_equal(col_along[:, 0], got_along)


def test_escaping_columns_fail_alone_and_the_rest_match():
    system = parabolic_system("dirichlet", 16, 13.0, modulation=0.0, form="linear",
                              name="unstable_linear")
    prop = system.kind.propagator
    sup = 2.0 * system.kappa
    xs = system.grid.nodes()
    mode = np.sin(np.pi * xs)
    # the first mode grows like exp(13 - pi^2) per period: large starts
    # leave the box, small ones stay in it
    block = np.stack([1e-3 * mode, 0.5 * mode, 2e-3 * mode, 1.0 * mode, -1e-3 * mode], axis=1)
    tangents = np.ones((system.n, 5, 2))
    u, v, failures = prop.tangent_columns(block, tangents, sup)
    assert sorted(failures) == [1, 3]
    assert all(isinstance(exc, EscapeError) for exc in failures.values())
    for j, exc in failures.items():
        _, _, alone = prop.tangent_columns(block[:, j], None, sup)
        assert list(alone) == [0]
        assert isinstance(alone[0], EscapeError)
        assert (alone[0].step, alone[0].sup) == (exc.step, exc.sup)
    want_u, want_v = reference_period(system, block, tangents)
    ok = [0, 2, 4]
    assert_close(u[:, ok], want_u[:, ok])
    assert_close(v[:, ok], want_v[:, ok])
    # a non-finite start fails at the first step
    block[3, 2] = np.nan
    _, _, failures = prop.tangent_columns(block, None, sup)
    assert sorted(failures) == [1, 2, 3]
    assert isinstance(failures[2], NumericalError)


def test_step_matrix_is_64_byte_aligned_and_holds_the_step():
    # fresh systems too, built after allocations of assorted sizes, so the
    # heap offsets they would land on differ
    systems = list(shipped_parabolic().values())
    for n in (5, 12, 17, 32):
        np.empty(n * 3 + 1)
        systems.append(parabolic_system("neumann", n, 4.0, steps_per_period=20))
    for system in systems:
        prop, kind = system.kind.propagator, system.kind
        for mat in (prop.stacked, prop.stacked_v):
            assert mat.ctypes.data % 64 == 0, system.name
            assert mat.flags.c_contiguous
        np.testing.assert_array_equal(prop.stacked_v, prop.stacked[:, :2 * system.n])
        n, dt = system.n, kind.tau / kind.scheme.steps_per_period
        lap = kind.diffusivity * build_diffusion(system.grid)
        s_inv = np.linalg.inv(np.eye(n) - 0.5 * dt * lap)
        src = s_inv * dt
        want = np.hstack([s_inv @ (np.eye(n) + 0.5 * dt * lap), src, -src])
        np.testing.assert_array_equal(prop.stacked, want)


def matmul_period(prop, u, v=None):
    """One period of the step loop as np.matmul runs it, tangents stepped
    with the strided view [S | Src] of the stacked matrix.

    ``u`` is a block (n, K) and ``v`` (or None) holds m tangents along each
    column, (n, K, m). Each step is the same two products and the same
    elementwise operations as the loop, so the bits must match.
    """
    n = len(u)
    stacked_v = prop.stacked[:, :2 * n]
    then_f = np.zeros_like(u)
    hist = None if v is None else np.zeros_like(v)
    for now, then in prop.factors:
        g, sq = np.empty_like(u), np.empty_like(u)
        dg = None if v is None else np.empty_like(u)
        prop.nl.g_into(u, g, sq, dg)
        u_next = np.matmul(prop.stacked, np.vstack([u, g * now, then_f]))
        then_f = g * then
        if v is not None:
            e = (dg * now)[:, :, None] * v - hist
            hist = (dg * then)[:, :, None] * v
            v = np.matmul(stacked_v, np.vstack([v.reshape(n, -1), e.reshape(n, -1)]))
            v = v.reshape(hist.shape)
        u = u_next
    return u, v


@pytest.mark.parametrize("name", sorted(shipped_parabolic()))
def test_step_products_round_as_matmul_does(name):
    system = shipped_parabolic()[name]
    prop = system.kind.propagator
    n, sup = system.n, 2.0 * system.kappa
    rng = np.random.default_rng(4)
    for width in (1, 2, 3, 4, 5, 8, 16, 33, 128):
        u = rng.uniform(-1.0, 1.0, (n, width))
        one = rng.uniform(-1.0, 1.0, (n, width))
        got_u, _, failures = prop.tangent_columns(u, None, sup)
        assert failures == {}
        want_u, want_one = matmul_period(prop, u, one[:, :, None])
        assert np.array_equal(got_u, want_u), width
        got_u, got_one, failures = prop.tangent_columns(u, one, sup)
        assert failures == {}
        assert np.array_equal(got_u, want_u), width
        assert np.array_equal(got_one, want_one[:, :, 0]), width
    # the identity as n tangents along one column: that column's Jacobian
    eye = np.eye(n)[:, None, :]
    _, got_jac, failures = prop.tangent_columns(u[:, :1], eye, sup)
    assert failures == {}
    assert np.array_equal(got_jac, matmul_period(prop, u[:, :1], eye)[1])
