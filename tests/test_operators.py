import importlib.util
import math
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from anchorkit.errors import (
    DimensionMismatch,
    DomainViolation,
    InfeasibleConstants,
    InnerLoopBudgetExceeded,
    NoForwardEvaluation,
    NoResolventCapability,
)
from anchorkit.operators import (
    AffineOperator,
    BoxProx,
    CallableOperator,
    GradientOperator,
    ScaledOperator,
    ShiftedIdentityPlus,
    _load_flapack,
    _lu_factor,
    as_vector,
    drs_map,
    forward_backward_residual,
    solve_strongly_monotone,
    vector_norm,
)

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def zero_map(d):
    """The zero map on R^d, an affine operator."""
    return AffineOperator(np.zeros((d, d)))


def test_as_vector_validation():
    v = as_vector([1.0, 2.0])
    assert v.dtype == np.float64
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(DimensionMismatch):
        as_vector([])
    with pytest.raises(DimensionMismatch):
        as_vector([1.0, 2.0], dim=3)


def test_zero_operator():
    op = zero_map(2)
    assert op.lipschitz == 0.0 and op.mu == 0.0
    # +0.0 in every entry, whatever the signs of the point
    assert (op(np.array([3.0, -0.0])).tobytes()
            == np.zeros(2).tobytes())
    z = np.array([0.7, -0.2])
    assert np.array_equal(op.resolvent(0.3, z), z)


def test_affine_eval_matches_matrix_product():
    op = AffineOperator(ROT)
    assert np.allclose(op(np.array([1.0, 0.0])), [0.0, -1.0])
    with pytest.raises(DimensionMismatch):
        op(np.zeros(3))


@pytest.mark.parametrize("d", [1, 2, 3, 10, 300, 1000])
def test_affine_eval_bits_match_matmul(d):
    # with a nonzero offset the forward map has the bytes of M @ z + b, also
    # where BLAS blocks the product; np.array_equal calls -0.0 equal to
    # +0.0, so compare bytes
    rng = np.random.default_rng(500 + d)
    m = rng.standard_normal((d, d))
    m = m @ m.T / d + (m - m.T)
    op = AffineOperator(m, rng.standard_normal(d))
    for scale in (1e-200, 1e-3, 1.0, 1e150):
        z = scale * rng.standard_normal(d)
        assert op(z).tobytes() == (m @ z + op.offset).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 10, 300, 1000])
def test_zero_offset_forward_keeps_the_sign_of_zero(d):
    # np.array_equal calls -0.0 equal to +0.0, so compare bytes: with a zero
    # offset (of either sign) the forward map skips the add for d >= 2, and
    # its bits must still be those of M.dot(z) + b, signed zeros included
    rng = np.random.default_rng(700 + d)
    a = rng.standard_normal((d, d))
    a[rng.random((d, d)) < 0.3] = 0.0
    m = a - a.T + np.diag(rng.random(d))  # monotone, with zero entries
    m[0] = m[:, 0] = -0.0  # a row whose products are all signed zeros
    signs = np.where(rng.random(d) < 0.5, -1.0, 1.0)
    points = (signs * 0.0,  # only +-0.0 entries
              np.where(rng.random(d) < 0.5, signs * 0.0,
                       rng.standard_normal(d)))
    for offset in (np.zeros(d), -np.zeros(d)):
        op = AffineOperator(m, offset)
        for z in points:
            assert op(z).tobytes() == (m.dot(z) + offset).tobytes(), offset
    # the 1 x 1 product is the one entry's product, where @ accumulates
    # from +0.0, so d = 1 keeps the add
    one = AffineOperator([[1.0]])
    assert np.signbit(one.matrix.dot(np.array([-0.0])))[0]
    assert not np.signbit(one.matrix @ np.array([-0.0]))[0]
    assert not np.signbit(one(np.array([-0.0])))[0]


def test_exactly_skew_matrices_need_no_eigensolver(monkeypatch):
    def refuse(a):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    rng = np.random.default_rng(3)
    k = rng.standard_normal((6, 6))
    k = k - k.T
    for m in (ROT, k, np.zeros((3, 3))):
        op = AffineOperator(m)
        assert op.mu == 0.0 and not np.signbit(op.mu)
    # one ulp off skew, the symmetric part is not zero: it is eigensolved
    off = k.copy()
    off[0, 1] = np.nextafter(off[0, 1], np.inf)
    with pytest.raises(AssertionError, match="eigvalsh called"):
        AffineOperator(off)


def test_scaled_refuses_constants_and_a_zero_matrix():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InfeasibleConstants):
            AffineOperator.scaled(ROT, bad)
    with pytest.raises(InfeasibleConstants):
        AffineOperator.scaled(np.zeros((2, 2)), 1.0)
    with pytest.raises(DimensionMismatch):
        AffineOperator.scaled(np.ones((2, 3)), 1.0)


def test_wrong_shape_raises_dimension_mismatch():
    affine = AffineOperator(ROT, [0.5, -0.5])
    block = BoxProx([0.0, -1.0], [1.0, 1.0])
    zero = zero_map(2)
    calls = (affine, lambda z: affine.resolvent(0.5, z),
             lambda z: block.resolvent(0.5, z),
             ShiftedIdentityPlus(affine, 0.5, [1.0, 2.0]),
             zero, lambda z: zero.resolvent(0.5, z),
             CallableOperator(lambda z: z, 2, 1.0))
    for call in calls:
        for bad in (np.zeros(3), np.zeros((2, 1)), np.zeros(())):
            with pytest.raises(DimensionMismatch):
                call(bad)


def test_affine_metadata_verified_at_construction():
    with pytest.raises(InfeasibleConstants):
        AffineOperator(ROT, lipschitz=0.5)  # true norm is 1
    with pytest.raises(InfeasibleConstants):
        AffineOperator(np.eye(2), mu=2.0)  # sym min eigenvalue is 1
    with pytest.raises(InfeasibleConstants):
        AffineOperator(-np.eye(2))  # not monotone
    op = AffineOperator(ROT, lipschitz=1.0, mu=0.0)
    assert op.lipschitz == 1.0 and op.mu == 0.0


def test_affine_resolvent_against_direct_solve():
    # oracle: solve (I + alpha M) u = z - alpha b with an independent call
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4))
    m = m @ m.T + (m - m.T)  # monotone: PSD plus skew
    b = rng.standard_normal(4)
    op = AffineOperator(m, b)
    for alpha in (0.1, 1.0, 3.0):
        z = rng.standard_normal(4)
        expected = np.linalg.solve(np.eye(4) + alpha * m, z - alpha * b)
        assert np.allclose(op.resolvent(alpha, z), expected, atol=1e-12)


@pytest.mark.parametrize("d", [1, 10, 300])
def test_affine_resolvent_bits_match_lu_solve(d):
    # the direct getrf/getrs calls must give scipy.linalg.lu_factor's and
    # lu_solve's bits, including on a cache hit (alpha repeated at once) and
    # on a return to an alpha whose factors were released
    rng = np.random.default_rng(d)
    m = rng.standard_normal((d, d))
    m = m @ m.T / d + (m - m.T)
    b = rng.standard_normal(d)
    op = AffineOperator(m, b)
    for alpha in (0.01, 0.3, 2.5, 2.5, 0.3, 1e-9, 0.01, 1e4):
        z = rng.standard_normal(d)
        factors = lu_factor(np.eye(d) + alpha * m)
        expected = lu_solve(factors, z - alpha * b)
        z_before = z.copy()
        got = op.resolvent(alpha, z)
        assert got.dtype == np.float64 and got.shape == (d,)
        assert np.array_equal(got, expected)
        assert np.array_equal(z, z_before)  # the solve overwrites a copy
        lu, piv, _ = op._lu_cache[alpha]
        assert lu.dtype == factors[0].dtype and piv.dtype == factors[1].dtype
        assert np.array_equal(lu, factors[0])
        assert np.array_equal(piv, factors[1])
    assert list(op._lu_cache) == [1e4]  # the most recent alpha only


def signed_zero_monotone(d, seed):
    """A monotone d x d matrix with zero entries and a row and column of
    -0.0."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    a[rng.random((d, d)) < 0.3] = 0.0
    m = a - a.T + np.diag(rng.random(d))
    m[0] = m[:, 0] = -0.0
    return m


@pytest.mark.parametrize("d", [1, 2, 10, 300])
def test_in_place_factors_match_lu_factor_bytes(d):
    # I + alpha M is formed in the Fortran-order array that getrf factors in
    # place; the factors must have the bytes of the factors of
    # np.eye(d) + alpha * M, signs of zero included: M has -0.0 entries,
    # and at alpha = 5e-324 many products underflow to a signed zero
    m = signed_zero_monotone(d, 900 + d)
    op = AffineOperator(m)
    for alpha in (0.05, 0.0125, 1e-300, 5e-324):
        op.resolvent(alpha, np.ones(d))
        lu, piv, _ = op._lu_cache[alpha]
        ref_lu, ref_piv = _lu_factor(np.eye(d) + alpha * m)
        assert lu.flags.f_contiguous
        assert lu.tobytes("A") == ref_lu.tobytes("A")
        assert piv.tobytes() == ref_piv.tobytes()


def test_first_resolvent_call_holds_one_matrix():
    # numpy reports its allocations to tracemalloc; forming I + alpha M in
    # the array that getrf overwrites keeps the first call at one d x d
    # array (np.eye(d) + alpha * M and getrf's copy of it peaked at two)
    d = 400
    op = AffineOperator(signed_zero_monotone(d, 3))
    z = np.ones(d)
    tracemalloc.start()
    try:
        op.resolvent(0.05, z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * d * d, peak / (8 * d * d)


def test_new_step_size_releases_the_previous_factors():
    # the factors of one alpha are released before another alpha's are
    # formed, so two step sizes hold one d x d array at a time, not two
    d = 300
    op = AffineOperator(signed_zero_monotone(d, 4))
    z = np.ones(d)
    matrix_bytes = 8 * d * d
    tracemalloc.start()
    try:
        op.resolvent(0.05, z)
        tracemalloc.reset_peak()
        op.resolvent(0.1, z)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(op._lu_cache) == [0.1]
    assert held < 1.5 * matrix_bytes, held / matrix_bytes
    assert peak < 1.5 * matrix_bytes, peak / matrix_bytes


def test_lu_factor_checks():
    # the factor refuses what scipy.linalg.lu_factor refuses, and also the
    # exactly zero pivot that lu_factor only warns about
    with pytest.raises(ValueError, match="infs or NaNs"):
        _lu_factor(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="infs or NaNs"):
        _lu_factor(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="exactly zero"):
        _lu_factor(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="exactly zero"):
        _lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_missing_lapack_extension_names_the_path(monkeypatch, tmp_path):
    # scipy's directory comes from its import spec, not from importing it
    spec = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    looked_for = re.escape(str(tmp_path / "linalg" / "_flapack"))
    with pytest.raises(ImportError, match=looked_for):
        _load_flapack()
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ModuleNotFoundError, match="scipy"):
        _load_flapack()


def _affine_site(alpha):
    AffineOperator(ROT).resolvent(alpha, np.ones(2))


def _shifted_site(alpha):
    ShiftedIdentityPlus(AffineOperator(ROT), alpha, np.ones(2))


def _block_prox_site(alpha):
    box = BoxProx(np.zeros(3), np.ones(3))
    box.resolvent(alpha, np.ones(3))


def _zero_site(alpha):
    zero_map(3).resolvent(alpha, np.ones(3))


@pytest.mark.parametrize("alpha", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("site", [_affine_site, _shifted_site,
                                  _block_prox_site, _zero_site])
def test_step_size_must_be_positive_and_finite(site, alpha):
    # refused before any arithmetic: no numpy warning, no NaN result
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="positive and finite"):
            site(alpha)


def _identity(z):
    return z


@pytest.mark.parametrize("build, error", [
    (lambda: ScaledOperator(np.nan, AffineOperator(ROT)), ValueError),
    (lambda: ScaledOperator(np.inf, zero_map(2)), ValueError),
    (lambda: ScaledOperator(-np.inf, zero_map(2)), ValueError),
    (lambda: CallableOperator(_identity, 2, np.nan), InfeasibleConstants),
    (lambda: CallableOperator(_identity, 2, np.inf), InfeasibleConstants),
    (lambda: CallableOperator(_identity, 2, 1.0, mu=np.nan),
     InfeasibleConstants),
    (lambda: GradientOperator(_identity, 2, np.nan), InfeasibleConstants),
    (lambda: GradientOperator(_identity, 2, np.inf, mu=np.inf),
     InfeasibleConstants),
    (lambda: AffineOperator(ROT, lipschitz=np.nan), InfeasibleConstants),
    (lambda: AffineOperator(ROT, lipschitz=np.inf), InfeasibleConstants),
    (lambda: AffineOperator(ROT, mu=np.nan), InfeasibleConstants),
    (lambda: AffineOperator(ROT, mu=-0.5), InfeasibleConstants),
], ids=["scaled-nan", "scaled-inf-zero", "scaled-minus-inf", "callable-L-nan",
        "callable-L-inf", "callable-mu-nan", "gradient-L-nan",
        "gradient-inf", "affine-L-nan", "affine-L-inf", "affine-mu-nan",
        "affine-mu-negative"])
def test_constants_must_be_finite(build, error):
    # refused at construction, so no operator carries a NaN or infinite L
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="finite"):
            build()


@pytest.mark.parametrize("build", [
    lambda: CallableOperator(_identity, 2, 1.0, mu=2.0),
    lambda: AffineOperator(np.eye(2), lipschitz=1.0, mu=2.0),
], ids=["callable", "affine"])
def test_declared_mu_above_lipschitz_refused(build):
    # one check of the declared constants, before any spectrum is computed
    with pytest.raises(InfeasibleConstants, match="exceeds L"):
        build()


@pytest.mark.parametrize("cls", [CallableOperator, GradientOperator])
@pytest.mark.parametrize("dim", [0, -3])
def test_callable_dimension_must_be_positive(cls, dim):
    with pytest.raises(DimensionMismatch):
        cls(_identity, dim, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_affine_resolvent_rejects_non_finite_input(bad):
    op = AffineOperator(ROT, [0.5, -0.5])
    z = np.array([1.0, bad])
    with pytest.raises(ValueError):
        op.resolvent(0.5, z)
    # a finite input whose squared norm overflows is still solved
    big = np.array([1e200, -1e200])
    got = op.resolvent(0.5, big)
    assert np.array_equal(got, lu_solve(lu_factor(np.eye(2) + 0.5 * ROT),
                                        big - 0.5 * op.offset))


def test_vector_norm_matches_numpy_bitwise():
    rng = np.random.default_rng(4)
    for d in (1, 2, 10, 300, 1000):
        for scale in (1e-200, 1e-3, 1.0, 1e150):
            v = scale * rng.standard_normal(d)
            assert vector_norm(v) == np.linalg.norm(v)


def test_affine_resolvent_hand_examples():
    op = AffineOperator(ROT)
    u = op.resolvent(1.0, np.array([1.0, 0.0]))
    assert np.allclose(u, [0.5, 0.5], atol=1e-14)
    one_d = AffineOperator([[1.0]])
    assert np.allclose(one_d.resolvent(1.0, np.array([1.0])), [0.5])


def test_iterative_resolvent_agrees_with_exact():
    m = np.array([[2.0, 1.0], [-1.0, 0.5]])
    exact = AffineOperator(m)
    approx = CallableOperator(lambda z: m @ z, 2, lipschitz=exact.lipschitz,
                              mu=exact.mu)
    rng = np.random.default_rng(3)
    for _ in range(5):
        z = rng.standard_normal(2)
        a = exact.resolvent(0.7, z)
        b = approx.resolvent(0.7, z)
        assert np.linalg.norm(a - b) < 1e-11


def _resolvent_by_solver(op, alpha, z):
    """The iterative resolvent written out: the inner map, its constants and
    the budget max(20, ceil(10 (1 + alpha L) log(1e12)))."""
    budget = max(20, math.ceil(10.0 * (1.0 + alpha * op.lipschitz)
                               * math.log(1e12)))
    return solve_strongly_monotone(
        lambda w: w + alpha * op(w) - z, mu=1.0 + alpha * op.mu,
        lipschitz=1.0 + alpha * op.lipschitz, z0=z, tol=1e-12,
        max_iterations=budget)[0]


def test_iterative_resolvents_match_the_solver_bitwise():
    m = np.array([[2.0, 1.0], [-1.0, 0.5]])
    exact = AffineOperator(m)
    merely = CallableOperator(lambda z: ROT @ z, 2, lipschitz=1.0)
    strongly = CallableOperator(lambda z: m @ z, 2, lipschitz=exact.lipschitz,
                                mu=exact.mu)
    assert strongly.mu > 0
    # the sum of a rotation and the strongly monotone part, with the sums of
    # their constants
    rot = AffineOperator(ROT)
    total = CallableOperator(lambda z: rot(z) + strongly(z), 2,
                             lipschitz=rot.lipschitz + strongly.lipschitz,
                             mu=rot.mu + strongly.mu)
    ops = [merely, strongly, total]
    rng = np.random.default_rng(8)
    for op in ops:
        for alpha in (0.3, 0.7):
            z = rng.standard_normal(2)
            assert np.array_equal(op.resolvent(alpha, z),
                                  _resolvent_by_solver(op, alpha, z))


def test_iterative_resolvent_rejects_nan_at_once():
    calls = []

    def fn(z):
        calls.append(z)
        return z

    op = CallableOperator(fn, 2, lipschitz=1.0)
    with pytest.raises(ValueError):
        op.resolvent(0.5, np.array([np.nan, 1.0]))
    assert calls == []


def test_strongly_monotone_solver_budget():
    fn = lambda z: 4.0 * z - np.array([1.0])
    z, evals = solve_strongly_monotone(fn, mu=4.0, lipschitz=4.0,
                                       z0=np.array([10.0]), tol=1e-12,
                                       max_iterations=300)
    assert abs(z[0] - 0.25) < 1e-12 and evals > 0
    with pytest.raises(InnerLoopBudgetExceeded):
        solve_strongly_monotone(fn, mu=4.0, lipschitz=4.0,
                                z0=np.array([10.0]), tol=1e-12,
                                max_iterations=1)


def test_domain_violation():
    op = CallableOperator(lambda z: z, 2, lipschitz=1.0,
                          domain=lambda z: z[1] > 0)
    op(np.array([0.0, 1.0]))
    with pytest.raises(DomainViolation):
        op(np.array([0.0, -1.0]))


def test_shifted_identity_metadata():
    base = AffineOperator(np.eye(3) * 2.0)
    sh = ShiftedIdentityPlus(base, 0.5, np.zeros(3))
    assert sh.mu == 1.0 + 0.5 * 2.0
    assert sh.lipschitz == 1.0 + 0.5 * 2.0
    z = np.array([1.0, 0.0, -1.0])
    assert np.allclose(sh(z), z + 0.5 * base(z))
    # the inner map only: it has no resolvent of its own
    assert sh.resolvent_kind is None
    with pytest.raises(NoResolventCapability):
        sh.resolvent(0.5, z)


def test_scaled_operator():
    base = AffineOperator(np.eye(2))
    z = np.array([2.0, -4.0])
    assert np.allclose(ScaledOperator(0.5, base)(z), 0.5 * z)
    # resolvent of the scaled operator delegates to the base at c * alpha
    assert np.allclose(ScaledOperator(0.5, base).resolvent(1.0, z),
                       base.resolvent(0.5, z))


# ---------------------------------------------------------------------------
# proximal maps


def test_box_prox_clamp():
    spec = BoxProx([0.0, 0.0], [1.0, 1.0])
    assert np.allclose(spec.resolvent(0.3, np.array([2.0, -0.5])),
                       [1.0, 0.0])
    with pytest.raises(ValueError):
        BoxProx([1.0], [0.0])


def test_box_prox_bits_match_np_clip():
    # the bare clip ufunc gives np.clip's bits: signed zeros, values at the
    # bounds, NaN, infinities, and a box with a -0.0 lower bound
    lower = np.array([0.0, -0.0, -1.0, -0.0, 0.0, -2.5])
    upper = np.array([1.0, 0.0, -1.0, -0.0, 0.0, 3.0])
    spec = BoxProx(lower, upper)
    for value in (0.0, -0.0, 1.0, -1.0, -2.5, 3.0, 0.5, np.nan, np.inf,
                  -np.inf):
        x = np.full(6, value)
        expected = np.clip(x, lower, upper)
        assert spec.resolvent(0.3, x).tobytes() == expected.tobytes()
    x = np.array([-0.0, 0.0, -1.0, 0.0, -0.0, np.nan])
    assert (spec.resolvent(0.3, x).tobytes()
            == np.clip(x, lower, upper).tobytes())


def test_half_infinite_box():
    # an orthant and a half-line: infinite bounds are accepted, and the
    # clamp keeps np.clip's bits
    lower = np.array([0.0, -np.inf, -1.0])
    upper = np.array([np.inf, 2.0, np.inf])
    spec = BoxProx(lower, upper)
    x = np.array([-3.0, 5.0, -0.0])
    for value in (x, -x, np.full(3, np.inf), np.full(3, -np.inf),
                  np.full(3, np.nan), np.full(3, -0.0)):
        assert spec.resolvent(0.3, value).tobytes() == np.clip(
            value, lower, upper).tobytes()
    assert np.array_equal(spec.resolvent(1.0, x), [0.0, 2.0, -0.0])
    assert BoxProx([-np.inf], [np.inf]).resolvent(1.0, x[:1]) == x[:1]
    # still refused: NaN bounds, lower > upper, and bounds that empty a
    # coordinate
    for lo, hi in (([np.nan], [1.0]), ([0.0], [np.nan]), ([1.0], [0.0]),
                   ([np.inf], [np.inf]), ([-np.inf], [-np.inf]),
                   ([0.0, np.inf], [1.0, np.inf])):
        with pytest.raises(ValueError):
            BoxProx(lo, hi)


def test_zero_prox_identity():
    # the box over all of R^d is the indicator of the whole space, the zero
    # function: its prox returns every input bit for bit; the zero map's
    # resolvent returns the same values (a zero may lose its sign) and, as
    # every affine resolvent, refuses non-finite input
    whole = BoxProx(np.full(6, -np.inf), np.full(6, np.inf))
    x = np.array([0.3, -0.7, -0.0, np.nan, np.inf, -np.inf])
    finite = np.array([0.3, -0.7, -0.0, 1e-300, 1e150, 0.0])
    for alpha in (0.3, 2.0):
        assert whole.resolvent(alpha, x).tobytes() == x.tobytes()
        assert np.array_equal(zero_map(6).resolvent(alpha, finite), finite)
        with pytest.raises(ValueError):
            zero_map(6).resolvent(alpha, x)


def test_block_prox_operator():
    # a box per block, stacked, is one box: its resolvent clamps each block
    op = BoxProx([0.0, -1.0, 0.0], [1.0, 2.5, 1.0])
    assert op.dim == 3 and op.resolvent_kind == "prox"
    assert op.lipschitz == math.inf and op.mu == 0.0
    z = np.array([2.0, 3.0, -0.5])
    out = op.resolvent(0.5, z)
    assert np.allclose(out, [1.0, 2.5, 0.0])
    with pytest.raises(NoForwardEvaluation):
        op(z)


def test_stacked_box_clamps_each_block_bitwise():
    # one clip over the stacked bounds gives the bits of clipping each
    # block's slice with that block's bounds into a preallocated vector
    blocks = [(np.array([0.0, -0.0]), np.array([1.0, 0.0])),
              (np.array([-np.inf, -1.0, -0.0]), np.array([2.0, np.inf, -0.0])),
              (np.array([-np.inf]), np.array([np.inf]))]
    box = BoxProx(np.concatenate([lo for lo, _ in blocks]),
                  np.concatenate([hi for _, hi in blocks]))
    x = np.array([-0.0, 0.0, np.nan, -3.0, 0.0, -np.inf])
    for z in (x, -x, np.full(6, np.nan), np.full(6, np.inf),
              np.full(6, -np.inf), np.full(6, -0.0), np.full(6, 0.0)):
        per_block = np.empty(6)
        at = 0
        for lo, hi in blocks:
            per_block[at:at + lo.size] = np.clip(z[at:at + lo.size], lo, hi)
            at += lo.size
        for alpha in (0.3, 2.0):
            assert box.resolvent(alpha, z).tobytes() == per_block.tobytes()


def test_box_prox_copies_its_bounds():
    lower, upper = np.zeros(2), np.ones(2)
    box = BoxProx(lower, upper)
    assert lower.flags.writeable and upper.flags.writeable
    lower[:] = 5.0
    upper[:] = 9.0
    assert np.array_equal(box.lower, [0.0, 0.0])
    assert np.array_equal(box.upper, [1.0, 1.0])
    assert np.array_equal(box.resolvent(1.0, np.full(2, 3.0)), [1.0, 1.0])


# ---------------------------------------------------------------------------
# derived maps


def test_forward_backward_residual_collapses():
    b = AffineOperator(ROT, np.array([0.5, 0.0]))
    z = np.array([0.2, -0.4])
    # A = 0 makes the backward step the identity
    g = forward_backward_residual(zero_map(2), b, 0.7, z)
    assert np.allclose(g, b(z), atol=1e-14)
    # B = 0 and z inside the box: fixed point of the projection
    box = BoxProx([0.0, -1.0], [1.0, 1.0])
    g = forward_backward_residual(box, zero_map(2), 0.7,
                                  np.array([0.5, 0.0]))
    assert np.allclose(g, 0.0)


def test_forward_backward_residual_hand_value():
    # 1-d: box [0,1], B = identity, alpha = 0.5, z = 0.4 -> G = 0.4
    box = BoxProx([0.0], [1.0])
    g = forward_backward_residual(box, AffineOperator([[1.0]]), 0.5,
                                  np.array([0.4]))
    assert np.allclose(g, [0.4])


def test_drs_map_collapses_and_hand_value():
    ident = AffineOperator([[1.0]])
    zero = zero_map(1)
    u = np.array([1.0])
    # A = 0: map reduces to J_B
    assert np.allclose(drs_map(zero, ident, 1.0, u),
                       ident.resolvent(1.0, u))
    # B = 0: map reduces to J_A
    assert np.allclose(drs_map(ident, zero, 1.0, u),
                       ident.resolvent(1.0, u))
    # A = B = identity, alpha = 1, u = 1 -> 0.5
    assert np.allclose(drs_map(ident, ident, 1.0, u), [0.5])

