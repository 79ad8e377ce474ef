import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import anchorkit
from anchorkit import problems, suites
from anchorkit.errors import (
    AnchorkitError,
    DimensionMismatch,
    DomainViolation,
    InfeasibleConstants,
    SingularSystem,
)
from anchorkit.operators import BoxProx, forward_backward_residual
from anchorkit.problems import (
    Problem,
    build_problem,
    make_bilinear,
    make_box_bilinear_composite,
    make_composite,
    make_figure1,
    make_random_monotone_affine,
    make_random_scsc,
)
from anchorkit.operators import AffineOperator


def test_bilinear_scalar_coupling():
    prob = make_bilinear([[1.0]])
    z = np.array([2.0, 3.0])  # (x, y)
    assert np.allclose(prob.operator(z), [3.0, -2.0])
    assert np.allclose(prob.solution, [0.0, 0.0])
    assert prob.lipschitz == 1.0 and prob.mu == 0.0


def test_bilinear_shifted_solution():
    # oracle: B(z) = (y + 1, -x) vanishes at x = 0, y = -1
    prob = make_bilinear([[1.0]], x_shift=[1.0], y_shift=[0.0])
    assert np.allclose(prob.solution, [0.0, -1.0])
    assert np.allclose(prob.operator(prob.solution), 0.0, atol=1e-12)


def test_bilinear_zero_coupling_origin_convention():
    prob = make_bilinear([[0.0]])
    assert np.allclose(prob.solution, [0.0, 0.0])
    assert prob.lipschitz == 0.0


def test_bilinear_singular_raises():
    with pytest.raises(SingularSystem):
        make_bilinear(np.diag([1.0, 0.0]), [0.2, 0.0], [0.0, 0.0])
    prob = make_bilinear(np.diag([1.0, 0.0]), [0.2, 0.0], [0.0, 0.0],
                         want_solution=False)
    assert prob.solution is None


def test_bilinear_coupling_must_be_a_matrix():
    for coupling in (np.zeros((2, 2, 2)), [[[1.0]]]):
        with pytest.raises(DimensionMismatch, match="must be a matrix"):
            make_bilinear(coupling)


def test_bilinear_saddle_value_consistent():
    a = np.array([[1.0, -0.5], [0.3, 0.2]])
    b, c = np.array([0.1, 0.0]), np.array([0.0, -0.2])
    prob = make_bilinear(a, b, c)

    def value(z):  # L(x, y) = x'Ay + b'x - c'y
        x, y = z[:2], z[2:]
        return x @ (a @ y) + b @ x - c @ y

    # finite differences of the scalar saddle reproduce the operator
    rng = np.random.default_rng(0)
    for z in rng.standard_normal((20, 4)):
        step = 1e-6
        fd = np.empty(4)
        for i in range(4):
            e = np.zeros(4)
            e[i] = step
            fd[i] = (value(z + e) - value(z - e)) / (2 * step)
        fd[2:] = -fd[2:]
        assert np.linalg.norm(prob.operator(z) - fd) < 1e-6


def test_random_monotone_affine_exactness():
    prob = make_random_monotone_affine(4, 10, 10.0)
    m = prob.operator.matrix
    assert np.max(np.abs(m + m.T)) == 0.0  # skew, so mu = 0 exactly
    assert abs(np.linalg.norm(m, 2) - 10.0) < 1e-9
    assert np.allclose(prob.operator(prob.solution), 0.0)
    again = make_random_monotone_affine(4, 10, 10.0)
    assert np.array_equal(m, again.operator.matrix)
    with pytest.raises(DimensionMismatch):
        make_random_monotone_affine(0, 5, 1.0)  # odd dimension


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_random_monotone_affine_refuses_lipschitz_before_arithmetic(bad):
    # L = inf once computed inf * K (a RuntimeWarning) and L = NaN built a
    # NaN matrix; every warning is an error here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InfeasibleConstants):
            make_random_monotone_affine(0, 4, bad)


@pytest.mark.parametrize("seed, d, lipschitz", [
    (0, 2, 1e-3), (1, 10, 1.0), (4, 10, 10.0), (2, 100, 8e3), (3, 100, 1e5),
    (0, 1000, 10.0)])
def test_random_monotone_affine_certificate(seed, d, lipschitz):
    # the certificate replaces norm(M, 2) only where it holds, and M has the
    # bits of the generator's scaled K
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((d, d))
    k = k - k.T
    m = make_random_monotone_affine(seed, d, lipschitz).operator.matrix
    assert m.tobytes() == ((lipschitz / np.linalg.svd(k, compute_uv=False)
                            .max()) * k).tobytes()
    assert np.linalg.norm(m, 2) <= lipschitz + 1e-9


@pytest.mark.parametrize("lipschitz", [1e7, 1e8, 1e10])
@pytest.mark.parametrize("d", [4, 10, 100])
def test_random_monotone_affine_builds_at_large_lipschitz(d, lipschitz):
    # fl(c K) can exceed a large L by ulps that the absolute slack does not
    # cover; the build then rescales K by c' = fl(c fl(1 - 2 e)), whose
    # proven bound is below L, and every other build keeps fl(c K)
    u = 2.0 ** -53
    excess = (3.0 + math.sqrt(d) + d) * u / (1.0 - d * u)
    rebuilt = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        k = rng.standard_normal((d, d))
        k = k - k.T
        c = lipschitz / np.linalg.svd(k, compute_uv=False).max()
        first = c * k
        m = make_random_monotone_affine(seed, d, lipschitz).operator.matrix
        if np.linalg.norm(first, 2) <= lipschitz + 1e-9:
            assert m.tobytes() == first.tobytes()
        else:
            assert m.tobytes() == ((c * (1.0 - 2.0 * excess)) * k).tobytes()
            rebuilt += 1
        assert not (m + m.T).any()
        AffineOperator(m, lipschitz=lipschitz)  # the public check holds
    assert rebuilt > 0


def test_random_monotone_affine_spectral_calls(monkeypatch):
    # at d = 1000 and L = 10 the build makes one SVD and neither norm(M, 2)
    # nor an eigensolve; at L = 1e308 the certificate cannot decide and
    # norm(M, 2) verifies L
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for name in ("svd", "norm", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name,
                            counted(name, getattr(np.linalg, name)))
    make_random_monotone_affine(0, 1000, 10.0)
    assert calls == ["svd"]
    calls.clear()
    make_random_monotone_affine(0, 4, 1e308)
    assert calls == ["svd", "norm"]


def test_random_monotone_affine_peaks_at_two_matrices():
    # K and M = fl(c K) are alive together; the skew test of M forms its
    # symmetric part a block of rows at a time, never the whole d x d array
    make_random_monotone_affine(0, 4, 10.0)
    d = 400
    tracemalloc.start()
    try:
        make_random_monotone_affine(0, d, 10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * d * d, peak / (8 * d * d)


def test_random_scsc_eigensolve_oracle():
    z_star = np.zeros(4)
    z_star[0] = 1.0
    prob = make_random_scsc(42, 4, 10.0, 1.0, z_star=z_star)
    m = prob.operator.matrix
    sym = 0.5 * (m + m.T)
    assert abs(np.linalg.eigvalsh(sym).min() - 1.0) < 1e-9
    assert abs(np.linalg.norm(m, 2) - 10.0) < 1e-9
    assert np.linalg.norm(prob.operator(z_star)) == 0.0  # b = -M z*, exact
    again = make_random_scsc(42, 4, 10.0, 1.0, z_star=z_star)
    assert np.array_equal(m, again.operator.matrix)


def test_random_scsc_preconditions():
    with pytest.raises(InfeasibleConstants):
        make_random_scsc(0, 1, 2.0, 1.0)  # scalar case forces mu == L
    scalar = make_random_scsc(0, 1, 1.0, 1.0)
    assert np.allclose(scalar.operator.matrix, [[1.0]])


def test_scsc_scale_meets_both_constants():
    # Newton's scale lands within the post-check's slack of both targets
    ratios = (1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9, 0.999)
    for seed, d, ratio in itertools.product(range(40), (2, 3, 5, 10, 20, 50),
                                            ratios):
        m = make_random_scsc(seed, d, 10.0, 10.0 * ratio).operator.matrix
        sym_min = np.linalg.eigvalsh(0.5 * (m + m.T)).min()
        assert abs(sym_min - 10.0 * ratio) <= 1e-9, (seed, d, ratio)
        assert abs(np.linalg.norm(m, 2) - 10.0) <= 1e-9, (seed, d, ratio)


@pytest.mark.parametrize("lipschitz, mu", [
    (1.0, math.nan), (math.nan, 0.5), (math.inf, 0.5), (math.inf, math.inf),
    (1.0, -math.inf), (1.0, 0.0), (1.0, -0.5), (1.0, 1.5),
], ids=["mu-nan", "L-nan", "L-inf", "both-inf", "mu-minus-inf", "mu-zero",
        "mu-negative", "mu-above-L"])
def test_random_scsc_refuses_constants_outside_the_range(lipschitz, mu):
    with pytest.raises(InfeasibleConstants, match="0 < mu <= L < inf"):
        make_random_scsc(0, 4, lipschitz, mu)


def test_scsc_scale_search_fails_closed(monkeypatch):
    # H + K is zero only at d = 1, which make_random_scsc refuses first
    with pytest.raises(InfeasibleConstants, match="zero"):
        problems._scsc_matrix(np.random.default_rng(0), 1, 2.0, 1.0)
    # a singular value that is never finite exhausts the step budget
    monkeypatch.setattr(np.linalg, "svd", lambda m: (
        np.eye(len(m)), np.full(len(m), math.nan), np.eye(len(m))))
    with pytest.raises(InfeasibleConstants, match="did not converge"):
        make_random_scsc(0, 4, 10.0, 1.0)


def test_package_imports_neither_scipy_optimize_nor_scipy_linalg():
    # a fresh interpreter, so modules that other tests load do not count;
    # the LAPACK extension is found through scipy's import spec, so not even
    # the scipy package itself is imported
    code = ("import sys, anchorkit, anchorkit.cli; "
            "print('scipy.optimize' in sys.modules, "
            "'scipy.linalg' in sys.modules, 'scipy' in sys.modules)")
    src = str(Path(problems.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False False False"


def test_figure1_values_and_gradient():
    prob = make_figure1()
    op = prob.operator
    z = np.array([-2.0, 3.0])
    assert np.allclose(op(z), [-16.0 / 3.0, -16.0 / 9.0])
    assert np.allclose(op(np.array([0.0, 2.5])), [0.0, 0.0])
    assert np.array_equal(prob.start, [-2.0, 3.0])
    assert problems.FIGURE1_AGM_STEP == 0.025
    assert problems.FIGURE1_ANCHORED_STEP == 0.1
    with pytest.raises(DomainViolation):
        op(np.array([1.0, -0.1]))


def test_figure1_gradient_matches_finite_differences():
    op = make_figure1().operator

    def value(z):  # f(x1, x2) = 4 x1^2 / x2
        return 4.0 * z[0] ** 2 / z[1]

    rng = np.random.default_rng(5)
    for _ in range(100):
        z = np.array([rng.uniform(-3, 3), rng.uniform(0.5, 5.0)])
        step = 1e-6
        fd = np.array([
            (value(z + [step, 0]) - value(z - [step, 0])) / (2 * step),
            (value(z + [0, step]) - value(z - [0, step])) / (2 * step),
        ])
        g = op(z)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


def test_composite_zero_prox_reduces_to_smooth():
    # the box over the whole plane is the zero function's indicator
    smooth = make_bilinear([[1.0]])
    whole = BoxProx([-np.inf] * 2, [np.inf] * 2)
    comp = make_composite(whole, smooth)
    z = np.array([0.3, -0.8])
    assert np.array_equal(comp.prox_part.resolvent(0.5, z), z)
    assert comp.is_composite and comp.lipschitz == smooth.lipschitz


def test_composite_box_solution_kkt():
    # box contains the unconstrained saddle (0, 0): residual vanishes there
    smooth = make_bilinear([[1.0]])
    comp = make_composite(BoxProx([-1.0, -1.0], [1.0, 1.0]), smooth)
    g = forward_backward_residual(comp.prox_part, comp.operator, 0.5,
                                  np.zeros(2))
    assert np.linalg.norm(g) <= 1e-9


def test_composite_box_active_bound_solution():
    # x in [0, 1], y free, smooth part (x - 2, y - 0.7): the zero sits at
    # the upper bound x = 1, where -(x - 2) = 1 lies in the normal cone
    # [0, inf), and at y = 0.7
    target = np.array([2.0, 0.7])
    smooth = Problem(name="shifted-identity",
                     operator=AffineOperator(np.eye(2), -target))
    comp = make_composite(BoxProx([0.0, -np.inf], [1.0, np.inf]), smooth)
    g = forward_backward_residual(comp.prox_part, comp.operator, 0.4,
                                  np.array([1.0, 0.7]))
    assert np.linalg.norm(g) <= 1e-9
    g = forward_backward_residual(comp.prox_part, comp.operator, 0.4,
                                  np.array([0.9, 0.7]))
    assert np.linalg.norm(g) > 1e-2
    # the box must have the smooth dimension
    for width in (1, 3, 4):
        box = BoxProx(np.zeros(width), np.ones(width))
        with pytest.raises(DimensionMismatch, match="smooth dimension"):
            make_composite(box, smooth)


def test_box_bilinear_composite_deterministic():
    a = make_box_bilinear_composite(seed=5)
    b = make_box_bilinear_composite(seed=5)
    assert np.array_equal(a.operator.matrix, b.operator.matrix)
    assert np.array_equal(a.operator.offset, b.operator.offset)
    assert a.is_composite


def test_box_bilinear_composite_on_orthant():
    comp = make_box_bilinear_composite(seed=5, box_upper=np.inf)
    bounded = make_box_bilinear_composite(seed=5)
    assert np.array_equal(comp.operator.matrix, bounded.operator.matrix)
    got = comp.prox_part.resolvent(0.5, np.array([-1.0, 3.0, 1e300, 0.5]))
    assert np.array_equal(got, [0.0, 3.0, 1e300, 0.5])


def test_exports_resolve():
    # every exported name is defined, and none is listed twice
    for name in anchorkit.__all__:
        getattr(anchorkit, name)
    assert len(set(anchorkit.__all__)) == len(anchorkit.__all__)


def test_build_problem_registry():
    prob = build_problem("bilinear", {"coupling": [[1.0]]})
    assert prob.dim == 2
    for name in ("nope", ["bilinear"]):
        with pytest.raises(AnchorkitError) as info:
            build_problem(name, {})
        assert info.value.code == "UNKNOWN_PROBLEM"
        assert str(info.value) == f"unknown problem {name!r}"


def test_run_suite_registry():
    with pytest.raises(AnchorkitError) as info:
        suites.run_suite("nope")
    assert info.value.code == "UNKNOWN_SUITE"
    assert str(info.value) == (f"no suite named 'nope'; known: "
                               f"{sorted(suites.SUITES)}")
