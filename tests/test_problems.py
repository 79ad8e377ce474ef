import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import anchorkit
from anchorkit import problems, suites
from anchorkit.errors import (
    DimensionMismatch,
    DomainViolation,
    InfeasibleConstants,
    SingularSystem,
)
from anchorkit.operators import BoxProx, forward_backward_residual
from anchorkit.problems import (
    Problem,
    _brent_root,
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
        make_random_scsc(0, 2, 1.0, 0.0)  # generator requires mu > 0
    with pytest.raises(InfeasibleConstants):
        make_random_scsc(0, 2, 1.0, 2.0)
    with pytest.raises(InfeasibleConstants):
        make_random_scsc(0, 1, 2.0, 1.0)  # scalar case forces mu == L
    scalar = make_random_scsc(0, 1, 1.0, 1.0)
    assert np.allclose(scalar.operator.matrix, [[1.0]])


def _scsc_roots(monkeypatch, build):
    """(gap, arguments) of every root search that ``build()`` makes."""
    calls = []

    def spy(f, a, b, xtol, rtol):
        calls.append((f, a, b, xtol, rtol))
        return _brent_root(f, a, b, xtol, rtol)

    with monkeypatch.context() as patch:
        patch.setattr(problems, "_brent_root", spy)
        build()
    return calls


def test_brent_root_matches_scipy_brentq_bitwise(monkeypatch):
    ratios = (1e-4, 1e-3, 1e-2, 0.1, 0.5)
    cases = 0
    for seed, d, ratio in itertools.product(range(12), (2, 3, 10, 20), ratios):
        calls = _scsc_roots(
            monkeypatch, lambda: make_random_scsc(seed, d, 10.0, 10.0 * ratio))
        for f, a, b, xtol, rtol in calls:
            got = _brent_root(f, a, b, xtol, rtol)
            want = brentq(f, a, b, xtol=xtol, rtol=rtol)
            assert got.hex() == want.hex(), (seed, d, ratio)
            cases += 1
    assert cases == 12 * 4 * len(ratios)


def _generic_root_cases(count):
    """Seeded cubics, exponentials and steep tanh steps on random brackets,
    with random tolerances and budgets. Together they take the
    interpolation, extrapolation, bisection and minimal steps of Brent's
    method and run out of budget; the SCSC norm gaps rarely extrapolate."""
    rng = np.random.default_rng(0)
    for i in range(count):
        c = rng.standard_normal(4).tolist()
        f = (lambda x, c=c: c[0] + c[1] * x + c[2] * x ** 2 + c[3] * x ** 3,
             lambda x, c=c: math.exp(c[0] * x) - 1.5 - c[1],
             lambda x, c=c: math.tanh(3 * c[0] * (x - c[1])) + 0.01 * c[2],
             )[i % 3]
        a, b = sorted(rng.uniform(-3.0, 3.0, 2).tolist())
        xtol = 10.0 ** rng.uniform(-15.0, -2.0)
        rtol = 8.9e-16 * 10.0 ** rng.uniform(0.0, 6.0)
        yield f, a, b, xtol, rtol, int(rng.integers(1, 60))


def test_brent_root_matches_scipy_brentq_on_generic_functions():
    roots = 0
    for f, a, b, xtol, rtol, maxiter in _generic_root_cases(3000):
        try:
            want = brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
        except (ValueError, RuntimeError):
            with pytest.raises(InfeasibleConstants):
                _brent_root(f, a, b, xtol, rtol, maxiter)
            continue
        assert _brent_root(f, a, b, xtol, rtol, maxiter).hex() == want.hex()
        roots += 1
    assert roots > 500


def test_suite_scsc_problems_reach_brentq_scale(monkeypatch):
    calls = _scsc_roots(monkeypatch, suites._scsc_set)
    assert len(calls) == 20
    for f, a, b, xtol, rtol in calls:
        want = brentq(f, a, b, xtol=xtol, rtol=rtol)
        assert _brent_root(f, a, b, xtol, rtol).hex() == want.hex()


@pytest.mark.parametrize("f, maxiter", [
    (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 100),  # NaN inside
    (lambda x: x + 1.0, 100),                                 # no sign change
    (lambda x: x ** 3 - 0.3, 1),                              # no convergence
], ids=["nan", "same-sign", "maxiter"])
def test_brent_root_fails_closed(f, maxiter):
    with pytest.raises(InfeasibleConstants):
        _brent_root(f, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16, maxiter=maxiter)


def test_package_imports_neither_scipy_optimize_nor_scipy_linalg():
    # a fresh interpreter, so modules that other tests load do not count
    code = ("import sys, anchorkit, anchorkit.cli; "
            "print('scipy.optimize' in sys.modules, "
            "'scipy.linalg' in sys.modules)")
    src = str(Path(problems.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False False"


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
    # the box over the whole line is the zero function's indicator
    smooth = make_bilinear([[1.0]])
    whole = BoxProx([-np.inf], [np.inf])
    comp = make_composite(whole, whole, smooth)
    z = np.array([0.3, -0.8])
    assert np.array_equal(comp.prox_part.resolvent(0.5, z), z)
    assert comp.is_composite and comp.lipschitz == smooth.lipschitz


def test_composite_box_solution_kkt():
    # box contains the unconstrained saddle (0, 0): residual vanishes there
    smooth = make_bilinear([[1.0]])
    comp = make_composite(BoxProx([-1.0], [1.0]), BoxProx([-1.0], [1.0]),
                          smooth)
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
    comp = make_composite(BoxProx([0.0], [1.0]), BoxProx([-np.inf], [np.inf]),
                          smooth)
    g = forward_backward_residual(comp.prox_part, comp.operator, 0.4,
                                  np.array([1.0, 0.7]))
    assert np.linalg.norm(g) <= 1e-9
    g = forward_backward_residual(comp.prox_part, comp.operator, 0.4,
                                  np.array([0.9, 0.7]))
    assert np.linalg.norm(g) > 1e-2
    # the blocks are the boxes' own widths, which must add up to the
    # smooth dimension
    for widths in ((1, 2), (2, 1), (2, 2)):
        boxes = [BoxProx(np.zeros(w), np.ones(w)) for w in widths]
        with pytest.raises(DimensionMismatch, match="smooth dimension"):
            make_composite(*boxes, smooth)


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
    with pytest.raises(KeyError):
        build_problem("nope", {})
