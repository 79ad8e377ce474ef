import numpy as np
import pytest

from anchorkit.errors import (
    DimensionMismatch,
    DomainViolation,
    InfeasibleConstants,
    SingularSystem,
)
from anchorkit.operators import BoxProx, L1Prox, ZeroProx, forward_backward_residual
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


def test_bilinear_saddle_value_consistent():
    prob = make_bilinear([[1.0, -0.5], [0.3, 0.2]], [0.1, 0.0], [0.0, -0.2])
    value = prob.notes["saddle_value"]
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


def test_figure1_values_and_gradient():
    prob = make_figure1()
    op = prob.operator
    z = np.array([-2.0, 3.0])
    assert abs(op.objective(z) - 16.0 / 3.0) < 1e-14
    assert np.allclose(op(z), [-16.0 / 3.0, -16.0 / 9.0])
    assert np.allclose(op(np.array([0.0, 2.5])), [0.0, 0.0])
    assert np.array_equal(prob.start, [-2.0, 3.0])
    assert prob.notes["agm_step"] == 0.025
    assert prob.notes["anchored_step"] == 0.1
    with pytest.raises(DomainViolation):
        op(np.array([1.0, -0.1]))


def test_figure1_gradient_matches_finite_differences():
    prob = make_figure1()
    op = prob.operator
    value = op.value
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
    smooth = make_bilinear([[1.0]])
    comp = make_composite(ZeroProx(), ZeroProx(), smooth)
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


def test_composite_soft_threshold_solution():
    # L1 on x, zero on y, smooth part (x - 2, y - 0.7):
    # bisection oracle for the stationarity of |x| + (x - 2)^2 / 2
    target = np.array([2.0, 0.7])
    smooth = Problem(name="shifted-identity",
                     operator=AffineOperator(np.eye(2), -target),
                     notes={"x_dim": 1, "y_dim": 1})
    comp = make_composite(L1Prox(1.0), ZeroProx(), smooth)

    def stat(x):  # subgradient selection for x > 0
        return 1.0 + x - 2.0

    lo, hi = 0.0, 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if stat(mid) > 0:
            hi = mid
        else:
            lo = mid
    x_star = 0.5 * (lo + hi)
    assert abs(x_star - 1.0) < 1e-12
    z_star = np.array([x_star, target[1]])
    g = forward_backward_residual(comp.prox_part, comp.operator, 0.4, z_star)
    assert np.linalg.norm(g) <= 1e-9


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


def test_build_problem_registry():
    prob = build_problem("bilinear", {"coupling": [[1.0]]})
    assert prob.dim == 2
    with pytest.raises(KeyError):
        build_problem("nope", {})
