import math
import tracemalloc

import numpy as np
import pytest

from anchorkit import algorithms
from anchorkit.algorithms import (
    ALGORITHMS,
    AlgorithmConfig,
    max_step_strongly_monotone,
    run,
)
from anchorkit.errors import ConfigError, StepSizeCollapse
from anchorkit.operators import (
    AffineOperator,
    BoxProx,
    as_vector,
    drs_map,
    forward_backward_residual,
    solve_strongly_monotone,
)
from anchorkit.problems import (
    Problem,
    make_bilinear,
    make_box_bilinear_composite,
    make_composite,
    make_figure1,
    make_random_monotone_affine,
    make_random_scsc,
)


def one_d_identity(name="identity-1d"):
    return Problem(name=name, operator=AffineOperator([[1.0]]),
                   solution=np.zeros(1))


def zero_problem(d=2):
    return Problem(name="zero", operator=AffineOperator(np.zeros((d, d))),
                   solution=np.zeros(d))


def cfg(name, alpha, iters, **kw):
    return AlgorithmConfig(algorithm=name, alpha=alpha, max_iterations=iters,
                           **kw)


def ohm_u_form(problem, alpha, iterations, z0):
    """Reference: OHM's single-sequence form
    u_{k+1} = u0/(k+2) + (k+1)/(k+2) T(u_k), equivalent to the half-step
    form under u_k = w_{k+1/2}."""
    z0 = as_vector(z0, problem.dim)
    u = z0
    us = [z0]
    for k in range(iterations):
        beta = 1.0 / (k + 2)
        u = beta * z0 + (1.0 - beta) * problem.operator.resolvent(alpha, u)
        us.append(u)
    return np.array(us)


# ---------------------------------------------------------------------------
# validation


def test_unknown_algorithm_rejected():
    with pytest.raises(ConfigError) as info:
        cfg("NOPE", 0.1, 10)
    assert info.value.code == "UNKNOWN_ALGORITHM"


@pytest.mark.parametrize("name,fields", [
    ("FEG", {"alpha": "0.1"}),
    ("FEG", {"alpha": True}),
    ("FEG", {"alpha": None}),
    ("FEG", {"alpha": 0.0}),
    ("FEG", {"alpha": 10 ** 400}),
    ("FEG", {"max_iterations": 2.5}),
    ("FEG", {"max_iterations": True}),
    ("FEG", {"max_iterations": 0}),
    ("FEG", {"stop_residual": math.nan}),
    ("FEG", {"stop_residual": -1.0}),
    ("OC_HALPERN", {"gamma": math.inf}),
    ("APS_V", {"theta": math.nan}),
    ("APS_V", {"theta": 0.0}),
    ("APS_V", {}),
    ("AGM", {"momentum_a": 2.0}),
    ("AGM", {"momentum_a": "3"}),
    ("FEG", {"record_iterates": "no"}),
    ("FEG", {"momentum_a": 5.0}),
    ("FEG", {"gamma": 1.5}),
    ("OHM", {"theta": 1.0}),
], ids=["alpha-string", "alpha-bool", "alpha-missing", "alpha-zero",
        "alpha-beyond-float", "iterations-fractional", "iterations-bool",
        "iterations-zero", "stop-residual-nan", "stop-residual-negative",
        "gamma-inf", "theta-nan", "theta-zero", "theta-missing",
        "momentum-two", "momentum-string", "record-iterates-string",
        "ignored-momentum", "ignored-gamma", "ignored-theta"])
def test_config_refuses_bad_fields(name, fields):
    with pytest.raises(ConfigError) as info:
        AlgorithmConfig(name, **{"alpha": 0.1, **fields})
    assert info.value.code == "CONFIG_ERROR"


def test_config_takes_numpy_numbers():
    config = AlgorithmConfig("FEG", alpha=np.float64(0.25),
                             max_iterations=np.int64(3))
    trace = run(config, zero_problem(), np.ones(2))
    assert trace.iterations == 3


def test_step_range_validation():
    prob = make_random_scsc(0, 4, 10.0, 1.0)
    with pytest.raises(ConfigError):
        run(cfg("FEG", 0.11, 10), prob, np.zeros(4))  # alpha L >= 1
    top = max_step_strongly_monotone(10.0, 1.0)
    with pytest.raises(ConfigError):
        run(cfg("SM_EAG_PLUS", top * 1.01, 10), prob, np.zeros(4))
    run(cfg("SM_EAG_PLUS", top, 10), prob, np.zeros(4))  # endpoint admissible
    with pytest.raises(ConfigError):
        run(cfg("APS_V", 0.01, 10), prob, np.zeros(4))  # theta required
    with pytest.raises(ConfigError):
        run(cfg("AGM", 0.01, 10), prob, np.zeros(4))  # not a gradient field
    with pytest.raises(ConfigError):
        run(cfg("AGM", 0.025, 10, momentum_a=2.0), make_figure1(),
            np.array([-2.0, 3.0]))
    with pytest.raises(ConfigError):
        run(cfg("OHM_DRS", 0.01, 10), prob, np.zeros(4))  # not composite
    comp = make_box_bilinear_composite(seed=1)
    with pytest.raises(ConfigError):
        run(cfg("FEG", 0.01, 10), comp, np.zeros(comp.dim))


def test_determinism_bitwise():
    prob = make_random_monotone_affine(2, 6, 5.0)
    z0 = np.arange(6, dtype=float)
    a = run(cfg("EAG", 0.02, 50), prob, z0)
    b = run(cfg("EAG", 0.02, 50), prob, z0)
    assert np.array_equal(a.main, b.main)
    assert np.array_equal(a.residual_norms, b.residual_norms)
    comp = make_box_bilinear_composite(seed=3)
    z0 = np.ones(comp.dim)
    ta = run(cfg("APG_STAR", 0.3 / comp.lipschitz, 30), comp, z0)
    tb = run(cfg("APG_STAR", 0.3 / comp.lipschitz, 30), comp, z0)
    assert np.array_equal(ta.main, tb.main)
    assert np.array_equal(ta.auxiliary["z"], tb.auxiliary["z"])


# ---------------------------------------------------------------------------
# classical steppers against hand recursions


def test_gda_one_step():
    t = run(cfg("GDA", 0.5, 1), one_d_identity(), np.array([1.0]))
    assert np.allclose(t.main, [[1.0], [0.5]])


def test_og_hand_recursion():
    t = run(cfg("OG", 0.5, 2), one_d_identity(), np.array([1.0]))
    # z1 = z0 - a B z0 (correction vanishes, z_{-1} = z0); z2 = 0.5 - 2*0.25 + 0.5
    assert np.allclose(t.main[:, 0], [1.0, 0.5, 0.5])


def test_eg_two_stage_oracle():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    prob = Problem(name="rot", operator=AffineOperator(m),
                   solution=np.zeros(2))
    z0 = np.array([1.0, 0.0])
    alpha = 0.1
    half = z0 - alpha * (m @ z0)
    z1 = z0 - alpha * (m @ half)
    t = run(cfg("EG", alpha, 1), prob, z0)
    assert np.allclose(t.main[1], z1, atol=1e-15)
    assert np.allclose(t.auxiliary["half"][0], half, atol=1e-15)


def test_agm_reference_recursion():
    # 1-d f(x) = x^2/2 with alpha = 1, a = 3; independent reference loop
    a, alpha = 3.0, 1.0
    t0 = (0 + a - 1) / a
    t1 = (1 + a - 1) / a
    assert abs((t0 - 1) / t1 - (-1.0 / 3.0)) < 1e-15

    from anchorkit.operators import GradientOperator
    quad = Problem(name="quad-1d",
                   operator=GradientOperator(lambda z: z.copy(), 1, 1.0),
                   solution=np.zeros(1))
    x = y = np.array([1.0])
    ref_x = [x]
    for k in range(3):
        t_k = (k + a - 1) / a
        t_next = (k + a) / a
        x_new = y - alpha * y
        y = x_new + ((t_k - 1) / t_next) * (x_new - x)
        x = x_new
        ref_x.append(x)
    t = run(cfg("AGM", alpha, 3), quad, np.array([1.0]))
    assert np.allclose(t.main, np.array(ref_x))
    assert abs(t.main[1, 0]) < 1e-15  # x1 = 0
    assert abs(t.auxiliary["extrapolated"][1, 0] - 1.0 / 3.0) < 1e-15


def test_agm_zero_gradient_frozen():
    from anchorkit.operators import GradientOperator
    flat = Problem(name="flat",
                   operator=GradientOperator(lambda z: np.zeros(2), 2, 0.0))
    t = run(cfg("AGM", 0.1, 20, momentum_a=5.0), flat, np.array([1.0, 2.0]))
    assert np.array_equal(t.main, np.tile([1.0, 2.0], (21, 1)))


# ---------------------------------------------------------------------------
# anchored forward steppers


def test_anchored_frozen_on_zero_operator():
    # frozen up to anchor-combination rounding (one ulp per step)
    for name in ("EAG", "FEG", "APS", "SM_EAG_PLUS"):
        t = run(cfg(name, 0.5, 10), zero_problem(), np.array([2.0, -1.0]))
        assert np.max(np.abs(t.main - np.array([2.0, -1.0]))) < 1e-13


def test_feg_first_iteration_hand():
    t = run(cfg("FEG", 0.5, 1), one_d_identity(), np.array([1.0]))
    assert t.auxiliary["half"][0, 0] == 1.0  # full anchor at k = 0
    assert np.allclose(t.main[1], [0.5])


def test_eag_first_iteration_hand():
    t = run(cfg("EAG", 0.5, 1), one_d_identity(), np.array([1.0]))
    assert np.allclose(t.auxiliary["half"][0], [0.5])  # z0 - a B z0
    assert np.allclose(t.main[1], [0.75])  # z0 - a B(0.5)


def test_aps_hand_recursion():
    t = run(cfg("APS", 0.5, 1), one_d_identity(), np.array([1.0]))
    assert np.allclose(t.auxiliary["v"][1], [0.5])
    assert np.allclose(t.main[1], [0.75])


def test_sm_eag_plus_reaches_solution_in_one_step():
    prob = Problem(name="one", operator=AffineOperator([[1.0]], mu=1.0),
                   solution=np.zeros(1))
    t = run(cfg("SM_EAG_PLUS", 1.0, 1), prob, np.array([1.0]))
    assert t.auxiliary["half"][0, 0] == 1.0
    assert t.main[1, 0] == 0.0


def test_sm_eag_plus_matches_feg_bitwise_at_mu_zero():
    prob = make_bilinear([[1.0, 0.4], [-0.3, 0.9]])
    z0 = np.array([1.0, -1.0, 0.5, 2.0])
    a = run(cfg("FEG", 0.3 / prob.lipschitz, 120), prob, z0)
    b = run(cfg("SM_EAG_PLUS", 0.3 / prob.lipschitz, 120), prob, z0)
    assert np.array_equal(a.main, b.main)
    assert np.array_equal(a.auxiliary["half"], b.auxiliary["half"])
    assert np.array_equal(a.auxiliary["op_half"], b.auxiliary["op_half"])


def test_eag_v_step_update_formula():
    # alpha_1 = alpha_0 (1 - (1/((1)(3))) a0^2 L^2/(1 - a0^2 L^2)) at k = 0
    prob = one_d_identity()
    t = run(cfg("EAG_V", 0.5, 3), prob, np.array([1.0]))
    a0 = 0.5
    expected = a0 * (1 - (1.0 / 3.0) * (a0 ** 2 / (1 - a0 ** 2)))
    assert abs(t.auxiliary["alpha"][1] - expected) < 1e-15
    assert abs(expected - 4.0 / 9.0) < 1e-15
    # frozen on the zero operator (up to anchor rounding), constant alpha
    tz = run(cfg("EAG_V", 0.5, 5), zero_problem(), np.array([1.0, 1.0]))
    assert np.max(np.abs(tz.main - 1.0)) < 1e-13
    assert np.all(tz.auxiliary["alpha"] == 0.5)


def test_aps_v_step_update_formula():
    prob = one_d_identity()
    theta = 1.0
    a0 = 0.3
    t = run(cfg("APS_V", a0, 2, theta=theta), prob, np.array([1.0]))
    m = 2.0 * (1 + theta)
    b0, b1 = 0.5, 1.0 / 3.0
    expected = a0 * b1 * (1 - b0 ** 2 - m * a0 ** 2) / ((1 - m * a0 ** 2) * b0 * (1 - b0))
    assert abs(t.auxiliary["alpha"][1] - expected) < 1e-15


def test_aps_v_collapse_detected():
    # 1 - M a0^2 > 0, but 1 - b0^2 - M a0^2 < 0 would send alpha_1
    # negative: run refuses the start, and the step's own guard still fails
    # closed on a rule stepped past validation
    prob = one_d_identity()
    a0 = 0.45  # M = 4, M a0^2 = 0.81
    config = cfg("APS_V", a0, 5, theta=1.0)
    with pytest.raises(ConfigError, match="alpha_1 > 0"):
        run(config, prob, np.array([1.0]))
    rule = algorithms._APSV(config, prob, algorithms._Counted(prob.operator),
                            np.array([1.0]))
    rule.step(0)
    assert rule.alpha < 0
    with pytest.raises(StepSizeCollapse):
        rule.step(1)


def _decreasing_positive(alphas):
    return np.all(alphas > 0) and np.all(np.diff(alphas) <= 0)


def test_eag_v_first_step_needs_alpha_l_below_root_three_halves():
    # alpha_1 > 0 exactly when alpha L < sqrt(3)/2 = 0.8660...
    prob = make_random_monotone_affine(0, 4, 1.0)
    z0 = np.ones(4)
    alphas = run(cfg("EAG_V", 0.866, 500), prob, z0).auxiliary["alpha"]
    assert 1e-4 < alphas[1] < 3e-4 and _decreasing_positive(alphas)
    with pytest.raises(ConfigError, match="alpha_1 > 0"):
        run(cfg("EAG_V", 0.87, 500), prob, z0)


def test_aps_v_first_step_needs_m_alpha_sq_below_three_quarters():
    # M = 2 L^2 (1 + theta) = 3, so M alpha^2 = 3/4 exactly at alpha = 1/2
    prob = one_d_identity()
    alphas = run(cfg("APS_V", 0.4999, 500, theta=0.5), prob,
                 np.array([1.0])).auxiliary["alpha"]
    assert _decreasing_positive(alphas)
    with pytest.raises(ConfigError, match="alpha_1 > 0"):
        run(cfg("APS_V", 0.5, 500, theta=0.5), prob, np.array([1.0]))


# ---------------------------------------------------------------------------
# anchored proximal steppers


def test_ohm_hand_recursion():
    t = run(cfg("OHM", 1.0, 2), one_d_identity(), np.array([1.0]))
    assert np.allclose(t.main[:, 0], [1.0, 0.5, 0.375])
    assert np.allclose(t.auxiliary["half"][:2, 0], [1.0, 0.75])
    assert abs(t.residual_norms[0] - 0.5) < 1e-15


def test_ohm_frozen_at_fixed_point():
    t = run(cfg("OHM", 1.0, 5), zero_problem(), np.array([1.0, -2.0]))
    assert np.max(np.abs(t.main - np.array([1.0, -2.0]))) < 1e-13
    assert np.max(t.residual_norms) < 1e-13


def test_ohm_two_forms_equivalent():
    prob = make_random_monotone_affine(8, 6, 4.0)
    z0 = np.linspace(-1, 1, 6)
    t = run(cfg("OHM", 0.2, 60), prob, z0)
    u = ohm_u_form(prob, 0.2, 60, z0)
    assert np.array_equal(t.auxiliary["half"][:61], u)


def test_oc_halpern_degenerates_to_ohm():
    # at mu = 1e-13, gamma = sqrt(1 + 2 alpha mu) is 1 + 2e-14
    prob = make_random_scsc(8, 6, 4.0, 1e-13)
    z0 = np.linspace(-1, 1, 6)
    a = run(cfg("OHM", 0.2, 40), prob, z0)
    b = run(cfg("OC_HALPERN", 0.2, 40), prob, z0)
    assert 1.0 < b.params["gamma"] < 1.0 + 1e-13
    assert np.max(np.abs(a.main - b.main)) < 1e-8


def test_oc_halpern_needs_mu():
    for prob in (make_random_monotone_affine(8, 6, 4.0), zero_problem(6)):
        with pytest.raises(ConfigError) as info:
            run(cfg("OC_HALPERN", 0.2, 10), prob, np.zeros(6))
        assert info.value.code == "CONFIG_ERROR"
    # gamma = sqrt(1 + 2 alpha mu) to the bit, and the anchor weights are
    # the inverse sums of gamma^{2j}
    scsc = make_random_scsc(1, 4, 4.0, 0.5)
    z0 = np.ones(4)
    t = run(cfg("OC_HALPERN", 0.2, 10), scsc, z0)
    gamma = math.sqrt(1.0 + 2.0 * 0.2 * 0.5)
    assert t.params["gamma"] == gamma
    w, big_s = z0, 1.0
    for k in range(10):
        beta = 1.0 / big_s
        w = scsc.operator.resolvent(0.2, beta * z0 + (1.0 - beta) * w)
        big_s = 1.0 + gamma * gamma * big_s
        assert np.array_equal(t.main[k + 1], w)


def test_ohm_drs_hand_recursion():
    # A = B = the identity, whose resolvent at alpha = 1 is J(z) = z/2
    ident = AffineOperator([[1.0]], mu=1.0)
    comp = Problem(name="ident-pair", operator=ident, prox_part=ident)
    t = run(cfg("OHM_DRS", 1.0, 1), comp, np.array([1.0]))
    assert np.allclose(t.auxiliary["w"][0], [0.5])
    assert np.allclose(t.main[1], [0.75])


def test_ohm_drs_zero_prox_reduces_to_halpern_on_smooth():
    smooth = make_bilinear([[1.0]])
    # the zero function's indicator
    whole = BoxProx([-np.inf] * 2, [np.inf] * 2)
    comp = make_composite(whole, smooth)
    z0 = np.array([1.0, -0.5])
    t = run(cfg("OHM_DRS", 0.4, 50), comp, z0)
    u = ohm_u_form(smooth, 0.4, 50, z0)
    assert np.max(np.abs(t.main - u[:len(t.main)])) < 1e-12


def test_ohm_drs_zero_smooth_reduces_to_halpern_on_prox():
    box = BoxProx([-0.5, -0.5], [0.5, 0.5])
    comp = Problem(name="boxes", operator=AffineOperator(np.zeros((2, 2))),
                   prox_part=box)
    z0 = np.array([2.0, -3.0])
    t = run(cfg("OHM_DRS", 1.0, 30), comp, z0)
    u = z0.copy()
    ref = [z0.copy()]
    for k in range(30):
        beta = 1.0 / (k + 2)
        u = beta * z0 + (1 - beta) * np.clip(u, -0.5, 0.5)
        ref.append(u.copy())
    assert np.max(np.abs(t.main - np.array(ref))) < 1e-12


def test_ohm_drs_residual_identity():
    comp = make_box_bilinear_composite(seed=9)
    alpha = 0.4 / comp.lipschitz
    z0 = np.array([1.5, -2.0, 0.3, 0.9])
    t = run(cfg("OHM_DRS", alpha, 40), comp, z0)
    for k in (0, 7, 25):
        u = t.main[k]
        w = t.auxiliary["w"][k]
        lhs = np.linalg.norm(u - drs_map(comp.prox_part, comp.operator,
                                         alpha, u))
        g = forward_backward_residual(comp.prox_part, comp.operator, alpha, w)
        assert abs(lhs - alpha * np.linalg.norm(g)) <= 1e-9
        assert abs(lhs - t.residual_norms[k]) <= 1e-12


def test_residual_norms_match_numpy_norm_bitwise():
    # each rule's residual is np.linalg.norm of its residual vector, bit for
    # bit, whatever helper computes it
    prob = make_random_monotone_affine(seed=3, d=10, lipschitz=10.0)
    z0 = np.random.default_rng(1003).standard_normal(10)
    feg = run(cfg("FEG", 0.05, 200), prob, z0)
    assert all(feg.residual_norms[k] == np.linalg.norm(feg.op_evals[k])
               for k in range(201))
    ohm = run(cfg("OHM", 0.05, 200), prob, z0)
    half = ohm.auxiliary["half"]
    assert all(ohm.residual_norms[k]
               == np.linalg.norm(half[k] - ohm.main[k + 1])
               for k in range(200))
    comp = make_box_bilinear_composite(seed=9)
    drs = run(cfg("OHM_DRS", 0.4 / comp.lipschitz, 200), comp,
              np.array([1.5, -2.0, 0.3, 0.9]))
    assert sorted(drs.auxiliary) == ["v", "w"]
    w, v = drs.auxiliary["w"], drs.auxiliary["v"]
    assert all(drs.residual_norms[k] == np.linalg.norm(w[k] - v[k])
               for k in range(201))


def test_anchored_steps_match_written_out_recursions_bitwise():
    # rows 1-5 of each anchored rule equal its step written out in full,
    # with every sub-expression computed where it appears, and B z = M z + b
    prob = make_random_monotone_affine(seed=3, d=10, lipschitz=10.0)
    scsc = make_random_scsc(seed=2, d=10, lipschitz=10.0, mu=1.0)
    z0 = np.random.default_rng(1003).standard_normal(10)

    def rows(name, alpha, problem=prob, **extra):
        return run(cfg(name, alpha, 5, **extra), problem, z0)

    def forward(problem):
        op = problem.operator
        return lambda z: op.matrix @ z + op.offset

    B, lip = forward(prob), prob.lipschitz

    a, z, want = 0.0125, z0, [z0]
    for k in range(5):  # EAG
        beta = 1.0 / (k + 1)
        half = beta * z0 + (1.0 - beta) * z - a * B(z)
        z = beta * z0 + (1.0 - beta) * z - a * B(half)
        want.append(z)
    assert np.array_equal(rows("EAG", a).main, want)

    a, z, want, alphas = 0.05, z0, [z0], [0.05]
    for k in range(5):  # EAG_V
        beta = 1.0 / (k + 2)
        half = beta * z0 + (1.0 - beta) * z - a * B(z)
        z = beta * z0 + (1.0 - beta) * z - a * B(half)
        ratio = a ** 2 * lip ** 2 / (1.0 - a ** 2 * lip ** 2)
        a = a * (1.0 - ratio / ((k + 1.0) * (k + 3.0)))
        want.append(z)
        alphas.append(a)
    trace = rows("EAG_V", 0.05)
    assert np.array_equal(trace.main, want)
    assert np.array_equal(trace.auxiliary["alpha"], alphas)

    a, z, bv, want = 0.0125, z0, B(z0), [z0]
    for k in range(5):  # APS
        beta = 1.0 / (k + 1)
        v = beta * z0 + (1.0 - beta) * z - a * bv
        bv = B(v)
        z = beta * z0 + (1.0 - beta) * z - a * bv
        want.append(z)
    assert np.array_equal(rows("APS", a).main, want)

    a, z, bv, want, alphas = 0.01, z0, B(z0), [z0], [0.01]
    m = 2.0 * lip ** 2 * (1.0 + 1.0)
    for k in range(5):  # APS_V, theta = 1
        beta = 1.0 / (k + 2)
        v = beta * z0 + (1.0 - beta) * z - a * bv
        bv = B(v)
        z = beta * z0 + (1.0 - beta) * z - a * bv
        beta_next = 1.0 / (k + 3)
        a = (a * beta_next * (1.0 - beta ** 2 - m * a ** 2)
             / ((1.0 - m * a ** 2) * beta * (1.0 - beta)))
        want.append(z)
        alphas.append(a)
    trace = rows("APS_V", 0.01, theta=1.0)
    assert np.array_equal(trace.main, want)
    assert np.array_equal(trace.auxiliary["alpha"], alphas)

    for name, problem, a in (("FEG", prob, 0.05),
                             ("SM_EAG_PLUS", scsc, 0.05)):
        B = forward(problem)
        x = 1.0 + 2.0 * a * problem.mu if name == "SM_EAG_PLUS" else 1.0
        z, big_s, want, halves = z0, 1.0, [z0], []
        for k in range(5):
            beta = 1.0 / big_s
            half = beta * z0 + (1.0 - beta) * (z - (a / x) * B(z))
            z = beta * z0 + (1.0 - beta) * z - a * B(half)
            big_s = 1.0 + x * big_s
            want.append(z)
            halves.append(half)
        trace = rows(name, a, problem)
        assert np.array_equal(trace.main, want)
        assert np.array_equal(trace.auxiliary["half"], halves)


def test_apg_star_zero_smooth_exits_inner_immediately():
    box = BoxProx([0.0, 0.0], [1.0, 1.0])
    comp = Problem(name="boxes", operator=AffineOperator(np.zeros((2, 2))),
                   prox_part=box)
    z0 = np.array([2.0, -1.0])
    t = run(cfg("APG_STAR", 0.5, 20), comp, z0)
    assert np.all(t.auxiliary["inner_b_evals"] == 1)  # one check, no steps
    assert np.array_equal(t.auxiliary["z"][0], z0)
    # outer update is the anchored iteration on the projection
    u = z0.copy()
    ref = [z0.copy()]
    for k in range(20):
        beta = 1.0 / (k + 2)
        u = beta * z0 + (1 - beta) * np.clip(u, 0.0, 1.0)
        ref.append(u.copy())
    assert np.max(np.abs(t.main - np.array(ref))) < 1e-12


def test_apg_star_epsilon_schedule_constant():
    comp = make_box_bilinear_composite(seed=5)
    alpha = 0.5 / comp.lipschitz
    xi0 = np.ones(comp.dim)
    t = run(cfg("APG_STAR", alpha, 5), comp, xi0)
    expected = 1.0 + np.linalg.norm(comp.operator(xi0)) / comp.lipschitz
    assert abs(t.params["m_constant"] - expected) < 1e-15


def test_apg_star_inner_tolerance_enforced():
    comp = make_box_bilinear_composite(seed=5)
    alpha = 0.5 / comp.lipschitz
    xi0 = 2.0 * np.ones(comp.dim)
    t = run(cfg("APG_STAR", alpha, 25), comp, xi0)
    m = t.params["m_constant"]
    for k in (1, 5, 20):
        z = t.auxiliary["z"][k]
        xi = t.main[k]
        eps_k = m / ((k + 1.0) ** 2 * (k + 2.0))
        gap = np.linalg.norm(z + alpha * comp.operator(z) - xi)
        assert gap <= eps_k * (1 + 1e-12)


def test_apg_star_inner_solve_is_the_solver_bitwise():
    comp = make_box_bilinear_composite(seed=5)
    alpha = 0.5 / comp.lipschitz
    b = comp.operator
    t = run(cfg("APG_STAR", alpha, 100), comp, np.ones(comp.dim))
    m = t.params["m_constant"]
    for k in (0, 10, 100):
        xi = t.main[k]
        eps_k = m / ((k + 1.0) ** 2 * (k + 2.0))
        shifted_l = 1.0 + alpha * b.lipschitz
        budget = max(20, math.ceil(10.0 * shifted_l
                                   * max(1.0, math.log(1.0 / eps_k))))
        z, evals = solve_strongly_monotone(
            lambda u: u + alpha * b(u) - xi, mu=1.0, lipschitz=shifted_l,
            z0=xi, tol=eps_k, max_iterations=budget)
        assert np.array_equal(t.auxiliary["z"][k], z)
        assert t.auxiliary["inner_b_evals"][k] == evals
    assert sorted(t.auxiliary) == ["inner_b_evals", "z"]


# ---------------------------------------------------------------------------
# oracle accounting, anchors, stopping


def test_oracle_accounting():
    prob = make_random_monotone_affine(0, 4, 2.0)
    scsc = make_random_scsc(0, 4, 2.0, 0.5)
    comp = make_box_bilinear_composite(seed=5)
    # name, problem, billed B and resolvent calls per step, warm-up B calls,
    # and whether the final row's evaluation is billed as one more entry
    # (the splitting methods; APG_STAR's B count per row is 1 + inner evals)
    for name, problem, per_b, per_res, warm, final in (
            ("EAG", prob, 2, 0, 0, False), ("FEG", prob, 2, 0, 0, False),
            ("EG", prob, 2, 0, 0, False), ("GDA", prob, 1, 0, 0, False),
            ("OG", prob, 1, 0, 1, False), ("APS", prob, 1, 0, 1, False),
            ("OHM", prob, 0, 1, 0, False), ("OC_HALPERN", scsc, 0, 1, 0, False),
            ("OHM_DRS", comp, 1, 2, 0, True),
            ("APG_STAR", comp, None, 1, 1, True)):
        t = run(cfg(name, 0.05, 25), problem, np.ones(problem.dim))
        entries = 26 if final else 25
        expected_b = (t.auxiliary["inner_b_evals"] + 1 if per_b is None
                      else np.full(entries, per_b))
        assert np.array_equal(t.b_per_iter, expected_b), name
        assert np.array_equal(t.resolvent_per_iter,
                              np.full(entries, per_res)), name
        assert t.warmup_b == warm, name
        assert t.total_b_evals() == warm + expected_b.sum()
        assert t.total_resolvent_evals() == entries * per_res
        # the per-step totals end at the final row; with one entry per step
        # row 0 carries the warm-up alone
        b_rows, r_rows = t.cumulative_counts()
        ending_at_final_row = lambda per_step: np.concatenate(
            [[0], np.cumsum(per_step)])[-26:]
        assert np.array_equal(b_rows,
                              warm + ending_at_final_row(expected_b)), name
        assert np.array_equal(
            r_rows, ending_at_final_row(np.full(entries, per_res))), name
        assert b_rows[-1] == t.total_b_evals(), name
        assert r_rows[-1] == t.total_resolvent_evals(), name


def test_anchor_dominates_first_half_step():
    # with full anchor weight at k = 0 the first half-iterate depends only
    # on the start: perturbing the problem elsewhere cannot change it
    prob = make_random_monotone_affine(1, 4, 2.0)
    z0 = np.array([0.5, -1.0, 2.0, 0.0])
    t = run(cfg("FEG", 0.1, 1), prob, z0)
    assert np.array_equal(t.auxiliary["half"][0], z0)
    t2 = run(cfg("SM_EAG_PLUS", 0.1, 1), prob, z0)
    assert np.array_equal(t2.auxiliary["half"][0], z0)


def test_ohm_on_prox_only_problem():
    # no forward map: no op_evals, one billed resolvent per iteration
    box = BoxProx([-0.5, -0.5, -0.5], [0.5, 0.5, 0.5])
    prob = Problem(name="box", operator=box)
    t = run(cfg("OHM", 1.0, 20), prob, np.array([2.0, -3.0, 0.25]))
    assert t.op_evals is None
    assert np.array_equal(t.resolvent_per_iter, np.ones(20, dtype=int))
    assert not t.b_per_iter.any()
    b_rows, r_rows = t.cumulative_counts()
    assert np.array_equal(r_rows, np.arange(21))
    assert not b_rows.any()


def test_early_stop_and_slim_recording():
    prob = make_random_scsc(3, 4, 5.0, 1.0)
    z0 = np.ones(4)
    step = max_step_strongly_monotone(5.0, 1.0)
    t = run(cfg("SM_EAG_PLUS", step, 5000,
                stop_residual=1e-6, record_iterates=False), prob, z0)
    full = run(cfg("SM_EAG_PLUS", step, 5000, stop_residual=1e-6), prob, z0)
    assert t.iterations < 5000
    assert t.iterations == full.iterations == len(full.main) - 1
    assert t.residual_norms[-1] <= 1e-6
    assert len(t.main) == 2  # start and final only
    with pytest.raises(ConfigError, match="kept only its residuals"):
        t.cumulative_counts()


def test_sequences_reads_recorded_fields_by_name():
    prob = make_random_monotone_affine(0, 4, 2.0)
    z0 = np.ones(4)
    feg = run(cfg("FEG", 0.1, 5), prob, z0)
    assert feg.sequences("main") is feg.main
    z, bz, bh = feg.sequences("main", "op_evals", "op_half")
    assert bz is feg.op_evals and bh is feg.auxiliary["op_half"]
    ohm = run(cfg("OHM", 0.1, 5), prob, z0)
    with pytest.raises(ConfigError) as info:
        ohm.sequences("main", "op_evals", "v")
    assert str(info.value) == "the OHM trace records no op_evals, v"
    slim = run(cfg("FEG", 0.1, 5, record_iterates=False), prob, z0)
    with pytest.raises(ConfigError) as info:
        slim.sequences("main", "half")
    assert str(info.value) == ("the FEG trace records no main, half: run "
                               "without recorded iterates, it kept only its "
                               "residuals")


def _recording_case(name):
    """(alpha, extra config keywords, problem, start) exercising ``name``."""
    z0 = np.linspace(-1.0, 2.0, 6)
    if name in ("OHM_DRS", "APG_STAR"):
        comp = make_box_bilinear_composite(seed=3)
        return 0.4 / comp.lipschitz, {}, comp, np.ones(comp.dim)
    if name == "AGM":
        fig = make_figure1()
        return 0.025, {}, fig, fig.start
    if name in ("SM_EAG_PLUS", "OC_HALPERN"):
        return (max_step_strongly_monotone(5.0, 1.0), {},
                make_random_scsc(2, 6, 5.0, 1.0), z0)
    extra = {"theta": 1.0} if name == "APS_V" else {}
    return 0.05, extra, make_random_monotone_affine(4, 6, 5.0), z0


def _tally_calls(monkeypatch, prob):
    """Count the forward and resolvent calls that reach the problem's own
    operator objects, whoever makes them."""
    counts = {}
    for role, op in (("B", prob.operator), ("A", prob.prox_part)):
        if op is None:
            continue
        for method in ("__call__", "resolvent"):
            cls = type(op)
            original = getattr(cls, method)

            def tallied(self, *args, _original=original,
                        _key=(role, method), _op=op):
                if self is _op:
                    counts[_key] = counts.get(_key, 0) + 1
                return _original(self, *args)

            monkeypatch.setattr(cls, method, tallied)
    return counts


@pytest.mark.parametrize("name", ALGORITHMS)
def test_recording_modes_agree_bitwise(name, monkeypatch):
    alpha, extra, prob, z0 = _recording_case(name)
    calls = _tally_calls(monkeypatch, prob)
    probe = run(cfg(name, alpha, 300, **extra), prob, z0)
    for stop in (None, float(probe.residual_norms[100])):
        calls.clear()
        full = run(cfg(name, alpha, 300, stop_residual=stop, **extra),
                   prob, z0)
        full_calls = dict(calls)
        calls.clear()
        slim = run(cfg(name, alpha, 300, stop_residual=stop,
                       record_iterates=False, **extra), prob, z0)
        # the operator sees the same calls whatever the run records
        assert calls == full_calls and full_calls
        # a run stops at the first row whose residual meets the threshold;
        # OHM and OC_HALPERN learn it by computing the next row, and keep it
        if stop is None:
            assert full.iterations == 300
        else:
            first = np.flatnonzero(probe.residual_norms <= stop)[0]
            lag = 1 if name in ("OHM", "OC_HALPERN") else 0
            assert full.iterations == first + lag
        assert np.array_equal(full.residual_norms,
                              probe.residual_norms[:full.iterations + 1])
        assert slim.iterations == full.iterations
        assert slim.stop_reason == full.stop_reason == (
            "max_iterations" if stop is None else "stop_residual")
        assert np.array_equal(slim.residual_norms, full.residual_norms)
        assert np.array_equal(slim.final, full.final)
        assert np.array_equal(slim.start, full.start)
        assert np.array_equal(slim.b_per_iter, full.b_per_iter)
        assert np.array_equal(slim.resolvent_per_iter, full.resolvent_per_iter)
        assert slim.warmup_b == full.warmup_b
        assert slim.total_b_evals() == full.total_b_evals()
        assert slim.total_resolvent_evals() == full.total_resolvent_evals()
        assert len(slim.main) == 2 and slim.op_evals is None
        assert slim.auxiliary == {}
        if name == "APG_STAR":
            # each row bills its inner calls and one call at z_k, so the
            # per-step counts of either mode give the inner counts
            assert np.array_equal(full.auxiliary["inner_b_evals"],
                                  full.b_per_iter - 1)


def _large_case(name, d):
    """A monotone affine problem at dimension ``d``, with a box prox part
    for the splitting methods."""
    smooth = make_random_monotone_affine(0, d, 2.0)
    if name in ("OHM_DRS", "APG_STAR"):
        box = BoxProx(-np.ones(d), np.ones(d))
        return Problem(name="box-affine", operator=smooth.operator,
                       prox_part=box)
    return smooth


def _trace_arrays(trace) -> dict:
    """Every array of a trace by name, op_evals only where recorded."""
    arrays = {"main": trace.main, "residual_norms": trace.residual_norms,
              "b_per_iter": trace.b_per_iter,
              "resolvent_per_iter": trace.resolvent_per_iter,
              **trace.auxiliary}
    if trace.op_evals is not None:
        arrays["op_evals"] = trace.op_evals
    return arrays


@pytest.mark.parametrize("name", ("EG", "OG", "EAG_V", "APS_V", "OHM",
                                  "OHM_DRS", "APG_STAR"))
def test_slim_recording_memory_independent_of_iterations(name):
    d, iters = 500, 400
    prob = _large_case(name, d)
    extra = {"theta": 1.0} if name == "APS_V" else {}
    z0 = np.linspace(-2.0, 2.0, d)
    # the full run also builds the resolvent's cached factorisation
    full = run(cfg(name, 0.1, iters, **extra), prob, z0)
    tracemalloc.start()
    try:
        slim = run(cfg(name, 0.1, iters, record_iterates=False, **extra),
                   prob, z0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert slim.iterations == iters
    assert peak < full.main.nbytes / 4, (peak, full.main.nbytes)


@pytest.mark.parametrize("name", ("FEG", "APS", "OHM_DRS", "APG_STAR"))
def test_recorded_run_peaks_at_its_trace(name):
    # each recorded field is one array that row k is written into, so a
    # recorded run holds one copy of its trace; rows kept as separate
    # vectors and stacked at the end peaked at about twice the trace
    d, iters = 500, 400
    prob = _large_case(name, d)
    z0 = np.linspace(-2.0, 2.0, d)
    run(cfg(name, 0.1, 2), prob, z0)  # builds the resolvent's factors
    tracemalloc.start()
    try:
        trace = run(cfg(name, 0.1, iters), prob, z0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.iterations == iters
    trace_bytes = sum(a.nbytes for a in _trace_arrays(trace).values())
    assert peak < 1.1 * trace_bytes, peak / trace_bytes


def _stacked_layout(trace, dim) -> dict:
    """name -> (shape, dtype) of every array of a recorded trace, as rows
    stacked with np.array give them: one row per row and one per step,
    each a float64 vector except the scalar fields ``alpha`` (float64) and
    ``inner_b_evals`` (int64); the oracle counts have one entry per step,
    and one more for the splitting methods' billed final row."""
    rows = trace.iterations + 1
    rule = algorithms._RULES[trace.algorithm]
    layout = {"main": ((rows, dim), np.float64),
              "residual_norms": ((rows,), np.float64)}
    for name in ("b_per_iter", "resolvent_per_iter"):
        layout[name] = ((rows - 1 + rule.final_row_billed,), np.int64)
    for names, count in ((rule.row_fields, rows), (rule.step_fields, rows - 1)):
        for field_name in names:
            scalar = field_name in ("alpha", "inner_b_evals")
            layout[field_name] = (
                (count,) if scalar else (count, dim),
                np.int64 if field_name == "inner_b_evals" else np.float64)
    return layout


@pytest.mark.parametrize("stop", ("row 0", "mid-run", "diverged",
                                  "max_iterations"))
def test_recorded_arrays_own_their_rows(stop):
    # after an early stop each recorded field is cut to its kept rows in
    # place: every array of the trace owns its data, is read-only and has
    # the shape and dtype of its rows stacked, (0, d) for the step fields
    # of a run stopped at row 0 included
    if stop == "diverged":
        cases = [("GDA", 10.0, {}, make_bilinear([[1.0]]),
                  np.array([1.0, 0.0]))]
    else:
        cases = [(name, *_recording_case(name)) for name in
                 ("FEG", "EAG_V", "APS_V", "OHM", "OHM_DRS", "APG_STAR")]
    for name, alpha, extra, prob, z0 in cases:
        probe = run(cfg(name, alpha, 300, **extra), prob, z0)
        threshold = {"row 0": 0, "mid-run": 100}.get(stop)
        if threshold is not None:
            threshold = float(probe.residual_norms[threshold])
        trace = run(cfg(name, alpha, 300, stop_residual=threshold, **extra),
                    prob, z0)
        lag = algorithms._RULES[name].stop_lag
        if stop == "max_iterations":
            assert trace.iterations == 300
        elif stop == "diverged":
            assert trace.stop_reason == "diverged"
        else:
            first = np.flatnonzero(probe.residual_norms <= threshold)[0]
            assert trace.iterations == first + lag
        arrays = _trace_arrays(trace)
        assert {key: (a.shape, a.dtype) for key, a in arrays.items()} == (
            _stacked_layout(trace, prob.dim)), (name, stop)
        for key, a in arrays.items():
            assert a.base is None and a.flags.owndata, (name, stop, key)
            assert not a.flags.writeable, (name, stop, key)


def test_recorded_run_over_the_trace_bound_refused_before_any_call(
        monkeypatch):
    # (max_iterations + 1) * d values: at d = 2, 5 iterations record 12
    prob = make_bilinear([[1.0]])
    z0 = np.array([1.0, 0.0])
    monkeypatch.setattr(algorithms, "MAX_TRACE_VALUES", 12)
    assert run(cfg("OHM", 0.5, 5), prob, z0).iterations == 5

    def no_call(*args):
        raise AssertionError("the operator was called")

    with monkeypatch.context() as patch:
        for method in ("__call__", "resolvent"):
            patch.setattr(AffineOperator, method, no_call)
        for name in ("FEG", "OHM"):
            with pytest.raises(ConfigError, match="more than 12 values"):
                run(cfg(name, 0.5, 6), prob, z0)
    # a run without recorded iterates holds O(d) whatever its length
    slim = run(cfg("FEG", 0.5, 6, record_iterates=False), prob, z0)
    assert slim.iterations == 6
    algorithms.validate_config(
        cfg("FEG", 0.5, 10 ** 30, record_iterates=False), prob)


@pytest.mark.parametrize("record", (True, False))
def test_diverging_run_stops_at_first_non_finite_residual(record):
    # GDA at alpha = 10 on x*y grows by sqrt(101) a step; ||B z||^2
    # overflows at row 154
    prob = make_bilinear([[1.0]])
    z0 = np.array([1.0, 0.0])
    t = run(cfg("GDA", 10.0, 300, record_iterates=record), prob, z0)
    assert t.stop_reason == "diverged"
    assert t.iterations == 154
    assert np.isinf(t.residual_norms[-1])
    assert np.all(np.isfinite(t.residual_norms[:-1]))
    # the rows before the non-finite one are those of a run that stops
    # just short of it
    short = run(cfg("GDA", 10.0, 153, record_iterates=record), prob, z0)
    assert short.stop_reason == "max_iterations"
    assert np.array_equal(t.residual_norms[:-1], short.residual_norms)
    assert np.array_equal(t.main[:-1] if record else t.main[:1],
                          short.main if record else short.main[:1])
    assert len(t.b_per_iter) == 154


def test_trace_lengths_and_immutability():
    prob = make_random_monotone_affine(0, 4, 2.0)
    t = run(cfg("FEG", 0.05, 30), prob, np.ones(4))
    assert len(t.main) == 31
    assert len(t.residual_norms) == 31
    assert len(t.auxiliary["half"]) == 30  # offset by one, documented
    assert np.all(t.residual_norms >= 0)
    with pytest.raises(ValueError):
        t.main[0, 0] = 99.0


def test_varying_step_methods_converge():
    prob = make_random_monotone_affine(5, 6, 2.0)
    z0 = np.ones(6)
    for name, extra in (("EAG_V", {}), ("APS_V", {"theta": 1.0})):
        t = run(cfg(name, 0.2 / prob.lipschitz, 2000, **extra), prob, z0)
        assert t.residual_norms[-1] < 1e-2 * t.residual_norms[0], name
        alphas = t.auxiliary["alpha"]
        assert np.all(alphas > 0)


def test_apg_star_first_tolerance_value():
    # with ||B xi_0|| = L the first inner tolerance is (1 + 1)/(1 * 2) = 1
    comp = Problem(name="ident-box", operator=AffineOperator(np.eye(2)),
                   prox_part=BoxProx([-9.0, -9.0], [9.0, 9.0]))
    xi0 = np.array([1.0, 0.0])  # ||B xi0|| = 1 = L
    t = run(cfg("APG_STAR", 0.5, 3), comp, xi0)
    m = t.params["m_constant"]
    assert abs(m - 2.0) < 1e-15
    assert abs(m / ((0 + 1) ** 2 * (0 + 2)) - 1.0) < 1e-15
