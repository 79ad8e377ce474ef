from dataclasses import replace

import numpy as np
import pytest

from anchorkit import analysis, suites
from anchorkit.algorithms import (
    AlgorithmConfig,
    max_step_strongly_monotone,
    run,
)
from anchorkit.errors import (
    ConfigError,
    DimensionMismatch,
    MismatchedTraces,
    MissingReferencePoint,
    SingularSystem,
    StepTooLarge,
)
from anchorkit.operators import (
    AffineOperator,
    BoxProx,
    CallableOperator,
)
from anchorkit.problems import (
    Problem,
    make_bilinear,
    make_box_bilinear_composite,
    make_composite,
    make_random_monotone_affine,
    make_random_scsc,
)


def cfg(name, alpha, iters, **kw):
    return AlgorithmConfig(algorithm=name, alpha=alpha, max_iterations=iters,
                           **kw)


def zero_map(d):
    """The zero map on R^d, an affine operator."""
    return AffineOperator(np.zeros((d, d)))


def one_d_identity():
    return Problem(name="identity-1d", operator=AffineOperator([[1.0]]),
                   solution=np.zeros(1))


# ---------------------------------------------------------------------------
# merging-path distances


def test_mp_distance_identical_and_symmetry():
    prob = make_random_monotone_affine(0, 4, 2.0)
    z0 = np.ones(4)
    a = run(cfg("FEG", 0.05, 20), prob, z0)
    b = run(cfg("FEG", 0.05, 20), prob, z0)
    assert np.all(analysis.mp_distance(a, b) == 0.0)
    c = run(cfg("EAG", 0.05, 20), prob, z0)
    assert np.array_equal(analysis.mp_distance(a, c),
                          analysis.mp_distance(c, a))


def test_mp_distance_matches_direct_recomputation():
    prob = make_random_monotone_affine(1, 4, 2.0)
    z0 = np.ones(4)
    a = run(cfg("FEG", 0.05, 30), prob, z0)
    b = run(cfg("APS", 0.05, 30), prob, z0)
    got = analysis.mp_distance(a, b)
    expect = [np.sum((x - y) ** 2) for x, y in zip(a.main, b.main)]
    assert np.allclose(got, expect, rtol=0, atol=0)
    # the difference is squared in place; its bits must be those of
    # (a - b) ** 2 at every scale, subnormal squares and overflow included
    for scale in (1e-200, 1e-155, 1e100, 1e150, 1e160):
        first, second = (replace(t, main=t.main * scale) for t in (a, b))
        with np.errstate(over="ignore"):  # squares past 1e308 are inf
            expect = np.sum((first.main - second.main) ** 2, axis=1)
            got = analysis.mp_distance(first, second)
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert got.tobytes() == expect.tobytes(), scale


def test_mp_distance_mismatches():
    prob = make_random_monotone_affine(0, 4, 2.0)
    a = run(cfg("FEG", 0.05, 10), prob, np.ones(4))
    b = run(cfg("FEG", 0.05, 12), prob, np.ones(4))
    with pytest.raises(MismatchedTraces):
        analysis.mp_distance(a, b)
    c = run(cfg("FEG", 0.05, 10), prob, 2 * np.ones(4))
    with pytest.raises(MismatchedTraces):
        analysis.mp_distance(a, c)
    # mp_distance refuses unequal step sizes, so every merging-path rule
    # does; "geometric" and "reported" once gave a verdict on these pairs
    scsc = make_random_scsc(0, 6, 10.0, 0.1)
    for first, second in (("SM_EAG_PLUS", "OC_HALPERN"), ("EAG", "OHM")):
        d = run(cfg(first, 0.05, 50), scsc, np.ones(6))
        e = run(cfg(second, 0.01, 50), scsc, np.ones(6))
        with pytest.raises(MismatchedTraces, match="different step sizes"):
            analysis.merging_path(d, e, scsc)


def test_mp_feg_ohm_one_step_hand_value():
    # z1 = 0.5 (forward) vs w1 = 2/3 (resolvent): squared gap (1/6)^2
    prob = one_d_identity()
    z0 = np.array([1.0])
    feg = run(cfg("FEG", 0.5, 1), prob, z0)
    ohm = run(cfg("OHM", 0.5, 1), prob, z0)
    d = analysis.mp_distance(feg, ohm)
    assert abs(feg.main[1, 0] - 0.5) < 1e-15
    assert abs(ohm.main[1, 0] - 2.0 / 3.0) < 1e-15
    assert abs(d[1] - (1.0 / 6.0) ** 2) < 1e-15


def test_mp_bound_feg_ohm_zero_operator_trivial():
    prob = Problem(name="zero", operator=zero_map(2),
                   solution=np.zeros(2))
    t = run(cfg("FEG", 0.5, 20), prob, np.array([1.0, 2.0]))
    rep = analysis.mp_bound_feg_ohm(t, prob)
    assert np.all(rep.measured == 0.0) and rep.passed


def test_mp_bound_feg_ohm_rotation():
    prob = make_bilinear([[1.0]])
    z0 = np.array([1.0, 0.0])
    t = run(cfg("FEG", 0.5, 500), prob, z0)
    rep = analysis.mp_bound_feg_ohm(t, prob)
    assert rep.passed and rep.max_ratio <= 1.0
    summ = analysis.feg_summability_report(t, prob)
    assert summ.passed
    with pytest.raises(ConfigError):
        analysis.mp_bound_feg_ohm(run(cfg("EAG", 1.5, 5), prob, z0), prob)
    # a partner at another step size is not FEG's partner
    with pytest.raises(MismatchedTraces):
        analysis.mp_bound_feg_ohm(t, prob,
                                  trace_ohm=run(cfg("OHM", 0.2, 500), prob, z0))
    # the summability report needs an FEG trace with recorded half-steps
    for bare, why in ((run(cfg("OHM", 0.5, 5), prob, z0),
                       "holds for FEG traces"),
                      (run(cfg("FEG", 0.5, 5, record_iterates=False), prob,
                           z0), "no op_evals, op_half: run without")):
        with pytest.raises(ConfigError, match=why):
            analysis.feg_summability_report(bare, prob)


def test_bounds_refuse_traces_of_other_algorithms():
    # each gave a verdict (or, for the splitting bound, a KeyError) on a
    # trace that its theorem does not cover
    prob = make_random_scsc(0, 10, 10.0, 1.0)
    z0 = np.random.default_rng(0).standard_normal(10)
    feg, eag, sm = (run(cfg(name, 0.05, 200), prob, z0)
                    for name in ("FEG", "EAG", "SM_EAG_PLUS"))
    refused = [
        ("FEG", lambda: analysis.feg_summability_report(eag, prob)),
        ("FEG", lambda: analysis.mp_bound_feg_ohm(eag, prob)),
        ("OHM", lambda: analysis.mp_bound_feg_ohm(feg, prob, trace_ohm=eag)),
        ("FEG", lambda: analysis.lyapunov_feg(sm, 0.05, prob.solution,
                                              prob.lipschitz)),
        ("FEG or SM_EAG_PLUS",
         lambda: analysis.lyapunov_sm_eag(eag, 0.05, prob.mu, prob.lipschitz,
                                          prob.solution)),
    ]
    comp, alpha, xi0 = _box_bilinear_case(3)
    apg = run(cfg("APG_STAR", alpha, 20), comp, xi0)
    drs = run(cfg("OHM_DRS", alpha, 20), comp, xi0)
    refused += [("APG_STAR", lambda: analysis.mp_bound_apg(drs, drs, comp)),
                ("OHM_DRS", lambda: analysis.mp_bound_apg(apg, apg, comp))]
    for expected, call in refused:
        with pytest.raises(ConfigError,
                           match=f"holds for {expected} traces"):
            call()


def test_splitting_bound_refuses_traces_without_inner_sequences():
    # residuals-only runs keep no z_k, w_k or main sequence; the bound and
    # merging_path refuse the first such trace of a pair, one slim and one
    # full trace included
    comp, alpha, xi0 = _box_bilinear_case(3)
    traces = {(name, record): run(cfg(name, alpha, 20,
                                      record_iterates=record), comp, xi0)
              for name in ("APG_STAR", "OHM_DRS") for record in (True, False)}
    for apg_record, drs_record in ((False, False), (False, True),
                                   (True, False)):
        apg = traces["APG_STAR", apg_record]
        drs = traces["OHM_DRS", drs_record]
        slim, inner = ("OHM_DRS", "w") if apg_record else ("APG_STAR", "z")
        for call, missing in ((analysis.mp_bound_apg, inner),
                              (analysis.merging_path, "main")):
            with pytest.raises(ConfigError,
                               match=f"the {slim} trace records no {missing}: "
                                     f"run without recorded iterates, it "
                                     f"kept only its residuals"):
                call(apg, drs, comp)
    assert analysis.mp_bound_apg(traces["APG_STAR", True],
                                 traces["OHM_DRS", True], comp).passed


def _slim_pair_case(first):
    """(problem, start, step) of the merging-path checks on a pair whose
    first algorithm is ``first``."""
    if first == "APG_STAR":
        comp, alpha, xi0 = _box_bilinear_case(3)
        return comp, xi0, alpha
    if first == "SM_EAG_PLUS":
        return make_random_scsc(2, 6, 5.0, 1.0), np.linspace(-1.0, 2.0, 6), 0.2
    prob = make_random_monotone_affine(3, 10, 10.0)
    return prob, np.linspace(-1.0, 2.0, 10), 0.05


@pytest.mark.parametrize("first, second", [*analysis.MP_RULES, ("FEG", "FEG")])
def test_residuals_only_pairs_refused_by_every_merging_path_rule(first,
                                                                  second):
    # a residuals-only main holds the start and final rows alone; read as
    # rows k = 0 and 1, it once got a verdict from every rule but
    # "splitting"
    prob, z0, alpha = _slim_pair_case(first)
    full, slim = ([run(cfg(name, alpha, 300, record_iterates=record), prob,
                       z0) for name in (first, second)]
                  for record in (True, False))
    calls = [analysis.mp_distance,
             lambda a, b: analysis.merging_path(a, b, prob)]
    if first == "FEG" and second == "OHM":
        calls.append(lambda a, b: analysis.mp_bound_feg_ohm(a, prob,
                                                            trace_ohm=b))
    for call in calls:
        with pytest.raises(ConfigError,
                           match=f"the {first} trace records no main: run "
                                 f"without recorded iterates"):
            call(*slim)
        call(*full)  # the recorded pair is read


def test_slim_refusals_come_before_reference_and_partner_runs(monkeypatch):
    # 3^10 faces are more than MAX_BOX_FACES: the reference point would be
    # the end of a 100,000-step splitting run
    comp = make_box_bilinear_composite(seed=3, size=5)
    xi0 = np.linspace(-1.0, 2.0, comp.dim)
    apg, drs = (run(cfg(name, 0.1, 20, record_iterates=False), comp, xi0)
                for name in ("APG_STAR", "OHM_DRS"))
    prob = make_random_monotone_affine(3, 10, 10.0)
    feg = run(cfg("FEG", 0.05, 300, record_iterates=False), prob,
              np.ones(10))

    def fail(*args, **kwargs):
        raise AssertionError("a run was made before the refusal")

    monkeypatch.setattr(analysis, "fixed_point_reference", fail)
    monkeypatch.setattr(analysis, "run_ohm_partner", fail)
    with pytest.raises(ConfigError, match="kept only its residuals"):
        analysis.merging_path(apg, drs, comp)
    with pytest.raises(ConfigError, match="kept only its residuals"):
        analysis.mp_bound_feg_ohm(feg, prob)


# ---------------------------------------------------------------------------
# Lyapunov traces


def test_lyapunov_feg_zero_operator():
    prob = Problem(name="zero", operator=zero_map(2),
                   solution=np.zeros(2))
    z0 = np.array([1.0, 1.0])
    t = run(cfg("FEG", 0.5, 10), prob, z0)
    ly = analysis.lyapunov_feg(t, 0.5, prob.solution, 0.0)
    head = np.dot(z0, z0) / (2 * 0.5)
    assert np.allclose(ly.values, head)
    assert np.allclose(ly.decrements, 0.0)
    assert np.allclose(ly.certified_lower, 0.0)
    assert ly.passed


def test_lyapunov_feg_hand_values():
    prob = one_d_identity()
    alpha = 0.5
    t = run(cfg("FEG", alpha, 2), prob, np.array([1.0]))
    ly = analysis.lyapunov_feg(t, alpha, prob.solution, 1.0)
    # V0 = d0^2 / (2 alpha)
    assert abs(ly.values[0] - 1.0) < 1e-15
    # hand iterates: z_half = 1, z1 = 0.5, B z1 = 0.5
    v1 = 0.5 * alpha * 0.25 + 1 * 0.5 * (0.5 - 1.0) + 1.0
    assert abs(ly.values[1] - v1) < 1e-15
    cert0 = 0.5 * alpha * (1 - alpha ** 2) * 1.0  # ||0*Bz0 - 1*Bz_half||^2
    assert abs(ly.certified_lower[0] - cert0) < 1e-15
    assert ly.decrements[0] >= cert0 - 1e-9
    assert ly.passed
    with pytest.raises(ConfigError, match="differs"):
        analysis.lyapunov_feg(t, 0.25, prob.solution, 1.0)
    for bare, why in ((run(cfg("OHM", alpha, 2), prob, np.array([1.0])),
                       "holds for FEG"),
                      (run(cfg("FEG", alpha, 2, record_iterates=False), prob,
                           np.array([1.0])), "no main, op_evals, op_half: run "
                                             "without")):
        with pytest.raises(ConfigError, match=why):
            analysis.lyapunov_feg(bare, alpha, prob.solution, 1.0)
        with pytest.raises(ConfigError, match=why):
            analysis.lyapunov_sm_eag(bare, alpha, 0.5, 1.0, prob.solution)


def _lyapunov_feg_closed_form(trace, alpha, z_star, lipschitz):
    """FEG's V_k = (alpha k^2 / 2) ||B z_k||^2 + k <B z_k, z_k - z0> +
    ||z0 - z*||^2 / (2 alpha) and certified decrements (alpha (1 - alpha^2
    L^2) / 2) ||k B z_k - (k+1) B z_{k+1/2}||^2, written out directly."""
    z, bz, bh = trace.main, trace.op_evals, trace.auxiliary["op_half"]
    n = len(bh)
    k = np.arange(n + 1, dtype=float)
    z0 = z[0]
    values = (0.5 * alpha * k ** 2 * np.sum(bz ** 2, axis=1)
              + k * np.sum(bz * (z - z0), axis=1)
              + float(np.sum((z0 - z_star) ** 2)) / (2.0 * alpha))
    kk = k[:n, None]
    mismatch = np.sum((kk * bz[:n] - (kk + 1.0) * bh) ** 2, axis=1)
    cert = 0.5 * alpha * (1.0 - alpha ** 2 * lipschitz ** 2) * mismatch
    return analysis.LyapunovTrace(values=values,
                                  decrements=values[:-1] - values[1:],
                                  certified_lower=cert)


def test_lyapunov_feg_matches_its_closed_form():
    # the lyapunov suite's problems over 100 seeds and its three steps
    for seed in range(100):
        prob, z0 = suites.scsc_case(seed)
        for ratio_al in suites.FEG_STEP_RATIOS:
            alpha = ratio_al / prob.lipschitz
            t = run(cfg("FEG", alpha, 200), prob, z0)
            ly = analysis.lyapunov_feg(t, alpha, prob.solution,
                                       prob.lipschitz)
            ref = _lyapunov_feg_closed_form(t, alpha, prob.solution,
                                            prob.lipschitz)
            case = (seed, ratio_al)
            assert (np.abs(ly.values - ref.values).max()
                    <= 1e-13 * np.abs(ref.values).max()), case
            assert (np.abs(ly.certified_lower - ref.certified_lower).max()
                    <= 1e-13 * np.abs(ref.certified_lower).max()), case
            assert ly.passed == ref.passed, case


def test_lyapunov_sm_eag_head_and_zero_operator():
    alpha, mu = 0.2, 0.5
    prob = Problem(name="zero-mu", operator=zero_map(2),
                   solution=np.zeros(2))
    # declared strongly monotone metadata with a zero map is fine here: the
    # analysis only reads the trace
    z0 = np.array([2.0, 0.0])
    t = run(cfg("SM_EAG_PLUS", alpha, 8), prob, z0)
    ly = analysis.lyapunov_sm_eag(t, alpha, mu, 1.0, prob.solution)
    head = (1 / (2 * alpha) + mu) * np.dot(z0, z0)
    assert np.allclose(ly.values, head)  # p0 = q0 = 0 and B = 0
    assert np.allclose(ly.certified_lower, 0.0)
    assert ly.passed


def test_lyapunov_sm_eag_hand_values():
    prob = Problem(name="one", operator=AffineOperator([[1.0]], mu=1.0),
                   solution=np.zeros(1))
    alpha = mu = lip = 1.0
    t = run(cfg("SM_EAG_PLUS", alpha, 2), prob, np.array([1.0]))
    ly = analysis.lyapunov_sm_eag(t, alpha, mu, lip, prob.solution)
    assert abs(ly.values[0] - 1.5) < 1e-15  # (1/(2a) + mu) d0^2
    assert abs(ly.values[1] - 0.5) < 1e-15  # q1 = 1, B z1 = 0, z1 - z0 = -1
    assert ly.values[0] >= ly.values[1] >= 0.0
    cert0 = 0.5 * alpha * (1 + 2 * alpha * mu - alpha ** 2 * lip ** 2)
    assert abs(ly.certified_lower[0] - cert0) < 1e-15
    # FEG's Lyapunov function is the mu = 0 member
    feg = run(cfg("FEG", 0.5, 2), prob, np.array([1.0]))
    at_zero = analysis.lyapunov_sm_eag(feg, 0.5, 0.0, lip, prob.solution)
    of_feg = analysis.lyapunov_feg(feg, 0.5, prob.solution, lip)
    for name in ("values", "decrements", "certified_lower"):
        assert (getattr(at_zero, name).tobytes()
                == getattr(of_feg, name).tobytes())
    for bad_mu in (-0.1, np.nan):
        with pytest.raises(ConfigError, match="mu >= 0"):
            analysis.lyapunov_sm_eag(t, alpha, bad_mu, lip, prob.solution)


# ---------------------------------------------------------------------------
# rate bounds


def test_rate_bound_ohm_trivial_and_hand():
    prob = Problem(name="zero", operator=zero_map(2),
                   solution=np.zeros(2))
    t = run(cfg("OHM", 1.0, 10), prob, np.array([1.0, 0.0]))
    rep = analysis.rate_bound(t, prob, "OHM_RATE")
    assert np.all(rep.measured == 0.0) and rep.passed

    prob1 = one_d_identity()
    t1 = run(cfg("OHM", 1.0, 3), prob1, np.array([1.0]))
    rep1 = analysis.rate_bound(t1, prob1, "OHM_RATE")
    # k = 0: residual 0.5, bound 4 -> ratio 1/16
    assert abs(rep1.ratios[0] - 1.0 / 16.0) < 1e-9
    assert rep1.passed


@pytest.mark.parametrize("ratio_al", [0.05, 0.25, 0.5, 0.9, 0.999])
def test_rate_bound_sm_eag_holds_on_feg_traces(ratio_al):
    # FEG is SM_EAG_PLUS at mu = 0, so SM_EAG_RATE at mu = 0 is its rate,
    # 4 ||z0 - z*||^2 / (alpha k)^2, at every step alpha L < 1
    for seed in suites.SUITE_SEEDS:
        prob, z0 = suites.affine_case(seed)
        alpha = ratio_al / prob.lipschitz
        t = run(cfg("FEG", alpha, 1000), prob, z0)
        rep = analysis.rate_bound(t, prob, "SM_EAG_RATE")
        assert rep.passed, (seed, rep.max_ratio)
        dist0 = float(np.sum((z0 - prob.solution) ** 2))
        k = np.arange(1.0, 1001.0)
        assert np.allclose(rep.bound, 4.0 * dist0 / (alpha * k) ** 2,
                           rtol=1e-12)


def test_rate_bound_oc_halpern():
    prob = make_random_scsc(2, 6, 5.0, 0.5)
    z0 = np.ones(6)
    t = run(cfg("OC_HALPERN", 0.2, 200), prob, z0)
    rep = analysis.rate_bound(t, prob, "OC_HALPERN_RATE")
    assert rep.passed


def _row0_traces():
    """Recorded runs whose stop_residual is their row-0 residual, so each
    stops at row 0 without a step, with their problems."""
    affine = make_random_monotone_affine(0, 4, 2.0)
    scsc = make_random_scsc(1, 4, 2.0, 0.5)
    comp = make_box_bilinear_composite(seed=3)
    cases = [("FEG", affine, 0.1), ("SM_EAG_PLUS", scsc, 0.1),
             ("APG_STAR", comp, 0.1), ("OHM_DRS", comp, 0.1)]
    traces = {}
    for name, prob, alpha in cases:
        z0 = np.linspace(-1.0, 2.0, prob.dim)
        first = run(cfg(name, alpha, 1), prob, z0).residual_norms[0]
        trace = run(cfg(name, alpha, 50, stop_residual=first), prob, z0)
        assert trace.iterations == 0 and trace.stop_reason == "stop_residual"
        traces[name] = trace, prob
    return traces


def test_every_analysis_entry_point_on_traces_that_stop_at_row_0():
    # each returns a report that can be read, or refuses with a ConfigError
    # that names the missing step; never a numpy error
    traces = _row0_traces()
    feg, affine = traces["FEG"]
    sm, scsc = traces["SM_EAG_PLUS"]
    apg, comp = traces["APG_STAR"]
    drs, _ = traces["OHM_DRS"]
    for trace, prob in ((feg, affine), (sm, scsc)):
        for name in ("half", "op_half"):
            assert trace.auxiliary[name].shape == (0, prob.dim)
    mu0 = dict(alpha=0.1, lipschitz=affine.lipschitz, z_star=affine.solution)
    calls = {
        "lyapunov_feg": lambda: analysis.lyapunov_feg(feg, **mu0),
        "lyapunov_sm_eag FEG": lambda: analysis.lyapunov_sm_eag(feg, mu=0.0,
                                                                **mu0),
        "lyapunov_sm_eag": lambda: analysis.lyapunov_sm_eag(
            sm, 0.1, scsc.mu, scsc.lipschitz, scsc.solution),
        "feg_summability_report": lambda: analysis.feg_summability_report(
            feg, affine),
        "mp_bound_feg_ohm": lambda: analysis.mp_bound_feg_ohm(feg, affine),
        "mp_bound_apg": lambda: analysis.mp_bound_apg(apg, drs, comp),
        "merging_path self": lambda: analysis.merging_path(feg, feg,
                                                           affine).report,
        "merging_path splitting": lambda: analysis.merging_path(
            apg, drs, comp).report,
        **{f"rate_bound {rule} FEG": (lambda rule=rule: analysis.rate_bound(
            feg, affine, rule)) for rule in ("OHM_RATE", "SM_EAG_RATE")},
        "rate_bound SM_EAG_RATE": lambda: analysis.rate_bound(
            sm, scsc, "SM_EAG_RATE"),
        "rate_bound APG_RESIDUAL": lambda: analysis.rate_bound(
            apg, comp, "APG_RESIDUAL"),
        "rate_bound OHM_DRS_RATE": lambda: analysis.rate_bound(
            drs, comp, "OHM_DRS_RATE"),
    }
    refused = set()
    for label, call in calls.items():
        try:
            result = call()
        except ConfigError as exc:
            assert "stopped at row 0" in str(exc), (label, exc)
            refused.add(label)
            continue
        if isinstance(result, analysis.LyapunovTrace):
            assert len(result.values) == 1 and len(result.decrements) == 0
            assert result.certified_lower.shape == (0,) and result.passed
        else:
            assert len(result.k_values) >= 1, label
            result.worst(), result.passed  # read without error
    assert refused == {"feg_summability_report", "mp_bound_feg_ohm",
                       "rate_bound SM_EAG_RATE FEG", "rate_bound SM_EAG_RATE"}
    assert analysis.mp_distance(feg, feg).shape == (1,)
    assert analysis.iterations_to_tolerance(feg, feg.residual_norms[0]) == 0


def test_ohm_trace_refused_by_oc_halpern_rate():
    # OHM runs at gamma = 1 and its trace says so, so the rule for gamma > 1
    # refuses it
    prob = make_random_monotone_affine(0, 4, 2.0)
    t = run(cfg("OHM", 0.2, 200), prob, np.ones(4))
    assert t.params["gamma"] == 1.0
    with pytest.raises(ConfigError):
        analysis.rate_bound(t, prob, "OC_HALPERN_RATE")


def test_reference_point_order():
    prob = make_random_monotone_affine(0, 4, 2.0)
    t = run(cfg("OHM", 0.2, 5), prob, np.ones(4))
    given = np.full(4, 0.5)
    assert analysis.reference_point(t, prob, given) is given
    assert analysis.reference_point(t, prob) is prob.solution
    # a composite problem's splitting fixed point wins over its solution z*
    comp = replace(make_box_bilinear_composite(seed=5), solution=np.zeros(4))
    alpha = 0.5 / comp.lipschitz
    xi0 = np.ones(comp.dim)
    drs = run(cfg("OHM_DRS", alpha, 5), comp, xi0)
    ref = analysis.reference_point(drs, comp)
    assert np.array_equal(ref, analysis.fixed_point_reference(comp, alpha,
                                                              start=xi0))
    # and it is the exact fixed point, not the end of a long run
    assert (analysis.splitting_residual(comp, alpha, ref)
            <= analysis.REFERENCE_CERTIFICATE)


def _box_bilinear_case(seed, **kw):
    comp = make_box_bilinear_composite(seed=seed, **kw)
    xi0 = 2.0 * np.random.default_rng(77 + seed).standard_normal(comp.dim)
    return comp, 0.5 / comp.lipschitz, xi0


def test_exact_reference_skips_infinite_bounds():
    # on the orthant there are 2 faces per coordinate, not 3
    comp, alpha, xi0 = _box_bilinear_case(0, box_upper=np.inf)
    ref = analysis.fixed_point_reference(comp, alpha, xi0, iterations=1)
    assert (analysis.splitting_residual(comp, alpha, ref)
            <= analysis.REFERENCE_CERTIFICATE)
    assert ref.max() > 1.0  # outside the unit box


def test_exact_reference_near_long_splitting_run():
    comp, alpha, xi0 = _box_bilinear_case(5)
    ref = analysis.fixed_point_reference(comp, alpha, xi0)
    long_run = run(cfg("OHM_DRS", alpha, 100_000, record_iterates=False),
                   comp, xi0)
    assert np.linalg.norm(ref - long_run.final) <= 1e-3


@pytest.mark.parametrize("seed", [1, 3, 4, 7, 8, 10])
def test_no_zero_composite_has_no_reference_point(seed):
    # on these orthants A + B has no zero, so the splitting map has no fixed
    # point, and a long splitting run would drift with its budget
    comp, alpha, xi0 = _box_bilinear_case(seed, box_upper=np.inf)
    with pytest.raises(MissingReferencePoint, match="no zero"):
        analysis.fixed_point_reference(comp, alpha, xi0, iterations=1)
    drs = run(cfg("OHM_DRS", alpha, 5), comp, xi0)
    with pytest.raises(MissingReferencePoint):
        analysis.rate_bound(drs, comp, "OHM_DRS_RATE")


def _fallback_cases():
    """Composites the exact solver must leave to the splitting run."""
    unit = BoxProx(np.zeros(2), np.ones(2))
    # every point of the box is a zero of 0 * z + 0
    continuum = make_composite(unit,
                               make_bilinear([[0.0]], want_solution=False))
    affine = make_bilinear([[1.0]], [0.3], [-0.2], want_solution=False)
    # A = the identity: the prox of ||z||^2 / 2, not a box
    affine_prox = Problem(name="affine-prox", operator=affine.operator,
                          prox_part=AffineOperator(np.eye(2)))
    m, t = affine.operator.matrix, affine.operator.offset
    forward_only = Problem(
        name="forward-only",
        prox_part=unit,
        operator=CallableOperator(lambda z: m @ z + t, 2, affine.lipschitz))
    return {"continuum": continuum,
            "affine-prox": affine_prox,
            "forward-only": forward_only}


@pytest.mark.parametrize("name", ["continuum", "affine-prox", "forward-only"])
def test_reference_falls_back_to_the_splitting_run_bitwise(name):
    comp = _fallback_cases()[name]
    assert analysis._box_composite_fixed_point(comp, 0.3) is None
    xi0 = np.array([2.0, -1.5])
    ref = analysis.fixed_point_reference(comp, 0.3, xi0, iterations=200)
    fallback = run(cfg("OHM_DRS", 0.3, 200, record_iterates=False), comp, xi0)
    assert ref.tobytes() == fallback.final.tobytes()


def test_splitting_verdicts_on_box_bilinear_seeds():
    # the apg-mp checks beyond the suite's one problem, against a reference
    # point that passes the certificate, which the fallback run would miss
    # by far
    for seed in range(20):
        comp, _, xi0 = _box_bilinear_case(seed)
        mp, rate, drs_rate, _ = suites.apg_mp_check(comp, xi0)
        assert "reference point exact and certified" in mp.note, seed
        assert mp.passed and rate.passed and drs_rate.passed, seed


@pytest.mark.parametrize("size, how", [(2, "exact and certified"),
                                       (5, "from the fallback splitting run")])
def test_splitting_note_names_its_reference_point(size, how):
    # 3^4 faces are solved exactly; 3^10 are more than MAX_BOX_FACES
    comp = make_box_bilinear_composite(seed=3, size=size)
    xi0 = np.linspace(-1.0, 2.0, comp.dim)
    apg = run(cfg("APG_STAR", 0.1, 20), comp, xi0)
    drs = run(cfg("OHM_DRS", 0.1, 20), comp, xi0)
    note = analysis.merging_path(apg, drs, comp).note
    assert f"reference point {how} (splitting-map residual " in note


def test_rate_bound_missing_reference():
    prob = make_bilinear(np.diag([1.0, 0.0]), want_solution=False)
    t = run(cfg("OHM", 0.5, 5), prob, np.ones(4))
    with pytest.raises(MissingReferencePoint):
        analysis.rate_bound(t, prob, "OHM_RATE")
    with pytest.raises(ConfigError):
        analysis.rate_bound(t, prob, "NOPE")


# ---------------------------------------------------------------------------
# composite splitting analyses


def test_mp_bound_apg_zero_smooth_collapses():
    comp = Problem(name="boxes", operator=zero_map(2),
                   prox_part=BoxProx([0.0, 0.0], [1.0, 1.0]))
    z0 = np.array([2.0, -1.0])
    apg = run(cfg("APG_STAR", 0.5, 40), comp, z0)
    drs = run(cfg("OHM_DRS", 0.5, 40), comp, z0)
    rep = analysis.mp_bound_apg(apg, drs, comp, xi_star=np.array([2.0, -1.0]))
    assert np.all(rep.measured == 0.0)


def test_apg_epsilon_series_telescopes():
    # sum (k+1) eps_k = M exactly in the limit; partial sums reach it to 1e-6
    k = np.arange(1_000_000, dtype=float)
    weights = (k + 1.0) / ((k + 1.0) ** 2 * (k + 2.0))
    assert abs(np.sum(weights) - 1.0) < 1e-6
    # so sum_k (k+1) eps_k equals the schedule constant in the limit
    m_const = 1.7
    eps = m_const / ((k + 1.0) ** 2 * (k + 2.0))
    assert abs(np.sum((k + 1.0) * eps) - m_const) < m_const * 2e-6


def test_apg_iterate_boundedness():
    comp, xi0 = suites._apg_case()
    alpha = 0.5 / comp.lipschitz
    apg = run(cfg("APG_STAR", alpha, 200), comp, xi0)
    xi_star = analysis.fixed_point_reference(comp, alpha, iterations=50_000,
                                             start=xi0)
    m = apg.params["m_constant"]
    lim = np.linalg.norm(xi0 - xi_star) + m
    gaps = np.linalg.norm(apg.main - xi_star, axis=1)
    zgaps = np.linalg.norm(apg.auxiliary["z"]
                           - comp.operator.resolvent(alpha, xi_star), axis=1)
    assert gaps.max() <= lim + 1e-6
    assert zgaps.max() <= lim + 1e-6


# ---------------------------------------------------------------------------
# summability constants


def test_summability_constant_cross_check():
    # independent oracle: evaluate numerator/denominator from polynomial
    # coefficient arrays
    r = 0.05
    num = np.polyval([-2.0, 0.0, 7.0, -2.0, -2.0, -1.0, 2.0], r)
    den_eag = r * (1 - r) ** 3 * (1 + r) ** 2 * (2 + r)
    den_aps = r * (1 - r) ** 2 * (2 + r) * (1 - r - r ** 2 - r ** 3)
    c_eag = analysis.summability_constant("EAG", r, 1.0)
    c_aps = analysis.summability_constant("APS", r, 1.0)
    assert abs(c_eag - num / den_eag) < 1e-12 * abs(c_eag)
    assert abs(c_aps - num / den_aps) < 1e-12 * abs(c_aps)
    assert c_eag != c_aps  # distinct denominators at the same r


def test_summability_constant_blowup_scaling():
    # the constant blows up like Theta(1/r) as r -> 0+ (r C reads 1.0036,
    # 1.0009 and 1.0002 on this certified range)
    vals = [analysis.summability_constant("EAG", r, 1.0)
            for r in (0.05, 0.025, 0.0125)]
    assert vals[0] < vals[1] < vals[2]
    assert abs(vals[2] * 0.0125 - 1.0) < 0.35


def test_summability_constant_refuses_uncertified_steps():
    with pytest.raises(StepTooLarge):
        analysis.summability_constant("EAG", 0.125, 1.0)
    with pytest.raises(StepTooLarge):
        analysis.summability_constant("APS", 0.08, 1.0)
    with pytest.raises(StepTooLarge):
        analysis.summability_constant("EAG", 1.5, 1.0)
    # certified range still works for both rules
    assert analysis.summability_constant("APS", 0.05, 1.0) > 0


def test_summability_positivity_proof_agrees_with_a_sampled_scan():
    # the sampled check it replaced: every factor positive on k = 1..1000
    # and at two large probes, with a positive leading coefficient
    grid = np.concatenate([np.arange(1, 1001), [1e4, 1e6]])
    factors = {"EAG": analysis._eag_positivity_factors,
               "APS": analysis._aps_positivity_factors}
    for rule, build in factors.items():
        for r in np.linspace(0.001, 0.999, 999):
            sampled = [name for name, coeffs in build(r)
                       if coeffs[0] <= 0
                       or np.any(np.polyval(coeffs, grid) <= 0)]
            assert analysis.summability_positivity(rule, r) == sampled, (
                rule, r)


def test_summability_bound_holds_on_certified_run():
    # the certified constant really bounds the weighted series for EAG
    prob = make_random_monotone_affine(6, 10, 10.0)
    alpha = 0.05 / prob.lipschitz  # r = 0.05, inside the certified range
    z0 = np.random.default_rng(3).standard_normal(10)
    t = run(cfg("EAG", alpha, 3000), prob, z0)
    c = analysis.summability_constant("EAG", alpha, prob.lipschitz)
    k = np.arange(len(t.auxiliary["op_half"]))
    summand = np.sum((t.op_evals[:-1] - t.auxiliary["op_half"]) ** 2, axis=1)
    series = np.sum((k + 1.0) ** 2 * summand)
    bound = c / alpha ** 2 * np.sum((z0 - prob.solution) ** 2)
    assert series <= bound


def test_iterations_to_tolerance():
    class Fake:
        residual_norms = np.array([1.0, 0.5, 0.01])

    assert analysis.iterations_to_tolerance(Fake(), 0.1) == 2
    Fake.residual_norms = np.ones(5)
    assert analysis.iterations_to_tolerance(Fake(), 0.5) is None


# ---------------------------------------------------------------------------
# reference points


def test_affine_zero_projection_against_hand_construction():
    prob = make_bilinear(np.diag([1.0, 0.0]), [0.2, 0.0], [-0.3, 0.0],
                         want_solution=False)
    z0 = np.array([0.5, 2.0, 0.7, -1.5])
    # zeros: x1 = -0.3, y1 = -0.2, (x2, y2) free
    expected = np.array([-0.3, 2.0, -0.2, -1.5])
    got = analysis.affine_zero_projection(prob, z0)
    assert np.allclose(got, expected, atol=1e-12)
    # with an offset outside the range of M there is no zero
    no_zero = make_bilinear(np.diag([1.0, 0.0]), [0.2, 0.1], [-0.3, 0.0],
                            want_solution=False)
    with pytest.raises(SingularSystem, match="no zeros"):
        analysis.affine_zero_projection(no_zero, z0)


@pytest.fixture(scope="module")
def point_takers():
    """name -> a call, on d = 4 inputs, of an entry point that takes a
    point from its caller"""
    prob = make_random_monotone_affine(0, 4, 2.0)
    feg = run(cfg("FEG", 0.05, 20), prob, np.ones(4))
    comp = make_box_bilinear_composite(seed=0)
    xi0 = np.linspace(-1.0, 2.0, 4)
    apg = run(cfg("APG_STAR", 0.1, 20), comp, xi0)
    drs = run(cfg("OHM_DRS", 0.1, 20), comp, xi0)
    return {
        "rate_bound": lambda point: analysis.rate_bound(
            feg, prob, "SM_EAG_RATE", reference=point),
        "mp_bound_apg": lambda point: analysis.mp_bound_apg(
            apg, drs, comp, xi_star=point),
        "lyapunov_feg": lambda point: analysis.lyapunov_feg(
            feg, 0.05, point, 2.0),
        "lyapunov_sm_eag": lambda point: analysis.lyapunov_sm_eag(
            feg, 0.05, 0.0, 2.0, point),
        "affine_zero_projection": lambda point: (
            analysis.affine_zero_projection(prob, point)),
        "splitting_residual": lambda point: analysis.splitting_residual(
            comp, 0.1, point),
    }


_BAD_POINTS = {"short": (np.zeros(3), DimensionMismatch),
               "column": (np.zeros((4, 1)), DimensionMismatch),
               "nan": (np.array([0.0, np.nan, 0.0, 0.0]), ConfigError),
               "inf": (np.array([0.0, 0.0, np.inf, 0.0]), ConfigError)}


# None asks rate_bound and mp_bound_apg for their own reference point
@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in ("rate_bound", "mp_bound_apg", "lyapunov_feg",
                               "lyapunov_sm_eag", "affine_zero_projection",
                               "splitting_residual")
    for bad in _BAD_POINTS] + [
    (entry, "none") for entry in ("lyapunov_feg", "lyapunov_sm_eag",
                                  "affine_zero_projection",
                                  "splitting_residual")])
def test_given_points_are_checked(entry, bad, point_takers):
    point, error = _BAD_POINTS.get(bad, (None, ConfigError))
    with pytest.raises(error):
        point_takers[entry](point)


def test_fixed_point_reference_hits_solution():
    prob = make_random_scsc(4, 5, 4.0, 1.0, z_star=np.ones(5))
    # z* = (1, ..., 1) is inside the box and B z* = 0, so the splitting
    # fixed point z* + alpha B z* is z* itself; one step of the fallback run
    # would be far from it
    box = BoxProx(np.full(5, -2.0), np.full(5, 2.0))
    comp = replace(prob, prox_part=box)
    ref = analysis.fixed_point_reference(comp, 0.25, iterations=1,
                                         start=np.zeros(5))
    assert np.linalg.norm(ref - prob.solution) < 1e-12
    # only a composite has a splitting map; a non-composite problem's
    # reference point is its known solution
    with pytest.raises(ConfigError, match="composite"):
        analysis.fixed_point_reference(prob, 0.25, iterations=20_000,
                                       start=np.zeros(5))


def test_point_convergence_unique_zero_invariant():
    # EAG/FEG/APS approach the unique zero; the anchor bias scales with the
    # start distance, so a close start lands within 1e-6 by k = 5000
    prob = make_random_scsc(6, 4, 1.0, 1.0, z_star=np.ones(4))
    offset = np.array([1.0, -1.0, 0.5, 0.5])
    z0 = prob.solution + 2e-4 * offset / np.linalg.norm(offset)
    for name, alpha in (("EAG", 0.125), ("FEG", 0.9), ("APS", 0.125)):
        t = run(cfg(name, alpha, 5000), prob, z0)
        assert np.linalg.norm(t.final - prob.solution) <= 1e-6, name
    # and from an order-one start the distance still contracts by ~1/(alpha k)
    t = run(cfg("FEG", 0.9, 5000), prob, prob.solution + offset)
    assert np.linalg.norm(t.final - prob.solution) <= 1e-2


def test_sm_eag_weighted_summability_bound():
    # sum_k x^k ||eta_k B z_k - B z_{k+1/2}||^2 <= x d0^2 / (a^2 (x - a^2 L^2))
    # for alpha strictly inside the admissible range, x = 1 + 2 alpha mu
    lip, mu = 10.0, 1.0
    prob = make_random_scsc(8, 6, lip, mu)
    alpha = 0.5 * max_step_strongly_monotone(lip, mu)
    z0 = np.random.default_rng(21).standard_normal(6)
    t = run(cfg("SM_EAG_PLUS", alpha, 300), prob, z0)
    x = 1.0 + 2.0 * alpha * mu
    n = len(t.auxiliary["op_half"])
    s = np.empty(n + 1)
    s[0] = 1.0
    for j in range(1, n + 1):
        s[j] = 1.0 + x * s[j - 1]
    eta = (1.0 - 1.0 / s[:n]) / x
    mism = np.sum((eta[:, None] * t.op_evals[:n]
                   - t.auxiliary["op_half"]) ** 2, axis=1)
    series = np.sum(x ** np.arange(n) * mism)
    d0 = np.sum((z0 - prob.solution) ** 2)
    bound = x * d0 / (alpha ** 2 * (x - alpha ** 2 * lip ** 2))
    assert series <= bound * (1 + 1e-9)


def test_geometric_mp_within_proof_constant():
    lip, mu, eps = 10.0, 0.1, 0.1
    prob = make_random_scsc(2, 8, lip, mu)
    alpha = 0.5 * max_step_strongly_monotone(lip, mu)
    z0 = np.random.default_rng(5).standard_normal(8)
    sm = run(cfg("SM_EAG_PLUS", alpha, 400), prob, z0)
    oc = run(cfg("OC_HALPERN", alpha, 400), prob, z0)
    growth = (1.0 + 2.0 * alpha * mu * (1.0 - eps)) ** np.arange(401)
    weighted = analysis.mp_distance(sm, oc) * growth
    x = 1.0 + 2.0 * alpha * mu
    const = ((1.0 + 2.0 * alpha * mu * (1.0 / eps - 1.0)) * x
             / (x - alpha ** 2 * lip ** 2)
             * np.sum((z0 - prob.solution) ** 2))
    assert np.all(np.isfinite(weighted))
    assert weighted.max() <= const


def test_per_step_merging_inequalities():
    # the one-step contraction behind the quadratic merging weight:
    # FEG uses ||k B z_k - (k+1) B z_{k+1/2}||^2, EAG uses
    # (k+1)^2 ||B z_k - B z_{k+1/2}||^2, APS the v-gap version
    prob = make_random_monotone_affine(9, 8, 6.0)
    alpha = 0.1 / prob.lipschitz
    z0 = np.random.default_rng(11).standard_normal(8)
    partner = analysis.run_ohm_partner(prob, alpha, 400, z0)
    k = np.arange(401)

    feg = run(cfg("FEG", alpha, 400), prob, z0)
    d = analysis.mp_distance(feg, partner)
    gap = np.sum((k[:400, None] * feg.op_evals[:400]
                  - (k[:400, None] + 1) * feg.auxiliary["op_half"]) ** 2,
                 axis=1)
    lhs = (k[1:] ** 2) * d[1:]
    rhs = (k[:400] ** 2) * d[:400] + alpha ** 2 * gap
    assert np.all(lhs <= rhs + 1e-12)

    eag = run(cfg("EAG", alpha, 400), prob, z0)
    d = analysis.mp_distance(eag, partner)
    gap = np.sum((eag.op_evals[:400] - eag.auxiliary["op_half"]) ** 2, axis=1)
    rhs = (k[:400] ** 2) * d[:400] + alpha ** 2 * (k[:400] + 1) ** 2 * gap
    assert np.all((k[1:] ** 2) * d[1:] <= rhs + 1e-12)

    aps = run(cfg("APS", alpha, 400), prob, z0)
    d = analysis.mp_distance(aps, partner)
    vgap = np.sum(
        (aps.auxiliary["op_v"][:400] - aps.auxiliary["op_v"][1:401]) ** 2,
        axis=1)
    rhs = (k[:400] ** 2) * d[:400] + alpha ** 2 * (k[:400] + 1) ** 2 * vgap
    assert np.all((k[1:] ** 2) * d[1:] <= rhs + 1e-12)
