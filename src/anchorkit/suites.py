"""Named verification suites behind the command-line ``verify`` entry point.

Each suite runs one acceptance experiment end to end and returns a
SuiteResult with per-check lines. A suite's name is its key in ``SUITES``,
the full registry, and is written nowhere else.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .algorithms import AlgorithmConfig, max_step_strongly_monotone, run
from .errors import DomainViolation
from .operators import (
    AffineOperator,
    ScaledOperator,
    ShiftedIdentityPlus,
    SumOperator,
    forward_backward_residual,
)
from .problems import (
    FIGURE1_AGM_STEP,
    FIGURE1_ANCHORED_STEP,
    Problem,
    make_bilinear,
    make_box_bilinear_composite,
    make_figure1,
    make_random_monotone_affine,
    make_random_scsc,
)

#: momentum parameters for the divergent momentum baselines (a > 2)
AGM_MOMENTUM_CHOICES = (3.0, 5.0, 9.0)

#: the row of the figure-1 trajectories that the summary compares
FIGURE1_SUMMARY_K = 50

#: dimension and Lipschitz constant of the 20-seed problem sets
SET_DIM = 10
SET_LIPSCHITZ = 10.0


@dataclass
class SuiteResult:
    passed: bool = True
    lines: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def check(self, ok: bool, text: str):
        self.passed = self.passed and bool(ok)
        self.lines.append(f"[{'pass' if ok else 'FAIL'}] {text}")

    def info(self, text: str):
        self.lines.append(f"[info] {text}")


# ---------------------------------------------------------------------------
# shared problem sets


def _affine_set():
    problems = []
    for seed in range(20):
        prob = make_random_monotone_affine(seed, SET_DIM, SET_LIPSCHITZ)
        z0 = np.random.default_rng(1000 + seed).standard_normal(SET_DIM)
        problems.append((prob, z0))
    return problems


def _scsc_set():
    """20 strongly monotone problems, condition numbers 10 and 100."""
    problems = []
    for seed in range(20):
        mu = 1.0 if seed < 10 else 0.1
        z_star = (0.5 * np.random.default_rng(2000 + seed)
                  .standard_normal(SET_DIM))
        prob = make_random_scsc(seed, SET_DIM, SET_LIPSCHITZ, mu,
                                z_star=z_star)
        z0 = np.random.default_rng(3000 + seed).standard_normal(SET_DIM)
        problems.append((prob, z0))
    return problems


def _worst(reports):
    """The report with the largest ``max_ratio`` (the first of equals)."""
    return max(reports, key=lambda report: report.max_ratio)


# ---------------------------------------------------------------------------
# 1. fixed-point residual rate of the anchored proximal method


def ohm_rate_suite() -> SuiteResult:
    out = SuiteResult()
    reports = []
    for prob, z0 in _affine_set():
        trace = run(AlgorithmConfig("OHM", alpha=0.1, max_iterations=1000),
                    prob, z0)
        report = analysis.rate_bound(trace, prob, "OHM_RATE")
        reports.append(report)
        if not report.passed:
            k, ratio = report.worst()
            out.check(False, f"{prob.name}: ratio {ratio:.3e} at k={k}")
    worst = _worst(reports)
    out.check(worst.passed,
              f"residual^2 <= 4 d0^2/(k+1)^2 on 20 problems, "
              f"max ratio {worst.max_ratio:.4f}")
    out.details["max_ratio"] = worst.max_ratio
    return out


# ---------------------------------------------------------------------------
# 2. merging-path bound and summability for the fully anchored extragradient


def feg_ohm_mp_suite() -> SuiteResult:
    out = SuiteResult()
    for ratio_al in (0.25, 0.5, 0.9):
        mps, sums = [], []
        for prob, z0 in _affine_set():
            alpha = ratio_al / prob.lipschitz
            trace = run(AlgorithmConfig("FEG", alpha=alpha,
                                        max_iterations=1000), prob, z0)
            partner = analysis.run_ohm_partner(prob, alpha, 1000, z0)
            mps.append(analysis.merging_path(trace, partner, prob).report)
            sums.append(analysis.feg_summability_report(trace, prob))
        worst_mp, worst_sum = _worst(mps), _worst(sums)
        out.check(worst_mp.passed,
                  f"alpha*L={ratio_al}: max k^2 dist^2 / bound = "
                  f"{worst_mp.max_ratio:.4f}")
        out.check(worst_sum.passed,
                  f"alpha*L={ratio_al}: summability partial sums ratio "
                  f"{worst_sum.max_ratio:.4f}")
        out.details[f"mp_ratio_{ratio_al}"] = worst_mp.max_ratio
        out.details[f"sum_ratio_{ratio_al}"] = worst_sum.max_ratio
    return out


# ---------------------------------------------------------------------------
# 3. merging paths of the one-call and two-call anchored schemes (no constant)


def eag_aps_mp_suite() -> SuiteResult:
    out = SuiteResult()
    iterations = 2000
    split = analysis.reported_split(iterations + 1)
    sups = {"EAG": 0.0, "APS": 0.0}
    held = {"EAG": True, "APS": True}
    for prob, z0 in _affine_set():
        alpha = 0.125 / prob.lipschitz
        partner = analysis.run_ohm_partner(prob, alpha, iterations, z0)
        for name in ("EAG", "APS"):
            trace = run(AlgorithmConfig(name, alpha=alpha,
                                        max_iterations=iterations), prob, z0)
            mp = analysis.merging_path(trace, partner, prob)
            if not mp.passed:
                held[name] = False
                out.check(False, f"{name} on {prob.name}: k^2 dist^2 not "
                                 f"finite or still growing after k={split}")
                continue
            sups[name] = max(sups[name], mp.report.measured.max())
    for name, sup in sups.items():
        out.check(held[name], f"{name}: sup k^2 dist^2 = {sup:.4e}, finite "
                              f"and attained before k={split}")
        out.details[f"sup_{name}"] = sup
    out.info("no theoretical constant asserted at alpha*L = 1/8 "
             "(outside the certified summability range)")
    return out


# ---------------------------------------------------------------------------
# 4. strongly monotone anchored rate, plus the mu = 0 coincidence


def sm_eag_rate_suite() -> SuiteResult:
    out = SuiteResult()
    reports = []
    for prob, z0 in _scsc_set():
        alpha = max_step_strongly_monotone(prob.lipschitz, prob.mu)
        trace = run(AlgorithmConfig("SM_EAG_PLUS", alpha=alpha,
                                    max_iterations=500), prob, z0)
        report = analysis.rate_bound(trace, prob, "SM_EAG_RATE")
        reports.append(report)
        if not report.passed:
            k, ratio = report.worst()
            out.check(False, f"{prob.name}: ratio {ratio:.3e} at k={k}")
    worst = _worst(reports)
    out.check(worst.passed,
              f"||B z_k||^2 within the geometric-anchor bound on 20 problems, "
              f"max ratio {worst.max_ratio:.4f}")
    out.details["max_ratio"] = worst.max_ratio

    bilinear = make_bilinear([[1.0, 0.3], [-0.2, 0.8]])
    z0 = np.array([1.0, -2.0, 0.5, 1.5])
    alpha = 0.5 / bilinear.lipschitz
    feg = run(AlgorithmConfig("FEG", alpha=alpha, max_iterations=300),
              bilinear, z0)
    sm = run(AlgorithmConfig("SM_EAG_PLUS", alpha=alpha, max_iterations=300),
             bilinear, z0)
    same = (np.array_equal(feg.main, sm.main)
            and np.array_equal(feg.auxiliary["half"], sm.auxiliary["half"]))
    out.check(same, "mu = 0 run is bit-identical to the fully anchored "
                    "extragradient")
    return out


# ---------------------------------------------------------------------------
# 5. geometric merging to the contraction-tuned anchored proximal method


def sm_oc_halpern_mp_suite() -> SuiteResult:
    out = SuiteResult()
    lipschitz, mu = 10.0, 0.1
    alpha = 0.5 * max_step_strongly_monotone(lipschitz, mu)
    weights = analysis.geometric_weights(alpha, mu, 501)
    sup_all = 0.0
    for seed in range(5):
        prob = make_random_scsc(seed, 10, lipschitz, mu)
        z0 = np.random.default_rng(4000 + seed).standard_normal(10)
        sm = run(AlgorithmConfig("SM_EAG_PLUS", alpha=alpha,
                                 max_iterations=500), prob, z0)
        oc = run(AlgorithmConfig("OC_HALPERN", alpha=alpha,
                                 max_iterations=500), prob, z0)
        mp = analysis.merging_path(sm, oc, prob)
        weighted = mp.sq_distance * weights
        out.check(mp.passed, f"seed {seed}: weighted distances finite, "
                             f"sup {weighted.max():.4e} at "
                             f"k={weighted.argmax()}")
        sup_all = max(sup_all, float(weighted.max()))
    out.details["implied_constant"] = sup_all
    out.info(f"implied merging constant {sup_all:.4e} "
             f"(reported, not asserted; "
             f"epsilon = {analysis.GEOMETRIC_EPSILON})")
    return out


# ---------------------------------------------------------------------------
# 6. Lyapunov descent suites


def lyapunov_suite() -> SuiteResult:
    out = SuiteResult()
    problems = _scsc_set()
    for ratio_al in (0.25, 0.5, 0.9):
        ok = True
        for prob, z0 in problems:
            alpha = ratio_al / prob.lipschitz
            trace = run(AlgorithmConfig("FEG", alpha=alpha,
                                        max_iterations=200), prob, z0)
            ly = analysis.lyapunov_feg(trace, alpha, prob.solution,
                                       prob.lipschitz)
            ok = ok and ly.passed
        out.check(ok, f"anchored-extragradient Lyapunov descent at "
                      f"alpha*L = {ratio_al} on 20 problems")
    for factor in (0.5, 1.0):
        ok = True
        for prob, z0 in problems:
            alpha = factor * max_step_strongly_monotone(prob.lipschitz,
                                                        prob.mu)
            trace = run(AlgorithmConfig("SM_EAG_PLUS", alpha=alpha,
                                        max_iterations=200), prob, z0)
            ly = analysis.lyapunov_sm_eag(trace, alpha, prob.mu,
                                         prob.lipschitz, prob.solution)
            ok = ok and ly.passed
        out.check(ok, f"strongly monotone Lyapunov descent at "
                      f"{factor:.1f} x max step on 20 problems")
    return out


# ---------------------------------------------------------------------------
# 7/8. composite splitting: merging path, residual rate, inner-oracle trend


def _apg_setup(iterations):
    prob = make_box_bilinear_composite(seed=5)
    alpha = 0.5 / prob.lipschitz
    xi0 = 2.0 * np.random.default_rng(77).standard_normal(prob.dim)
    apg = run(AlgorithmConfig("APG_STAR", alpha=alpha,
                              max_iterations=iterations), prob, xi0)
    return prob, alpha, xi0, apg


def apg_mp_suite() -> SuiteResult:
    out = SuiteResult()
    prob, alpha, xi0, apg = _apg_setup(300)
    drs = run(AlgorithmConfig("OHM_DRS", alpha=alpha, max_iterations=300),
              prob, xi0)
    mp = analysis.merging_path(apg, drs, prob)
    out.info(mp.note)
    out.check(mp.passed, f"max(outer, inner) squared distance within "
                         f"C^2/(L^2 (k+1)^2), max ratio "
                         f"{mp.report.max_ratio:.4f}")
    xi_star = analysis.reference_point(apg, prob)
    c = analysis.apg_path_constant(prob, xi0, xi_star)
    rate = analysis.rate_bound(apg, prob, "APG_RESIDUAL", reference=xi_star)
    out.check(rate.passed, f"||G(z_k)||^2 within (3+aL)^2 C^2/(a^2 L^2 (k+1)^2), "
                           f"max ratio {rate.max_ratio:.4f}")
    drs_rate = analysis.rate_bound(drs, prob, "OHM_DRS_RATE",
                                   reference=xi_star)
    out.check(drs_rate.passed, f"splitting partner residual rate, "
                               f"max ratio {drs_rate.max_ratio:.4f}")
    out.details.update(mp_ratio=mp.report.max_ratio,
                       rate_ratio=rate.max_ratio,
                       drs_ratio=drs_rate.max_ratio, path_constant=c)
    return out


def apg_oracle_trend_suite() -> SuiteResult:
    out = SuiteResult()
    _, _, _, apg = _apg_setup(1000)
    counts = apg.auxiliary["inner_b_evals"]
    ks = np.array([10, 100, 1000])
    obs = counts[ks].astype(float)
    design = np.vstack([np.ones(3), np.log(ks)]).T
    coef, *_ = np.linalg.lstsq(design, obs, rcond=None)
    resid = obs - design @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    mean = float(obs.mean())
    out.check(rms <= 0.2 * mean,
              f"inner evals at k=10/100/1000 = {obs.astype(int).tolist()} fit "
              f"a + b log k (a={coef[0]:.2f}, b={coef[1]:.2f}); rms residual "
              f"{rms:.3f} <= 20% of mean {mean:.1f}")
    out.details.update(counts=obs.tolist(), intercept=coef[0], slope=coef[1],
                       rms=rms)
    return out


# ---------------------------------------------------------------------------
# 9. point convergence onto the projection of the start


def point_convergence_suite() -> SuiteResult:
    out = SuiteResult()
    cases = []
    prob1 = make_bilinear(np.diag([1.0, 0.0]), [0.2, 0.0], [-0.3, 0.0],
                          want_solution=False, name="rank-deficient-1")
    z01 = np.array([-0.27, 2.0, -0.23, -1.5])  # small offset off the zero set
    cases.append((prob1, z01))
    prob2 = make_bilinear([[1.0, 0.0], [1.0, 0.0]], [0.1, 0.1], [0.4, 0.0],
                          want_solution=False, name="rank-deficient-2")
    z02 = np.array([0.21, 0.2, -0.09, 1.0])
    cases.append((prob2, z02))
    for prob, z0 in cases:
        target = analysis.affine_zero_projection(prob, z0)
        alpha = 0.125 / prob.lipschitz
        for name in ("EAG", "FEG", "APS"):
            trace = run(AlgorithmConfig(name, alpha=alpha,
                                        max_iterations=5000), prob, z0)
            gap = float(np.linalg.norm(trace.final - target))
            out.check(gap <= 1e-4,
                      f"{name} on {prob.name}: |z_5000 - proj| = {gap:.3e}")
    return out


# ---------------------------------------------------------------------------
# 10. trajectory reproduction for the 2-d convex benchmark


def figure1_trajectories(iterations=200):
    """All benchmark runs from the caption start; a path that leaves the
    domain is reported, not fatal."""
    prob = make_figure1()
    z0 = prob.start
    runs, failures = {}, {}
    for a in AGM_MOMENTUM_CHOICES:
        label = f"AGM(a={a:g})"
        try:
            runs[label] = run(AlgorithmConfig("AGM", alpha=FIGURE1_AGM_STEP,
                                              momentum_a=a,
                                              max_iterations=iterations),
                              prob, z0)
        except DomainViolation as exc:
            failures[label] = str(exc)
    for name in ("EAG", "FEG", "APS", "OHM"):
        runs[name] = run(AlgorithmConfig(name, alpha=FIGURE1_ANCHORED_STEP,
                                         max_iterations=iterations),
                         prob, z0)
    return prob, runs, failures


def figure1_summary(runs):
    """Pairwise trajectory distances at k = FIGURE1_SUMMARY_K, with the merge
    threshold 1e-3 of the initial-point scale."""
    at_k = FIGURE1_SUMMARY_K
    some = next(iter(runs.values()))
    threshold = 1e-3 * float(np.linalg.norm(some.main[0]))
    anchored = [n for n in runs if not n.startswith("AGM")]
    momentum = [n for n in runs if n.startswith("AGM")]

    def pairwise(names):
        table = {}
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                table[f"{a}|{b}"] = float(np.linalg.norm(
                    runs[a].main[at_k] - runs[b].main[at_k]))
        return table

    return {
        "at_k": at_k,
        "threshold": threshold,
        "anchored_pairwise": pairwise(anchored),
        "momentum_pairwise": pairwise(momentum),
    }


def figure1_suite() -> SuiteResult:
    out = SuiteResult()
    prob, runs, failures = figure1_trajectories()
    for label, msg in failures.items():
        out.info(f"{label} left the domain: {msg}")
    start = prob.start
    out.check(all(np.array_equal(t.main[0], start) for t in runs.values()),
              f"all trajectories start at exactly ({start[0]:g}, {start[1]:g})")
    summary = figure1_summary(runs)
    thr = summary["threshold"]
    worst_anchored = max(summary["anchored_pairwise"].values())
    best_momentum = min(summary["momentum_pairwise"].values()) \
        if summary["momentum_pairwise"] else math.inf
    out.check(worst_anchored <= thr,
              f"anchored pairwise distances at k=50 <= {thr:.3e} "
              f"(max {worst_anchored:.3e})")
    out.check(best_momentum > thr,
              f"momentum pairwise distances at k=50 > {thr:.3e} "
              f"(min {best_momentum:.3e})")
    out.details.update(summary)
    return out


# ---------------------------------------------------------------------------
# 11. oracle-call comparison at condition number 1e4


def speedup_problem() -> Problem:
    """Strongly monotone operator (L = 1, mu = 1e-4, condition number 1e4)
    with both a slow real mode and a dominant rotation, so classical
    two-call/one-call methods run at their worst-case rates; constants are
    exact by construction."""
    lipschitz, mu = 1.0, 1e-4
    lam = math.sqrt(lipschitz ** 2 - mu ** 2)
    mat = np.array([
        [mu, 0.0, 0.0],
        [0.0, mu, lam],
        [0.0, -lam, mu],
    ])
    op = AffineOperator(mat, lipschitz=lipschitz, mu=mu)
    return Problem(name="speedup-worst-case", operator=op,
                   solution=np.zeros(3))


def speedup_suite() -> SuiteResult:
    out = SuiteResult()
    tol = 1e-6
    prob = speedup_problem()
    z0 = np.array([1.0, 0.7, -0.7])
    budget = 3_000_000
    calls = {}
    for name, alpha in (("EG", 1.0 / (4.0 * prob.lipschitz)),
                        ("OG", 1.0 / (4.0 * prob.lipschitz)),
                        ("SM_EAG_PLUS",
                         max_step_strongly_monotone(prob.lipschitz, prob.mu))):
        trace = run(AlgorithmConfig(name, alpha=alpha, max_iterations=budget,
                                    stop_residual=tol,
                                    record_iterates=False), prob, z0)
        reached = analysis.iterations_to_tolerance(trace, tol)
        out.check(reached is not None,
                  f"{name} reached ||B z|| <= {tol:g} at k = {reached}")
        calls[name] = trace.total_b_evals()
    sm = calls["SM_EAG_PLUS"]
    out.check(sm < calls["EG"] and sm < calls["OG"],
              f"anchored method strictly cheaper: {sm} vs EG {calls['EG']} "
              f"and OG {calls['OG']}")
    out.info(f"measured call ratios EG/SM = {calls['EG'] / sm:.2f}, "
             f"OG/SM = {calls['OG'] / sm:.2f} (asymptotic constants 8 and 4 "
             f"are reported, not asserted)")
    out.details.update(calls=calls, ratio_eg=calls["EG"] / sm,
                       ratio_og=calls["OG"] / sm)
    return out


# ---------------------------------------------------------------------------
# 12. operator-core property sampling


def _sample_pairs(rng, dim, count):
    return (2.0 * rng.standard_normal((count, dim)),
            2.0 * rng.standard_normal((count, dim)))


def operator_property_suite() -> SuiteResult:
    out = SuiteResult()
    pairs = 1000
    rng = np.random.default_rng(99)
    slack = 1e-9

    scsc = make_random_scsc(11, 5, 3.0, 0.5)
    skew = make_random_monotone_affine(12, 6, 2.0)
    candidates = [
        ("zero", AffineOperator(np.zeros((4, 4)))),
        ("strongly-monotone-affine", scsc.operator),
        ("skew-affine", skew.operator),
        ("scaled", ScaledOperator(0.7, scsc.operator)),
        ("sum", SumOperator([scsc.operator,
                             AffineOperator(np.zeros((5, 5)))])),
        ("shifted-identity", ShiftedIdentityPlus(scsc.operator, 0.2,
                                                 np.zeros(5))),
    ]
    for name, op in candidates:
        zs, ws = _sample_pairs(rng, op.dim, pairs)
        mono_ok = lip_ok = True
        for z, w in zip(zs, ws):
            dv = op(z) - op(w)
            dz = z - w
            if np.dot(dv, dz) < op.mu * np.dot(dz, dz) - slack:
                mono_ok = False
            if np.linalg.norm(dv) > op.lipschitz * np.linalg.norm(dz) + slack:
                lip_ok = False
        out.check(mono_ok, f"{name}: monotonicity modulus >= mu on "
                           f"{pairs} pairs")
        out.check(lip_ok, f"{name}: Lipschitz bound on {pairs} pairs")

    # resolvent nonexpansiveness and residual identity (exact resolvents)
    for name, op, alpha in (("strongly-monotone-affine", scsc.operator, 0.3),
                            ("skew-affine", skew.operator, 0.2)):
        zs, ws = _sample_pairs(rng, op.dim, pairs)
        nonexp_ok = ident_ok = True
        for z, w in zip(zs, ws):
            jz, jw = op.resolvent(alpha, z), op.resolvent(alpha, w)
            if np.linalg.norm(jz - jw) > np.linalg.norm(z - w) + slack:
                nonexp_ok = False
            if np.linalg.norm(z - jz - alpha * op(jz)) > slack:
                ident_ok = False
        out.check(nonexp_ok, f"{name}: resolvent nonexpansive on {pairs} pairs")
        out.check(ident_ok, f"{name}: z - J(z) = alpha B(J(z)) on {pairs} pairs")

    # the box prox (one box per player, stacked) is an exact resolvent too
    box = make_box_bilinear_composite(seed=21).prox_part
    zs, ws = _sample_pairs(rng, box.dim, pairs)
    nonexp_ok = True
    for z, w in zip(zs, ws):
        jz = box.resolvent(0.3, z)
        jw = box.resolvent(0.3, w)
        if np.linalg.norm(jz - jw) > np.linalg.norm(z - w) + slack:
            nonexp_ok = False
    out.check(nonexp_ok, f"blockwise prox: resolvent nonexpansive on "
                         f"{pairs} pairs")

    # forward-backward residual inequality on a composite pair
    comp = make_box_bilinear_composite(seed=21)
    alpha = 0.4 / comp.lipschitz
    vs, ws = _sample_pairs(rng, comp.dim, pairs)
    coco_ok = True
    for v, w in zip(vs, ws):
        gv = forward_backward_residual(comp.prox_part, comp.operator, alpha, v)
        gw = forward_backward_residual(comp.prox_part, comp.operator, alpha, w)
        lhs = np.dot(gv - gw, (v + alpha * comp.operator(v))
                     - (w + alpha * comp.operator(w)))
        if lhs < alpha * np.dot(gv - gw, gv - gw) - slack:
            coco_ok = False
    out.check(coco_ok, f"forward-backward residual inequality on {pairs} pairs")

    # residual-versus-operator bound for alpha * L < 1
    op = scsc.operator
    alpha = 0.2 / op.lipschitz
    us = 2.0 * rng.standard_normal((pairs, op.dim))
    resid_ok = True
    factor = alpha / (1.0 - alpha * op.lipschitz)
    for u in us:
        if (np.linalg.norm(u - op.resolvent(alpha, u))
                > factor * np.linalg.norm(op(u)) + slack):
            resid_ok = False
    out.check(resid_ok, f"||u - J(u)|| <= a/(1-aL) ||B u|| on {pairs} points")

    # saddle map agrees with central differences of the scalar function
    # L(x, y) = x'Ay + b'x - c'y
    a = np.array([[1.0, -0.4], [0.6, 0.2]])
    b, c = np.array([0.3, -0.1]), np.array([0.2, 0.5])
    bil = make_bilinear(a, b, c)

    def value(z):
        x, y = z[:2], z[2:]
        return float(x @ (a @ y) + b @ x - c @ y)

    step = 1e-6
    fd_ok = True
    for z in rng.standard_normal((100, 4)):
        fd = np.empty(4)
        for i in range(4):
            e = np.zeros(4)
            e[i] = step
            fd[i] = (value(z + e) - value(z - e)) / (2.0 * step)
        fd[2:] = -fd[2:]
        got = bil.operator(z)
        if np.linalg.norm(got - fd) > 1e-5 * max(1.0, np.linalg.norm(got)):
            fd_ok = False
    out.check(fd_ok, "saddle map matches central finite differences "
                     "(rel err <= 1e-5 at step 1e-6)")
    return out


# ---------------------------------------------------------------------------

SUITES = {
    "ohm-rate": ohm_rate_suite,
    "feg-ohm-mp": feg_ohm_mp_suite,
    "eag-aps-mp": eag_aps_mp_suite,
    "sm-eag-rate": sm_eag_rate_suite,
    "sm-eag-oc-halpern-mp": sm_oc_halpern_mp_suite,
    "lyapunov": lyapunov_suite,
    "apg-mp": apg_mp_suite,
    "apg-oracle-trend": apg_oracle_trend_suite,
    "point-convergence": point_convergence_suite,
    "figure1": figure1_suite,
    "speedup": speedup_suite,
    "operator-properties": operator_property_suite,
}


def run_suite(name: str) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    return SUITES[name]()
