"""Trace analysis: merging-path rules and distances, Lyapunov evaluation,
summability constants, and measured-versus-theoretical rate reports. The
merging-path rule of each pair (``MP_RULES``, ``merging_path``) and the
reference point of each bound (``reference_point``) are decided here alone.

Verdict convention: a measurement passes when
``measured / (bound + ATOL) <= 1 + RTOL`` with RTOL = 1e-9 and an absolute
floor ATOL = 1e-14; the floor absorbs floating-point cancellation noise once
residuals decay to machine level without masking real violations. That
quotient is the reported ratio, so the verdict and ``max_ratio`` agree.
These tolerances, and ``LYAPUNOV_SLACK``, are constants: no report loosens
them.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import algorithms
from .errors import (
    ConfigError,
    MismatchedTraces,
    MissingReferencePoint,
    SingularSystem,
    StepTooLarge,
)
from .operators import (
    AffineOperator,
    Array,
    BoxProx,
    as_vector,
    drs_map,
    vector_norm,
)
from .problems import Problem

RTOL = 1e-9
ATOL = 1e-14
#: slack of the Lyapunov checks, V_k >= 0 and decrements above the
#: certified lower bounds
LYAPUNOV_SLACK = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """Measured values and their theoretical bound at the indices ``k_values``
    (a rule leaves out a k where its bound is vacuous), with a verdict."""

    k_values: Array
    measured: Array
    bound: Array

    def __post_init__(self):
        if not (len(self.k_values) == len(self.measured) == len(self.bound)):
            raise MismatchedTraces("report sequences must share length")
        # a zero bound is one (ATOL floors the ratio); NaN is refused
        if not np.all(self.bound >= 0):
            raise ValueError("bound entries must be nonnegative numbers "
                             "on the reported range")

    @property
    def ratios(self) -> Array:
        return self.measured / (self.bound + ATOL)

    @property
    def max_ratio(self) -> float:
        return float(self.ratios.max())

    @property
    def passed(self) -> bool:
        return self.max_ratio <= 1.0 + RTOL

    def worst(self):
        """(k, ratio) at the largest measured/bound ratio."""
        i = int(np.argmax(self.ratios))
        return int(self.k_values[i]), float(self.ratios[i])


@dataclass(frozen=True)
class LyapunovTrace:
    """Values V_k, decrements V_k - V_{k+1}, and certified lower bounds."""

    values: Array
    decrements: Array
    certified_lower: Array

    @property
    def passed(self) -> bool:
        """V_k >= 0 and every decrement above its certified lower bound."""
        return bool(np.all(self.values >= -LYAPUNOV_SLACK)
                    and np.all(self.decrements
                               >= self.certified_lower - LYAPUNOV_SLACK))


# ---------------------------------------------------------------------------
# merging paths

#: the merging-path rule of each algorithm pair; any algorithm against itself
#: has the rule "self"
MP_RULES = {
    ("FEG", "OHM"): "constant",
    ("EAG", "OHM"): "reported",
    ("APS", "OHM"): "reported",
    ("SM_EAG_PLUS", "OC_HALPERN"): "geometric",
    ("APG_STAR", "OHM_DRS"): "splitting",
}

#: the recorded sequences besides ``main`` that ``merging_path`` reads of
#: the first and of the second trace, by rule; a rule not named reads
#: ``main`` alone
MP_READS = {"splitting": (("z",), ("w",))}

#: epsilon of the geometric merging weight (1 + 2 alpha mu (1 - epsilon))^k
GEOMETRIC_EPSILON = 0.1


def mp_distance(trace1, trace2) -> Array:
    """Squared distances ||z_k^(1) - z_k^(2)||^2 between the recorded main
    sequences of two runs from the same start at the same step size."""
    if trace1.params["alpha"] != trace2.params["alpha"]:
        raise MismatchedTraces("traces use different step sizes")
    a, b = trace1.sequences("main"), trace2.sequences("main")
    if a.shape != b.shape:
        raise MismatchedTraces(f"shapes {a.shape} vs {b.shape}")
    if not np.array_equal(a[0], b[0]):
        raise MismatchedTraces("traces start from different points")
    diff = a - b
    np.multiply(diff, diff, out=diff)  # the bits of (a - b) ** 2, one array
    return np.sum(diff, axis=1)


def mp_rule(first: str, second: str) -> str:
    """The merging-path rule of an algorithm pair; ConfigError if none."""
    rule = "self" if first == second else MP_RULES.get((first, second))
    if rule is None:
        raise ConfigError(f"no declared merging-path rule for pair "
                          f"{(first, second)}")
    return rule


def reported_split(rows: int) -> int:
    """First row of the tail that the "reported" rule keeps within the
    supremum of the rows before it."""
    return max(1, 3 * rows // 4)


def geometric_weights(alpha: float, mu: float, rows: int) -> Array:
    """(1 + 2 alpha mu (1 - epsilon))^k for k = 0..rows-1."""
    return (1.0 + 2.0 * alpha * mu * (1.0 - GEOMETRIC_EPSILON)) ** np.arange(rows)


@dataclass(frozen=True)
class MergingPath:
    """A pair's merging-path report for k = 0..K, with its verdict and note."""

    sq_distance: Array
    report: BoundReport
    passed: bool
    note: str


def merging_path(trace1, trace2, problem: Problem) -> MergingPath:
    """Apply the pair's merging-path rule, ``mp_rule(trace1.algorithm,
    trace2.algorithm)`` (see ``MP_RULES``), to two traces that start from
    the same point at the same step size (else MismatchedTraces). Of each
    trace it reads ``main`` and the sequences that ``MP_READS`` names for
    the rule. The distances come first, so a trace without recorded
    iterates is refused (ConfigError) before any reference point is
    computed.

    "constant" and "splitting" check the paper's bounds; the note of
    "splitting" says whether its reference point passes the certificate
    ``REFERENCE_CERTIFICATE`` (exact) or not (the fallback run's end), with
    its splitting-map residual. "reported" weights the squared distances by
    k^2 and "geometric" by ``geometric_weights``; their bound is the
    weighted supremum as an empirical envelope, and the verdict asks it to
    be finite and, for "reported", attained before ``reported_split``.
    "self" asks for identical paths.
    """
    rule = mp_rule(trace1.algorithm, trace2.algorithm)
    sq = mp_distance(trace1, trace2)
    if rule == "constant":
        report = mp_bound_feg_ohm(trace1, problem, trace_ohm=trace2)
        return MergingPath(sq, report, report.passed, "constant bound")
    if rule == "splitting":
        xi_star = reference_point(trace1, problem)
        report = mp_bound_apg(trace1, trace2, problem, xi_star=xi_star)
        c = apg_path_constant(problem, trace1.start, xi_star)
        res = splitting_residual(problem, trace1.params["alpha"], xi_star)
        how = ("exact and certified" if res <= REFERENCE_CERTIFICATE
               else "from the fallback splitting run")
        return MergingPath(sq, report, report.passed,
                           f"path constant C(xi_0) = {c:.6g}, reference "
                           f"point {how} (splitting-map residual {res:.1e})")
    k = np.arange(len(sq))
    if rule == "self":
        measured, bound = sq, np.ones(len(sq))
        passed, note = bool(np.all(sq == 0.0)), "identical algorithms"
    elif rule == "geometric":
        growth = geometric_weights(trace1.params["alpha"], problem.mu, len(sq))
        weighted = sq * growth
        passed = bool(np.all(np.isfinite(weighted)))
        sup = float(weighted.max()) if passed else float("inf")
        measured, bound = sq, np.maximum(sup / np.maximum(growth, 1.0), ATOL)
        note = (f"empirical geometric envelope, constant {sup:.6g} "
                f"(reported, not asserted)")
    else:  # "reported"
        measured = k ** 2 * sq
        finite = bool(np.all(np.isfinite(measured)))
        split = reported_split(len(sq))
        passed = finite and bool(measured[split:].max()
                                 <= max(measured[:split].max(), ATOL))
        sup = float(measured.max()) if finite else float("inf")
        bound = np.full(len(sq), max(sup, ATOL))
        note = (f"empirical envelope sup k^2 dist^2 = {sup:.6g} "
                f"(no theoretical constant)")
    report = BoundReport(k_values=k, measured=measured, bound=bound)
    return MergingPath(sq, report, passed, note)


def run_ohm_partner(problem: Problem, alpha: float, iterations: int, z0):
    """Anchored proximal partner run used by the merging-path bounds."""
    cfg = algorithms.AlgorithmConfig(algorithm="OHM", alpha=alpha,
                                     max_iterations=iterations)
    return algorithms.run(cfg, problem, z0)


def _expect(trace, *algorithms) -> None:
    """ConfigError unless ``trace`` is a run of one of ``algorithms``, the
    methods that a bound holds for."""
    if trace.algorithm not in algorithms:
        raise ConfigError(f"this bound holds for {' or '.join(algorithms)} "
                          f"traces, got a trace of {trace.algorithm}")


def _need_step(trace) -> None:
    """ConfigError for a trace that stopped at row 0, without a step."""
    if trace.iterations < 1:
        raise ConfigError(f"the {trace.algorithm} trace stopped at row 0, so "
                          f"it has no step k = 0 -> 1 for this bound")


def _feg_bound_inputs(trace_feg, problem: Problem):
    """alpha, L and ||z0 - z*||^2 of a bound on an FEG trace, with z* from
    ``reference_point``; ConfigError for another algorithm's trace, for a
    trace without a step, or unless alpha * L < 1."""
    _expect(trace_feg, "FEG")
    _need_step(trace_feg)
    alpha = trace_feg.params["alpha"]
    lip = problem.lipschitz
    if alpha * lip >= 1.0:
        raise ConfigError("bound needs alpha * L < 1")
    z_star = reference_point(trace_feg, problem)
    return alpha, lip, np.sum((trace_feg.start - z_star) ** 2)


def mp_bound_feg_ohm(trace_feg, problem: Problem,
                     trace_ohm=None) -> BoundReport:
    """k^2-weighted squared distance of FEG to its anchored proximal partner
    against the constant ||z0 - z*||^2 / (1 - alpha^2 L^2), k = 0..K, with
    z* from ``reference_point``. A given partner must be an OHM run at the
    same step size."""
    alpha, lip, dist0 = _feg_bound_inputs(trace_feg, problem)
    if trace_ohm is None:
        trace_feg.sequences("main")  # refused before the partner runs
        trace_ohm = run_ohm_partner(problem, alpha, trace_feg.iterations,
                                    trace_feg.start)
    else:
        _expect(trace_ohm, "OHM")
    sq = mp_distance(trace_feg, trace_ohm)
    k = np.arange(len(sq))
    const = float(dist0 / (1.0 - alpha ** 2 * lip ** 2))
    return BoundReport(k_values=k, measured=k ** 2 * sq,
                       bound=np.full(k.shape, const))


def feg_summability_report(trace_feg, problem: Problem) -> BoundReport:
    """Partial sums of ||k B z_k - (k+1) B z_{k+1/2}||^2 of an FEG trace
    against ||z0 - z*||^2 / (alpha^2 (1 - alpha^2 L^2)), with z* from
    ``reference_point``."""
    alpha, lip, dist0 = _feg_bound_inputs(trace_feg, problem)
    bz, bh = trace_feg.sequences("op_evals", "op_half")
    n = len(bh)
    k = np.arange(n, dtype=float)[:, None]
    summand = np.sum((k * bz[:n] - (k + 1.0) * bh) ** 2, axis=1)
    const = float(dist0 / (alpha ** 2 * (1.0 - alpha ** 2 * lip ** 2)))
    return BoundReport(k_values=np.arange(n), measured=np.cumsum(summand),
                       bound=np.full(n, const))


def mp_bound_apg(trace_apg, trace_drs, problem: Problem,
                 xi_star=None) -> BoundReport:
    """max(||xi_k - u_k||^2, ||z_k - w_k||^2) against C(xi_0)^2 / (L^2 (k+1)^2)
    for an APG_STAR trace and its OHM_DRS partner at the same step size."""
    _expect(trace_apg, "APG_STAR")
    _expect(trace_drs, "OHM_DRS")
    z, w = trace_apg.sequences("z"), trace_drs.sequences("w")
    sq_outer = mp_distance(trace_apg, trace_drs)
    measured = np.maximum(sq_outer, np.sum((z - w) ** 2, axis=1))
    xi_star = reference_point(trace_apg, problem, xi_star)
    c = apg_path_constant(problem, trace_apg.start, xi_star)
    k = np.arange(len(measured))
    lip = problem.lipschitz
    if lip > 0:
        bound = c ** 2 / (lip ** 2 * (k + 1.0) ** 2)
    else:
        bound = np.ones(len(k))  # degenerate smooth part; paths coincide
    return BoundReport(k_values=k, measured=measured, bound=bound)


def apg_path_constant(problem: Problem, xi0, xi_star) -> float:
    """C(xi_0) = L (||xi_0 - xi*|| + 1) + ||B xi*||; both points are checked
    by ``_given_point``."""
    xi0 = _given_point("xi0", xi0, problem.dim)
    xi_star = _given_point("xi_star", xi_star, problem.dim)
    lip = problem.lipschitz
    return float(lip * (np.linalg.norm(xi0 - xi_star) + 1.0)
                 + np.linalg.norm(problem.operator(xi_star)))


# ---------------------------------------------------------------------------
# Lyapunov evaluation


def lyapunov_feg(trace, alpha: float, z_star, lipschitz: float) -> LyapunovTrace:
    """FEG's Lyapunov function: ``lyapunov_sm_eag`` at mu = 0, which reads
    V_k = (alpha k^2 / 2) ||B z_k||^2 + k <B z_k, z_k - z0> +
    ||z0 - z*||^2 / (2 alpha), with certified decrement
    (alpha (1 - alpha^2 L^2) / 2) ||k B z_k - (k+1) B z_{k+1/2}||^2.
    ConfigError for a trace of another algorithm."""
    _expect(trace, "FEG")
    return lyapunov_sm_eag(trace, alpha, 0.0, lipschitz, z_star)


def lyapunov_sm_eag(trace, alpha: float, mu: float, lipschitz: float,
                    z_star) -> LyapunovTrace:
    """Lyapunov values for the anchored extragradient family of SM_EAG_PLUS,
    whose mu = 0 member is FEG.

    With x = 1 + 2 alpha mu, the anchors are beta_k = 1 / S_k with
    S_k = sum_{j<=k} x^j, q_k = sum_{j<k} x^{-j} and p_k = (alpha / 2)
    q_k S_{k-1}, so p_0 = q_0 = 0, and at mu = 0, S_k = k + 1 and q_k = k
    exactly. The certified decrement is
    (alpha (1 + 2 alpha mu - alpha^2 L^2) / 2) ||B z_0||^2 at k = 0 and
    q_k / (beta_k (1 - beta_k)) times the analogous half-step mismatch for
    k >= 1. ConfigError for a trace of neither method, for mu < 0 or NaN,
    for an ``alpha`` other than the trace's, or for a trace without recorded
    half-steps; ``z_star`` is checked by ``_given_point``.
    """
    _expect(trace, "FEG", "SM_EAG_PLUS")
    if not mu >= 0:
        raise ConfigError(f"the Lyapunov function needs mu >= 0, got {mu}")
    if alpha != trace.params["alpha"]:
        raise ConfigError(f"alpha = {alpha} differs from the trace's "
                          f"{trace.params['alpha']}")
    z, bz, bh = trace.sequences("main", "op_evals", "op_half")
    z_star = _given_point("z_star", z_star, z.shape[1])
    n = len(bh)
    x = 1.0 + 2.0 * alpha * mu
    z0 = z[0]
    head = (1.0 / (2.0 * alpha) + mu) * float(np.sum((z0 - z_star) ** 2))
    s = _partial_sums(x, n + 1)
    beta = 1.0 / s
    eta = (1.0 - beta) / x
    q = np.concatenate(([0.0], _partial_sums(1.0 / x, n)))
    p = np.zeros(n + 1)
    p[1:] = 0.5 * alpha * q[1:] * s[:-1]
    diff = z[:n + 1] - z0
    values = (p * np.sum(bz[:n + 1] ** 2, axis=1)
              + q * np.sum((bz[:n + 1] - mu * diff) * diff, axis=1)
              + head)
    lead = 0.5 * alpha * (1.0 + 2.0 * alpha * mu - alpha ** 2 * lipschitz ** 2)
    mismatch = np.sum((eta[:n, None] * bz[:n] - bh) ** 2, axis=1)
    cert = np.empty(n)  # empty for a trace that stopped at row 0
    cert[:1] = lead * float(np.sum(bz[0] ** 2))
    scale = q[1:n] / (beta[1:n] * (1.0 - beta[1:n]))
    cert[1:] = lead * scale * mismatch[1:]
    return LyapunovTrace(values=values,
                         decrements=values[:-1] - values[1:],
                         certified_lower=cert)


# ---------------------------------------------------------------------------
# rate bounds

RATE_RULES = ("OHM_RATE", "OC_HALPERN_RATE", "SM_EAG_RATE", "APG_RESIDUAL",
              "OHM_DRS_RATE")


def _partial_sums(ratio: float, n: int) -> Array:
    """sum_{j<=k} ratio^j for k = 0..n-1, as cumulative sums; exactly k + 1
    at ratio 1."""
    return np.cumsum(ratio ** np.arange(n, dtype=float))


def rate_bound(trace, problem: Problem, rule: str, reference=None) -> BoundReport:
    """Compare a trace's natural residuals against a theoretical rate.

    The reference point (w*, z*, or xi*) is ``reference_point``'s: the given
    ``reference``, else the splitting fixed point of a composite problem,
    else the problem's known solution. OHM_RATE and OHM_DRS_RATE are
    OC_HALPERN_RATE at gamma = 1, and FEG's rate is SM_EAG_RATE at mu = 0.
    """
    if rule not in RATE_RULES:
        raise ConfigError(f"unknown rate rule {rule!r}")
    alpha = trace.params.get("alpha")
    res = trace.residual_norms
    start = trace.start
    ref = reference_point(trace, problem, reference)
    dist0 = float(np.sum((start - ref) ** 2))
    k = np.arange(len(res))
    measured = res ** 2
    if rule in ("OHM_RATE", "OHM_DRS_RATE", "OC_HALPERN_RATE"):
        # OHM_DRS residuals already carry the alpha factor
        gamma = 1.0
        if rule == "OC_HALPERN_RATE":
            gamma = trace.params.get("gamma")
            if gamma is None or gamma <= 1.0:
                raise ConfigError("OC_HALPERN_RATE needs gamma > 1")
        gsum = _partial_sums(gamma, len(k))  # sum_{j<=k} gamma^j
        bound = (1.0 + 1.0 / gamma) ** 2 * dist0 / gsum ** 2
    elif rule == "SM_EAG_RATE":
        _need_step(trace)
        root = math.sqrt(1.0 + 2.0 * alpha * problem.mu)
        k, measured = k[1:], measured[1:]  # the anchor sum is empty at k = 0
        gsum = _partial_sums(root, len(k))  # sum_{j<k} x^(j/2)
        bound = (root + 1.0) ** 2 * dist0 / (alpha ** 2 * gsum ** 2)
    else:  # APG_RESIDUAL
        lip = problem.lipschitz
        c = apg_path_constant(problem, start, ref)
        bound = ((3.0 + alpha * lip) ** 2 * c ** 2
                 / (alpha ** 2 * lip ** 2 * (k + 1.0) ** 2))
    return BoundReport(k_values=k, measured=measured, bound=bound)


# ---------------------------------------------------------------------------
# reference points

#: the most faces (the product over coordinates of 1 + its number of finite
#: bounds) of a box that ``fixed_point_reference`` enumerates
MAX_BOX_FACES = 3 ** 8
#: the splitting-map residual ||drs_map(u*) - u*|| that certifies an exact
#: reference point
REFERENCE_CERTIFICATE = 1e-12
#: relative slack of the face checks: bounds, signs, consistency and
#: distinctness of zeros
_FACE_SLACK = 1e-9


def reference_point(trace, problem: Problem, reference=None) -> Array:
    """The reference point of a bound on ``trace``: ``reference`` when given,
    checked by ``_given_point``; for a composite problem,
    ``fixed_point_reference`` at the trace's step size (the exact, certified
    fixed point of the splitting map for a box composite with affine B,
    else the end of a long splitting run from the trace's start, or
    MissingReferencePoint when that box composite has no fixed point);
    otherwise the problem's known solution, or MissingReferencePoint."""
    if reference is not None:
        return _given_point("reference point", reference, problem.dim)
    if problem.is_composite:
        return fixed_point_reference(problem, trace.params["alpha"],
                                     trace.start)
    if problem.solution is None:
        raise MissingReferencePoint(f"{problem.name} has no known solution "
                                    f"to serve as the reference point")
    return problem.solution


def _given_point(name: str, point, dim: int) -> Array:
    """A caller's ``point`` as a float64 vector of dimension ``dim``:
    DimensionMismatch for another shape, else ConfigError if not finite."""
    try:
        return as_vector(point, dim)
    except (TypeError, ValueError) as exc:  # None reads as NaN
        raise ConfigError(f"{name}: {exc}") from None


def fixed_point_reference(problem: Problem, alpha: float, start,
                          iterations: int = 100_000) -> Array:
    """A fixed point of the splitting map of a composite problem at step
    ``alpha``. A problem that is not composite has no splitting map; the
    OHM_DRS run refuses it with ConfigError.

    For a composite whose B is an ``AffineOperator`` and whose prox part is
    a ``BoxProx`` with at most ``MAX_BOX_FACES`` faces, the zero of A + B
    is solved exactly face by face. When it is unique, so is the fixed
    point u* = z* + alpha B z*, which is then the limit of the anchored run
    from any start; it is returned if it passes the
    certificate ||drs_map(u*) - u*|| <= ``REFERENCE_CERTIFICATE``. When
    every face was checked, no free block was singular and consistent, and
    no zero was found, A + B has no zero and the map no fixed point, so
    this raises MissingReferencePoint. Otherwise (another kind of
    composite, too many faces, a possible continuum of zeros, more than one
    zero, or a failed certificate) this is an ``iterations``-step anchored
    run from ``start``, approximating the projection of the start onto the
    fixed-point set.
    """
    exact = _box_composite_fixed_point(problem, alpha)
    if exact is not None:
        return exact
    cfg = algorithms.AlgorithmConfig(algorithm="OHM_DRS", alpha=alpha,
                                     max_iterations=iterations,
                                     record_iterates=False)
    return algorithms.run(cfg, problem, start).final


def _box_composite_fixed_point(problem: Problem, alpha: float):
    """The exact splitting fixed point of a composite whose B is an
    ``AffineOperator`` and whose prox part is a ``BoxProx``, or None when
    this solver does not apply or cannot certify a unique one;
    MissingReferencePoint when it proves that there is none.

    z is a zero of N_box + M z + t exactly when, with F the coordinates
    strictly inside their bounds, (M z + t)_F = 0, and every other
    coordinate sits at a bound with (M z + t)_i >= 0 at a lower bound and
    <= 0 at an upper one. Each face of the box fixes some coordinates at
    finite bounds and leaves the rest free; the free block is solved on
    every face, and the solutions that pass the bound and sign checks are
    the zeros. Every zero solves the free block of the face whose relative
    interior holds it, so unless some free block is singular and consistent
    (then the zeros may form a continuum, and this gives up), all zeros are
    found, and finding none proves that there is none.
    """
    op, a_part = problem.operator, problem.prox_part
    if not (isinstance(op, AffineOperator) and isinstance(a_part, BoxProx)):
        return None
    lower, upper = a_part.lower, a_part.upper
    # per coordinate: free (side 0), or fixed at a finite lower (-1) or
    # upper (+1) bound
    options = [[(0, 0.0)] + [(side, b) for side, b in ((-1, lo), (1, hi))
                             if math.isfinite(b)]
               for lo, hi in zip(lower.tolist(), upper.tolist())]
    if math.prod(len(o) for o in options) > MAX_BOX_FACES:
        return None
    m, t = op.matrix, op.offset
    t_size = float(np.abs(t).max())
    zeros = []
    for face in itertools.product(*options):
        sides = np.array([side for side, _ in face])
        z = np.array([b for _, b in face])
        free = np.flatnonzero(sides == 0)
        if free.size:
            block = m[np.ix_(free, free)]
            rhs = -(m[free] @ z + t[free])  # z is 0 on the free block
            sol, _, rank, _ = np.linalg.lstsq(block, rhs, rcond=None)
            z[free] = sol
        size = float(np.abs(z).max())
        slack_g = _FACE_SLACK * (1.0 + t_size + op.lipschitz * size)
        if free.size and rank < free.size:
            if vector_norm(block @ sol - rhs) <= slack_g:
                return None  # the zeros may form a continuum
            continue
        slack_z = _FACE_SLACK * (1.0 + size)
        if (np.any(z < lower - slack_z) or np.any(z > upper + slack_z)
                or np.any(sides * (m @ z + t) > slack_g)):
            continue
        z = np.clip(z, lower, upper)
        if all(np.abs(z - other).max() > slack_z for other in zeros):
            zeros.append(z)
            if len(zeros) > 1:
                return None
    if not zeros:
        raise MissingReferencePoint(
            f"{problem.name}: A + B has no zero on any face of the box, so "
            f"the splitting map has no fixed point")
    z = zeros[0]
    u = z + alpha * op(z)
    if splitting_residual(problem, alpha, u) > REFERENCE_CERTIFICATE:
        return None
    return u


def splitting_residual(problem: Problem, alpha: float, u) -> float:
    """||drs_map(u) - u||, the fixed-point residual of a composite problem's
    splitting map at step ``alpha``; ``u`` is checked by ``_given_point``.
    Like ``run``, it releases the resolvents' factors when it returns."""
    u = _given_point("u", u, problem.dim)
    try:
        return vector_norm(drs_map(problem.prox_part, problem.operator,
                                   alpha, u) - u)
    finally:
        problem.release()


def affine_zero_projection(problem: Problem, z0) -> Array:
    """Orthogonal projection z0 - pinv(M) (M z0 + t) of z0 onto the zero set
    of an affine operator z -> M z + t, with the singular values below
    d eps times the largest cut off; SingularSystem when the operator has
    no zero. ``z0`` is checked by ``_given_point``."""
    op = problem.operator
    if not isinstance(op, AffineOperator):
        raise MissingReferencePoint("projection needs an affine operator")
    m, t = op.matrix, op.offset
    z0 = _given_point("z0", z0, op.dim)
    rcond = max(m.shape) * np.finfo(float).eps
    z = z0 - np.linalg.pinv(m, rcond=rcond) @ (m @ z0 + t)
    if np.linalg.norm(m @ z + t) > 1e-8 * max(1.0, np.linalg.norm(t)):
        raise SingularSystem("operator has no zeros")
    return z


# ---------------------------------------------------------------------------
# summability constants

_SUMMABILITY_RULES = ("EAG", "APS")


def _shared_numerator(r):
    return 2.0 - r - 2.0 * r ** 2 - 2.0 * r ** 3 + 7.0 * r ** 4 - 2.0 * r ** 6


def _eag_positivity_factors(r):
    """(name, coefficients highest-degree-first in k) for every factor whose
    positivity the certified range requires."""
    return [
        ("p0-numerator", [1.0 - 3.0 * r + 6.0 * r ** 2 - 2.0 * r ** 4]),
        ("tau", [1.0 - r + r ** 2 + r ** 3, -r * (2.0 - r - r ** 2)]),
        ("s11", [(1.0 - r ** 2) ** 2,
                 1.0 - 2.0 * r - 3.0 * r ** 2 + 2.0 * r ** 4,
                 -r * (2.0 + r - r ** 3)]),
        ("t22-numerator", [(1.0 + r) ** 2 * (1.0 - r) ** 3,
                           1.0 - 5.0 * r + 4.0 * r ** 3 + 3.0 * r ** 4 - 3.0 * r ** 5,
                           -r * (4.0 - 6.0 * r - 2.0 * r ** 2 - 3.0 * r ** 3 + 3.0 * r ** 4),
                           r ** 2 * (4.0 + r ** 2 - r ** 3)]),
        ("t22-denominator", [(1.0 - r ** 2) ** 2, -r * (2.0 + r - r ** 3)]),
        ("t33-numerator", [1.0 - 4.0 * r - 2.0 * r ** 2 + r ** 4,
                           -r * (6.0 - r - r ** 3)]),
        ("t33-denominator", [(1.0 + r) ** 2 * (1.0 - r),
                             -r * (2.0 + r + r ** 2)]),
    ]


def _aps_positivity_factors(r):
    return [
        ("p0-numerator", [1.0 - 3.0 * r + 6.0 * r ** 2 - 2.0 * r ** 4]),
        ("epsilon", [1.0 - r - r ** 2 - r ** 3]),
        ("tau1", [1.0 + 2.0 * r ** 2, -r * (1.0 - 2.0 * r)]),
        ("s11", [1.0 + r - 4.0 * r ** 2 - 4.0 * r ** 3,
                 -r * (1.0 + 2.0 * r + 4.0 * r ** 2)]),
        ("tau-gap", [1.0 - 5.0 * r + 2.0 * r ** 2 + 2.0 * r ** 3 + 6.0 * r ** 4,
                     1.0 - 12.0 * r - 3.0 * r ** 2 + 4.0 * r ** 3 + 12.0 * r ** 4,
                     -r * (7.0 + 5.0 * r - 8.0 * r ** 2 - 6.0 * r ** 3)]),
        ("half-range", [1.0 - 2.0 * r]),
        ("t22-factor-a", [1.0 + 3.0 * r + 2.0 * r ** 2, -r * (1.0 - 2.0 * r)]),
        ("t22-factor-b", [1.0 - 4.0 * r ** 2, -r * (1.0 + 4.0 * r)]),
        ("t33-numerator", [1.0 - 8.0 * r - 4.0 * r ** 2 - 4.0 * r ** 3,
                           -2.0 * r * (5.0 - 2.0 * r + 2.0 * r ** 2)]),
    ]


def summability_positivity(rule: str, r: float):
    """Names of factors not proved positive at this step ratio (empty = ok).

    Each factor is a polynomial p in the iteration counter k, expanded here
    in t = k - 1 by a Taylor shift. Every coefficient of p(1 + t) at least 0
    and the constant term p(1) above 0 make p(1 + t) >= p(1) > 0 for every
    t >= 0, so p(k) > 0 on every k >= 1.
    """
    factors = {"EAG": _eag_positivity_factors,
               "APS": _aps_positivity_factors}[rule](r)
    bad = []
    for name, coeffs in factors:
        shifted = list(coeffs)  # highest degree first
        for i in range(len(shifted) - 1):
            for j in range(1, len(shifted) - i):
                shifted[j] += shifted[j - 1]
        if shifted[-1] <= 0 or min(shifted) < 0:
            bad.append(name)
    return bad


def summability_constant(rule: str, alpha: float, lipschitz: float) -> float:
    """Closed-form constant C for the anchored-gap series bound
    sum (k+1)^2 ||summand||^2 <= (C / alpha^2) ||z0 - z*||^2.

    The step ratio must lie in the range where every factor in the
    derivation is positive; otherwise StepTooLarge is raised.
    """
    if rule not in _SUMMABILITY_RULES:
        raise ConfigError(f"unknown summability rule {rule!r}")
    r = alpha * lipschitz
    if not 0.0 < r < 1.0:
        raise StepTooLarge(f"need 0 < alpha * L < 1, got {r:.6g}")
    bad = summability_positivity(rule, r)
    if bad:
        raise StepTooLarge(f"{rule} constant not certified at alpha*L = "
                           f"{r:.6g}: nonpositive factors {bad}")
    num = _shared_numerator(r)
    if rule == "EAG":
        den = r * (1.0 - r) ** 3 * (1.0 + r) ** 2 * (2.0 + r)
    else:
        den = (r * (1.0 - r) ** 2 * (2.0 + r)
               * (1.0 - r - r ** 2 - r ** 3))
    return num / den


def iterations_to_tolerance(trace, eps: float):
    """First index with residual <= eps, or None when never reached."""
    hits = np.flatnonzero(trace.residual_norms <= eps)
    return int(hits[0]) if hits.size else None
