"""Iterative algorithms behind a single trace-producing run interface.

Each algorithm is a step rule that keeps only its recursion: ``evaluate(k)``
computes the natural residual of row k, and ``step(k)`` moves from row k to
row k + 1. A single loop in ``run`` advances every rule, and it alone owns
the ``max_iterations``/``stop_residual`` stops, the oracle billing, the
recording and the construction of the ``IterateTrace``. Each recursion is
written once here, and a special case is its general rule with a parameter
fixed or a part replaced: EAG_V and APS_V are EAG and APS anchored with
1/(k+2) instead of 1/(k+1) inside a step-size schedule; FEG is SM_EAG_PLUS
at mu = 0, with bit-identical iterates; OHM is OC_HALPERN at gamma = 1; and
APG_STAR is OHM_DRS from an inner point solved only to a tolerance eps_k.
The one repeat is ``operators.solve_strongly_monotone``, which writes
SM_EAG_PLUS's recursion again for the iterative resolvent: ``operators``
sits below this module, and the benchmark's tracer wraps that solver by
name.

Oracle accounting: ``b_per_iter``/``resolvent_per_iter`` count the calls a
rule makes through its counted oracle while evaluating row k and stepping to
row k + 1, one entry per step. The final row's evaluation is billed as one
more entry only by the splitting methods (OHM_DRS, APG_STAR), where it yields
the output point; elsewhere the final residual is instrumentation and never
billed. Calls made before row 0 (a warm start) are billed as ``warmup_b``.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, StepSizeCollapse
from .operators import (
    Array,
    GradientOperator,
    Operator,
    as_vector,
    iterative_resolvent,
    max_step_strongly_monotone,
)
from .problems import Problem


@dataclass(frozen=True)
class AlgorithmConfig:
    """Algorithm identifier plus every scalar/schedule parameter.

    ``momentum_a``, ``gamma`` and ``theta`` belong to one algorithm each;
    ``validate_config`` refuses them set for any other. Iterative resolvents
    are solved to ``operators.RESOLVENT_TOL``, which is not configurable.
    """

    algorithm: str
    alpha: float
    max_iterations: int = 10_000
    momentum_a: float = 3.0          # AGM only, must exceed 2
    gamma: float | None = None       # OC_HALPERN contraction parameter (> 1)
    theta: float | None = None       # APS_V only
    stop_residual: float | None = None
    record_iterates: bool = True


@dataclass(frozen=True)
class IterateTrace:
    """Full record of a run.

    ``main`` holds the primary iterates, one row per index k = 0..iterations
    (row 0 = start; fewer rows only after an early stop), or only the start
    and final rows when iterates are not recorded.
    ``residual_norms[k]`` is the algorithm's natural residual at row k and
    is always kept. Auxiliary sequences have one entry per row or one per
    step, as documented per algorithm, and exist only when iterates are
    recorded. ``b_per_iter``/``resolvent_per_iter`` hold the billed oracle
    calls of each step. ``stop_reason`` says why the
    run ended: ``max_iterations``, ``stop_residual``, or ``diverged`` (the
    final row's residual is not finite).
    """

    algorithm: str
    main: Array
    residual_norms: Array
    b_per_iter: Array
    resolvent_per_iter: Array
    auxiliary: dict = field(default_factory=dict)
    op_evals: Array | None = None
    warmup_b: int = 0
    params: dict = field(default_factory=dict)
    stop_reason: str = "max_iterations"

    def __post_init__(self):
        for arr in (self.main, self.residual_norms, self.op_evals,
                    self.b_per_iter, self.resolvent_per_iter,
                    *self.auxiliary.values()):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def iterations(self) -> int:
        return len(self.residual_norms) - 1

    @property
    def start(self) -> Array:
        return self.main[0]

    @property
    def final(self) -> Array:
        return self.main[-1]

    def total_b_evals(self) -> int:
        return self.warmup_b + int(self.b_per_iter.sum())

    def total_resolvent_evals(self) -> int:
        return int(self.resolvent_per_iter.sum())

    def cumulative_counts(self):
        """(b, resolvent) oracle totals aligned with the rows of ``main``.

        The per-step counts are summed up to the final row, which carries
        the run's total. With one entry per step, row 0 holds the warm-up
        alone; a splitting method also bills its final row's evaluation, so
        each of its rows includes the evaluation of that row.
        """
        if not self.params.get("record_iterates", True):
            raise ValueError("trace was recorded in residuals-only mode")
        rows = len(self.main)

        def cumulative(per_iter):
            out = np.zeros(rows, dtype=int)
            out[rows - len(per_iter):] = np.cumsum(per_iter)
            return out

        return (cumulative(self.b_per_iter) + self.warmup_b,
                cumulative(self.resolvent_per_iter))


class _Counted:
    """Oracle wrapper that counts algorithmic calls: forward evaluations of
    B, and resolvents of B or of the prox part A. It carries B's ``dim``,
    ``lipschitz`` and ``mu``, so it can be the base of an inner map."""

    __slots__ = ("op", "forward", "prox_part", "b", "res", "dim", "lipschitz",
                 "mu")

    def __init__(self, op: Operator, prox_part: Operator | None = None):
        self.op = op
        self.forward = op.__call__  # a bound method calls faster than op
        self.prox_part = prox_part
        self.b = 0
        self.res = 0
        self.dim, self.lipschitz, self.mu = op.dim, op.lipschitz, op.mu

    def __call__(self, z):
        self.b += 1
        return self.forward(z)

    def resolvent(self, alpha, z):
        self.res += 1
        return self.op.resolvent(alpha, z)

    def prox(self, alpha, z):
        self.res += 1
        return self.prox_part.resolvent(alpha, z)


def _oc_halpern_gamma(config: AlgorithmConfig, mu: float) -> float | None:
    """OC_HALPERN's gamma: ``config.gamma`` when set, else sqrt(1 + 2 alpha mu)
    on a strongly monotone problem, else None."""
    if config.gamma is None and mu > 0:
        return math.sqrt(1.0 + 2.0 * config.alpha * mu)
    return config.gamma


def validate_config(config: AlgorithmConfig, problem: Problem) -> None:
    """Reject configurations outside the admissible range for the problem."""
    name = config.algorithm
    if name not in _RULES:
        raise ConfigError(f"unknown algorithm {name!r}")
    if not (config.alpha > 0 and math.isfinite(config.alpha)):
        raise ConfigError("alpha must be a positive finite real")
    if config.max_iterations < 1:
        raise ConfigError("max_iterations must be at least 1")
    for field_name, owner, unset in (
            ("momentum_a", "AGM", AlgorithmConfig.momentum_a),
            ("gamma", "OC_HALPERN", None),
            ("theta", "APS_V", None)):
        if name != owner and getattr(config, field_name) != unset:
            raise ConfigError(f"{name} ignores {field_name}; only {owner} "
                              f"takes it")
    lip, mu = problem.lipschitz, problem.mu
    if problem.is_composite and name not in ("OHM_DRS", "APG_STAR"):
        raise ConfigError(f"{name} does not handle composite problems")
    if name in ("OHM_DRS", "APG_STAR") and not problem.is_composite:
        raise ConfigError(f"{name} needs a composite problem")
    if name in ("FEG", "EAG_V", "APG_STAR") and config.alpha * lip >= 1.0:
        raise ConfigError(f"{name} needs alpha * L < 1, "
                          f"got {config.alpha * lip:.6g}")
    if name == "SM_EAG_PLUS":
        top = max_step_strongly_monotone(lip, mu)
        if config.alpha > top * (1.0 + 1e-12):
            raise ConfigError(
                f"SM_EAG_PLUS needs alpha <= (sqrt(L^2+mu^2)+mu)/L^2 = {top:.6g}")
    if name == "APS_V":
        if config.theta is None or config.theta <= 0:
            raise ConfigError("APS_V needs theta > 0 (no endorsed default)")
        m = 2.0 * lip ** 2 * (1.0 + config.theta)
        if 1.0 - m * config.alpha ** 2 <= 0:
            raise ConfigError("APS_V needs 1 - 2 L^2 (1+theta) alpha^2 > 0 "
                              "at the initial step")
    if name == "AGM":
        if not isinstance(problem.operator, GradientOperator):
            raise ConfigError("AGM needs a gradient-field problem")
        if config.momentum_a <= 2:
            raise ConfigError("AGM momentum parameter must exceed 2")
    if name == "OC_HALPERN":
        gamma = _oc_halpern_gamma(config, mu)
        if gamma is None or gamma <= 1.0:
            raise ConfigError("OC_HALPERN needs gamma > 1 (or a strongly "
                              "monotone problem to derive it from)")


def run(config: AlgorithmConfig, problem: Problem, z0) -> IterateTrace:
    """Validate, then drive the algorithm's step rule row by row into a trace.

    Without recorded iterates only the start, the rule's current state, the
    residuals and the oracle counts are held, so the memory for iterates
    stays O(d) whatever the number of iterations. The rule makes the same
    oracle calls whether or not iterates are recorded. The run stops after
    ``max_iterations`` steps, at the first row whose lagged residual is at
    most ``stop_residual``, or at the first row whose residual is not finite
    (``diverged``); the stopping row is kept. Deterministic: identical inputs
    produce bit-identical traces.
    """
    validate_config(config, problem)
    z0 = as_vector(z0, problem.dim)
    record = config.record_iterates
    oracle = _Counted(problem.operator, problem.prox_part)
    rule = _RULES[config.algorithm](config, problem, oracle, z0)
    warmup = oracle.b
    last, stop, lag = config.max_iterations, config.stop_residual, rule.stop_lag
    evaluate, step, isfinite = rule.evaluate, rule.step, math.isfinite
    # running oracle totals at the start of each row; their differences are
    # the per-step counts
    b_marks, r_marks = [], []
    residuals = array("d")  # 8 bytes per row
    # recorded values go into flat lists, row after row: holding a container
    # per row would make the garbage collector rescan them all the time
    points, rows, steps = [z0], [], []
    for k in range(last + 1):
        b_marks.append(oracle.b)
        r_marks.append(oracle.res)
        residual, row = evaluate(k)
        residuals.append(residual)
        if record:
            rows.extend(row)
        if k == last or not isfinite(residual) or (
                stop is not None and k >= lag and residuals[k - lag] <= stop):
            break
        made = step(k)
        if record:
            points.append(rule.z)
            steps.extend(made)
    if not isfinite(residual):
        reason = "diverged"
    elif stop is not None and k >= lag and residuals[k - lag] <= stop:
        reason = "stop_residual"
    else:
        reason = "max_iterations"
    if rule.final_row_billed:
        b_marks.append(oracle.b)
        r_marks.append(oracle.res)
    if record:
        auxiliary = _columns(rule.row_fields, rows)
        auxiliary.update(_columns(rule.step_fields, steps))
    else:
        points.append(rule.z)
        auxiliary = {}
    return IterateTrace(
        algorithm=config.algorithm,
        main=np.array(points),
        residual_norms=np.array(residuals),
        auxiliary=auxiliary,
        op_evals=auxiliary.pop("op_evals", None),
        b_per_iter=np.diff(np.array(b_marks, dtype=int)),
        resolvent_per_iter=np.diff(np.array(r_marks, dtype=int)),
        warmup_b=warmup,
        params={"alpha": config.alpha, "max_iterations": config.max_iterations,
                "stop_residual": config.stop_residual,
                "record_iterates": record, **rule.params},
        stop_reason=reason,
    )


def _columns(names, flat) -> dict:
    """One array per name from values recorded row after row (or step after
    step), one value per name each time."""
    return {name: np.array(flat[i::len(names)]) for i, name in enumerate(names)}


class _Rule:
    """One algorithm's recursion, advanced row by row by ``run``.

    ``z`` is the point of the current row (row 0 = start): the iterate of the
    forward methods, w_k of OHM/OC_HALPERN, u_k of OHM_DRS and xi_k of
    APG_STAR. ``evaluate(k)`` returns the natural residual of row k and a
    tuple with one value per name in ``row_fields``; ``step(k)`` moves ``z``
    to row k + 1 and returns one value per name in ``step_fields``. A row
    field named ``op_evals`` becomes the trace's ``op_evals``. Billed calls
    go through ``self.b`` (a ``_Counted`` oracle); ``self.raw`` is the
    operator itself, for instrumentation that is never billed.

    Rules run once per row, so they keep per-step values in locals, compute
    each repeated sub-expression once (the same bits as writing it out
    twice), and write a residual norm inline as ``math.sqrt(v.dot(v))``,
    the formula of ``operators.vector_norm``.
    """

    row_fields: tuple = ()
    step_fields: tuple = ()
    final_row_billed = False  # the final row's evaluation is one more entry
    stop_lag = 0             # the stop test reads the residual of row k - lag
    params: dict = {}        # extra trace parameters

    def __init__(self, config, problem, oracle, z0):
        self.alpha = config.alpha
        self.z0 = self.z = z0
        self.b = oracle
        self.raw = problem.operator


# ---------------------------------------------------------------------------
# forward one-call/two-call classical methods


class _ForwardResidual(_Rule):
    """Rules whose step k starts from B z_k, which is also row k's residual."""

    row_fields = ("op_evals",)

    def evaluate(self, k):
        self.bz = bz = self.b(self.z)
        return math.sqrt(bz.dot(bz)), (bz,)


class _GDA(_ForwardResidual):
    def step(self, k):
        self.z = self.z - self.alpha * self.bz
        return ()


class _EG(_ForwardResidual):
    step_fields = ("half",)

    def step(self, k):
        z, alpha = self.z, self.alpha
        half = z - alpha * self.bz
        self.z = z - alpha * self.b(half)
        return (half,)


class _OG(_Rule):
    """z_{k+1} = z_k - alpha B z_k - alpha (B z_k - B z_{k-1}), z_{-1} = z_0."""

    row_fields = ("op_evals",)

    def __init__(self, config, problem, oracle, z0):
        super().__init__(config, problem, oracle, z0)
        self.cur = self.prev = self.b(z0)  # warm start

    def evaluate(self, k):
        cur = self.cur
        return math.sqrt(cur.dot(cur)), (cur,)

    def step(self, k):
        alpha, cur = self.alpha, self.cur
        self.z = self.z - alpha * cur - alpha * (cur - self.prev)
        self.prev = cur
        self.cur = self.b(self.z)
        return ()


class _AGM(_Rule):
    """x_{k+1} = y_k - alpha grad(y_k);
    y_{k+1} = x_{k+1} + ((t_k-1)/t_{k+1})(x_{k+1}-x_k), t_k = (k + a - 1) / a.
    ``extrapolated`` holds y_k per row."""

    row_fields = ("op_evals", "extrapolated")

    def __init__(self, config, problem, oracle, z0):
        super().__init__(config, problem, oracle, z0)
        self.y = z0
        self.a = config.momentum_a

    def evaluate(self, k):
        grad = self.raw(self.z)
        return math.sqrt(grad.dot(grad)), (grad, self.y)

    def step(self, k):
        a, x = self.a, self.z
        t_k = (k + a - 1.0) / a
        t_next = (k + a) / a
        x_new = self.y - self.alpha * self.b(self.y)
        self.y = x_new + ((t_k - 1.0) / t_next) * (x_new - x)
        self.z = x_new
        return ()


# ---------------------------------------------------------------------------
# anchored forward methods


class _EAG(_ForwardResidual):
    step_fields = ("half", "op_half")
    anchor_offset = 1  # beta_k = 1 / (k + anchor_offset)

    def step(self, k):
        alpha = self.alpha
        beta = 1.0 / (k + self.anchor_offset)
        anchored = beta * self.z0 + (1.0 - beta) * self.z
        half = anchored - alpha * self.bz
        bh = self.b(half)
        self.z = anchored - alpha * bh
        return half, bh


class _FEG(_ForwardResidual):
    """Shared core of FEG (x = 1) and SM_EAG_PLUS (x = 1 + 2 alpha mu).

    Half step: beta_k z0 + (1-beta_k)(z_k - (alpha/x) B z_k), with
    beta_k the inverse of the geometric sum of x^j. At x = 1 this is FEG
    verbatim (beta_k = 1/(k+1), full damping eta_k = 1 - beta_k), and the
    floating-point expressions coincide bitwise with the mu = 0 case of
    SM_EAG_PLUS.
    """

    step_fields = ("half", "op_half")

    def __init__(self, config, problem, oracle, z0):
        super().__init__(config, problem, oracle, z0)
        self.x = self.contraction(config, problem)
        self.a_eff = config.alpha / self.x
        self.big_s = 1.0

    def contraction(self, config, problem):
        return 1.0

    def step(self, k):
        z = self.z
        beta = 1.0 / self.big_s
        anchor_term, keep = beta * self.z0, 1.0 - beta
        half = anchor_term + keep * (z - self.a_eff * self.bz)
        bh = self.b(half)
        self.z = anchor_term + keep * z - self.alpha * bh
        self.big_s = 1.0 + self.x * self.big_s
        return half, bh


class _SMEAGPlus(_FEG):
    def contraction(self, config, problem):
        return 1.0 + 2.0 * config.alpha * problem.mu


class _APS(_Rule):
    """v_{k+1} = beta_k z0 + (1-beta_k) z_k - alpha B v_k, v_0 = z_0;
    z_{k+1} = beta_k z0 + (1-beta_k) z_k - alpha B v_{k+1}."""

    row_fields = ("op_evals", "v", "op_v")
    anchor_offset = 1  # beta_k = 1 / (k + anchor_offset)

    def __init__(self, config, problem, oracle, z0):
        super().__init__(config, problem, oracle, z0)
        self.v = z0
        self.bv = self.b(z0)  # warm start

    def evaluate(self, k):
        bz = self.raw(self.z)
        return math.sqrt(bz.dot(bz)), (bz, self.v, self.bv)

    def step(self, k):
        alpha = self.alpha
        beta = 1.0 / (k + self.anchor_offset)
        anchored = beta * self.z0 + (1.0 - beta) * self.z
        self.v = v = anchored - alpha * self.bv
        self.bv = bv = self.b(v)
        self.z = anchored - alpha * bv
        return ()


class _EAGV(_EAG):
    """EAG with beta_k = 1/(k+2) and varying steps: alpha_{k+1} = alpha_k
    (1 - alpha_k^2 L^2 / ((k+1)(k+3)(1 - alpha_k^2 L^2)))."""

    row_fields = ("op_evals", "alpha")
    anchor_offset = 2

    def __init__(self, config, problem, oracle, z0):
        super().__init__(config, problem, oracle, z0)
        self.lip_sq = problem.lipschitz ** 2

    def evaluate(self, k):
        residual, row = super().evaluate(k)
        return residual, row + (self.alpha,)

    def step(self, k):
        alpha = self.alpha
        if alpha <= 0 or 1.0 - (alpha_lip_sq := alpha ** 2 * self.lip_sq) <= 0:
            raise StepSizeCollapse(f"alpha_{k} = {alpha:.6g} inadmissible")
        made = super().step(k)
        ratio = alpha_lip_sq / (1.0 - alpha_lip_sq)
        self.alpha = alpha * (1.0 - ratio / ((k + 1.0) * (k + 3.0)))
        return made


class _APSV(_APS):
    """APS with beta_k = 1/(k+2) and the varying step rule of the
    2 L^2 (1 + theta) family."""

    row_fields = ("op_evals", "v", "op_v", "alpha")
    anchor_offset = 2

    def __init__(self, config, problem, oracle, z0):
        super().__init__(config, problem, oracle, z0)
        self.m_const = 2.0 * problem.lipschitz ** 2 * (1.0 + config.theta)

    def evaluate(self, k):
        residual, row = super().evaluate(k)
        return residual, row + (self.alpha,)

    def step(self, k):
        alpha = self.alpha
        if alpha <= 0:
            raise StepSizeCollapse(f"alpha_{k} = {alpha:.6g} <= 0")
        m_alpha_sq = self.m_const * alpha ** 2
        if 1.0 - m_alpha_sq <= 0:
            raise StepSizeCollapse(
                f"1 - 2 L^2 (1+theta) alpha_{k}^2 <= 0 at k = {k}")
        super().step(k)
        beta = 1.0 / (k + self.anchor_offset)
        beta_next = 1.0 / (k + 1 + self.anchor_offset)
        self.alpha = (alpha * beta_next * (1.0 - beta ** 2 - m_alpha_sq)
                      / ((1.0 - m_alpha_sq) * beta * (1.0 - beta)))
        return ()


# ---------------------------------------------------------------------------
# anchored proximal methods


class _OHM(_Rule):
    """w_{k+1/2} = beta_k w0 + (1-beta_k) w_k; w_{k+1} = J_{alpha B}(w_{k+1/2}),
    with beta_k the inverse of the sum of gamma^{2j}, j <= k (OHM: gamma = 1,
    beta_k = 1/(k+1)).

    Row k's residual ||w_{k+1/2} - J(w_{k+1/2})|| yields w_{k+1}, so a run
    stops one row after the row whose residual met ``stop_residual``, and the
    final row's resolvent is instrumentation. The rule only calls resolvents,
    so B needs no forward evaluation and the trace has no ``op_evals``.
    """

    row_fields = ("half",)
    stop_lag = 1
    gamma_sq = 1.0
    big_s = 1.0  # the sum of gamma^{2j}, j <= k
    params = {"gamma": 1.0}

    def evaluate(self, k):
        beta = 1.0 / self.big_s
        half = beta * self.z0 + (1.0 - beta) * self.z
        self.w = w = self.b.resolvent(self.alpha, half)
        gap = half - w
        return math.sqrt(gap.dot(gap)), (half,)

    def step(self, k):
        self.z = self.w
        self.big_s = 1.0 + self.gamma_sq * self.big_s
        return ()


class _OCHalpern(_OHM):
    def __init__(self, config, problem, oracle, z0):
        super().__init__(config, problem, oracle, z0)
        gamma = _oc_halpern_gamma(config, problem.mu)
        self.gamma_sq = gamma * gamma
        self.params = {"gamma": gamma}


class _OHMDRS(_Rule):
    """w_k = J_{alpha B}(u_k); u_{k+1} = beta_k u0 + (1-beta_k)
    (J_{alpha A}(w_k - alpha B w_k) + alpha B w_k); beta_k = 1/(k+2)."""

    row_fields = ("w", "v", "op_w")
    final_row_billed = True

    def evaluate(self, k):
        w = self.b.resolvent(self.alpha, self.z)
        gap = self.forward_backward(w)  # = alpha G_alpha(w_k)
        return math.sqrt(gap.dot(gap)), (w, self.v, self.bw)

    def forward_backward(self, w):
        """Keep B w and v = J_{alpha A}(w - alpha B w) for the outer step;
        return w - v."""
        alpha, b = self.alpha, self.b
        self.bw = bw = b(w)
        self.v = v = b.prox(alpha, w - alpha * bw)
        return w - v

    def step(self, k):
        beta = 1.0 / (k + 2)
        self.z = beta * self.z0 + (1.0 - beta) * (self.v + self.alpha * self.bw)
        return ()


class _APGStar(_OHMDRS):
    """OHM_DRS from an inexact inner point: z_k solves ||z + alpha B z -
    xi_k|| <= eps_k, the iterative resolvent of B at xi_k solved to eps_k
    instead of to the resolvent tolerance, with every inner call of B
    billed. The residual is ||G_alpha(z_k)||, without OHM_DRS's alpha.
    Row k bills its inner calls and one call of B at z_k, so
    ``inner_b_evals`` is ``b_per_iter - 1`` in either recording mode."""

    row_fields = ("z", "op_z", "inner_b_evals")

    def __init__(self, config, problem, oracle, z0):
        super().__init__(config, problem, oracle, z0)
        lip = problem.lipschitz
        b_xi0 = self.b(z0)  # warm start
        self.m_const = 1.0 + (np.linalg.norm(b_xi0) / lip if lip > 0 else 0.0)
        self.params = {"m_constant": self.m_const}

    def evaluate(self, k):
        alpha = self.alpha
        eps_k = self.m_const / ((k + 1.0) ** 2 * (k + 2.0))
        z, evals = iterative_resolvent(self.b, alpha, self.z, eps_k)
        gap = self.forward_backward(z)
        return math.sqrt(gap.dot(gap)) / alpha, (z, self.bw, evals)


_RULES = {
    "GDA": _GDA,
    "EG": _EG,
    "OG": _OG,
    "AGM": _AGM,
    "EAG": _EAG,
    "EAG_V": _EAGV,
    "FEG": _FEG,
    "APS": _APS,
    "APS_V": _APSV,
    "OHM": _OHM,
    "OC_HALPERN": _OCHalpern,
    "SM_EAG_PLUS": _SMEAGPlus,
    "OHM_DRS": _OHMDRS,
    "APG_STAR": _APGStar,
}

#: every algorithm name ``run`` accepts
ALGORITHMS = tuple(_RULES)
