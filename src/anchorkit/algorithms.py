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
The iterative resolvent is this module's SM_EAG_PLUS as well:
``operators.solve_strongly_monotone`` steps that rule through ``_drive``,
the row loop of ``run``, without ``run``'s validation and release.

Oracle accounting: ``b_per_iter``/``resolvent_per_iter`` count the calls a
rule makes through its counted oracle while evaluating row k and stepping to
row k + 1, one entry per step. The final row's evaluation is billed as one
more entry only by the splitting methods (OHM_DRS, APG_STAR), where it yields
the output point; elsewhere the final residual is instrumentation and never
billed. Calls made before row 0 (a warm start) are billed as ``warmup_b``.
"""
from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import dataclass, field, fields, replace

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

#: the most values, (max_iterations + 1) * d, that a run with recorded
#: iterates may hold in one field; ``validate_config`` refuses a larger one
MAX_TRACE_VALUES = 10 ** 7


@dataclass(frozen=True)
class AlgorithmConfig:
    """Algorithm identifier plus every scalar/schedule parameter.

    The constructor refuses with ``ConfigError`` every field that is wrong
    whatever the problem (an unknown name with code ``UNKNOWN_ALGORITHM``);
    ``validate_config`` adds the checks that need the problem. Numbers are
    finite reals, not bools; ``theta`` and ``stop_residual`` may be None.
    ``momentum_a`` and ``theta`` belong to one algorithm each and are
    refused set for any other. A keyword that is not a field, such as the
    removed ``gamma``, is refused with ``ConfigError`` too. Iterative
    resolvents are solved to ``operators.RESOLVENT_TOL``, which is not
    configurable.
    """

    algorithm: str
    alpha: float
    max_iterations: int = 10_000
    momentum_a: float = 3.0          # AGM only, must exceed 2
    theta: float | None = None       # APS_V only, must be positive
    stop_residual: float | None = None
    record_iterates: bool = True

    def __new__(cls, *args, **kwargs):
        unknown = sorted(kwargs.keys() - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown fields {unknown}")
        return super().__new__(cls)

    def __post_init__(self):
        name = self.algorithm
        if not isinstance(name, str) or name not in _RULES:
            raise ConfigError(f"unknown algorithm {name!r}",
                              code="UNKNOWN_ALGORITHM")
        if self.alpha is None:
            raise ConfigError(f"{name}: alpha is required")
        for key in ("alpha", "momentum_a", "theta", "stop_residual"):
            value = getattr(self, key)
            nullable = key in ("theta", "stop_residual")
            if not (value is None and nullable or _finite(value)):
                raise ConfigError(f"{name}: {key} must be a finite number, "
                                  f"got {value!r}")
        n = self.max_iterations
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ConfigError(f"{name}: max_iterations must be an integer, "
                              f"got {n!r}")
        if self.alpha <= 0:
            raise ConfigError("alpha must be a positive finite real")
        if n < 1:
            raise ConfigError("max_iterations must be at least 1")
        if self.stop_residual is not None and self.stop_residual < 0:
            raise ConfigError(f"{name}: stop_residual must be non-negative, "
                              f"got {self.stop_residual!r}")
        if not isinstance(self.record_iterates, bool):
            raise ConfigError(f"{name}: record_iterates must be a bool, got "
                              f"{self.record_iterates!r}")
        for key, owner, unset in (("momentum_a", "AGM",
                                   AlgorithmConfig.momentum_a),
                                  ("theta", "APS_V", None)):
            if name != owner and getattr(self, key) != unset:
                raise ConfigError(f"{name} ignores {key}; only {owner} "
                                  f"takes it")
        if name == "AGM" and self.momentum_a <= 2:
            raise ConfigError("AGM momentum parameter must exceed 2")
        if name == "APS_V" and (self.theta is None or self.theta <= 0):
            raise ConfigError("APS_V needs theta > 0 (no endorsed default)")


def _finite(value) -> bool:
    """Whether ``value`` is a real number, not a bool, with a finite float
    value; an int beyond the float range is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class IterateTrace:
    """Full record of a run.

    ``main`` holds the primary iterates, one row per index k = 0..iterations
    (row 0 = start; fewer rows only after an early stop), or only the start
    and final rows when iterates are not recorded.
    ``residual_norms[k]`` is the algorithm's natural residual at row k and
    is always kept. Auxiliary sequences have one entry per row or one per
    step, as documented per algorithm, and exist only when iterates are
    recorded. ``sequences`` reads them, ``main`` and ``op_evals`` by name.
    ``b_per_iter``/``resolvent_per_iter`` hold the billed oracle
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

    def sequences(self, *names):
        """The recorded sequences ``names``, each ``main``, ``op_evals`` or
        an ``auxiliary`` field: the array for one name, a tuple for several.
        ConfigError names the algorithm and the missing ones; a run without
        recorded iterates has none of them."""
        recorded = self.params.get("record_iterates", True)
        found = ({"main": self.main, "op_evals": self.op_evals,
                  **self.auxiliary} if recorded else {})
        missing = [name for name in names if found.get(name) is None]
        if missing:
            raise ConfigError(
                f"the {self.algorithm} trace records no {', '.join(missing)}"
                + ("" if recorded else ": run without recorded iterates, it "
                   "kept only its residuals"))
        return found[names[0]] if len(names) == 1 else tuple(
            found[name] for name in names)

    def keeping(self, *names) -> IterateTrace:
        """This trace with ``main`` and, of the other recorded sequences,
        only ``names`` (``op_evals`` or ``auxiliary`` fields); the kept
        arrays are shared, and the others are no longer held by it."""
        return replace(self, auxiliary={
            name: value for name, value in self.auxiliary.items()
            if name in names},
            op_evals=self.op_evals if "op_evals" in names else None)

    def total_b_evals(self) -> int:
        return self.warmup_b + int(self.b_per_iter.sum())

    def total_resolvent_evals(self) -> int:
        return int(self.resolvent_per_iter.sum())

    def cumulative_counts(self):
        """(b, resolvent) oracle totals aligned with the rows of ``main``.

        The per-step counts are summed up to the final row, which carries
        the run's total. With one entry per step, row 0 holds the warm-up
        alone; a splitting method also bills its final row's evaluation, so
        each of its rows includes the evaluation of that row. ConfigError
        for a run without recorded iterates.
        """
        rows = len(self.sequences("main"))
        b, r = (np.concatenate((np.zeros(rows - len(per_iter), dtype=int),
                                np.cumsum(per_iter)))
                for per_iter in (self.b_per_iter, self.resolvent_per_iter))
        return b + self.warmup_b, r


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


def validate_config(config: AlgorithmConfig, problem: Problem) -> None:
    """Reject configurations outside the admissible range for the problem;
    ``AlgorithmConfig`` has already refused what is wrong for any problem."""
    name, n = config.algorithm, config.max_iterations
    lip, mu, dim = problem.lipschitz, problem.mu, problem.dim
    if problem.is_composite and name not in ("OHM_DRS", "APG_STAR"):
        raise ConfigError(f"{name} does not handle composite problems")
    if name in ("OHM_DRS", "APG_STAR") and not problem.is_composite:
        raise ConfigError(f"{name} needs a composite problem")
    if name in ("FEG", "APG_STAR") and config.alpha * lip >= 1.0:
        raise ConfigError(f"{name} needs alpha * L < 1, "
                          f"got {config.alpha * lip:.6g}")
    if name == "SM_EAG_PLUS":
        top = max_step_strongly_monotone(lip, mu)
        if config.alpha > top * (1.0 + 1e-12):
            raise ConfigError(
                f"SM_EAG_PLUS needs alpha <= (sqrt(L^2+mu^2)+mu)/L^2 = {top:.6g}")
    if name in ("EAG_V", "APS_V"):
        rule = _RULES[name]
        if not rule.first_alpha(config, problem) > 0:
            raise ConfigError(f"{name} needs {rule.step_range} (alpha_1 > 0), "
                              f"got alpha = {config.alpha:.6g}")
    if name == "AGM" and not isinstance(problem.operator, GradientOperator):
        raise ConfigError("AGM needs a gradient-field problem")
    if name == "OC_HALPERN" and mu <= 0:
        raise ConfigError("OC_HALPERN needs a strongly monotone problem: it "
                          "runs at gamma = sqrt(1 + 2 alpha mu) > 1")
    if config.record_iterates and (n + 1) * dim > MAX_TRACE_VALUES:
        raise ConfigError(f"{name}: {n} recorded iterations at d = {dim} "
                          f"hold more than {MAX_TRACE_VALUES} values")


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

    The oracle marks and the residuals are kept in typed arrays, 8 bytes a
    value, not in lists of Python numbers. With recorded iterates each field
    (``main``, every row field and every step field, ``op_evals``
    included) is one array of ``max_iterations + 1`` rows
    (``max_iterations`` for a step field), allocated at its first value
    with that value's shape and dtype, and row k is written into it in
    place, so a run peaks at one copy of its trace. The trace holds the
    arrays themselves; after an early stop each is cut in place to the
    rows kept and owns only those.

    What an operator's resolvent keeps between calls (an affine operator's
    LU factors) is kept for the run and released when it returns or raises,
    so the factors never outlive the run that formed them.
    """
    validate_config(config, problem)
    try:
        return _drive(config, problem, as_vector(z0, problem.dim))
    finally:
        problem.release()


def _drive(config: AlgorithmConfig, problem: Problem, z0) -> IterateTrace:
    """The row loop of ``run`` on a validated config and start."""
    record = config.record_iterates
    oracle = _Counted(problem.operator, problem.prox_part)
    rule = _RULES[config.algorithm](config, problem, oracle, z0)
    warmup = oracle.b
    last, stop, lag = config.max_iterations, config.stop_residual, rule.stop_lag
    evaluate, step, isfinite = rule.evaluate, rule.step, math.isfinite
    # running oracle totals at the start of each row; their differences are
    # the per-step counts
    b_marks, r_marks = array("q"), array("q")
    residuals = array("d")
    # one array per recorded field: main and the row fields are written at
    # row k, the step fields at step k. The first write into the empty
    # arrays raises IndexError, and _allocate gives them their full length;
    # a run that stops at row 0 keeps its (0, d) step fields
    main, fields = np.empty((0, problem.dim)), []
    steps = [np.empty((0, problem.dim)) for _ in rule.step_fields]
    record_steps = record and bool(steps)
    reason = "max_iterations"
    for k in range(last + 1):
        b_marks.append(oracle.b)
        r_marks.append(oracle.res)
        residual, row = evaluate(k)
        residuals.append(residual)
        if record:
            try:
                main[k] = rule.z
                for buffer, value in zip(fields, row):
                    buffer[k] = value
            except IndexError:
                main, *fields = _allocate((rule.z, *row), last + 1)
        if not isfinite(residual):
            reason = "diverged"
            break
        if stop is not None and k >= lag and residuals[k - lag] <= stop:
            reason = "stop_residual"
            break
        if k == last:
            break
        made = step(k)
        if record_steps:
            try:
                for buffer, value in zip(steps, made):
                    buffer[k] = value
            except IndexError:
                steps = _allocate(made, last)
    if rule.final_row_billed:
        b_marks.append(oracle.b)
        r_marks.append(oracle.res)
    if record:
        kept = len(residuals)
        auxiliary = dict(zip(("main", *rule.row_fields, *rule.step_fields),
                             _trim([main, *fields], kept)
                             + _trim(steps, kept - 1)))
        main = auxiliary.pop("main")
    else:
        main = np.array([z0, rule.z])
        auxiliary = {}
    return IterateTrace(
        algorithm=config.algorithm,
        main=main,
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


def _allocate(values, rows) -> list:
    """One array of ``rows`` rows per value in ``values``, with that value's
    shape and dtype, holding it as row 0."""
    buffers = []
    for value in map(np.asarray, values):
        buffers.append(np.empty((rows, *value.shape), value.dtype))
        buffers[-1][0] = value
    return buffers


def _trim(buffers, rows) -> list:
    """``buffers``, each cut in place to its first ``rows`` rows; ``run``
    makes no view of them, so resizing without the reference check is
    safe."""
    for buffer in buffers:
        if len(buffer) > rows:
            buffer.resize((rows, *buffer.shape[1:]), refcheck=False)
    return buffers


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
    twice), and write a residual norm inline as
    ``math.sqrt(np.vdot(v, v))``, the formula of ``operators.vector_norm``.
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
        return math.sqrt(np.vdot(bz, bz)), (bz,)


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
        return math.sqrt(np.vdot(cur, cur)), (cur,)

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
        return math.sqrt(np.vdot(grad, grad)), (grad, self.y)

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
        return math.sqrt(np.vdot(bz, bz)), (bz, self.v, self.bv)

    def step(self, k):
        alpha = self.alpha
        beta = 1.0 / (k + self.anchor_offset)
        anchored = beta * self.z0 + (1.0 - beta) * self.z
        self.v = v = anchored - alpha * self.bv
        self.bv = bv = self.b(v)
        self.z = anchored - alpha * bv
        return ()


class _VaryingStep:
    """The step schedule of EAG_V and APS_V: alpha_{k+1} =
    ``next_alpha(alpha_k, c, k)`` with c = ``constant(config, problem)``,
    defined while 1 - c alpha_k^2 > 0. ``validate_config`` refuses a start
    unless ``first_alpha`` (alpha_1) is positive; each rule's docstring
    shows that every later alpha_k is then positive and decreasing, and
    ``step`` keeps the check as a fail-closed guard."""

    def __init__(self, config, problem, oracle, z0):
        super().__init__(config, problem, oracle, z0)
        self.c = self.constant(config, problem)

    @classmethod
    def first_alpha(cls, config, problem):
        """alpha_1, or 0.0 where alpha_0 already has 1 - c alpha_0^2 <= 0."""
        alpha, c = config.alpha, cls.constant(config, problem)
        return cls.next_alpha(alpha, c, 0) if 1.0 - alpha ** 2 * c > 0 else 0.0

    def evaluate(self, k):
        residual, row = super().evaluate(k)
        # float: an int alpha_0 must not make the recorded field integer
        return residual, row + (float(self.alpha),)

    def step(self, k):
        alpha = self.alpha
        if alpha <= 0 or 1.0 - alpha ** 2 * self.c <= 0:
            raise StepSizeCollapse(f"alpha_{k} = {alpha:.6g} inadmissible")
        made = super().step(k)
        self.alpha = self.next_alpha(alpha, self.c, k)
        return made


class _EAGV(_VaryingStep, _EAG):
    """EAG with beta_k = 1/(k+2) and c = L^2: alpha_{k+1} = alpha_k
    (1 - r_k / ((k+1)(k+3))), r_k = alpha_k^2 L^2 / (1 - alpha_k^2 L^2).

    r is increasing in alpha on [0, 1/L), and alpha_1 > 0 means r_0 < 3,
    that is alpha_0 L < sqrt(3)/2. By induction, 0 < alpha_k <= alpha_0
    gives 0 <= r_k <= r_0 < 3 <= (k+1)(k+3), so 0 < alpha_{k+1} <= alpha_k."""

    row_fields = ("op_evals", "alpha")
    anchor_offset = 2
    step_range = "alpha L < sqrt(3)/2"

    @staticmethod
    def constant(config, problem):
        return problem.lipschitz ** 2

    @staticmethod
    def next_alpha(alpha, lip_sq, k):
        alpha_lip_sq = alpha ** 2 * lip_sq
        ratio = alpha_lip_sq / (1.0 - alpha_lip_sq)
        return alpha * (1.0 - ratio / ((k + 1.0) * (k + 3.0)))


class _APSV(_VaryingStep, _APS):
    """APS with beta_k = 1/(k+2) and c = M = 2 L^2 (1 + theta): with
    m_k = M alpha_k^2, alpha_{k+1} = alpha_k beta_{k+1} (1 - beta_k^2 - m_k)
    / ((1 - m_k) beta_k (1 - beta_k)).

    The ratio alpha_{k+1}/alpha_k is (1 + r_k)/(1 + beta_k) with r_k =
    beta_k (1 - beta_k - m_k)/((1 - m_k)(1 - beta_k)), below beta_k for
    M > 0. So while 0 < m_k < 1, alpha_k and m_k decrease and
    1 - beta_k^2 - m_k >= 1 - 1/4 - m_0, which alpha_1 > 0 makes positive:
    every alpha_k stays positive and decreasing."""

    row_fields = ("op_evals", "v", "op_v", "alpha")
    anchor_offset = 2
    step_range = "1 - 1/4 - 2 L^2 (1+theta) alpha^2 > 0"

    @staticmethod
    def constant(config, problem):
        return 2.0 * problem.lipschitz ** 2 * (1.0 + config.theta)

    @staticmethod
    def next_alpha(alpha, m_const, k):
        m_alpha_sq = m_const * alpha ** 2
        beta, beta_next = 1.0 / (k + 2), 1.0 / (k + 3)
        return (alpha * beta_next * (1.0 - beta ** 2 - m_alpha_sq)
                / ((1.0 - m_alpha_sq) * beta * (1.0 - beta)))


# ---------------------------------------------------------------------------
# anchored proximal methods


class _OHM(_Rule):
    """w_{k+1/2} = beta_k w0 + (1-beta_k) w_k; w_{k+1} = J_{alpha B}(w_{k+1/2}),
    with beta_k the inverse of the sum of gamma^{2j}, j <= k (OHM: gamma = 1,
    beta_k = 1/(k+1); OC_HALPERN: gamma = sqrt(1 + 2 alpha mu), the root of
    SM_EAG_PLUS's contraction x, as the paper pairs the two).

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
        return math.sqrt(np.vdot(gap, gap)), (half,)

    def step(self, k):
        self.z = self.w
        self.big_s = 1.0 + self.gamma_sq * self.big_s
        return ()


class _OCHalpern(_OHM):
    def __init__(self, config, problem, oracle, z0):
        super().__init__(config, problem, oracle, z0)
        gamma = math.sqrt(1.0 + 2.0 * config.alpha * problem.mu)
        self.gamma_sq = gamma * gamma
        self.params = {"gamma": gamma}


class _OHMDRS(_Rule):
    """w_k = J_{alpha B}(u_k); u_{k+1} = beta_k u0 + (1-beta_k)
    (J_{alpha A}(w_k - alpha B w_k) + alpha B w_k); beta_k = 1/(k+2)."""

    row_fields = ("w", "v")
    final_row_billed = True

    def evaluate(self, k):
        w = self.b.resolvent(self.alpha, self.z)
        gap = self.forward_backward(w)  # = alpha G_alpha(w_k)
        return math.sqrt(np.vdot(gap, gap)), (w, self.v)

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

    row_fields = ("z", "inner_b_evals")

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
        return math.sqrt(np.vdot(gap, gap)) / alpha, (z, evals)


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
