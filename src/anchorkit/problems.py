"""Concrete problem instances: bilinear saddles, seeded random monotone and
strongly monotone affine operators, the 2-d convex benchmark, and composite
(prox + smooth) splittings.

Generators construct operators whose (L, mu) metadata is exact by
construction; the rate and bound checks divide by these constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    InfeasibleConstants,
    SingularSystem,
)
from .operators import (
    AffineOperator,
    Array,
    BoxProx,
    GradientOperator,
    Operator,
    as_vector,
)

_SOLUTION_SLACK = 1e-9
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Problem:
    """A monotone inclusion 0 in (A + B)(z).

    ``operator`` is the forward-evaluable part B. ``prox_part`` (A) is present
    only for composite problems and is touched exclusively through its
    resolvent. ``solution`` is a point z* with 0 in (A + B)(z*) when known
    by construction; ``start``, when set, is the problem's default start.
    """

    name: str
    operator: Operator
    prox_part: Operator | None = None
    solution: Array | None = None
    start: Array | None = None

    @property
    def dim(self) -> int:
        return self.operator.dim

    @property
    def lipschitz(self) -> float:
        return self.operator.lipschitz

    @property
    def mu(self) -> float:
        return self.operator.mu

    @property
    def is_composite(self) -> bool:
        return self.prox_part is not None

    def release(self) -> None:
        """Free what the parts' resolvents keep between calls (an affine
        part's LU factors); results never depend on it."""
        for part in (self.operator, self.prox_part):
            if part is not None:
                part.release()


def _saddle_matrix(coupling: Array) -> Array:
    """Block skew map of L(x, y) = x'Ay: (x, y) -> (Ay, -A'x)."""
    m, n = coupling.shape[0], coupling.shape[1]
    out = np.zeros((m + n, m + n))
    out[:m, m:] = coupling
    out[m:, :m] = -coupling.T
    return out


def make_bilinear(coupling, x_shift=None, y_shift=None, want_solution=True,
                  name="bilinear") -> Problem:
    """Saddle problem L(x, y) = x'Ay + b'x - c'y.

    The saddle operator is the affine skew map (Ay + b, -A'x + c), merely
    monotone with L = ||A||_2. With ``want_solution`` the stationarity system
    is solved; SingularSystem is raised if it has no unique solution (except
    for the all-zero operator, where the origin is the solution by
    convention). DimensionMismatch for an empty coupling or one with more
    than two dimensions.
    """
    a = np.atleast_2d(np.asarray(coupling, dtype=float))
    if a.size == 0:
        raise DimensionMismatch(f"coupling is empty, shape {a.shape}")
    if a.ndim > 2:
        raise DimensionMismatch(f"coupling must be a matrix, shape {a.shape}")
    m, n = a.shape
    b = np.zeros(m) if x_shift is None else as_vector(x_shift, m)
    c = np.zeros(n) if y_shift is None else as_vector(y_shift, n)
    mat = _saddle_matrix(a)
    shift = np.concatenate([b, c])
    lip = float(np.linalg.norm(a, 2))
    solution = None
    if want_solution:
        if lip == 0.0 and not shift.any():
            solution = np.zeros(m + n)
        else:
            sigma = np.linalg.svd(mat, compute_uv=False)
            if sigma.min() <= 1e-12 * max(sigma.max(), 1.0):
                raise SingularSystem(
                    "stationarity system has no unique solution; "
                    "pass want_solution=False")
            solution = np.linalg.solve(mat, -shift)
    op = AffineOperator(mat, shift, lipschitz=lip, mu=0.0)
    return Problem(name=name, operator=op, solution=solution)


def make_random_monotone_affine(seed, d, lipschitz) -> Problem:
    """Seeded merely monotone affine operator B(z) = Mz with ||M||_2 = L up
    to rounding.

    M = fl(c K) for a random skew-symmetric K and c = fl(L / sigma_max(K)),
    built by ``AffineOperator.scaled``, whose one SVD of K gives the scale,
    certifies the declared L (for L up to about 8.7e3 at d = 1000; past
    that ``norm(M, 2)`` verifies it, and where fl(c K) exceeds L by more
    than the slack, c is lowered to a scale proven to give ||M||_2 < L) and
    gives this singularity test its singular values. M is exactly skew,
    fl(c x) = -fl(c (-x)), so the symmetric part is identically zero and
    mu = 0 exactly. ``d`` must be even for M to be invertible (skew
    matrices of odd dimension are singular), and 0 < L < inf is checked
    before any arithmetic. The offset is zero, so the origin is the unique
    zero.
    """
    if d <= 0 or d % 2:
        raise DimensionMismatch("need a positive even dimension")
    if lipschitz <= 0:
        raise InfeasibleConstants("lipschitz must be positive")
    if not lipschitz < math.inf:
        raise InfeasibleConstants(f"lipschitz must be finite, got {lipschitz}")
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((d, d))
    k = k - k.T
    # the min/max ratio of the singular values, which does not depend on
    # scale, is the singularity test
    op, sigma = AffineOperator.scaled(k, lipschitz)
    if sigma.min() <= 1e-9 * sigma.max():
        raise SingularSystem(f"seed {seed} produced a near-singular matrix")
    return Problem(name=f"monotone-affine-{seed}", operator=op,
                   solution=np.zeros(d))


#: Newton steps allowed for the SCSC scale (seeded cases take at most 9)
_NEWTON_BUDGET = 50


def _scsc_matrix(rng, d, lipschitz, mu):
    """mu*I + s*(H + K) with H PSD shifted to min eigenvalue 0 and K skew,
    jointly scaled so that lambda_min of the symmetric part is mu and the
    2-norm is ``lipschitz``, both verified by an eigensolve.

    The scale s solves g(s) = ||mu I + s base||_2 - L = 0, base = H + K.
    g is convex, as the norm of an affine map, with g(0) = mu - L < 0, and
    g(s0) >= 0 at s0 = (L + mu)/||base||_2 by the triangle inequality. So
    g is increasing right of its root, and Newton's method from s0, with
    the slope u1' base v1 of the top singular pair, decreases monotonically
    to the root: a tangent (or, at a repeated top singular value, a
    subgradient line) lies below g, so no iterate passes the root. It stops
    once g <= 0 or the step is at most 4 eps s."""
    h = rng.standard_normal((d, d))
    h = h @ h.T
    h = h - np.linalg.eigvalsh(h).min() * np.eye(d)
    k = rng.standard_normal((d, d))
    k = k - k.T
    base = h + k
    eye = np.eye(d)
    top = np.linalg.norm(base, 2)
    if top == 0:
        raise InfeasibleConstants("H + K is zero; no scale reaches the norm")
    s = (lipschitz + mu) / top
    for _ in range(_NEWTON_BUDGET):
        u, sigma, vt = np.linalg.svd(mu * eye + s * base)
        if sigma[0] <= lipschitz:
            break
        step = (sigma[0] - lipschitz) / (u[:, 0] @ base @ vt[0])
        s -= step
        if step <= 4 * _EPS * s:
            break
    else:
        raise InfeasibleConstants(
            f"scale search did not converge in {_NEWTON_BUDGET} Newton steps")
    mat = mu * eye + s * base
    sym_min = np.linalg.eigvalsh(0.5 * (mat + mat.T)).min()
    two_norm = np.linalg.norm(mat, 2)
    if abs(sym_min - mu) > _SOLUTION_SLACK or abs(two_norm - lipschitz) > _SOLUTION_SLACK:
        raise InfeasibleConstants(
            f"rescale missed targets: sym_min={sym_min!r}, norm={two_norm!r}")
    return mat


def make_random_scsc(seed, d, lipschitz, mu, z_star=None) -> Problem:
    """Seeded strongly monotone affine operator with exact constants.

    Requires 0 < mu <= lipschitz < inf, checked before any arithmetic (a
    NaN fails it); the scalar case d = 1 forces mu == lipschitz.
    B(z) = Mz + b vanishes at z_star (b = -M z_star, exact in floating point).
    """
    if not 0 < mu <= lipschitz < math.inf:
        raise InfeasibleConstants(
            f"generator requires 0 < mu <= L < inf, got mu = {mu}, "
            f"L = {lipschitz}; use make_bilinear or "
            f"make_random_monotone_affine for mu = 0")
    if d <= 0:
        raise DimensionMismatch("dimension must be positive")
    if d == 1 and mu != lipschitz:
        raise InfeasibleConstants("d = 1 forces mu == lipschitz")
    rng = np.random.default_rng(seed)
    if mu == lipschitz:
        mat = mu * np.eye(d)
    else:
        mat = _scsc_matrix(rng, d, lipschitz, mu)
    zs = np.zeros(d) if z_star is None else as_vector(z_star, d)
    op = AffineOperator(mat, -mat @ zs, lipschitz=lipschitz, mu=mu)
    return Problem(name=f"scsc-{seed}", operator=op, solution=zs)


#: caption defaults for the 2-d convex benchmark
FIGURE1_START = (-2.0, 3.0)
FIGURE1_AGM_STEP = 0.025
FIGURE1_ANCHORED_STEP = 0.1
#: smoothness bound valid on the region the default runs traverse (x2 >= 1)
FIGURE1_LIPSCHITZ = 8.0


def make_figure1() -> Problem:
    """Convex minimization of f(x1, x2) = 4 x1^2 / x2 on the open domain x2 > 0.

    Gradient (8 x1/x2, -4 x1^2/x2^2); minimizers are the ray x1 = 0. Ships
    the benchmark start (-2, 3); the benchmark steps are the module constants
    ``FIGURE1_AGM_STEP`` (momentum) and ``FIGURE1_ANCHORED_STEP`` (anchored).
    """

    def grad(z):
        x1, x2 = z
        return np.array([8.0 * x1 / x2, -4.0 * x1 ** 2 / x2 ** 2])

    op = GradientOperator(grad, dim=2, lipschitz=FIGURE1_LIPSCHITZ,
                          domain=lambda z: z[1] > 0.0)
    return Problem(name="figure1", operator=op,
                   start=np.array(FIGURE1_START))


def make_composite(box: BoxProx, smooth: Problem, name=None) -> Problem:
    """Composite splitting: A is the indicator of ``box`` (a product of
    boxes, such as one per player, is one box on the stacked vector); B is
    the smooth problem's operator.

    DimensionMismatch is raised unless the box has the smooth problem's
    dimension.
    """
    if box.dim != smooth.dim:
        raise DimensionMismatch(f"box dimension {box.dim} != "
                                f"smooth dimension {smooth.dim}")
    return Problem(name=name or f"composite-{smooth.name}",
                   operator=smooth.operator, prox_part=box,
                   start=smooth.start)


def make_box_bilinear_composite(seed, box_upper=1.0, size=2) -> Problem:
    """Box-constrained bilinear saddle over [0, box_upper]^size per player:
    seeded standard normal coupling, shifts 0.5 times standard normal."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((size, size))
    b = 0.5 * rng.standard_normal(size)
    c = 0.5 * rng.standard_normal(size)
    smooth = make_bilinear(a, b, c, want_solution=False)
    box = BoxProx(np.full(2 * size, 0.0), np.full(2 * size, float(box_upper)))
    return make_composite(box, smooth, name=f"box-bilinear-{seed}")


PROBLEM_BUILDERS = {
    "bilinear": make_bilinear,
    "random_monotone_affine": make_random_monotone_affine,
    "random_scsc": make_random_scsc,
    "figure1": make_figure1,
    "box_bilinear_composite": make_box_bilinear_composite,
}


def build_problem(name: str, params: dict | None = None) -> Problem:
    """Construct a problem by registry name and parameter map (CLI entry)."""
    if not isinstance(name, str) or name not in PROBLEM_BUILDERS:
        raise ConfigError(f"unknown problem {name!r}", code="UNKNOWN_PROBLEM")
    return PROBLEM_BUILDERS[name](**(params or {}))
