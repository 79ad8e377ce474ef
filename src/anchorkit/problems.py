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

from .errors import DimensionMismatch, InfeasibleConstants, SingularSystem
from .operators import (
    AffineOperator,
    Array,
    BlockProxOperator,
    BoxProx,
    GradientOperator,
    Operator,
    as_vector,
)

_SOLUTION_SLACK = 1e-9


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
    convention).
    """
    a = np.atleast_2d(np.asarray(coupling, dtype=float))
    m, n = a.shape
    b = np.zeros(m) if x_shift is None else as_vector(x_shift, m)
    c = np.zeros(n) if y_shift is None else as_vector(y_shift, n)
    mat = _saddle_matrix(a)
    shift = np.concatenate([b, c])
    lip = float(np.linalg.norm(a, 2)) if a.size else 0.0
    solution = None
    if want_solution:
        if lip == 0.0 and not shift.any():
            solution = np.zeros(m + n)
        else:
            sigma = np.linalg.svd(mat, compute_uv=False)
            if sigma.size == 0 or sigma.min() <= 1e-12 * max(sigma.max(), 1.0):
                raise SingularSystem(
                    "stationarity system has no unique solution; "
                    "pass want_solution=False")
            solution = np.linalg.solve(mat, -shift)
    op = AffineOperator(mat, shift, lipschitz=lip, mu=0.0)
    return Problem(name=name, operator=op, solution=solution)


def make_random_monotone_affine(seed, d, lipschitz, z_star=None,
                                name=None) -> Problem:
    """Seeded merely monotone affine operator B(z) = Mz + b with ||M||_2 = L.

    M is a random skew-symmetric matrix rescaled so the Lipschitz constant is
    exact; the symmetric part is identically zero, so mu = 0 exactly. ``d``
    must be even for M to be invertible (skew matrices of odd dimension are
    singular). b is chosen so that z_star is the unique zero.
    """
    if d <= 0 or d % 2:
        raise DimensionMismatch("need a positive even dimension")
    if lipschitz <= 0:
        raise InfeasibleConstants("lipschitz must be positive")
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((d, d))
    k = k - k.T
    # the largest singular value is the 2-norm, and the min/max ratio, which
    # does not depend on scale, is the singularity test
    sigma = np.linalg.svd(k, compute_uv=False)
    if sigma.min() <= 1e-9 * sigma.max():
        raise SingularSystem(f"seed {seed} produced a near-singular matrix")
    mat = (lipschitz / sigma.max()) * k
    zs = np.zeros(d) if z_star is None else as_vector(z_star, d)
    op = AffineOperator(mat, -mat @ zs, lipschitz=lipschitz, mu=0.0)
    return Problem(name=name or f"monotone-affine-{seed}", operator=op,
                   solution=zs)


def _brent_root(f, a, b, xtol, rtol, maxiter=100):
    """A root of ``f`` in [a, b] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of SciPy's ``brentq.c``: the same operation order
    and the same sign tests, so it returns the float that
    ``scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)``
    returns. It fails closed with InfeasibleConstants where brentq raises:
    a NaN value of ``f``, no sign change over [a, b], or no convergence
    within ``maxiter`` iterations.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise InfeasibleConstants(f"root search: f({x!r}) is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise InfeasibleConstants(
            f"root search: f({a!r}) and f({b!r}) have the same sign")
    for _ in range(maxiter):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise InfeasibleConstants(
        f"root search did not converge in {maxiter} iterations")


def _scsc_matrix(rng, d, lipschitz, mu):
    """mu*I + s*(H + K) with H PSD shifted to min eigenvalue 0 and K skew,
    jointly scaled so that lambda_min of the symmetric part is mu and the
    2-norm is ``lipschitz``, both verified by an eigensolve.

    The scale s is the root of ``gap`` found by ``_brent_root``, a port of
    SciPy's ``brentq`` that returns its bits, so the matrices are the ones
    ``scipy.optimize.brentq`` gave without importing ``scipy.optimize``."""
    h = rng.standard_normal((d, d))
    h = h @ h.T
    h = h - np.linalg.eigvalsh(h).min() * np.eye(d)
    k = rng.standard_normal((d, d))
    k = k - k.T
    base = h + k
    eye = np.eye(d)

    def gap(s):
        return np.linalg.norm(mu * eye + s * base, 2) - lipschitz

    hi = 1.0
    while gap(hi) < 0:
        hi *= 2.0
        if hi > 1e12:
            raise InfeasibleConstants("could not reach the requested norm")
    s = _brent_root(gap, 0.0, hi, xtol=1e-15, rtol=8.9e-16)
    mat = mu * eye + s * base
    sym_min = np.linalg.eigvalsh(0.5 * (mat + mat.T)).min()
    two_norm = np.linalg.norm(mat, 2)
    if abs(sym_min - mu) > _SOLUTION_SLACK or abs(two_norm - lipschitz) > _SOLUTION_SLACK:
        raise InfeasibleConstants(
            f"rescale missed targets: sym_min={sym_min!r}, norm={two_norm!r}")
    return mat


def make_random_scsc(seed, d, lipschitz, mu, z_star=None, name=None) -> Problem:
    """Seeded strongly monotone affine operator with exact constants.

    Requires 0 < mu <= lipschitz; the scalar case d = 1 forces mu == lipschitz.
    B(z) = Mz + b vanishes at z_star (b = -M z_star, exact in floating point).
    """
    if mu <= 0:
        raise InfeasibleConstants("generator requires mu > 0; "
                                  "use make_bilinear or "
                                  "make_random_monotone_affine for mu = 0")
    if mu > lipschitz:
        raise InfeasibleConstants(f"mu = {mu} exceeds L = {lipschitz}")
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
    return Problem(name=name or f"scsc-{seed}", operator=op, solution=zs)


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


def make_composite(prox_x, prox_y, smooth: Problem, name=None) -> Problem:
    """Composite splitting: A acts blockwise as the box proxes prox_x, then
    prox_y, on the stacked vector; B is the smooth problem's operator.

    The block widths are the boxes' own ``dim``; DimensionMismatch is raised
    unless they add up to the smooth problem's dimension.
    """
    if prox_x.dim + prox_y.dim != smooth.dim:
        raise DimensionMismatch(f"box widths {prox_x.dim} + {prox_y.dim} != "
                                f"smooth dimension {smooth.dim}")
    a_part = BlockProxOperator([(prox_x, prox_x.dim), (prox_y, prox_y.dim)])
    return Problem(name=name or f"composite-{smooth.name}",
                   operator=smooth.operator, prox_part=a_part,
                   start=smooth.start)


def make_box_bilinear_composite(seed, box_lower=0.0, box_upper=1.0,
                                shift_scale=0.5, size=2, name=None) -> Problem:
    """Box-constrained bilinear saddle: indicator boxes plus a seeded coupling."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((size, size))
    b = shift_scale * rng.standard_normal(size)
    c = shift_scale * rng.standard_normal(size)
    smooth = make_bilinear(a, b, c, want_solution=False)
    lo = np.full(size, float(box_lower))
    hi = np.full(size, float(box_upper))
    return make_composite(BoxProx(lo, hi), BoxProx(lo, hi), smooth,
                          name=name or f"box-bilinear-{seed}")


PROBLEM_BUILDERS = {
    "bilinear": make_bilinear,
    "random_monotone_affine": make_random_monotone_affine,
    "random_scsc": make_random_scsc,
    "figure1": make_figure1,
    "box_bilinear_composite": make_box_bilinear_composite,
}


def build_problem(name: str, params: dict | None = None) -> Problem:
    """Construct a problem by registry name and parameter map (CLI entry)."""
    if name not in PROBLEM_BUILDERS:
        raise KeyError(f"unknown problem {name!r}; "
                       f"known: {sorted(PROBLEM_BUILDERS)}")
    return PROBLEM_BUILDERS[name](**(params or {}))
