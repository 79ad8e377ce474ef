"""Monotone operators on R^d: forward evaluation, resolvents, and the box
indicator, whose resolvent is the clamp onto the box.

Every operator carries exact regularity metadata (Lipschitz constant and
strong-monotonicity modulus) supplied at construction; nothing is estimated
at runtime. Operators are immutable after construction and safe to share.

Every resolvent has the one signature ``resolvent(alpha, z)`` and refuses a
step size outside 0 < alpha < inf. Affine and prox resolvents are exact;
the resolvent of a ``CallableOperator``, known through its forward map
alone, is ``iterative_resolvent``, which solves the inner map
``ShiftedIdentityPlus`` to residual ``RESOLVENT_TOL``.
"""
from __future__ import annotations

import importlib.util
import math
import os
from importlib.machinery import EXTENSION_SUFFIXES
from typing import NoReturn

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainViolation,
    InfeasibleConstants,
    InnerLoopBudgetExceeded,
    NoForwardEvaluation,
    NoResolventCapability,
)

Array = np.ndarray


def _load_flapack():
    """scipy's LAPACK extension ``scipy.linalg._flapack``, loaded from its
    file without running the ``scipy`` or ``scipy.linalg`` package: the
    package's directory comes from its import spec.

    Its routines are the objects ``scipy.linalg.lapack`` re-exports, so every
    bit is that of ``scipy.linalg``. Raises ImportError naming the path
    looked for when no file with an extension suffix is there.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    base = os.path.join(spec.submodule_search_locations[0], "linalg",
                        "_flapack")
    for suffix in EXTENSION_SUFFIXES:
        path = base + suffix
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(
                "scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no LAPACK extension at {base}"
                      f"{{{','.join(EXTENSION_SUFFIXES)}}}")


_flapack = _load_flapack()
_dgetrf = _flapack.dgetrf
_dgetrs = _flapack.dgetrs

#: slack used when verifying metadata against computed spectra
_META_SLACK = 1e-9

#: unit roundoff of float64, 2^-53
_UNIT_ROUNDOFF = 2.0 ** -53

#: residual to which every iterative resolvent is solved
RESOLVENT_TOL = 1e-12


def as_vector(coords, dim: int | None = None, finite: bool = True) -> Array:
    """Validate ``coords`` as a float64 vector of positive dimension whose
    entries are finite, or with ``finite=False`` only not NaN."""
    v = np.asarray(coords, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatch(f"expected a nonempty vector, got shape {v.shape}")
    if finite and not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    if not finite and np.any(np.isnan(v)):
        raise ValueError("vector has NaN entries")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.size}")
    return v


def _square(matrix) -> Array:
    """``matrix`` as a nonempty square float64 array, else
    DimensionMismatch."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionMismatch(f"expected a square matrix, got {m.shape}")
    return m


def _lu_factor(a: Array):
    """``(lu, piv)`` of a square float64 matrix by LAPACK ``getrf``: the
    factors ``scipy.linalg.lu_factor`` returns, with its checks.

    ``getrf`` may overwrite ``a``: a Fortran-order ``a`` becomes ``lu``,
    and any other is copied to Fortran order first, as ``lu_factor`` does.
    A non-finite matrix raises ValueError, as does an illegal argument; an
    exactly zero pivot (a singular matrix) raises ValueError where
    ``lu_factor`` only warns.
    """
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    lu, piv, info = _dgetrf(a, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    if info > 0:
        raise ValueError(f"diagonal number {info} is exactly zero: "
                         "singular matrix")
    return lu, piv


def vector_norm(v: Array) -> float:
    """Euclidean norm of a real vector, ``sqrt(np.vdot(v, v))``.

    This is the formula ``np.linalg.norm`` applies to a real 1-D vector, so
    the result is bit-identical to it, without its dispatch layers; unlike
    ``v.dot(v)``, ``np.vdot`` overflows to inf without a RuntimeWarning.
    """
    return math.sqrt(np.vdot(v, v))


def _check_step(alpha: float) -> None:
    """ValueError unless 0 < alpha < inf: the step check of every resolvent
    and of ``ShiftedIdentityPlus``."""
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")


def _check_constants(lipschitz, mu) -> None:
    """InfeasibleConstants unless each declared constant (None: not
    declared) is finite and nonnegative, with mu <= L when both are."""
    if not all(c is None or 0.0 <= c < math.inf for c in (lipschitz, mu)):
        raise InfeasibleConstants(f"declared constants must be finite and "
                                  f"nonnegative, got L={lipschitz}, mu={mu}")
    if None not in (lipschitz, mu) and mu > lipschitz + _META_SLACK:
        raise InfeasibleConstants(f"mu = {mu} exceeds L = {lipschitz}")


def max_step_strongly_monotone(lipschitz: float, mu: float) -> float:
    """Largest admissible step of the strongly monotone anchored
    extragradient (SM_EAG_PLUS), (sqrt(L^2 + mu^2) + mu) / L^2."""
    if lipschitz <= 0:
        return math.inf
    return (math.hypot(lipschitz, mu) + mu) / lipschitz ** 2


def solve_strongly_monotone(fn, mu: float, lipschitz: float, z0: Array,
                            tol: float, max_iterations: int):
    """Drive ``||fn(z)|| <= tol`` for a strongly monotone Lipschitz map.

    Runs the anchored extragradient recursion for a ``mu``-strongly monotone,
    ``lipschitz``-Lipschitz single-valued map with the largest admissible
    step ``max_step_strongly_monotone``, anchor weights given by inverse
    geometric sums, and the matching damped half-step. Converges linearly;
    the caller sets the budget ``max_iterations`` (``iterative_resolvent``
    gives ``10 L log(1/tol)``, at least 20). Each step forms
    ``beta * anchor`` and ``1 - beta`` once and uses the damped step
    ``step / x`` fixed before the loop; reusing a computed value leaves
    every bit as written out in full.

    Returns ``(z, n_evals)`` where ``n_evals`` counts calls to ``fn``.
    Raises InnerLoopBudgetExceeded past the budget.
    """
    if mu <= 0 or lipschitz < mu:
        raise InfeasibleConstants(f"need 0 < mu <= L, got mu={mu}, L={lipschitz}")
    step = max_step_strongly_monotone(lipschitz, mu)
    x = 1.0 + 2.0 * step * mu
    damped = step / x
    anchor = np.array(z0, dtype=float)
    z = anchor.copy()
    val = fn(z)
    evals = 1
    big_s = 1.0  # sum of x^j, j = 0..k
    for _ in range(max_iterations):
        if vector_norm(val) <= tol:
            return z, evals
        beta = 1.0 / big_s
        anchor_term, keep = beta * anchor, 1.0 - beta
        half = anchor_term + keep * (z - damped * val)
        vh = fn(half)
        z = anchor_term + keep * z - step * vh
        val = fn(z)
        evals += 2
        big_s = 1.0 + x * big_s
    if vector_norm(val) <= tol:
        return z, evals
    raise InnerLoopBudgetExceeded(
        f"residual {vector_norm(val):.3e} > tol {tol:.3e} "
        f"after {max_iterations} iterations")


def iterative_resolvent(op, alpha: float, z: Array, tol: float = RESOLVENT_TOL):
    """Resolvent of ``op`` by forward iterations: solve w + alpha op(w) = z.

    Runs the strongly monotone solver on ``ShiftedIdentityPlus(op, alpha, z)``
    from z down to residual ``tol``, with the budget
    ``10 (1 + alpha L) log(1/tol)`` (at least 20). ``op`` needs only a forward
    call plus ``dim``, ``lipschitz`` and ``mu``. Returns ``(w, n_evals)``,
    where ``n_evals`` counts calls of the inner map, one call of ``op`` each.
    """
    inner = ShiftedIdentityPlus(op, alpha, z)
    budget = max(20, math.ceil(
        10.0 * inner.lipschitz * max(1.0, math.log(1.0 / tol))))
    return solve_strongly_monotone(inner, mu=inner.mu,
                                   lipschitz=inner.lipschitz, z0=inner.shift,
                                   tol=tol, max_iterations=budget)


class Operator:
    """Base class. Subclasses set ``dim``, ``lipschitz`` and ``mu``.

    ``mu`` is the strong-monotonicity modulus (0 means merely monotone).
    """

    dim: int
    lipschitz: float
    mu: float

    def __call__(self, z: Array) -> Array:
        raise NoForwardEvaluation(f"{type(self).__name__} has no forward evaluation")

    @property
    def resolvent_kind(self) -> str | None:
        """One of 'affine', 'prox', 'iterative', or None."""
        return None

    def resolvent(self, alpha: float, z: Array) -> Array:
        """Return u with z = u + alpha * op(u)."""
        raise NoResolventCapability(f"{type(self).__name__} has no resolvent")

    def _dim_mismatch(self, z: Array) -> NoReturn:
        """Raise for a point whose shape is not (dim,); callers test the
        shape inline and call this only on a mismatch."""
        raise DimensionMismatch(
            f"operator on R^{self.dim} evaluated at shape {z.shape}")


class AffineOperator(Operator):
    """z -> M z + b with exact spectral metadata.

    If ``lipschitz``/``mu`` are omitted they are computed from the matrix
    (2-norm and smallest eigenvalue of the symmetric part); if supplied they
    must be finite and nonnegative, and are verified against the spectrum at
    construction. The matrix must be monotone: min eig of (M + M^T)/2 >=
    -1e-9. When M + M^T is exactly zero (M is exactly skew, as every
    bilinear saddle matrix and every ``scaled`` skew matrix is), that
    eigenvalue is exactly 0.0 and no eigensolver runs. The constructor
    copies the caller's matrix; ``scaled`` keeps the one it builds.

    Forward evaluation is ``matrix.dot(z) + offset``. For d >= 2
    ``ndarray.dot`` gives the bits of ``matrix @ z`` (both call BLAS gemv)
    without the ``matmul`` ufunc's dispatch; numpy's 1 x 1 ``dot`` is the
    one entry's product, which can be -0.0 where ``@`` gives +0.0
    (``[[1.0]]`` times ``[-0.0]``). When the offset has no nonzero entry
    and d >= 2 the map is ``matrix.dot(z)`` alone, with the same bits:
    adding a zero changes a value only where the product is -0.0, and BLAS
    gemv and numpy's own dot loop accumulate from +0.0, so a product of
    length d >= 2 is never -0.0. d = 1 keeps the add.

    The resolvent factors I + alpha M once per step size with LAPACK
    ``getrf`` and solves each call with LAPACK ``getrs``, the routines
    behind ``scipy.linalg.lu_factor`` and ``scipy.linalg.lu_solve``, so the
    bits are theirs. I + alpha M is formed in one Fortran-order array,
    which ``getrf`` overwrites with the factors: alpha M, then + 0.0, which
    turns each -0.0 into the +0.0 of 0.0 + alpha M_ij, then 1.0 added on
    the diagonal; these are the bits of ``np.eye(d) + alpha * M``. The memo
    keeps, per alpha, the LU factors and ``alpha * offset``; it never
    changes a result, so the operator is still immutable after
    construction in every observable way.
    """

    def __init__(self, matrix, offset=None, lipschitz=None, mu=None):
        self._setup(_square(matrix).copy(), offset, lipschitz, mu,
                    certified=False)

    @classmethod
    def scaled(cls, k, lipschitz) -> tuple[AffineOperator, Array]:
        """``(op, sigma)``: the operator z -> M z with M = fl(c K),
        c = fl(L / max(sigma)), declared ``lipschitz``-Lipschitz, and the
        singular values ``sigma`` of K, from one SVD.

        ``mu`` is that of the spectrum, as when it is omitted. The SVD of K
        also certifies L, so ``norm(M, 2)`` need not run: with u = 2^-53
        the unit roundoff, and LAPACK giving the top singular value to
        relative accuracy p u, ||K||_2 <= max(sigma) / (1 - p u) and
        c <= (L / max(sigma)) (1 + u). For any scale s, each entry of
        fl(s K) is s K_ij (1 + delta), |delta| <= u, so
        ||fl(s K) - s K||_F <= u s ||K||_F <= u s sqrt(d) ||K||_2
        (underflow adds at most d 2^-1075 more). By Weyl's inequality
        ||fl(s K)||_2 <= s ||K||_2 (1 + sqrt(d) u), so at s = c

            ||M||_2 <= L (1 + u) (1 + sqrt(d) u) / (1 - p u) <= L (1 + e),

        taken with p = d and e = (3 + sqrt(d) + d) u / (1 - d u), where the
        spare u covers the rounding of evaluating e. When L e is at most
        ``_META_SLACK`` (at d = 1000, L up to about 8.7e3), the declared L
        is certified; otherwise ``norm(M, 2)`` verifies it as in the
        constructor. Where that check fails too (from about L = 1e7, fl(c K)
        can exceed L by ulps that the absolute slack does not cover), M is
        rebuilt as fl(c' K) with c' = fl(c fl(1 - 2 e)) <= c (1 - 2 e)
        (1 + u)^2. The bound at s = c' then gives

            ||M||_2 <= L (1 + e) (1 - 2 e) (1 + u)^2 <= L (1 - e) (1 + 3 u)
                     < L,

        since e >= 5 u. On this path L e is about ``_META_SLACK`` or more,
        so the margin L (e - 3 u) >= 0.4 L e also covers the underflow term.
        The rebuilt M is still exactly skew when K is. K must be square,
        finite and nonzero, and 0 < L < inf.
        """
        k = _square(k)
        if not 0.0 < lipschitz < math.inf:
            raise InfeasibleConstants(f"need 0 < L < inf, got L={lipschitz}")
        sigma = np.linalg.svd(k, compute_uv=False)
        if sigma.max() == 0.0:
            raise InfeasibleConstants("K is zero; no scale reaches the norm")
        c = lipschitz / sigma.max()
        m = c * k
        d = m.shape[0]
        excess = ((3.0 + math.sqrt(d) + d) * _UNIT_ROUNDOFF
                  / (1.0 - d * _UNIT_ROUNDOFF))
        if (lipschitz + lipschitz * excess > lipschitz + _META_SLACK
                and float(np.linalg.norm(m, 2)) > lipschitz + _META_SLACK):
            m = (c * (1.0 - 2.0 * excess)) * k
        op = cls.__new__(cls)
        op._setup(m, None, lipschitz, None, certified=True)
        return op, sigma

    def _setup(self, m, offset, lipschitz, mu, certified):
        """Check and keep the constants of the square float matrix ``m``,
        which the operator then owns; ``certified`` says that the caller
        has already checked the declared ``lipschitz`` against ``m``, so
        ``norm(m, 2)`` does not run again."""
        _check_constants(lipschitz, mu)
        self.dim = m.shape[0]
        self.matrix = m
        self.offset = (np.zeros(self.dim) if offset is None
                       else as_vector(offset, self.dim).copy())
        sym = m + m.T
        sym_min = (float(np.linalg.eigvalsh(0.5 * sym).min()) if sym.any()
                   else 0.0)
        if sym_min < -_META_SLACK:
            raise InfeasibleConstants(
                f"matrix is not monotone: min sym eigenvalue {sym_min:.3e}")
        if lipschitz is None:
            lipschitz = float(np.linalg.norm(m, 2))
        elif not certified:
            two_norm = float(np.linalg.norm(m, 2))
            if two_norm > lipschitz + _META_SLACK:
                raise InfeasibleConstants(
                    f"||M||_2 = {two_norm:.6g} exceeds declared "
                    f"L = {lipschitz:.6g}")
        if mu is None:
            mu = max(sym_min, 0.0)
        elif sym_min < mu - _META_SLACK:
            raise InfeasibleConstants(
                f"min sym eigenvalue {sym_min:.6g} below declared mu = {mu:.6g}")
        self.lipschitz = float(lipschitz)
        self.mu = float(mu)
        self._plain_product = self.dim >= 2 and not self.offset.any()
        # alpha -> (lu, piv, alpha b), for the most recent alpha only
        self._lu_cache: dict[float, tuple] = {}
        self.matrix.setflags(write=False)
        self.offset.setflags(write=False)

    def __call__(self, z):
        if z.shape != (self.dim,):
            self._dim_mismatch(z)
        if self._plain_product:
            return self.matrix.dot(z)
        return self.matrix.dot(z) + self.offset

    @property
    def resolvent_kind(self):
        return "affine"

    def resolvent(self, alpha, z):
        # direct dense solve of (I + alpha M) u = z - alpha b by getrf/getrs,
        # LU kept for the most recent alpha (every run uses one); the bits
        # are those of scipy.linalg.lu_factor followed by
        # scipy.linalg.lu_solve
        if z.shape != (self.dim,):
            self._dim_mismatch(z)
        _check_step(alpha)
        memo = self._lu_cache.get(alpha)
        if memo is None:
            # release the previous alpha's factors before forming new ones
            self._lu_cache.clear()
            # np.eye(d) + alpha * M in the one array that getrf factors
            shifted = np.multiply(alpha, self.matrix, order="F")
            shifted += 0.0  # -0.0 to +0.0, as in 0.0 + alpha M_ij
            shifted.flat[::self.dim + 1] += 1.0
            memo = (*_lu_factor(shifted), alpha * self.offset)
            self._lu_cache[alpha] = memo
        lu, piv, alpha_offset = memo
        rhs = z - alpha_offset
        # rhs . rhs is finite for a finite rhs unless it overflows, and then
        # the elementwise check decides
        if not math.isfinite(np.vdot(rhs, rhs)) and not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        # positional trans = 0, overwrite_b = 1: no keyword to parse per call
        u, info = _dgetrs(lu, piv, rhs, 0, 1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of getrs")
        return u


class CallableOperator(Operator):
    """Wraps a forward map with declared constants and an optional open
    domain; known through its forward map alone, its resolvent is the point
    of ``iterative_resolvent``.

    The constants must be finite and nonnegative, with mu <= L.
    """

    def __init__(self, fn, dim, lipschitz, mu=0.0, domain=None):
        self.fn = fn
        self.dim = int(dim)
        if self.dim <= 0:
            raise DimensionMismatch("dimension must be positive")
        self.lipschitz = float(lipschitz)
        self.mu = float(mu)
        self.domain = domain
        _check_constants(self.lipschitz, self.mu)

    def __call__(self, z):
        if z.shape != (self.dim,):
            self._dim_mismatch(z)
        if self.domain is not None and not self.domain(z):
            raise DomainViolation(f"point {z} outside the open domain")
        return self.fn(z)

    @property
    def resolvent_kind(self):
        return "iterative"

    def resolvent(self, alpha, z):
        return iterative_resolvent(self, alpha, z)[0]


class GradientOperator(CallableOperator):
    """Gradient field of a differentiable convex objective: a
    ``CallableOperator`` whose type marks it as a gradient, which AGM
    requires."""


class ShiftedIdentityPlus(Operator):
    """z -> z + alpha * base(z) - shift, the inner map of every resolvent
    evaluated by forward iterations; it has a forward map only.

    (1 + alpha mu)-strongly monotone and (1 + alpha L)-Lipschitz for the
    base's declared constants; its zero is J_{alpha base}(shift). The base
    needs only a forward call plus ``dim``, ``lipschitz`` and ``mu``. A
    non-finite shift raises ValueError.
    """

    def __init__(self, base: Operator, alpha: float, shift):
        _check_step(alpha)
        self.base = base
        self.alpha = float(alpha)
        self.shift = as_vector(shift, base.dim).copy()
        self.shift.setflags(write=False)
        self.dim = base.dim
        self.lipschitz = 1.0 + alpha * base.lipschitz
        self.mu = 1.0 + alpha * base.mu

    def __call__(self, z):
        if z.shape != (self.dim,):
            self._dim_mismatch(z)
        return z + self.alpha * self.base(z) - self.shift


class ScaledOperator(Operator):
    """c * base for 0 < c < inf; the resolvent delegates to the base at step
    c*alpha."""

    def __init__(self, scale: float, base: Operator):
        if not 0.0 < scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {scale}")
        self.scale = float(scale)
        self.base = base
        self.dim = base.dim
        self.lipschitz = scale * base.lipschitz
        self.mu = scale * base.mu

    def __call__(self, z):
        return self.scale * self.base(z)

    @property
    def resolvent_kind(self):
        return self.base.resolvent_kind

    def resolvent(self, alpha, z):
        return self.base.resolvent(alpha * self.scale, z)


# ---------------------------------------------------------------------------
# proximal maps


class BoxProx(Operator):
    """Indicator of a coordinatewise box; its resolvent is the clamp onto
    the box, for any alpha. No forward evaluation exists (the normal cone
    is set-valued). A product of boxes, one per block, is one box on the
    stacked vector.

    A bound may be infinite (``lower = 0``, ``upper = inf`` is an orthant),
    but no bound is NaN, no lower bound is +inf and no upper bound is -inf,
    so the box is never empty. The bounds are copies of the caller's. The
    clamp is one call of ``np.clip`` on the whole vector, which gives the
    bits of clamping each block on its own, signed zeros, infinite bounds
    and NaN included.
    """

    def __init__(self, lower, upper):
        lo = as_vector(lower, finite=False).copy()
        hi = as_vector(upper, lo.size, finite=False).copy()
        if np.any(lo > hi):
            raise ValueError("box needs lower <= upper coordinatewise")
        if np.any(lo == np.inf) or np.any(hi == -np.inf):
            raise ValueError("box needs lower < +inf and upper > -inf")
        lo.setflags(write=False)
        hi.setflags(write=False)
        self.lower, self.upper = lo, hi
        self.dim = lo.size
        self.lipschitz = math.inf
        self.mu = 0.0

    @property
    def resolvent_kind(self):
        return "prox"

    def resolvent(self, alpha, z):
        if z.shape != (self.dim,):
            self._dim_mismatch(z)
        _check_step(alpha)
        return np.clip(z, self.lower, self.upper)


# ---------------------------------------------------------------------------
# derived maps


def forward_backward_residual(a_part: Operator, b_op: Operator, alpha: float,
                              z) -> Array:
    """G_alpha(z) = (z - J_{alpha A}(z - alpha B z)) / alpha.

    Vanishes exactly at solutions of 0 in (A + B)(z). ``a_part`` is an
    operator with a resolvent, such as a problem's ``prox_part``; an
    iterative J_{alpha A} is solved to residual ``RESOLVENT_TOL``.
    """
    z = as_vector(z, b_op.dim)
    backward = a_part.resolvent(alpha, z - alpha * b_op(z))
    return (z - backward) / alpha


def drs_map(a_op: Operator, b_op: Operator, alpha: float, u) -> Array:
    """Douglas-Rachford map u - J_{alpha B}(u) + J_{alpha A}(2 J_{alpha B}(u) - u).

    Fixed points u* satisfy J_{alpha B}(u*) in Zer(A + B).
    """
    u = as_vector(u, b_op.dim)
    w = b_op.resolvent(alpha, u)
    v = a_op.resolvent(alpha, 2.0 * w - u)
    return u - w + v
