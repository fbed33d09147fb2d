"""Analytic model of a left invertible translation operator.

The unitary U sends f in L2(R+) to the E-valued polynomial-like expansion

    (U f)(z) = sum_n (P L_t^n f) z^n,      E = chi_[0,t) L2,  P = restriction,

under which S_t becomes multiplication by z on a reproducing kernel space
whose kernel is diagonal:

    (k(z, lambda) e)(x) = sum_n  phi(x)/phi(x + n t) (z conj(lambda))^n e(x).

The inverse of U is explicit: block n of f is recovered from coefficient n
by f(x + n t) = sqrt(phi(x + n t)/phi(x)) c_n(x). All model-side inner
products are computed by pulling back to L2 through that inverse, which
keeps unitarity the single source of truth instead of introducing an
independent quadrature on the model side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoClosedFormError, OutsideConvergenceDomainError
from .operators import OperatorHandle, apply_power, make_operator, phi_ratio
from .stepfun import StepFunction, add_all, haar, inner, norm, norm_sq, restrict_to_E
from .symbols import Symbol, eval_phi
from .util import SERIES_CAP, gauss5_cells, sum_series

DOMAIN_MARGIN = 0.05  # kernel series run only for |z conj(lambda)| < radius^2 (1 - margin)
CLOSED_FORM_TOL = 1e-12  # tail bound of the residual series in the two_isometry closed form


@dataclass(frozen=True)
class EValuedPolynomial:
    """Finitely many E-valued coefficients; coefficient n multiplies z**n."""

    t: float
    coeffs: tuple[StepFunction, ...]
    truncated: bool = False

    def __post_init__(self):
        for c in self.coeffs:
            if c.values.size and (c.lo < 0 or c.hi > self.t):
                raise ValueError("every coefficient must be supported in [0, t)")

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient (-1 for the zero element)."""
        for n in range(len(self.coeffs) - 1, -1, -1):
            if not self.coeffs[n].is_zero():
                return n
        return -1

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "coeffs": [c.to_json_dict() for c in self.coeffs],
            "truncated": self.truncated,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "EValuedPolynomial":
        return EValuedPolynomial(
            d["t"],
            tuple(StepFunction.from_json_dict(c) for c in d["coeffs"]),
            d.get("truncated", False),
        )


def model_map(
    symbol: Symbol,
    t: float,
    f: StepFunction,
    n_terms: int | None = None,
) -> EValuedPolynomial:
    """U f: coefficient n is the restriction of L_t^n f to [0, t).

    With n_terms omitted, enough coefficients are produced to cover the
    support of f, and the result is exact in the sense that model_inverse
    recovers f. An explicit smaller n_terms marks the result truncated.
    """
    op_l = make_operator(symbol, t, "L")
    if n_terms is None:
        n_terms = max(0, math.ceil(f.hi / t) - 1) if f.values.size else 0
    coeffs = [
        restrict_to_E(apply_power(op_l, n, _cells_meeting_block(f, n * op_l.t, op_l.t)), t)
        for n in range(n_terms + 1)
    ]
    beyond = f.restrict((n_terms + 1) * t, max(f.hi, (n_terms + 1) * t))
    return EValuedPolynomial(t, tuple(coeffs), truncated=not beyond.is_zero())


def _cells_meeting_block(f: StepFunction, nt: float, t: float) -> StepFunction:
    """The cells of f that L_t^n carries into [0, t), with nt = n * t.

    Cut by cell index, so the translated breakpoints and midpoints are the
    same floats as for the whole of f. fl(b - nt) <= 0 exactly when b <= nt,
    so the cell holding nt starts the slice. Every breakpoint after the
    first one at or past fl(nt + t) exceeds nt + t in exact arithmetic, so
    one extra cell takes the slice to t or beyond after the shift.
    """
    bp = f.breakpoints
    lo = max(int(np.searchsorted(bp, nt, side="right")) - 1, 0)
    hi = min(int(np.searchsorted(bp, nt + t, side="left")) + 1, f.values.size)
    return StepFunction(bp[lo : hi + 1], f.values[lo:hi])


def model_inverse(symbol: Symbol, t: float, p: EValuedPolynomial) -> StepFunction:
    """U^{-1}: reassemble f block by block, f|[nt,(n+1)t) = S_t^n c_n."""
    op_s = OperatorHandle(symbol, t, "S")
    return add_all(apply_power(op_s, n, c) for n, c in enumerate(p.coeffs) if not c.is_zero())


def parseval_defect(
    symbol: Symbol,
    t: float,
    f: StepFunction,
    quadrature: str = "pullback",
) -> float:
    """| sum_n integral (phi(x+nt)/phi(x)) |c_n|^2 dx  -  ||f||^2 |.

    quadrature="pullback" evaluates the weighted coefficient norms through
    the model inverse; the weight cancels the one inside c_n cell by cell,
    so the defect sits at rounding level for any mesh. quadrature="gauss"
    integrates the weight with an independent 5-point rule per cell, which
    exposes the genuine O(h^2) midpoint discretization error of the
    coefficients and is the route to use for mesh-refinement studies.
    """
    p = model_map(symbol, t, f)
    target = norm_sq(f)
    if quadrature == "pullback":
        return abs(norm_sq(model_inverse(symbol, t, p)) - target)
    if quadrature != "gauss":
        raise ValueError("quadrature must be 'pullback' or 'gauss'")
    total = 0.0
    for n, c in enumerate(p.coeffs):
        if c.is_zero():
            continue
        cell_ints = gauss5_cells(
            lambda x: phi_ratio(symbol, x, n * t, 0), c.breakpoints[:-1], c.breakpoints[1:]
        )
        total += float(np.sum(np.abs(c.values) ** 2 * cell_ints))
    return abs(total - target)


# ---------------------------------------------------------------------------
# Diagonal reproducing kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalKernel:
    """Evaluator of the diagonal kernel series with its convergence guard.

    radius is the model disc radius 1/r(L_t); the series in q = z conj(lambda)
    converges for |q| < radius**2.
    """

    symbol: Symbol
    t: float
    radius: float

    @property
    def closed_form(self) -> str | None:
        """The symbol's tag of a shape with a known (semi-)closed formula."""
        return self.symbol.closed_form

    def coefficient(self, n: int, x) -> np.ndarray:
        """Multiplier phi(x)/phi(x + n t) of q**n; positive and bounded."""
        return phi_ratio(self.symbol, x, 0, n * self.t)


def make_kernel(
    symbol: Symbol,
    t: float,
    radius: float | None = None,
) -> DiagonalKernel:
    """Kernel with the disc radius taken from the symbol when known exactly.

    For expression symbols pass radius explicitly (1 / fitted r(L_t)).
    """
    if radius is None:
        radius = symbol.model_disc_radius(t)
        if radius is None:
            raise ValueError("no exact radius known; pass radius=1/r(L_t) explicitly")
    return DiagonalKernel(symbol, t, float(radius))


def kernel_series(
    k: DiagonalKernel,
    z: complex,
    lam: complex,
    x: float,
    tol: float = 1e-10,
    n_cap: int = SERIES_CAP,
):
    """Truncated kernel series with an empirical geometric tail bound.

    Returns (value, n_terms, tail_estimate). The domain guard enforces
    |z conj(lambda)| < radius**2 (1 - DOMAIN_MARGIN).
    """
    q = complex(z) * np.conj(complex(lam))
    if abs(q) >= k.radius**2 * (1.0 - DOMAIN_MARGIN):
        raise OutsideConvergenceDomainError(
            f"|z conj(lambda)| = {abs(q):.6g} is not below "
            f"{k.radius**2 * (1.0 - DOMAIN_MARGIN):.6g} = radius^2 (1 - margin)"
        )
    xv = float(x) + 0.0  # maps -0.0 to 0.0, as the x + 0 of phi_ratio does
    phi_x = eval_phi(k.symbol, xv)
    points = np.empty(0)
    den: list[float] = []
    bad = 0  # index of the first table entry eval_phi would refuse

    def term(n: int) -> complex:
        nonlocal points, den, bad
        if n == len(den):
            # phi(x + n t) for n < size, unchecked: a tail that is never
            # summed may overflow (e^(2x) past x = 355) or turn non-positive
            points = xv + np.arange(min(max(16, 2 * n), n_cap + 1)) * k.t
            with np.errstate(over="ignore"):
                vals = k.symbol.values(points)
            ok = ~(points < 0) & np.isfinite(vals) & (vals > 0)  # what eval_phi enforces
            bad = int(np.argmin(ok)) if not ok.all() else ok.size
            den = vals.tolist()
        if n >= bad:
            eval_phi(k.symbol, points[n])  # raises the error of a one-point evaluation
        return complex(phi_x / den[n] * q**n)

    return sum_series(term, tol, n_cap)


def kernel_closed_form(k: DiagonalKernel, z: complex, lam: complex, x: float) -> complex:
    """Closed or semi-closed kernel value for the tagged special symbols.

    szego            1/(1-q)
    scaled_szego     1/(1 - a**(-t) q)
    bergman_like     1/(1-q) + (t/(x+1)) q/(1-q)^2
    two_isometry     1/(1-q) - sum_n  n t/(x+1+n t) q^n     (residual series)
    piecewise_cap    Szego branch for x >= 1; finite sum plus geometric
                     tail scaled by (x+1)/2 below the cap
    """
    if k.closed_form is None:
        raise NoClosedFormError(f"symbol {k.symbol.describe()!r} has no closed form tag")
    q = complex(z) * np.conj(complex(lam))
    tag = k.closed_form
    if tag == "szego":
        return 1.0 / (1.0 - q)
    if tag == "scaled_szego":
        a = float(k.symbol.param)
        return 1.0 / (1.0 - a**(-k.t) * q)
    if tag == "bergman_like":
        return 1.0 / (1.0 - q) + (k.t / (x + 1.0)) * q / (1.0 - q) ** 2
    if tag == "two_isometry":

        def term(n: int) -> complex:
            return complex((n * k.t / (x + 1.0 + n * k.t)) * q**n)

        residual, _, _ = sum_series(term, CLOSED_FORM_TOL)
        return 1.0 / (1.0 - q) - residual
    if tag == "piecewise_cap":
        if x >= 1.0:
            return 1.0 / (1.0 - q)
        head = 0j
        n = 0
        while x + n * k.t <= 1.0:
            head += ((x + 1.0) / (x + n * k.t + 1.0) - (x + 1.0) / 2.0) * q**n
            n += 1
        return head + (x + 1.0) / 2.0 / (1.0 - q)
    raise NoClosedFormError(f"unknown closed form tag {tag!r}")


# ---------------------------------------------------------------------------
# Reproducing property and eigenvectors of the adjoint
# ---------------------------------------------------------------------------


def kernel_preimage(
    symbol: Symbol,
    t: float,
    lam: complex,
    e: StepFunction,
    tol: float = 1e-12,
    n_cap: int = SERIES_CAP,
) -> StepFunction:
    """U^{-1}(k(., lambda) e) = sum_n conj(lambda)^n (L_t*)^n e, tail-truncated.

    Raises TailBoundNotAchievedError when the tail bound is not reached by
    term n_cap.
    """
    op = make_operator(symbol, t, "L_adjoint")
    lam_bar = np.conj(complex(lam))
    terms: list[StepFunction] = []

    def term_norm(n: int) -> float:
        terms.append(apply_power(op, n, e).scale(lam_bar**n))
        return norm(terms[-1])

    sum_series(term_norm, tol, n_cap)
    return add_all(terms)


@dataclass(frozen=True)
class ReproducingCheck:
    lhs: complex  # sum_n <c_n, e> lambda^n  =  <(Uf)(lambda), e>_E
    rhs: complex  # <f, preimage of k(., lambda) e>
    diff: float


def reproducing_check(
    symbol: Symbol,
    t: float,
    f: StepFunction,
    lam: complex,
    e: StepFunction,
) -> ReproducingCheck:
    """Both sides of the reproducing identity, computed independently."""
    p = model_map(symbol, t, f)
    lhs = sum(inner(c, e) * complex(lam) ** n for n, c in enumerate(p.coeffs))
    rhs = inner(f, kernel_preimage(symbol, t, lam, e))
    return ReproducingCheck(complex(lhs), complex(rhs), abs(complex(lhs) - complex(rhs)))


# ---------------------------------------------------------------------------
# Wandering subspace blocks and the Haar polynomial basis
# ---------------------------------------------------------------------------


def block_decompose(f: StepFunction, t: float, n_blocks: int) -> list[StepFunction]:
    """Components f . chi_[nt, (n+1)t) realizing L2 = direct sum of S_t^n E."""
    if not t > 0:
        raise ValueError("t must be positive")
    return [f.restrict(n * t, (n + 1) * t) for n in range(n_blocks + 1)]


def haar_degree_bound(j: int, k: int, t: float) -> int:
    """Largest possible model degree of the Haar function psi_jk.

    L_t^n psi_jk vanishes once n t exceeds (k+1) 2**-j, which with step t
    gives floor((k+1) / (2**j t)). The unscaled count floor((k+1)/2**j)
    ignores the step length; both are reported by haar_polynomial_basis.
    """
    return int(math.floor((k + 1) / (2.0**j * t)))


@dataclass(frozen=True)
class HaarModelVector:
    j: int
    k: int
    poly: EValuedPolynomial
    degree: int
    degree_bound: int
    degree_bound_unscaled: int


def haar_polynomial_basis(
    symbol: Symbol,
    t: float,
    j_values,
    k_values,
    support_limit: float | None = None,
) -> list[HaarModelVector]:
    """Images U psi_jk for the requested scales/shifts: each a finite-degree
    E-valued polynomial, and the family is orthonormal in the model space."""
    out = []
    for j in j_values:
        for k in k_values:
            psi = haar(j, k)
            if support_limit is not None and psi.hi > support_limit:
                continue
            bound = haar_degree_bound(j, k, t)
            poly = model_map(symbol, t, psi, n_terms=bound)
            out.append(
                HaarModelVector(
                    j, k, poly, poly.degree, bound, int(math.floor((k + 1) / 2.0**j))
                )
            )
    return out


def gram_matrix(symbol: Symbol, t: float, vectors: list[HaarModelVector]) -> np.ndarray:
    """Model-space Gram matrix of the given basis vectors (via pullback)."""
    pre = [model_inverse(symbol, t, v.poly) for v in vectors]
    n = len(pre)
    g = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            g[a, b] = inner(pre[a], pre[b])
    return g
