"""Analytic model of a left invertible translation operator.

The unitary U sends f in L2(R+) to the E-valued polynomial-like expansion

    (U f)(z) = sum_n (P L_t^n f) z^n,      E = chi_[0,t) L2,  P = restriction,

under which S_t becomes multiplication by z on a reproducing kernel space
whose kernel is diagonal:

    (k(z, lambda) e)(x) = sum_n  phi(x)/phi(x + n t) (z conj(lambda))^n e(x).

The model passes work on the lattice x_k = k h, h = t/m: f is a table of
blocks x m cells, block n holding f on [n t, (n+1) t), and each of the m
columns is a scalar weighted shift (the discrete form of Shimorin's
Wold-type decomposition). Coefficient n is block n times the weight row
W[n, i] = sqrt(phi(mu_i) / phi(mu_i + n t)) at the midpoints mu_i = (i + 1/2) h
of E, and the inverse divides by it, which gives back block n of f to
rounding. All model-side inner products are computed by pulling back
to L2 through that inverse, which keeps unitarity the single source of
truth instead of introducing an independent quadrature on the model side.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import LatticeError, NoClosedFormError, NumericError, OutsideConvergenceDomainError
from .operators import RatioRows, make_operator, phi_ratio
from .stepfun import StepFunction, _trimmed, norm_sq, zero
from .symbols import Symbol
from .util import SERIES_CAP, check_step, gauss5_cells, sum_series

DOMAIN_MARGIN = 0.05  # kernel series run only for |z conj(lambda)| < radius^2 (1 - margin)
CLOSED_FORM_TOL = 1e-12  # tail bound of the residual series in the two_isometry closed form
LATTICE_ULPS = 4  # a breakpoint within this many roundings of k h lies on the lattice point k h
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).smallest_subnormal)
MAX_LATTICE_CELLS = 2**24  # lattice cells a block, and lattice cells up to the end of f or e


@dataclass(frozen=True, eq=False)
class EValuedPolynomial:
    """Finitely many E-valued coefficients; coefficient n multiplies z**n.

    Row n of table holds coefficient n on the lattice cells [i h, (i+1) h)
    of E = [0, t), h = t/m for a table of m columns; the last cell ends at
    t itself. The table is copied, complex, finite and read-only.
    """

    t: float
    table: np.ndarray

    def __post_init__(self):
        check_step(self.t)
        self._freeze(np.array(self.table, dtype=complex))

    @classmethod
    def _owned(cls, t: float, table: np.ndarray) -> "EValuedPolynomial":
        """A table the package has just made and hands over: the checks,
        without the copy. The table becomes read-only."""
        p = object.__new__(cls)
        object.__setattr__(p, "t", t)
        p._freeze(table)
        return p

    def _freeze(self, table: np.ndarray):
        if table.ndim != 2 or not table.shape[1] or not np.isfinite(table).all():
            raise ValueError("the table must be 2-d and finite, with a column for each cell of E")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @functools.cached_property
    def coeffs(self) -> tuple[StepFunction, ...]:
        """The coefficients as step functions on E's lattice cells, views of
        the table's rows without their exactly-zero edge cells; zero() for a
        zero row."""
        edges = _edges(self.t, self.table.shape[1])
        return tuple(_trimmed(edges, row) for row in self.table)

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient (-1 for the zero element)."""
        rows = np.flatnonzero(self.table.any(axis=1))
        return int(rows[-1]) if rows.size else -1


def _lattice(t: float, *fs: StepFunction) -> int:
    """m of the lattice k h, h = t/m, for the step functions fs: t over
    their narrowest cell, rounded, and at least 1."""
    check_step(t)
    narrowest = min((float(f.widths().min()) for f in fs if f.values.size), default=t)
    m = t / narrowest
    if not m < MAX_LATTICE_CELLS + 0.5:
        raise LatticeError(f"a cell of width {narrowest!r} needs more than {MAX_LATTICE_CELLS} lattice cells a block")
    return max(1, round(m))


def _index(f: StepFunction, t: float, m: int) -> np.ndarray:
    """The lattice index k of each breakpoint x of f, x within LATTICE_ULPS
    roundings of k h: of the product (eps k h) and of the k steps h, each
    off t/m by at most half the smallest subnormal where h is subnormal.
    Raises ValueError for a breakpoint off the lattice, or past lattice
    cell MAX_LATTICE_CELLS."""
    k = f.breakpoints / (t / m)
    k += 0.5
    np.floor(k, out=k)
    x = k * (t / m)
    # lattice data are mostly exact: one comparison decides them
    if not (np.array_equal(f.breakpoints, x) or (np.abs(f.breakpoints - x) <= LATTICE_ULPS * (EPS * x + TINY * k)).all()):
        raise LatticeError(f"the breakpoints do not lie on the lattice k h, h = t/{m} with t = {t!r}")
    if not k[-1] <= MAX_LATTICE_CELLS:
        raise LatticeError(f"the step data reach lattice cell {k[-1]:.0f}, past {MAX_LATTICE_CELLS}")
    return k.astype(np.int64)


def _points(count: int, t: float, m: int) -> np.ndarray:
    """The lattice points k h, k = 0, ..., count - 1, h = t/m."""
    points = np.arange(count, dtype=float)
    points *= t / m
    return points


def _edges(t: float, m: int) -> np.ndarray:
    """The lattice edges i h of E, i = 0, ..., m, the last one t itself."""
    edges = _points(m + 1, t, m)
    edges[-1] = t
    return edges


def _midpoints(t: float, m: int) -> np.ndarray:
    """The midpoints mu_i = (i + 1/2) h of E's lattice cells."""
    return (np.arange(m) + 0.5) * (t / m)


def _blocks(f: StepFunction, t: float, m: int) -> np.ndarray:
    """f as a (blocks, m) table on the lattice, zero off f's cells; its blocks
    cover f. Raises ValueError for f off the lattice."""
    k = _index(f, t, m)
    table = np.zeros((-(-int(k[-1]) // m), m), dtype=complex)
    table.reshape(-1)[k[0] : k[-1]] = _spread(f.values, k)
    return table


def _spread(values: np.ndarray, k: np.ndarray) -> np.ndarray:
    """values[j] on each of the lattice cells k[j], ..., k[j + 1] - 1."""
    return values if k[-1] - k[0] == values.size else np.repeat(values, np.diff(k))  # values: a lattice cell a cell


def _in_E(e: StepFunction, t: float, m: int) -> np.ndarray:
    """e's values on E's m lattice cells; raises ValueError for an e off the
    lattice or outside E."""
    k = _index(e, t, m)
    if k[-1] > m:
        raise LatticeError(f"e must lie in E = [0, t), but it ends at {e.hi!r} > t = {t!r}")
    row = np.zeros(m, dtype=complex)
    row[k[0] : k[-1]] = _spread(e.values, k)
    return row


# the kernel's coefficients, one column per (symbol, t, x): kernel sessions and verify reread some 70
_kernel_ratios = functools.lru_cache(maxsize=256)(functools.partial(RatioRows, form="down"))


@functools.lru_cache(maxsize=8)  # few lattices recur: verify's passes share one, model-roundtrip's jobs use five
def _model_weights(symbol: Symbol, t: float, m: int) -> RatioRows:
    """W[n, i] = sqrt(phi(mu_i) / phi(mu_i + n t)) at E's midpoints mu_i, the
    weight of L_t^n from block n onto E: one table per (symbol, t, m), shared
    by the passes on that lattice. A refused phi(mu) raises; nothing is cached."""
    return RatioRows(symbol, t, _midpoints(t, m), form="root")


def model_map(symbol: Symbol, t: float, f: StepFunction) -> EValuedPolynomial:
    """U f: coefficient n is the restriction of L_t^n f to [0, t).

    f must lie on a lattice k h, h = t/m, m = t over f's narrowest cell,
    rounded; coefficient n is block n of f times the weight row W[n], for
    as many blocks as cover f. Raises ValueError for f off the lattice.
    """
    m = _lattice(t, f)
    k = _index(f, t, m)
    make_operator(symbol, t, "L")  # refuses a symbol whose L_t is unbounded
    table = np.empty((-(-int(k[-1]) // m), m), dtype=complex)
    cells = table.reshape(-1)
    cells[: k[0]] = cells[k[-1] :] = 0.0  # the cells f leaves empty
    w = _model_weights(symbol, t, m).full(len(table)).reshape(-1)[k[0] : k[-1]]
    np.multiply(_spread(f.values, k), w, out=cells[k[0] : k[-1]])  # f's cells, weighted in one product
    return EValuedPolynomial._owned(t, table)


def model_inverse(symbol: Symbol, t: float, p: EValuedPolynomial) -> StepFunction:
    """U^{-1}: block n of f is c_n / W[n], the blocks laid end to end on the
    lattice k h."""
    check_step(t)
    rows, m = p.degree + 1, p.table.shape[1]
    if not rows:
        return zero()
    values = p.table[:rows] / _model_weights(symbol, t, m).full(rows)
    return _trimmed(_points(rows * m + 1, t, m), values.reshape(-1))


def parseval_defect(symbol: Symbol, t: float, f: StepFunction) -> tuple[float, float]:
    """| sum_n integral (phi(x+nt)/phi(x)) |c_n|^2 dx  -  ||f||^2 | by its two
    routes, (pullback, gauss), both from one model_map.

    The pullback route evaluates the weighted coefficient norms through the
    model inverse; the weight cancels the one inside c_n cell by cell, so
    the defect sits at rounding level for any mesh. The gauss route
    integrates the weight with an independent 5-point rule per cell, which
    exposes the genuine O(h^2) midpoint discretization error of the
    coefficients and is the route to use for mesh-refinement studies.
    """
    target = norm_sq(f)
    p = model_map(symbol, t, f)
    pullback = abs(norm_sq(model_inverse(symbol, t, p)) - target)
    total = 0.0
    for n, c in enumerate(p.coeffs):
        if c.is_zero():
            continue
        cell_ints = gauss5_cells(
            lambda x: phi_ratio(symbol, x, n * t, 0), c.breakpoints[:-1], c.breakpoints[1:]
        )
        total += float(np.sum(np.abs(c.values) ** 2 * cell_ints))
    return pullback, abs(total - target)


# ---------------------------------------------------------------------------
# Diagonal reproducing kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalKernel:
    """Evaluator of the diagonal kernel series with its convergence guard.

    radius is the model disc radius 1/r(L_t); the series in q = z conj(lambda)
    converges for |q| < radius**2. A radius that is not positive and finite
    gives no convergence disc, and t must be a positive finite step.
    """

    symbol: Symbol
    t: float
    radius: float

    def __post_init__(self):
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise OutsideConvergenceDomainError(
                f"the model disc radius must be positive and finite, got {self.radius!r}"
            )
        check_step(self.t)

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


def kernel_series(k: DiagonalKernel, z: complex, lam: complex, x: float, tol: float = 1e-10):
    """Truncated kernel series with an empirical geometric tail bound.

    Returns (value, n_terms, tail_estimate). The domain guard enforces
    |z conj(lambda)| < radius**2 (1 - DOMAIN_MARGIN). The coefficients are
    one cached column of rows per (symbol, t, x), shared by every z, lambda
    and tol; a phi value that eval_phi refuses raises its error only if the
    sum reaches it.
    """
    # a numpy complex: q**n is numpy's power, the floats np.power(q, n) gives
    q = complex(z) * np.conj(complex(lam))
    if abs(q) >= k.radius**2 * (1.0 - DOMAIN_MARGIN):
        raise OutsideConvergenceDomainError(
            f"|z conj(lambda)| = {abs(q):.6g} is not below "
            f"{k.radius**2 * (1.0 - DOMAIN_MARGIN):.6g} = radius^2 (1 - margin)"
        )
    ratios = _kernel_ratios(k.symbol, k.t, float(x) + 0.0)  # + 0.0 maps -0.0 to 0.0, as phi_ratio's x + 0 does

    def terms(size: int) -> np.ndarray:
        ratio = ratios.rows(size)[:, 0]
        return ratio * np.power(q, np.arange(ratio.size))  # under sum_series' errstate

    return sum_series(terms, tol, q, ratios.raise_at)


def kernel_closed_form(k: DiagonalKernel, z: complex, lam: complex, x: float) -> complex:
    """Closed or semi-closed kernel value for the tagged special symbols.

    szego            1/(1-q)
    scaled_szego     1/(1 - a**(-t) q)
    bergman_like     1/(1-q) + (t/(x+1)) q/(1-q)^2
    two_isometry     1/(1-q) - sum_n  n t/(x+1+n t) q^n     (residual series)
    piecewise_cap    Szego branch for x >= 1; finite sum plus geometric
                     tail scaled by (x+1)/2 below the cap, refused with a
                     NumericError when (1-x)/t exceeds SERIES_CAP
    """
    tag = k.symbol.closed_form
    if tag is None:
        raise NoClosedFormError(f"symbol {k.symbol.describe()!r} has no closed form tag")
    q = complex(z) * np.conj(complex(lam))
    if tag == "szego":
        return 1.0 / (1.0 - q)
    if tag == "scaled_szego":
        return 1.0 / (1.0 - k.symbol.growth**(-k.t) * q)
    if tag == "bergman_like":
        return 1.0 / (1.0 - q) + (k.t / (x + 1.0)) * q / (1.0 - q) ** 2
    if tag == "two_isometry":

        def terms(size: int) -> np.ndarray:
            nt = np.arange(size) * k.t
            return (nt / (x + 1.0 + nt)) * np.power(q, np.arange(size))

        residual, _, _ = sum_series(terms, CLOSED_FORM_TOL, q)
        return 1.0 / (1.0 - q) - residual
    if tag == "piecewise_cap":
        if x >= 1.0:
            return 1.0 / (1.0 - q)
        span = (1.0 - x) / k.t  # the head has a term for each n <= span
        if span > SERIES_CAP:
            raise NumericError(
                f"the cap closed form needs about {span:.6g} head terms at t={k.t:g}, more than {SERIES_CAP}"
            )
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
) -> StepFunction:
    """U^{-1}(k(., lambda) e) = sum_n conj(lambda)^n (L_t*)^n e, tail-truncated.

    e must lie in E, on a lattice k h, h = t/m, m = t over e's narrowest
    cell, rounded; term n is block n of the result. tol bounds the norm of
    the tail absolutely, so an e of small norm needs a tol scaled with it:
    at the default, e = 1e-14 chi_[0,1) on 4 cells (affine, t = 1, lambda =
    0.9) stops after 6 terms, 4.6% short of 1e-14 times the preimage of
    chi_[0,1), which tol = 1e-26 gives. Raises ValueError for an e off the
    lattice or outside E, and TailBoundNotAchievedError when the tail bound
    is not reached by term SERIES_CAP.
    """
    m = _lattice(t, e)
    e_row = _in_E(e, t, m)
    make_operator(symbol, t, "L_adjoint")  # refuses a symbol whose L_t* is unbounded
    terms = _preimage_terms(_model_weights(symbol, t, m), lam, e_row, tol)
    return _trimmed(_points(terms.size + 1, t, m), terms.reshape(-1))


def _preimage_terms(weights: RatioRows, lam: complex, e: np.ndarray, tol: float) -> np.ndarray:
    """The N summed terms conj(lambda)^n W[n] e of kernel_preimage, e given
    on E's lattice cells, formed once the sum stops. W is real, so the tail
    rule reads term n's norm as |lambda^n| s sqrt(sum_i W[n, i]^2 |e_i/s|^2
    h_i), s = max|e|, off one product grown by new rows as sum_series asks;
    as in stepfun.norm, a row whose norm so read is 0 or inf is divided by
    its largest cell first. A summed row with a phi value eval_phi refuses
    raises that error, one not finite a NumericError."""
    lam_bar = np.conj(complex(lam))
    widths = np.diff(_edges(weights.t, e.size))
    s = float(np.abs(e).max()) or 1.0  # 1 for a zero e
    u, norms = np.abs(e) / s, np.empty(0)
    v = np.square(u) * widths

    def terms(size: int) -> np.ndarray:  # under sum_series' errstate
        nonlocal norms
        w = weights.rows(size)[norms.size :]
        row_norms = s * np.sqrt(np.square(w) @ v)
        for i in np.flatnonzero((row_norms == 0.0) | (row_norms == np.inf)):
            r = (u * w[i]).max() or 1.0  # 1 for a zero row
            row_norms[i] = s * r * np.sqrt(np.sum((u * w[i] / r) ** 2 * widths))
        row_norms *= np.abs(np.power(lam_bar, np.arange(norms.size, norms.size + len(w))))  # the rows' powers
        norms = np.concatenate([norms, row_norms])
        finite = np.isfinite(norms)
        return norms if finite.all() else norms[: np.argmin(finite)]

    def replay(n: int):
        weights.raise_at(n)  # raises the error of term n's weights
        raise NumericError(f"term {n} of the kernel preimage is not finite")

    return _weighted_e(e, weights.rows(sum_series(terms, tol, lam_bar, replay)[1]), lam_bar)


def _weighted_e(e: np.ndarray, w: np.ndarray, lam_bar: complex) -> np.ndarray:
    """The rows conj(lambda)^n W[n] e for the weight rows w, n < len(w):
    e times each row, then scaled by lam_bar**n, numpy's power."""
    with np.errstate(over="ignore", invalid="ignore"):
        formed = e * w
        return np.multiply(formed, np.power(lam_bar, np.arange(len(w)))[:, None], out=formed)


@dataclass(frozen=True)
class ReproducingCheck:
    lhs: complex  # <(Uf)(lambda), e>_E, with (Uf)(lambda) = sum_n c_n lambda^n
    rhs: complex  # <f, preimage of k(., lambda) e>
    diff: float


def reproducing_check(symbol: Symbol, t: float, f: StepFunction, lam: complex, e: StepFunction) -> ReproducingCheck:
    """Both sides of the reproducing identity <(Uf)(lambda), e> = <f,
    U^{-1} k(., lambda) e>, computed independently on the lattice of f and
    e: m = t over their narrowest cell, rounded. For f on B blocks f_n both
    are finite sums over n < B, of lambda^n <W[n] f_n, e> and of <f_n,
    conj(lambda)^n W[n] e>, at any lambda; a side that leaves the floats
    makes diff inf or NaN. Raises ValueError for f or e off that lattice,
    or e outside E."""
    m = _lattice(t, f, e)
    e_row, f_blocks = _in_E(e, t, m), _blocks(f, t, m)
    widths = np.diff(_edges(t, m))
    make_operator(symbol, t, "L")  # refuses a symbol whose L_t, and so L_t*, is unbounded
    w = _model_weights(symbol, t, m).full(len(f_blocks))
    lhs = _pair(_evaluate(f_blocks * w, lam), e_row, widths)
    rhs = _pair(f_blocks, _weighted_e(e_row, w, np.conj(complex(lam))), widths)
    return ReproducingCheck(lhs, rhs, abs(lhs - rhs))


def _evaluate(table: np.ndarray, z: complex) -> np.ndarray:
    """(Uf)(z) = sum_n c_n z^n on E's lattice cells, c_n row n of table:
    scaled by z^n, numpy's power as in _weighted_e, and added in order of n."""
    return (np.power(complex(z), np.arange(len(table)))[:, None] * table).sum(axis=0)


def _pair(a: np.ndarray, b: np.ndarray, widths: np.ndarray) -> complex:
    """The L2 pairing of two tables of cell values on the lattice, cells of
    the given widths in each row."""
    return complex(np.sum(a * np.conj(b) * widths))


# ---------------------------------------------------------------------------
# Wandering subspace blocks
# ---------------------------------------------------------------------------


def block_decompose(f: StepFunction, t: float, n_blocks: int) -> list[StepFunction]:
    """Components f . chi_[nt, (n+1)t) realizing L2 = direct sum of S_t^n E."""
    check_step(t)
    return [f.restrict(n * t, (n + 1) * t) for n in range(n_blocks + 1)]
