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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoClosedFormError, NumericError, OutsideConvergenceDomainError
from .operators import OperatorHandle, apply_power, apply_power_rows, make_operator, phi_ratio
from .stepfun import StepFunction, inner, norm_sq, sum_pieces, zero
from .symbols import Symbol, eval_phi, phi_table
from .util import SERIES_CAP, TAIL_STREAK, check_step, gauss5_cells, sum_series

DOMAIN_MARGIN = 0.05  # kernel series run only for |z conj(lambda)| < radius^2 (1 - margin)
CLOSED_FORM_TOL = 1e-12  # tail bound of the residual series in the two_isometry closed form
TABLE_CELLS = 2**14  # cells in one table of the model passes; longer passes run in row chunks


@dataclass(frozen=True, eq=False)
class EValuedPolynomial:
    """Finitely many E-valued coefficients; coefficient n multiplies z**n.

    The coefficients are rows of one table: coefficient n has cells[n]
    cells, 0 for a zero coefficient, and the rows' breakpoints and values
    are laid end to end, cells[n] + 1 breakpoints and cells[n] values for
    each row with cells. A row with cells holds a nonzero value.
    """

    t: float
    cells: np.ndarray
    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        cells = np.array(self.cells)
        if cells.ndim != 1 or (cells.size and cells.dtype.kind not in "iu") or (cells < 0).any():
            raise ValueError("cells must be a 1-d table of nonnegative integers")
        breakpoints, values = np.array(self.breakpoints, dtype=float), np.array(self.values, dtype=complex)
        if values.size != cells.sum() or breakpoints.size != (cells[cells > 0] + 1).sum():
            raise ValueError("need cells[n] values and cells[n] + 1 breakpoints for each row with cells")
        self._freeze(cells, breakpoints, values)
        # each row goes through the checks of StepFunction
        if any(n and c.is_zero() for n, c in zip(cells.tolist(), self.coeffs)):
            raise ValueError("a row with cells must hold a nonzero value")

    @classmethod
    def _owned(cls, t, cells, breakpoints, values) -> "EValuedPolynomial":
        """A table on arrays the package has just made and hands over, in the
        constructor's layout: its support check, without its copies or its
        table checks. The arrays become read-only."""
        p = object.__new__(cls)
        object.__setattr__(p, "t", t)
        p._freeze(cells, breakpoints, values)
        return p

    def _freeze(self, cells: np.ndarray, breakpoints: np.ndarray, values: np.ndarray):
        for name, table in (("cells", cells), ("breakpoints", breakpoints), ("values", values)):
            table.setflags(write=False)
            object.__setattr__(self, name, table)
        if breakpoints.size and (breakpoints.min() < 0 or breakpoints.max() > self.t):
            raise ValueError("every coefficient must be supported in [0, t)")

    @staticmethod
    def from_coeffs(t: float, coeffs) -> "EValuedPolynomial":
        """The table of the given coefficient step functions."""
        coeffs = [zero() if c.is_zero() else c for c in coeffs]
        return EValuedPolynomial._owned(
            t,
            np.array([c.values.size for c in coeffs], dtype=int),
            np.concatenate([c.breakpoints for c in coeffs if c.values.size] or [np.empty(0)]),
            np.concatenate([c.values for c in coeffs] or [np.empty(0, dtype=complex)]),
        )

    def _offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """Where each row starts in breakpoints and in values."""
        voff = np.cumsum(self.cells) - self.cells
        return voff + np.cumsum(self.cells > 0) - (self.cells > 0), voff

    @functools.cached_property
    def coeffs(self) -> tuple[StepFunction, ...]:
        """The coefficients as step functions, views of the table's rows;
        zero() for a row without cells."""
        boff, voff = self._offsets()
        return tuple(
            StepFunction._owned(self.breakpoints[b : b + c + 1], self.values[v : v + c]) if c else zero()
            for b, v, c in zip(boff.tolist(), voff.tolist(), self.cells.tolist())
        )

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient (-1 for the zero element)."""
        rows = np.flatnonzero(self.cells)
        return int(rows[-1]) if rows.size else -1


def model_map(symbol: Symbol, t: float, f: StepFunction) -> EValuedPolynomial:
    """U f: coefficient n is the restriction of L_t^n f to [0, t).

    Enough coefficients are produced to cover the support of f, so
    model_inverse recovers f.
    """
    op_l = make_operator(symbol, t, "L")
    n_terms = max(0, math.ceil(f.hi / t) - 1)
    while (n_terms + 1) * op_l.t < f.hi:  # f.hi / t rounded down onto a block edge
        n_terms += 1
    bp, ns = f.breakpoints, np.arange(n_terms + 1)
    nt = ns * op_l.t  # the floats n * t
    # row n holds the cells of f that L_t^n carries into [0, t): fl(b - nt) <= 0
    # exactly when b <= nt, so the cell holding nt starts the row; every
    # breakpoint after the first one at or past fl(nt + t) exceeds nt + t in
    # exact arithmetic, so one extra cell takes the row to t after the shift
    first = np.maximum(np.searchsorted(bp, nt, side="right") - 1, 0)
    cells = np.minimum(np.searchsorted(bp, nt + op_l.t, side="left") + 1, f.values.size) - first
    tables = [_map_rows(op_l, f, ns[a:b], first[a:b], cells[a:b]) for a, b in _chunks(cells)]
    row_cells, breakpoints, values = (np.concatenate(field) for field in zip(*tables))
    return EValuedPolynomial._owned(t, row_cells, breakpoints, values)


def _chunks(cells: np.ndarray):
    """Row ranges [a, b) of at most TABLE_CELLS cells each; a longer row is alone."""
    ends = np.cumsum(cells)
    a = 0
    while a < cells.size:
        base = ends[a - 1] if a else 0
        b = max(int(np.searchsorted(ends, base + TABLE_CELLS, side="right")), a + 1)
        yield a, b
        a = b


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices starts[i], ..., starts[i] + sizes[i] - 1 for each i, in order."""
    ends = np.cumsum(sizes)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + sizes, sizes)


def _map_rows(op_l: OperatorHandle, f: StepFunction, ns, first, cells):
    """restrict_to_E(apply_power(op_l, n, f), t) for the rows n = ns of a
    chunk, as the (cells, breakpoints, values) of EValuedPolynomial."""
    t, bp = op_l.t, f.breakpoints
    row = np.repeat(np.arange(ns.size), cells)
    cell = _ranges(first, cells)
    left, right, vals = bp[cell], bp[cell + 1], f.values[cell]
    row, left, right, vals, refused = apply_power_rows(op_l, ns, row, left, right, vals)
    if refused.any():  # the first refused row raises what apply_power raises
        r = row[np.argmax(refused)]
        lo, hi = first[r], first[r] + cells[r]
        apply_power(op_l, int(ns[r]), StepFunction(bp[lo : hi + 1], f.values[lo:hi]))
    keep = left < t  # restrict to [0, t), which starts at 0.0 where f starts at -0.0
    row, left, right, vals = row[keep], left[keep] + 0.0, np.minimum(right[keep], t), vals[keep]
    # each row without its exactly-zero edge cells (as _trimmed); the right
    # edge of a cell is the next cell's left edge
    nz = np.flatnonzero(vals != 0)
    lo = np.searchsorted(row[nz], np.arange(ns.size), side="left")
    hi = np.searchsorted(row[nz], np.arange(ns.size), side="right")
    live = hi > lo
    i, j = nz[lo[live]], nz[hi[live] - 1] + 1
    out_cells = np.zeros(ns.size, dtype=int)
    out_cells[live] = j - i
    idx = _ranges(i, j - i)
    return out_cells, np.insert(left[idx], np.cumsum(j - i), right[j - 1]), vals[idx]


def model_inverse(symbol: Symbol, t: float, p: EValuedPolynomial) -> StepFunction:
    """U^{-1}: reassemble f block by block, f|[nt,(n+1)t) = S_t^n c_n."""
    op_s = OperatorHandle(symbol, t, "S")
    boff, voff = p._offsets()
    ns = np.flatnonzero(p.cells)
    pieces = []
    for a, b in _chunks(p.cells[ns]):
        rows = ns[a:b]
        cells = p.cells[rows]
        row = np.repeat(np.arange(b - a), cells)
        edge = _ranges(boff[rows], cells)  # each cell's left edge; its right edge is next
        vals = p.values[_ranges(voff[rows], cells)]
        left, right = p.breakpoints[edge], p.breakpoints[edge + 1]
        row, left, right, vals, refused = apply_power_rows(op_s, rows, row, left, right, vals)
        if refused.any():  # the first refused row raises what apply_power raises
            n = int(rows[row[np.argmax(refused)]])
            apply_power(op_s, n, p.coeffs[n])
        pieces.append(_pieces(row, left, right, vals))
    return _sum_rows(pieces)


def _pieces(row, left, right, vals):
    """The rows of a chunk as pieces of stepfun.sum_pieces: each row's left
    edges, then its last right edge. Returns (breakpoints, values, cells, rows)."""
    last = np.flatnonzero(np.diff(row, append=-1))
    return np.insert(left, last + 1, right[last]), vals, np.diff(last, prepend=-1), row[last]


def _sum_rows(pieces) -> StepFunction:
    """add_all of the rows of _pieces chunks (breakpoints, values, cells, ...), in order."""
    chunks = [c[:3] for c in pieces if c[2].size]
    if not chunks:
        return zero()
    if len(chunks) == 1 and chunks[0][2].size == 1:
        return StepFunction._owned(chunks[0][0], chunks[0][1])  # one piece: as it is, untrimmed
    return sum_pieces(chunks)


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
    |z conj(lambda)| < radius**2 (1 - DOMAIN_MARGIN). The coefficients come
    from one phi column per (symbol, t, x), shared by every z, lambda and
    tol; a phi value that eval_phi refuses raises its error only if the sum
    reaches it.
    """
    # a numpy complex: q**n is numpy's power, the floats np.power(q, n) gives
    q = complex(z) * np.conj(complex(lam))
    if abs(q) >= k.radius**2 * (1.0 - DOMAIN_MARGIN):
        raise OutsideConvergenceDomainError(
            f"|z conj(lambda)| = {abs(q):.6g} is not below "
            f"{k.radius**2 * (1.0 - DOMAIN_MARGIN):.6g} = radius^2 (1 - margin)"
        )
    xv = float(x) + 0.0  # maps -0.0 to 0.0, as the x + 0 of phi_ratio does
    phi_x, column = _phi_column(k.symbol, k.t, xv)

    def terms(size: int) -> np.ndarray:
        den = column(size)
        with np.errstate(all="ignore"):  # terms past the stop may overflow
            return (phi_x / den) * np.power(q, np.arange(den.size))

    def replay(n: int):
        eval_phi(k.symbol, xv + n * k.t)  # raises the error of a one-point evaluation

    return sum_series(terms, tol, _table_size(q, tol), replay)


@functools.lru_cache(maxsize=256)
def _phi_column(symbol: Symbol, t: float, x: float):
    """phi(x), checked, and column(size): phi(x + n t) for n < size, cut
    before the first value eval_phi refuses, for one (symbol, t, x).

    The column keeps the longest table read so far and is evaluated again,
    unchecked and at the new length, only when a longer one is asked for: a
    tail that is never summed may overflow (e^(2x) past x = 355) or turn
    non-positive. Entry n is the same float at any length.
    """
    phi_x = eval_phi(symbol, x)
    table = (np.empty(0), 0)  # values and the index of the first refused one

    def column(size: int) -> np.ndarray:
        nonlocal table
        vals, bad = table
        if vals.size < size:
            vals, refused = phi_table(symbol, x + np.arange(size) * t)
            bad = int(np.argmax(refused)) if refused.any() else size
            table = (vals, bad)  # one store: a reader sees a matching pair
        return vals[: min(size, bad)]

    return phi_x, column


def _table_size(q: complex, tol: float) -> int:
    """First table size of a series in q: the n at which the geometric tail
    |q|**n |q| / (1 - |q|) falls below tol, plus TAIL_STREAK, and at least
    16; the doubling of sum_series covers coefficients that grow."""
    r = float(abs(q))
    bound = tol * (1.0 - r) / r if 0.0 < r < 1.0 else 1.0  # inf for a subnormal r
    if not 0.0 < bound < 1.0:
        return 16
    return max(16, math.ceil(math.log(bound) / math.log(r)) + TAIL_STREAK)


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

        residual, _, _ = sum_series(terms, CLOSED_FORM_TOL, _table_size(q, CLOSED_FORM_TOL))
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

    The terms are rows of one table, grown by one chunk of at most
    TABLE_CELLS cells each time sum_series asks for more, from the first
    size |lambda| and tol give; their norms are the table that the tail
    rule reads. Rows past the last summed term are never checked; a
    summed row that apply_power would refuse is replayed through it and
    raises its error. Raises TailBoundNotAchievedError when the tail bound is
    not reached by term SERIES_CAP.
    """
    return _sum_rows(_preimage_terms(symbol, t, lam, e, tol))


def _preimage_terms(symbol: Symbol, t: float, lam: complex, e: StepFunction, tol: float = 1e-12) -> list[tuple]:
    """The summed terms of kernel_preimage, nonzero ones only, in order of
    n: chunks (breakpoints, values, cells) of stepfun.sum_pieces."""
    op = make_operator(symbol, t, "L_adjoint")
    lam_bar = np.conj(complex(lam))
    per_chunk = max(1, TABLE_CELLS // max(e.values.size, 1))
    pieces: list[tuple] = []  # _pieces of each chunk, with n for rows
    norms, bad = np.empty(0), None  # bad: the first refused row, once built

    def terms(size: int) -> np.ndarray:
        nonlocal norms, bad
        # one chunk a call: sum_series asks again while the table grows
        if norms.size < size and bad is None:
            ns = np.arange(norms.size, min(size, norms.size + per_chunk))
            chunk, chunk_norms, chunk_refused = _preimage_rows(op, e, lam_bar, ns)
            pieces.append(chunk)
            norms = np.concatenate([norms, chunk_norms])
            if chunk_refused.any():
                bad = int(ns[np.argmax(chunk_refused)])
        return norms[: size if bad is None else min(size, bad)]

    def replay(n: int):
        apply_power(op, n, e).scale(lam_bar**n)  # raises the error of term n

    _, n_terms, _ = sum_series(terms, tol, _table_size(lam_bar, tol), replay)
    summed = []
    for bps, vals, cells, ns in pieces:  # the first k pieces hold terms n < n_terms
        k = int(np.searchsorted(ns, n_terms))
        size = int(cells[:k].sum())
        summed.append((bps[: size + k], vals[:size], cells[:k]))
    return summed


def _preimage_rows(op: OperatorHandle, e: StepFunction, lam_bar: complex, ns: np.ndarray):
    """Terms apply_power(op, n, e).scale(lam_bar**n) for n in ns, unchecked.

    Returns the _pieces of the nonzero terms (rows numbered by n), the norm
    of each term and whether apply_power or scale would refuse it.
    """
    k, m = ns.size, e.values.size
    row = np.repeat(np.arange(k), m)
    left, right = np.tile(e.breakpoints[:-1], k), np.tile(e.breakpoints[1:], k)
    row, left, right, vals, refused = apply_power_rows(op, ns, row, left, right, np.tile(e.values, k))
    sq = np.empty(k)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.power(lam_bar, ns)  # lam_bar**n, numpy's power either way
        if row.size == k * m:  # no cell collapsed: a (k, m) table
            vals = (vals.reshape(k, m) * scale[:, None]).ravel()
            sq[:] = (np.abs(vals) ** 2 * (right - left)).reshape(k, m).sum(axis=1)
        else:
            bounds = np.searchsorted(row, np.arange(k + 1))
            for r, (a, b) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
                vals[a:b] = vals[a:b] * scale[r]
                sq[r] = np.sum(np.abs(vals[a:b]) ** 2 * (right[a:b] - left[a:b]))
    refused |= ~np.isfinite(vals)
    row_refused = np.zeros(k, dtype=bool)
    row_refused[row[refused]] = True
    if not scale.all():  # scale(0) is the zero function, left out of the sum
        live = (scale != 0)[row]
        row, left, right, vals = row[live], left[live], right[live], vals[live]
    bps, vals, cells, rows = _pieces(row, left, right, vals)
    return (bps, vals, cells, ns[rows]), np.sqrt(sq), row_refused


@dataclass(frozen=True)
class ReproducingCheck:
    lhs: complex  # <(Uf)(lambda), e>_E, with (Uf)(lambda) = sum_n c_n lambda^n one step function
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
    lhs = inner(_evaluate(model_map(symbol, t, f), lam), e)
    rhs = inner(f, _preimage_on(f, _preimage_terms(symbol, t, lam, e)))
    return ReproducingCheck(complex(lhs), complex(rhs), abs(complex(lhs) - complex(rhs)))


def _evaluate(p: EValuedPolynomial, z: complex) -> StepFunction:
    """(Uf)(z) = sum_n c_n z^n as one step function on E: row n scaled by
    z^n, numpy's power as in _preimage_rows, and the rows added in order of
    n over their merged mesh by one sum_pieces."""
    ns = np.flatnonzero(p.cells)
    if not ns.size:
        return zero()
    scaled = p.values * np.repeat(np.power(complex(z), ns), p.cells[ns])
    return sum_pieces([(p.breakpoints, scaled, p.cells[ns])])


def _preimage_on(f: StepFunction, terms: list[tuple]) -> StepFunction:
    """A step function that inner(f, .) pairs as it pairs the sum of the
    kernel_preimage terms: the sum of the terms up to the first one that
    starts at or past f.hi. The later terms start there too, so below f.hi
    they add no breakpoint and no value; the whole sum is taken only when
    the cut one ends before f.hi, where inner would cut it shorter."""
    for i, (bps, vals, cells) in enumerate(terms):
        first = np.cumsum(cells + 1) - (cells + 1)
        k = int(np.searchsorted(bps[first], f.hi, side="left"))
        if k < cells.size:
            size = int(cells[: k + 1].sum())
            cut = _sum_rows([*terms[:i], (bps[: size + k + 1], vals[:size], cells[: k + 1])])
            if cut.hi >= f.hi:
                return cut
            break
    return _sum_rows(terms)


# ---------------------------------------------------------------------------
# Wandering subspace blocks
# ---------------------------------------------------------------------------


def block_decompose(f: StepFunction, t: float, n_blocks: int) -> list[StepFunction]:
    """Components f . chi_[nt, (n+1)t) realizing L2 = direct sum of S_t^n E."""
    check_step(t)
    return [f.restrict(n * t, (n + 1) * t) for n in range(n_blocks + 1)]
