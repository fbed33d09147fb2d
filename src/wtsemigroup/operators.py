"""The translation operators S_t, their adjoints, and the Cauchy dual family.

Four kinds act on step functions:

    S          (S_t f)(x)  = sqrt(phi(x)/phi(x-t))   f(x-t),  x >= t
    S_adjoint  (S_t* f)(x) = sqrt(phi(x+t)/phi(x))   f(x+t)
    L          (L_t f)(x)  = sqrt(phi(x)/phi(x+t))   f(x+t)
    L_adjoint  (L_t* f)(x) = sqrt(phi(x-t)/phi(x))   f(x-t),  x >= t

L_adjoint is the Cauchy dual S_t' = S_t (S_t* S_t)^{-1}, and L_t = S_t'* is
the left inverse of S_t.

Powers are applied through the closed-form k-step weight, e.g.
(S_t^k f)(x) = sqrt(phi(x)/phi(x-kt)) f(x-kt), never by repeated
application, so midpoint evaluation error does not compound. Translation is
exact breakpoint arithmetic; the weight multiplies each cell by its value at
the output cell midpoint.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NotLeftInvertibleError
from .stepfun import StepFunction
from .symbols import Symbol, eval_phi
from .util import check_step, root_extreme, sample_then_refine, window

KINDS = ("S", "S_adjoint", "L", "L_adjoint")
_RIGHT = {"S", "L_adjoint"}  # support marches right by t per power
_DUAL = {"L", "L_adjoint"}  # need left invertibility
_NUM_SHIFTED = {"S", "S_adjoint"}  # n-step weight over the base point: sqrt(phi(x + nt)/phi(x))
# the n-step weight of each kind at an output point mu is
# sqrt(phi(mu + a n t) / phi(mu + b n t)); kind -> (a, b)
_SHIFTS = {"S": (0, -1), "S_adjoint": (1, 0), "L": (0, 1), "L_adjoint": (-1, 0)}
EPS_INV = 1e-6  # inf phi(x+t)/phi(x) must exceed this for left invertibility


def phi_ratio(symbol: Symbol, x, num: float, den: float):
    """phi(x + num) / phi(x + den): the quantity behind the operators'
    weights and left invertibility; the model's rows are model._Ratios'."""
    x = np.asarray(x, dtype=float)
    return eval_phi(symbol, x + num) / eval_phi(symbol, x + den)


# ---------------------------------------------------------------------------
# Left invertibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeftInvertibilityCheck:
    ok: bool
    inf_estimate: float
    arg_inf: float


@functools.lru_cache(maxsize=256)
def check_left_invertible(symbol: Symbol, t: float, x_max: float) -> LeftInvertibilityCheck:
    """Estimate inf over [0, x_max] of phi(x+t)/phi(x) and compare to EPS_INV:
    a one-row search for the sup of the negated ratio.

    Memoized on (symbol, t, x_max): symbols are frozen and hashable, and the
    result is frozen, so every caller may share it.
    """
    check_step(t)
    negated = lambda x: -phi_ratio(symbol, x, t, 0)

    def sample(grid):
        r = negated(grid)
        i = r.argmax()
        return [i], [r[i]]

    sup, arg_inf, _ = sample_then_refine(sample, negated, x_max)[0]
    return LeftInvertibilityCheck(-sup > EPS_INV, -sup, arg_inf)


# ---------------------------------------------------------------------------
# Operators and their powers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorHandle:
    symbol: Symbol
    t: float
    kind: str


def make_operator(
    symbol: Symbol, t: float, kind: str = "S", x_max: float | None = None
) -> OperatorHandle:
    """Build a validated handle; dual kinds require the inf ratio check."""
    check_step(t)
    if kind not in KINDS:
        raise ValueError(f"unknown operator kind {kind!r}; expected one of {KINDS}")
    if kind in _DUAL:
        chk = check_left_invertible(symbol, t, window(t, x_max))
        if not chk.ok:
            raise NotLeftInvertibleError(
                f"inf phi(x+t)/phi(x) ~ {chk.inf_estimate:.3g} at x={chk.arg_inf:.6g} "
                f"is not above {EPS_INV:g}"
            )
    return OperatorHandle(symbol, float(t), kind)


def apply_power(op: OperatorHandle, n: int, f: StepFunction) -> StepFunction:
    """Apply the n-th power in one step; n = 0 is the identity."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    if n == 0 or f.values.size == 0:
        return f
    nt = n * op.t
    g = f.translate(nt if op.kind in _RIGHT else -nt)
    if g.values.size == 0:
        return g
    a, b = _SHIFTS[op.kind]
    return g.with_values(g.values * np.sqrt(phi_ratio(op.symbol, g.midpoints(), a * nt, b * nt)))


def apply(op: OperatorHandle, f: StepFunction) -> StepFunction:
    return apply_power(op, 1, f)


# ---------------------------------------------------------------------------
# Norms and lower bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremumEstimate:
    value: float
    arg: float
    window_limited: bool  # extremum sits at the far window edge x = x_max


def _weight_extrema(symbol: Symbol, t: float, ns, x_max: float, fits, checked) -> list[list[ExtremumEstimate]]:
    """Sup or inf over the base point x (where f lives) of the n-step weight
    of each fit (kind, mode) in fits, for each n in ns: one list per fit.

    ||op^n f||^2 = integral of the squared weight against |f|^2, so its
    essential sup / inf over the window bound the operator norm from both
    sides. The weight is sqrt(r) with r = phi(x + nt)/phi(x) for S and
    S_adjoint and r = phi(x)/phi(x + nt) for the other kinds, so every fit
    reads one table: phi(grid + nt) per n, and phi(grid) once, right after
    the first of them (phi_ratio's order for S), both through eval_phi. A
    later row is one walk of Symbol.values, certified by its ratio's own
    extremes: with phi(grid) positive and finite, 0 < min r and max r < inf
    hold only where phi(grid + nt) is too; a row that fails goes through
    eval_phi, which raises its error, or passes a ratio that only left the
    floats. Each row is reduced on r, the root taken at the chosen sample
    only (util.root_extreme). Once the grid is sampled, each kind in
    checked is built with make_operator (left invertibility for the dual
    kinds); then one lockstep search maximises every (fit, n) lane, an
    inf lane on the negated weight.
    """
    if not ns or min(ns) < 1:
        raise ValueError("n must be >= 1")
    nt = np.asarray(ns) * t  # the floats n * t, one per n
    # lanes: the fits' rows, a block of len(ns) per fit, in the order of fits
    maxes = [mode == "max" for _, mode in fits]
    shifted = [kind in _NUM_SHIFTED for kind, _ in fits]
    reads = set(shifted)  # the ratios r the fits read: up (True), down (False)

    def sample(grid):
        best = np.empty((len(fits), nt.size), dtype=np.intp)
        best_vals = np.empty(best.shape)
        p0 = None
        for n, shift in enumerate(nt):
            if p0 is None:
                pn = eval_phi(symbol, grid + shift)
                p0 = eval_phi(symbol, grid)
            else:
                pn = symbol.values(grid + shift)
            rows = {}
            for up in reads:
                with np.errstate(divide="ignore"):  # a zero pn is refused just below
                    r = pn / p0 if up else p0 / pn
                top, bottom = r.argmax(), r.argmin()  # the first NaN, if any, for both
                if not (r[bottom] > 0 and r[top] < np.inf):
                    eval_phi(symbol, grid + shift)  # raises, unless only the ratio left the floats
                rows[up] = r, top, bottom
            for lane, (is_max, up) in enumerate(zip(maxes, shifted)):
                r, top, bottom = rows[up]
                i, root = root_extreme(r, top if is_max else bottom, is_max)
                best[lane, n], best_vals[lane, n] = i, root if is_max else -root
        for kind in checked:
            make_operator(symbol, t, kind, x_max=x_max)
        return best.ravel(), best_vals.ravel()

    # rows (num, den) of every lane's shifts, (2, lanes, 1); y lies in
    # [0, x_max] and the shifts are >= 0, so x is never below 0
    lane_nt = np.tile(nt, len(fits))
    lane_shifted = np.repeat(shifted, nt.size)
    shifts = np.stack([np.where(lane_shifted, lane_nt, 0.0), np.where(lane_shifted, 0.0, lane_nt)])[:, :, None]
    sign = np.repeat(np.where(maxes, 1.0, -1.0), nt.size)[:, None]
    # the lanes in (n, fit) order: a refusal is raised from the table
    # (2, points, lanes in that order), so the first refused point is the
    # one that one eval_phi per zoom level on that table meets first, a
    # numerator's before any denominator's, as phi_ratio does
    first_order = np.arange(lane_nt.size).reshape(len(fits), nt.size).T.ravel()

    def refine(y):
        pts = y + shifts
        vals = symbol.values(pts)
        if not (np.minimum.reduce(vals, None) > 0 and np.maximum.reduce(vals, None) < np.inf):
            eval_phi(symbol, pts[:, first_order].transpose(0, 2, 1))
        num, den = vals
        return np.sqrt(num / den) * sign

    found = sample_then_refine(sample, refine, x_max)
    blocks = (found[p * nt.size : (p + 1) * nt.size] for p in range(len(fits)))
    return [[ExtremumEstimate(v if is_max else -v, a, e) for v, a, e in block] for is_max, block in zip(maxes, blocks)]
