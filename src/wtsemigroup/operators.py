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
    """phi(x + num) / phi(x + den), pointwise: the operators' weights and left
    invertibility; rows n of phi(x + n t)/phi(x) on one base x are RatioRows'."""
    x = np.asarray(x, dtype=float)
    return eval_phi(symbol, x + num) / eval_phi(symbol, x + den)


_TABLE_BYTES = 2**21  # the most bytes of rows, x and phi(x) a RatioRows stores
_WALK_POINTS = 2**15  # the most points of a block's walk: bounds its temporaries


class RatioRows:
    """Rows n of phi(x + n t)/phi(x) at the base points x ("up"), their
    reciprocals ("down") or the roots of those ("root"), one at a time
    (stream) or as a block of the rows n < size (rows, full): Symbol.values
    walks, warnings off, certified by their ratios' extremes and tested as
    eval_phi tests them where that fails. The one refusal rule: eval_phi's
    error, with its warning, for the first refused point of row first (row
    0 is x itself), then of x, then of each later row by n; stream raises
    it, a block stops silently before it, and raise_at(n) raises row n's.
    A block is read-only, the same floats at any length, stored with its
    stop at once (threads may share it), and past _TABLE_BYTES unstored."""

    def __init__(self, symbol: Symbol, t: float, x, *, form: str = "up", first: int = 0):
        self.symbol, self.t, self.x, self.form = symbol, t, np.asarray(x, dtype=float), form
        head = eval_phi(symbol, self.x + first * t) if first else None
        self.phi_x = eval_phi(symbol, self.x)
        self._head = first, self.phi_x if head is None else head  # row first's phi values
        self._table = (np.empty((0, self.x.size)), None)  # the rows, and the first refused row once met

    def _formed(self, vals, form: str, out=None):
        """The phi rows vals in the given form, under the caller's errstate."""
        r = np.divide(vals, self.phi_x, out=out) if form == "up" else np.divide(self.phi_x, vals, out=out)
        return np.sqrt(r, out=r) if form == "root" else r  # correctly rounded: the floats of any block

    def stream(self, ns, forms):
        """For each n of ns, {form: (row n in form, first index of its largest
        entry, of its smallest)} for the forms, from one phi row."""
        first, head = self._head
        for n in ns:
            with np.errstate(all="ignore"):
                vals = head if n == first else self.symbol.values(self.x + n * self.t)
                rows = {form: self._formed(vals, form) for form in forms}
            for form, r in rows.items():
                top, bottom = r.argmax(), r.argmin()  # the first NaN, if any, for both
                if not (r[bottom] > 0 and r[top] < np.inf):
                    self.raise_at(n)  # raises, unless only the ratio left the floats
                rows[form] = r, top, bottom
            yield rows

    def rows(self, size: int) -> np.ndarray:
        """Rows n < size, fewer when the rows stop before size."""
        rows, stop = self._table
        if len(rows) < size and stop is None:
            block = np.empty((size - len(rows), self.x.size))
            step = max(1, _WALK_POINTS // max(1, self.x.size))  # rows a walk
            for i in range(0, len(block), step):
                ns = np.arange(len(rows) + i, min(size, len(rows) + i + step))
                with np.errstate(all="ignore"):
                    vals = self.symbol.values(self.x + ns[:, None] * self.t)
                    r = self._formed(vals, self.form, out=block[i : i + len(ns)])
                if r.size and not (r.flat[r.argmin()] > 0 and r.flat[r.argmax()] < np.inf):
                    good = (np.isfinite(vals) & (vals > 0)).all(axis=-1)  # eval_phi's test, row by row
                    if not good.all():
                        stop = int(ns[np.argmin(good)])
                        block = block[: stop - len(rows)]
                        break
            rows = np.concatenate([rows, block]) if len(rows) else block
            rows.setflags(write=False)
            if rows.nbytes + 2 * self.x.nbytes <= _TABLE_BYTES:  # rows, x and phi(x)
                self._table = (rows, stop)
        return rows[:size]

    def full(self, size: int) -> np.ndarray:
        """Rows n < size, all of them: a refused row raises its error."""
        rows = self.rows(size)
        return rows if len(rows) == size else self.raise_at(len(rows))  # a block stops only at a refused row

    def raise_at(self, n: int):
        """Evaluate row n again with eval_phi, which raises its error if it refuses the row."""
        eval_phi(self.symbol, self.x + n * self.t)


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
    sides. The weight is sqrt(r), r the RatioRows "up" for S and S_adjoint
    and "down" for the others, streamed from row ns[0] (phi_ratio's order
    for S), reduced on r and rooted at the chosen sample (root_extreme).
    Then each kind in checked is built with make_operator, and one lockstep
    search maximises every (fit, n) lane, an inf lane on the negated weight.
    """
    if not ns or min(ns) < 1:
        raise ValueError("n must be >= 1")
    nt = np.asarray(ns) * t  # the floats n * t, one per n
    # lanes: the fits' rows, a block of len(ns) per fit, in the order of fits
    maxes = [mode == "max" for _, mode in fits]
    forms = ["up" if kind in _NUM_SHIFTED else "down" for kind, _ in fits]

    def sample(grid):
        best = np.empty((len(fits), nt.size), dtype=np.intp)
        best_vals = np.empty(best.shape)
        stream = RatioRows(symbol, t, grid, first=ns[0]).stream(ns, sorted(set(forms)))
        for n, rows in enumerate(stream):
            for lane, (is_max, form) in enumerate(zip(maxes, forms)):
                r, top, bottom = rows[form]
                i, root = root_extreme(r, top if is_max else bottom, is_max)
                best[lane, n], best_vals[lane, n] = i, root if is_max else -root
        for kind in checked:
            make_operator(symbol, t, kind, x_max=x_max)
        return best.ravel(), best_vals.ravel()

    # rows (num, den) of every lane's shifts, (2, lanes, 1); y lies in
    # [0, x_max] and the shifts are >= 0, so x is never below 0
    lane_nt = np.tile(nt, len(fits))
    lane_shifted = np.repeat([form == "up" for form in forms], nt.size)
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
