"""Small numeric helpers: extremum refinement, quadrature, series tails."""

from __future__ import annotations

import math

import numpy as np

from .errors import TailBoundNotAchievedError

DEFAULT_WINDOW = 64.0  # sampling window [0, 64 t] unless the caller sets x_max
SAMPLES = 10_001  # grid points of a sampled extremum
SERIES_CAP = 10_000  # last term index a tail-bounded series may reach
ZOOM_POINTS = 32  # intervals of each zoom level across a bracket
ZOOM_LEVELS = 14  # zoom levels after the grid search: (2/32)**14 ~ 1.4e-17 of the bracket is left
TAIL_STREAK = 5  # consecutive shrinking terms before the geometric tail is trusted

_ZOOM_STEPS = np.linspace(0.0, 1.0, ZOOM_POINTS + 1)[:, None]  # k / ZOOM_POINTS, exactly


def check_step(t: float):
    """Refuse a translation step t that is not a positive finite number."""
    if not (t > 0 and np.isfinite(t)):
        raise ValueError(f"t must be positive and finite, got {t!r}")


def window(t: float, x_max: float | None) -> float:
    """The sampling window end: x_max when given, else DEFAULT_WINDOW * t."""
    return x_max if x_max is not None else DEFAULT_WINDOW * t


def _zoom(fn, lo, hi, value, arg) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep zoom for the maxima of fn on the brackets [lo_i, hi_i],
    starting from the values value_i attained at arg_i.

    fn maps a (ZOOM_POINTS + 1, lanes) array of points, lane i in column i,
    to their values. Each of ZOOM_LEVELS levels evaluates ZOOM_POINTS + 1
    evenly spaced points across every bracket, clipped to it, and keeps the
    neighbours of the lane's best point (the first, on ties) as its next
    bracket; a point replaces the running best only if its value is
    strictly greater. Returns (args, values) per lane.
    """
    lanes = np.arange(value.size)
    for _ in range(ZOOM_LEVELS):
        y = np.minimum(lo + _ZOOM_STEPS * (hi - lo), hi)
        vals = fn(y)
        k = np.argmax(vals, axis=0)
        got = vals[k, lanes]
        better = got > value
        value, arg = np.where(better, got, value), np.where(better, y[k, lanes], arg)
        lo, hi = y[np.maximum(k - 1, 0), lanes], y[np.minimum(k + 1, ZOOM_POINTS), lanes]
    return arg, value


def sample_then_refine(sample, refine, modes, x_max: float) -> list[tuple[float, float, bool]]:
    """Sup (mode "max") or inf (mode "min") on [0, x_max] of several functions,
    one per entry of modes.

    sample(grid) yields the values of the functions on a uniform grid, in row
    order, and may yield one array for several rows; each row is reduced to
    its best sample before the next is drawn, so a sampler that computes its
    rows as it yields them keeps one table of values alive. refine(y)
    evaluates row i at the points y[:, i] for every row at once. All rows are
    then refined together by one lockstep zoom between the neighbours of
    their best samples, a min row on its negated values; the grid value wins
    ties, so no result falls behind its grid. Returns (value, arg, at_edge)
    per row, where at_edge flags a best sample at the far edge x = x_max.
    """
    grid = np.linspace(0.0, x_max, SAMPLES)
    is_max = np.array([mode == "max" for mode in modes], dtype=bool)
    best = np.empty(is_max.size, dtype=int)
    best_vals = np.empty(is_max.size)
    for row, vals in enumerate(sample(grid)):
        best[row] = np.argmax(vals) if is_max[row] else np.argmin(vals)
        best_vals[row] = vals[best[row]]
    lo = grid[np.maximum(best - 1, 0)]
    hi = grid[np.minimum(best + 1, SAMPLES - 1)]

    def signed(y):
        vals = refine(y)
        return np.where(is_max, vals, -vals)
    arg, got = _zoom(signed, lo, hi, np.where(is_max, best_vals, -best_vals), grid[best])
    value = np.where(is_max, got, -got)
    return list(zip(value.tolist(), arg.tolist(), (best == SAMPLES - 1).tolist()))


# Gauss-Legendre 5-point rule on [-1, 1]; used where an integral must not
# collapse onto the midpoint rule that the operator discretization uses.
_GL5_NODES = np.array(
    [
        -0.9061798459386640,
        -0.5384693101056831,
        0.0,
        0.5384693101056831,
        0.9061798459386640,
    ]
)
_GL5_WEIGHTS = np.array(
    [
        0.2369268850561891,
        0.4786286704993665,
        0.5688888888888889,
        0.4786286704993665,
        0.2369268850561891,
    ]
)


def gauss5_cells(fn, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """Integral of fn over each cell [lefts_i, rights_i) by 5-point Gauss."""
    lefts = np.asarray(lefts, dtype=float)
    rights = np.asarray(rights, dtype=float)
    mid = 0.5 * (lefts + rights)
    half = 0.5 * (rights - lefts)
    pts = mid[:, None] + half[:, None] * _GL5_NODES[None, :]
    vals = fn(pts.ravel()).reshape(pts.shape)
    return half * (vals @ _GL5_WEIGHTS)


def sum_series(terms, tol: float, q: complex, replay=None):
    """Sum a series in q from a table of its terms, with an empirical geometric tail bound.

    terms(size) returns the first terms as an array, at most size of them:
    fewer when it builds its table a step at a time or cannot form the next
    term. The first size is _table_size(q, tol); sum_series asks again, for
    twice the size, until the rule holds, SERIES_CAP + 1 terms have been
    seen or the table stops growing. When the table stops at n terms, short
    of the cap, replay(n) is called, if given, to raise the error of the
    term that could not be formed. The rule stops at the first N at which
    the ratios |a_n| / |a_(n-1)| have stayed below 1 for TAIL_STREAK steps
    and the tail estimate |a_N| rho / (1 - rho), rho the largest of those
    ratios, is below tol; a ratio over a zero term is 0 if the term is 0
    too and inf otherwise. The value is the running sum of the terms in
    order. Returns (value, n_terms, tail_estimate) as Python numbers; raises
    TailBoundNotAchievedError with the number of terms seen and the last
    tail estimate when the table ends first.
    """
    cap = SERIES_CAP + 1
    size, seen = min(_table_size(q, tol), cap), -1
    while True:
        table = np.asarray(terms(size))
        with np.errstate(all="ignore"):  # as the Python floats of a loop, silently
            mags = np.hypot(table.real, table.imag)  # abs() of each term, to the bit
            stop, tail = _tail_rule(mags, tol)
            if stop is not None:
                value = np.add.accumulate(table[: stop + 1])[-1]  # in order, as a loop adds
                return value.item(), stop + 1, tail
        if table.size == seen and replay is not None:
            replay(seen)
        if table.size in (seen, cap):
            raise TailBoundNotAchievedError(table.size, tail, tol)
        seen, size = table.size, min(2 * size, cap)


def _table_size(q: complex, tol: float) -> int:
    """First table size of a series in q: the n at which the geometric tail
    |q|**n |q| / (1 - |q|) falls below tol, plus TAIL_STREAK, and at least
    16; the doubling of sum_series covers coefficients that grow."""
    r = float(abs(q))
    bound = tol * (1.0 - r) / r if 0.0 < r < 1.0 else 1.0  # inf for a subnormal r
    if not 0.0 < bound < 1.0:
        return 16
    return max(16, math.ceil(math.log(bound) / math.log(r)) + TAIL_STREAK)


def _tail_rule(mags: np.ndarray, tol: float) -> tuple[int | None, float]:
    """The stopping rule of sum_series on the term magnitudes mags: the first
    index N at which it holds, or None, and the tail estimate at N, or else
    at the last index with TAIL_STREAK shrinking ratios (inf if none). Runs
    under sum_series' errstate: the estimates off a streak may divide by 0."""
    if mags.size <= TAIL_STREAK:
        return None, np.inf
    prev, mag = mags[:-1], mags[1:]
    # 0/0 stays 0, x/0 is inf
    ratios = np.divide(mag, prev, out=np.zeros(mag.size), where=(mag != 0.0) | (prev != 0.0))
    # rho[j]: the largest ratio of terms j + 1, ..., j + TAIL_STREAK; NaN fails < 1
    rho = ratios[: ratios.size - TAIL_STREAK + 1].copy()
    for k in range(1, TAIL_STREAK):
        np.maximum(rho, ratios[k : k + rho.size], out=rho)
    streak = rho < 1.0
    # rho = 0 only after a zero term or an infinite one: the estimate is 0 there
    tail = mags[TAIL_STREAK:] * rho / (1.0 - rho)
    held = streak & (tail < tol)
    first = int(held.argmax())
    if held[first]:
        return first + TAIL_STREAK, float(tail[first])
    shrinking = np.flatnonzero(streak)
    return None, float(tail[shrinking[-1]]) if shrinking.size else np.inf


def fmt17(x: float) -> str:
    """Format with 17 significant digits (round-trip safe for float64)."""
    return f"{x:.17g}"
