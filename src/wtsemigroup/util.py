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

_ZOOM_STEPS = np.linspace(0.0, 1.0, ZOOM_POINTS + 1)  # k / ZOOM_POINTS, exactly


def check_step(t: float):
    """Refuse a translation step t that is not a positive finite number."""
    if not (t > 0 and np.isfinite(t)):
        raise ValueError(f"t must be positive and finite, got {t!r}")


def window(t: float, x_max: float | None) -> float:
    """The sampling window end: x_max when given, else DEFAULT_WINDOW * t."""
    return x_max if x_max is not None else DEFAULT_WINDOW * t


def root_extreme(r: np.ndarray, i: int, is_max: bool) -> tuple[int, float]:
    """The first index of the largest (is_max) or smallest root np.sqrt(r),
    and that root, given i, the first index of r's own extreme; r holds no
    NaN. Bit for bit argmax / argmin of np.sqrt(r) and the root there, with
    one root formed. sqrt is correctly rounded, so monotone: the entries
    whose roots tie with r[i]'s lie between r[i] and edge, the farthest
    float from r[i], towards the other extreme, with r[i]'s root. Only
    when edge is not r[i] itself can an entry before i tie."""
    v = float(r[i])
    root = math.sqrt(v)
    edge = v
    if 0.0 < v < math.inf:  # 0 and inf are the only floats with their roots
        toward = -math.inf if is_max else math.inf
        while math.sqrt(step := math.nextafter(edge, toward)) == root:
            edge = step
    if edge != v and i:
        ties = r[:i] >= edge if is_max else r[:i] <= edge
        j = int(ties.argmax())
        if ties[j]:
            i = j
    return i, root


def _zoom(fn, lo, hi, value, arg, maxima: int) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep zoom for the maxima of fn on the brackets [lo_i, hi_i] of the
    first maxima lanes and the minima on the others, starting from the
    values value_i attained at arg_i.

    fn maps a (lanes, ZOOM_POINTS + 1) array of points, lane i in row i, to
    their values. Each of ZOOM_LEVELS levels evaluates ZOOM_POINTS + 1
    evenly spaced points across every bracket, clipped to it, and keeps the
    neighbours of the lane's best point (the first, on ties) as its next
    bracket; a point replaces the running best only if its value is
    strictly better. Returns (args, values) per lane.
    """
    at = np.arange(value.size) * (ZOOM_POINTS + 1)  # flat index of each lane's first point
    k = np.empty(value.size, dtype=np.intp)
    better = np.empty(value.size, dtype=bool)
    lo, hi = lo[:, None], hi[:, None]
    for _ in range(ZOOM_LEVELS):
        y = np.minimum(lo + _ZOOM_STEPS * (hi - lo), hi)
        vals = fn(y)
        vals[:maxima].argmax(axis=1, out=k[:maxima])
        vals[maxima:].argmin(axis=1, out=k[maxima:])
        best = at + k
        got = vals.take(best)
        np.greater(got[:maxima], value[:maxima], out=better[:maxima])
        np.less(got[maxima:], value[maxima:], out=better[maxima:])
        value, arg = np.where(better, got, value), np.where(better, y.take(best), arg)
        lo = y.take(at + np.maximum(k - 1, 0))[:, None]
        hi = y.take(at + np.minimum(k + 1, ZOOM_POINTS))[:, None]
    return arg, value


def sample_then_refine(sample, refine, maxima: int, x_max: float) -> list[tuple[float, float, bool]]:
    """Sup on [0, x_max] of the first maxima of several functions (rows), and
    inf of the others.

    sample(grid) returns, for every row, the index of its best sample on a
    uniform grid (the first, on ties) and the value there, as two sequences;
    it reduces each row as it draws it. refine(y) evaluates row i at the
    points y[i] for every row at once. All rows are then refined together
    by one lockstep zoom between the neighbours of their best samples; the
    grid value wins ties, so no result falls behind its grid. Returns
    (value, arg, at_edge) per row, where at_edge flags a best sample at the
    far edge x = x_max.
    """
    grid = np.linspace(0.0, x_max, SAMPLES)
    best, best_vals = sample(grid)
    best = np.asarray(best, dtype=np.intp)
    lo = grid[np.maximum(best - 1, 0)]
    hi = grid[np.minimum(best + 1, SAMPLES - 1)]
    arg, value = _zoom(refine, lo, hi, np.asarray(best_vals, dtype=float), grid[best], maxima)
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
    # terms past the stop may overflow, and the rule's ratios divide by 0:
    # silently, as the Python floats of a loop; a replay raises outside it
    with np.errstate(all="ignore"):
        while True:
            table = np.asarray(terms(size))
            mags = np.hypot(table.real, table.imag)  # abs() of each term, to the bit
            stop, tail = _tail_rule(mags, tol)
            if stop is not None:
                value = np.add.accumulate(table[: stop + 1])[-1]  # in order, as a loop adds
                return value.item(), stop + 1, tail
            if table.size in (seen, cap):
                break
            seen, size = table.size, min(2 * size, cap)
    if table.size == seen and replay is not None:
        replay(seen)
    raise TailBoundNotAchievedError(table.size, tail, tol)


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
    under sum_series' errstate: the ratios and the estimates off a streak
    may divide by 0."""
    if mags.size <= TAIL_STREAK:
        return None, np.inf
    prev, mag = mags[:-1], mags[1:]
    ratios = mag / prev  # x/0 is inf
    if not prev.all():  # 0/0 stays 0
        ratios[(mag == 0.0) & (prev == 0.0)] = 0.0
    # rho[j]: the largest ratio of terms j + 1, ..., j + TAIL_STREAK, each
    # step at most doubling the window (2, 4, 5); NaN fails < 1
    rho, width = ratios, 1
    while width < TAIL_STREAK:
        step = min(width, TAIL_STREAK - width)
        rho = np.maximum(rho[:-step], rho[step:])
        width += step
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
