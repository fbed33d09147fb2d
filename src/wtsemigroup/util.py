"""Small numeric helpers: extremum refinement, quadrature, series tails."""

from __future__ import annotations

import numpy as np

from .errors import TailBoundNotAchievedError

DEFAULT_WINDOW = 64.0  # sampling window [0, 64 t] unless the caller sets x_max
SAMPLES = 10_001  # grid points of a sampled extremum
SERIES_CAP = 10_000  # last term index a tail-bounded series may reach
GOLDEN_ITERS = 80  # golden-section steps after the grid search
TAIL_STREAK = 5  # consecutive shrinking terms before the geometric tail is trusted

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - np.sqrt(5.0)) / 2.0


def window(t: float, x_max: float | None) -> float:
    """The sampling window end: x_max when given, else DEFAULT_WINDOW * t."""
    return x_max if x_max is not None else DEFAULT_WINDOW * t


def golden_max(fn, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization of a scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    if not b > a:
        return a, float(fn(a))
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc = float(fn(c))
    fd = float(fn(d))
    for _ in range(GOLDEN_ITERS):
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = float(fn(c))
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = float(fn(d))
    return (c, fc) if fc >= fd else (d, fd)


def sample_then_refine(fn, x_max: float, mode: str) -> tuple[float, float, bool]:
    """Sup (mode "max") or inf (mode "min") of a vectorized fn on [0, x_max].

    Samples a uniform grid, then refines by golden section between the
    neighbours of the best sample; the grid value wins ties, so the result
    never falls behind the grid. Returns (value, arg, at_edge), where at_edge
    flags a best sample at the far edge x = x_max.
    """
    grid = np.linspace(0.0, x_max, SAMPLES)
    vals = fn(grid)
    i = int(np.argmax(vals) if mode == "max" else np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, SAMPLES - 1)]
    scalar = lambda y: float(fn(np.asarray([y]))[0])
    if mode == "max":
        arg, refined = golden_max(scalar, lo, hi)
        better = refined > vals[i]
    else:
        arg, neg = golden_max(lambda y: -scalar(y), lo, hi)
        refined = -neg
        better = refined < vals[i]
    if better:
        return refined, float(arg), i == SAMPLES - 1
    return float(vals[i]), float(grid[i]), i == SAMPLES - 1


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


def sum_series(term_fn, tol: float, n_cap: int = SERIES_CAP):
    """Sum term_fn(0) + term_fn(1) + ... with an empirical geometric tail bound.

    Stops once the ratio |term_n| / |term_(n-1)| has stayed below 1 for
    TAIL_STREAK steps and the geometric tail estimate
    |term_N| * rho / (1 - rho) drops below tol. Returns
    (value, n_terms, tail_estimate); raises TailBoundNotAchievedError when
    the cap is hit first.
    """
    total = term_fn(0)
    prev = abs(total)
    ratios: list[float] = []
    streak = 0
    tail = np.inf
    for n in range(1, n_cap + 1):
        term = term_fn(n)
        total = total + term
        mag = abs(term)
        if prev == 0.0:
            rho = 0.0 if mag == 0.0 else np.inf
        else:
            rho = mag / prev
        ratios.append(rho)
        streak = streak + 1 if rho < 1.0 else 0
        if streak >= TAIL_STREAK:
            rho = max(ratios[-TAIL_STREAK:])
            tail = mag * rho / (1.0 - rho) if rho > 0.0 else 0.0
            if tail < tol:
                return total, n + 1, tail
        prev = mag
    raise TailBoundNotAchievedError(n_cap + 1, float(tail), tol)


def fmt17(x: float) -> str:
    """Format with 17 significant digits (round-trip safe for float64)."""
    return f"{x:.17g}"
