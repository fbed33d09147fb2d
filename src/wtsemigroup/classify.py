"""Classification of the semigroup through the alternating bracket.

Everything reduces to the sign over x of

    delta_n(x) = sum_{k=0}^n (-1)^k C(n,k) phi(x + k t) / phi(x),

which is exactly the density of the quadratic form of the n-th defect
operator: <B_n(S_t) f, f> = integral delta_n(x) |f(x)|^2 dx. The classes:

    contraction                 delta_1 >= 0 everywhere
    expansion                   delta_1 <= 0 everywhere
    m-isometry                  delta_m identically 0 (smallest such m)
    m-hyperexpansive            delta_n <= 0 for 1 <= n <= m
    completely hyperexpansive   delta_n <= 0 for every n (checked to order N)
    alternatingly hyperexp.     (-1)^n delta_n >= 0 for every n (to order N)

delta_n is also (-1)^n times the n-th forward difference in k of the moment
sequence phi(x + k t)/phi(x); nonnegativity of every delta_n is therefore
the Hausdorff complete-monotonicity condition, a necessary condition for
the subnormal-contraction class, reported as a "candidate" label only.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .operators import OperatorHandle, apply_power
from .stepfun import StepFunction, norm_sq
from .symbols import Symbol, eval_phi
from .util import window

MAX_ORDER = 64  # highest bracket order that bracket_table computes
CLASS_SAMPLES = 4096  # uniform grid points of the sign analysis, before kink clusters
TOL_CLASS = 1e-9  # zero band of delta_n, relative to max(1, max |delta_n|) on the grid


def bracket(symbol: Symbol, t: float, n: int, x) -> float | np.ndarray:
    """delta_n(x): exact finite alternating sum; binomials in integer arithmetic."""
    total = bracket_table(symbol, t, n, np.atleast_1d(np.asarray(x, dtype=float)))[n]
    if np.ndim(x) == 0:
        return float(total[0])
    return total


def bracket_table(symbol: Symbol, t: float, n_max: int, grid: np.ndarray) -> np.ndarray:
    """delta_n(grid) for n = 0..n_max, sharing the phi(x + k t) evaluations."""
    if n_max < 0:
        raise ValueError("order must be nonnegative")
    if n_max > MAX_ORDER:
        raise OverflowError(f"bracket order capped at {MAX_ORDER}")
    ratios = np.empty((n_max + 1, *grid.shape), dtype=float)
    base = eval_phi(symbol, grid)
    for k in range(n_max + 1):
        ratios[k] = eval_phi(symbol, grid + k * t) / base
    table = np.empty_like(ratios)
    for n in range(n_max + 1):
        acc = np.zeros(grid.shape, dtype=float)
        for k in range(n + 1):
            acc += float((-1) ** k * math.comb(n, k)) * ratios[k]
        table[n] = acc
    return table


def bracket_quadratic_form(symbol: Symbol, t: float, n: int, f: StepFunction) -> float:
    """<B_n(S_t) f, f> at the operator level: alternating sum of ||S_t^k f||^2.

    Cross-validates the symbol-level integral of delta_n |f|^2; the two
    routes share no code path beyond the symbol itself.
    """
    op = OperatorHandle(symbol, t, "S")
    total = 0.0
    for k in range(n + 1):
        total += float((-1) ** k * math.comb(n, k)) * norm_sq(apply_power(op, k, f))
    return total


def bracket_integral(symbol: Symbol, t: float, n: int, f: StepFunction) -> float:
    """Symbol-level integral of delta_n(x) |f(x)|^2 dx at cell midpoints."""
    if f.values.size == 0:
        return 0.0
    mids = f.midpoints()
    return float(np.sum(bracket(symbol, t, n, mids) * np.abs(f.values) ** 2 * f.widths()))


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    n: int
    x: float
    value: float


@dataclass(frozen=True)
class ClassificationReport:
    phi: str
    t: float
    max_order: int
    tol_class: float
    labels: tuple[str, ...]
    witnesses: dict  # failed label -> Witness
    m_isometry: int | None
    max_hyperexpansive_order: int
    grid_points: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def _sample_grid(symbol: Symbol, t: float, n_max: int, x_max: float) -> np.ndarray:
    grid = [np.linspace(0.0, x_max, CLASS_SAMPLES)]
    # densify around points where x + k t crosses a kink of a piecewise symbol
    offsets = np.array([-1e-3, -1e-6, 0.0, 1e-6, 1e-3])
    for kink in symbol.kinks:
        for k in range(n_max + 1):
            x0 = kink - k * t
            if 0.0 <= x0 <= x_max:
                cluster = x0 + offsets
                grid.append(cluster[(cluster >= 0.0) & (cluster <= x_max)])
    return np.unique(np.concatenate(grid))


def _first_violation(table_row: np.ndarray, grid: np.ndarray, bad: np.ndarray, n: int):
    i = int(np.argmax(bad))
    return Witness(n, float(grid[i]), float(table_row[i]))


def classify(
    symbol: Symbol,
    t: float,
    max_order: int = 16,
    x_max: float | None = None,
) -> ClassificationReport:
    """Sign analysis of delta_n on a dense grid, n = 1..max_order.

    Tolerances scale with the magnitude of each delta_n, since equality to
    zero cannot be decided numerically at a fixed absolute cutoff. The
    complete / alternating labels are order-limited by construction and say
    so in their names; subnormality is never claimed, only the Hausdorff
    moment necessary condition ("candidate").
    """
    x_max = window(t, x_max)
    grid = _sample_grid(symbol, t, max_order, x_max)
    table = bracket_table(symbol, t, max_order, grid)
    tol = np.array(
        [TOL_CLASS * max(1.0, float(np.max(np.abs(table[n])))) for n in range(max_order + 1)]
    )

    labels: list[str] = []
    witnesses: dict[str, Witness] = {}

    def check(name: str, ok_mask_by_n: dict[int, np.ndarray]) -> bool:
        for n, ok in ok_mask_by_n.items():
            if not bool(np.all(ok)):
                witnesses[name] = _first_violation(table[n], grid, ~ok, n)
                return False
        labels.append(name)
        return True

    d1 = table[1]
    check("contraction", {1: d1 >= -tol[1]})
    check("expansion", {1: d1 <= tol[1]})

    m_isometry = None
    for m in range(1, max_order + 1):
        if bool(np.all(np.abs(table[m]) <= tol[m])):
            m_isometry = m
            break
    if m_isometry is not None:
        labels.append("isometry" if m_isometry == 1 else f"{m_isometry}-isometry")

    max_hyper = 0
    for n in range(1, max_order + 1):
        if bool(np.all(table[n] <= tol[n])):
            max_hyper = n
        else:
            if f"completely-hyperexpansive({max_order})" not in witnesses:
                witnesses[f"completely-hyperexpansive({max_order})"] = _first_violation(
                    table[n], grid, table[n] > tol[n], n
                )
            break
    if max_hyper >= 2:
        labels.append("2-hyperexpansive")
        if max_hyper > 2 and max_hyper < max_order:
            labels.append(f"{max_hyper}-hyperexpansive")
    if max_hyper == max_order:
        labels.append(f"completely-hyperexpansive({max_order})")

    check(
        f"alternatingly-hyperexpansive({max_order})",
        {n: ((-1) ** n) * table[n] >= -tol[n] for n in range(1, max_order + 1)},
    )
    check(
        f"completely-monotone-moment-candidate({max_order})",
        {n: table[n] >= -tol[n] for n in range(1, max_order + 1)},
    )

    return ClassificationReport(
        phi=symbol.describe(),
        t=t,
        max_order=max_order,
        tol_class=TOL_CLASS,
        labels=tuple(labels),
        witnesses=witnesses,
        m_isometry=m_isometry,
        max_hyperexpansive_order=max_hyper,
        grid_points=int(grid.size),
    )
