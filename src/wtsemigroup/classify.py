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

from .operators import OperatorHandle, RatioRows, apply_power
from .stepfun import StepFunction, norm_sq
from .symbols import Symbol
from .util import window

MAX_ORDER = 64  # highest bracket order
CLASS_SAMPLES = 4096  # uniform grid points of the sign analysis, before kink clusters
TOL_CLASS = 1e-9  # zero band of delta_n, relative to max(1, max |delta_n|) on the grid

# (-1)^k C(n, k) as floats, row n for k = 0..n; the binomials are exact integers
_SIGNED_BINOMIALS = tuple(
    tuple(float((-1) ** k * math.comb(n, k)) for k in range(n + 1)) for n in range(MAX_ORDER + 1)
)
# the same floats as a lower-triangular table: column k holds (-1)^k C(n, k) at row n >= k
_BINOMIAL_COLUMNS = np.array([row + (0.0,) * (MAX_ORDER - n) for n, row in enumerate(_SIGNED_BINOMIALS)])


def _fold(ratios: np.ndarray, n: int, acc: np.ndarray, term: np.ndarray) -> np.ndarray:
    """delta_n into acc from ratio rows 0..n: each product (-1)^k C(n,k) ratio_k
    added in the order of k, starting from 0.0."""
    acc.fill(0.0)
    for c, ratio in zip(_SIGNED_BINOMIALS[n], ratios):
        np.multiply(c, ratio, out=term)
        acc += term
    return acc


def _probe(ratios: np.ndarray) -> np.ndarray | None:
    """delta_n for n = 0..n_max on 16 grid columns spread over the grid: the
    products of _fold, added in its order of k from 0.0, with k as the outer
    loop. None when some delta_n might be infinite, since |delta_n| <= 2^n
    max ratio; a NaN maximum fails the comparison too."""
    if not ratios.max() <= np.finfo(float).max / 2.0 ** (MAX_ORDER + 1):
        return None
    columns = ratios[:, np.linspace(0, ratios.shape[1] - 1, 16, dtype=int)]
    probes = np.zeros(columns.shape)
    for k, ratio in enumerate(columns):
        probes[k:] += _BINOMIAL_COLUMNS[k : len(columns), k, None] * ratio
    return probes


def _check_order(n_max: int):
    """Refuse a bracket order below 0 or past MAX_ORDER."""
    if n_max < 0:
        raise ValueError("order must be nonnegative")
    if n_max > MAX_ORDER:
        raise OverflowError(f"bracket order capped at {MAX_ORDER}")


def _bracket_rows(symbol: Symbol, t: float, n_max: int, grid: np.ndarray):
    """delta_n(grid) for n = 0, 1, ..., n_max, each folded into one scratch row
    that the next overwrites, and a callable that returns _probe's columns.
    Every phi(x + k t) is read, as one RatioRows block, before the first row."""
    _check_order(n_max)
    ratios = RatioRows(symbol, t, grid).full(n_max + 1)  # row k: phi(grid + k t) / phi(grid)
    acc, term = np.empty(grid.shape), np.empty(grid.shape)
    rows = (_fold(ratios, n, acc, term) for n in range(n_max + 1))
    return rows, lambda: _probe(ratios)


def bracket(symbol: Symbol, t: float, n: int, x) -> float | np.ndarray:
    """delta_n(x): the finite alternating sum, in float64. The binomials are
    exact, but the rounding grows like 2^n eps max ratio: bracket(reciprocal,
    1, 64, 0.0) reads 9.5385, against the exact 1/65 (ROADMAP item 1)."""
    grid = np.atleast_1d(np.asarray(x, dtype=float))
    _check_order(n)
    ratios = RatioRows(symbol, t, grid).full(n + 1)
    total = _fold(ratios, n, np.empty(grid.shape), np.empty(grid.shape))
    if np.ndim(x) == 0:
        return float(total[0])
    return total


def bracket_forms(symbol: Symbol, t: float, n_max: int, f: StepFunction) -> tuple[list[float], list[float]]:
    """<B_n(S_t) f, f> for n = 0..n_max along two routes that share no code
    path beyond the symbol: the operator route, the alternating sum of
    ||S_t^k f||^2, and the symbol route, the integral of delta_n |f|^2 with
    delta_n at the cell midpoints of f. Returns (operator, symbol) values."""
    op = OperatorHandle(symbol, t, "S")
    norms = np.array([[norm_sq(apply_power(op, k, f))] for k in range(n_max + 1)])  # one column
    rows, _ = _bracket_rows(symbol, t, n_max, f.midpoints())
    integrals = [float(np.sum(row * np.abs(f.values) ** 2 * f.widths())) for row in rows]
    acc, term = np.empty(1), np.empty(1)
    return [float(_fold(norms, n, acc, term)[0]) for n in range(n_max + 1)], integrals


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


def _sign_tests(lo, hi):
    """tol_n = TOL_CLASS max(1, max |delta_n|), where a NaN maximum leaves the
    1, and whether delta_n >= -tol_n and delta_n <= tol_n on the whole grid,
    from the extrema of the rows."""
    tol = TOL_CLASS * np.fmax(1.0, np.fmax(hi, -lo))
    return tol, lo >= -tol, hi <= tol


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

    Every sign test reads the extrema of a row: delta_n >= -tol holds on the
    whole grid exactly when it holds at the row minimum, and a NaN in a row
    makes both its extrema NaN, so the row fails every test. Only a row that
    a witness reports is compared point by point.

    The rows are made bottom-up, and the fold stops at the first order N by
    which each of the three sign tests (delta_n <= tol, the alternating one
    and delta_n >= -tol) has failed, and an isometry order has been found
    or every order above N ruled out: a probe value |delta_n| > TOL_CLASS
    rules order n out, since max |delta_n| is finite whenever there are
    probes. Rows past N keep NaN extrema and fail every test, which changes
    no label, since each test's first failure is at or below N. An order
    below 1 leaves no row to read, and is refused.
    """
    if max_order < 1:
        raise ValueError(f"classify needs max_order >= 1, got {max_order!r}")
    x_max = window(t, x_max)
    grid = _sample_grid(symbol, t, max_order, x_max)
    rows, probe = _bracket_rows(symbol, t, max_order, grid)
    lo, hi = np.full(max_order + 1, np.nan), np.full(max_order + 1, np.nan)
    # the first failed row of each sign test, which holds its witness; the
    # contraction and expansion witnesses are in row 1 when they fail
    kept: dict[int, np.ndarray] = {}
    failed: set[int] = set()
    isometry = False
    last_open = None  # the highest order that the probes do not rule out
    for n, row in enumerate(rows):
        lo[n], hi[n] = row.min(), row.max()
        if n == 0:
            continue
        _, nonneg_n, nonpos_n = _sign_tests(lo[n], hi[n])
        isometry = isometry or bool(nonneg_n and nonpos_n)
        alternating_n = nonneg_n if n % 2 == 0 else nonpos_n
        fails = {i for i, ok in enumerate((nonpos_n, alternating_n, nonneg_n)) if not ok}
        if fails - failed:
            kept[n] = row.copy()
        failed |= fails
        if len(failed) < 3:
            continue
        if last_open is None:
            probes = probe()
            if probes is None:
                last_open = max_order
            else:
                above = np.flatnonzero(~(np.abs(probes[n + 1 :]) > TOL_CLASS).any(axis=1))
                last_open = n + 1 + int(above[-1]) if above.size else n
        if isometry or n >= last_open:
            break
    tol, nonneg, nonpos = _sign_tests(lo, hi)

    labels: list[str] = []
    witnesses: dict[str, Witness] = {}

    def first_order(holds: np.ndarray) -> int | None:
        """The first order n >= 1 with holds[n], if any."""
        orders = np.flatnonzero(holds[1:])
        return int(orders[0]) + 1 if orders.size else None

    def check(name: str, ok: np.ndarray, bad) -> None:
        """Label name if ok[n] for every order n >= 1 of ok; else witness the
        first grid point of bad(n) at the first order n that fails."""
        n = first_order(~ok)
        if n is None:
            labels.append(name)
        else:
            i = int(np.argmax(bad(n)))
            witnesses[name] = Witness(n, float(grid[i]), float(kept[n][i]))

    check("contraction", nonneg[:2], lambda n: ~(kept[n] >= -tol[n]))
    check("expansion", nonpos[:2], lambda n: ~(kept[n] <= tol[n]))

    m_isometry = first_order(nonneg & nonpos)
    if m_isometry is not None:
        labels.append("isometry" if m_isometry == 1 else f"{m_isometry}-isometry")

    n_bad = first_order(~nonpos)
    max_hyper = max_order if n_bad is None else n_bad - 1
    if max_hyper >= 2:
        labels.append("2-hyperexpansive")
        if max_hyper > 2 and max_hyper < max_order:
            labels.append(f"{max_hyper}-hyperexpansive")
    # the witness skips NaN points, which fail the row but are not > tol
    check(f"completely-hyperexpansive({max_order})", nonpos, lambda n: kept[n] > tol[n])
    # (-1)^n delta_n >= -tol_n: delta_n >= -tol_n at even n and <= tol_n at odd n
    check(
        f"alternatingly-hyperexpansive({max_order})",
        np.where(np.arange(max_order + 1) % 2 == 0, nonneg, nonpos),
        lambda n: ~((-1) ** n * kept[n] >= -tol[n]),
    )
    check(
        f"completely-monotone-moment-candidate({max_order})",
        nonneg,
        lambda n: ~(kept[n] >= -tol[n]),
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
