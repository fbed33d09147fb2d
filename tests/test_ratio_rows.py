"""RatioRows, the one home of the rows phi(x + n t)/phi(x): each site that
reads it (classify's bracket rows, the model's weight table, the kernel
column and the spectral fits' grid rows) gets the floats and the errors of
the form it had before, kept here as the reference_* helpers."""

import importlib
import sys

import numpy as np
import pytest

import wtsemigroup.model as model_module
import wtsemigroup.operators as operators_module
from wtsemigroup import NonPositiveSymbolError, bracket_forms, parse_phi_spec, random_step
from wtsemigroup.classify import _fold, _sample_grid
from wtsemigroup.spectral import SUMMARY_FITS
from wtsemigroup.symbols import eval_phi
from wtsemigroup.util import SAMPLES, root_extreme, window

# the package exports the function classify under the module's name
classify_module = importlib.import_module("wtsemigroup.classify")

GOLDEN_SPECS = ("const:1", "affine", "reciprocal", "cap", "exp:a=2", "exp2x", "expr:x+1", "expr:x^2+1")
# phi = 0 at x = 70; e^(20 x - 690) overflows past x = 69.99 and its ratios
# from k = 36; a dip below 0 between grid points at 20.0008; phi = e^-690
# at x = 70; phi < 0 on (0.5, 1.5), met first at x = 1 by the fits' first
# row and at 0.5 by phi(x); e^(2x) (a golden spec) overflows at x = 355
EDGE_SPECS = (
    "expr:70-x",
    "expr:(x-0.5)*(x-1.5)",
    "expr:exp(20*x-690)",
    "expr:(x-20.0008)^2-1.6384e-8",
    "expr:exp(0-690*exp(0-(x-70)^2))",
)
STEPS = (0.25, 1 / 3, 1.0)
TABLE_BYTES = 2**21  # the byte bound of the reference table
SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)  # the doubling of a series' table


def outcome(fn):
    """The bytes of each array fn returns (None kept), or the type and
    message of what it raised."""
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 - compared as data
        return type(exc), str(exc)
    parts = result if isinstance(result, tuple) else (result,)
    return tuple(None if r is None else np.asarray(r).tobytes() for r in parts)


def reference_ratio_table(symbol, t, n_max, grid):
    """classify's table as it was: row k holds phi(grid + k t) / phi(grid),
    one eval_phi per row, phi(grid) first."""
    table = np.empty((n_max + 1, *grid.shape), dtype=float)
    base = eval_phi(symbol, grid)
    for k, row in enumerate(table):
        np.divide(eval_phi(symbol, grid + k * t), base, out=row)
    return table


class ReferenceRatios:
    """The model's table as it was: rows phi(x)/phi(x + n t), or their roots,
    a block at a time through eval_phi, walked again without it on a
    refusal to find the row the table stops before."""

    def __init__(self, symbol, t, x, *, weights=False):
        self.symbol, self.t, self.x, self._is_weights = symbol, t, np.asarray(x, dtype=float), weights
        self.phi_x = eval_phi(symbol, self.x)
        self._table = (np.empty((0, self.x.size)), None)

    def rows(self, size):
        rows, stop = self._table
        if len(rows) < size and stop is None:
            points = self.x + np.arange(len(rows), size)[:, None] * self.t
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                try:
                    vals = eval_phi(self.symbol, points)
                except NonPositiveSymbolError:
                    vals = self.symbol.values(points)
                    stop = len(rows) + int(np.argmin((np.isfinite(vals) & (vals > 0)).all(axis=-1)))
                    vals = vals[: stop - len(rows)]
                np.divide(self.phi_x, vals, out=vals)
                if self._is_weights:
                    np.sqrt(vals, out=vals)
            rows = np.concatenate([rows, vals]) if len(rows) else vals
            if rows.nbytes + 2 * self.x.nbytes <= TABLE_BYTES:
                self._table = (rows, stop)
        return rows[:size]

    def raise_at(self, n):
        eval_phi(self.symbol, self.x + n * self.t)

    def full(self, size):
        """rows(size), raising the error of the row it stops before, as model._weights did."""
        rows = self.rows(size)
        if len(rows) < size:
            self.raise_at(len(rows))
        return rows


def reference_sample(symbol, t, ns, fits, grid):
    """The spectral fits' sample as it was: phi(grid + ns[0] t), then
    phi(grid), through eval_phi; each later row one Symbol.values walk,
    through eval_phi only where its ratio's extremes leave (0, inf)."""
    nt = np.asarray(ns) * t
    maxes = [mode == "max" for _, mode in fits]
    shifted = [kind in operators_module._NUM_SHIFTED for kind, _ in fits]
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
        for up in set(shifted):
            with np.errstate(divide="ignore"):
                r = pn / p0 if up else p0 / pn
            top, bottom = r.argmax(), r.argmin()
            if not (r[bottom] > 0 and r[top] < np.inf):
                eval_phi(symbol, grid + shift)
            rows[up] = r, top, bottom
        for lane, (is_max, up) in enumerate(zip(maxes, shifted)):
            r, top, bottom = rows[up]
            i, root = root_extreme(r, top if is_max else bottom, is_max)
            best[lane, n], best_vals[lane, n] = i, root if is_max else -root
    return best.ravel(), best_vals.ravel()


def reference_bracket_rows(symbol, t, grid):
    """delta_n for n = 0..64 folded from the reference table, and its probes."""
    ratios = reference_ratio_table(symbol, t, 64, grid)
    acc, term = np.empty(grid.shape), np.empty(grid.shape)
    return np.array([_fold(ratios, n, acc, term).copy() for n in range(65)]), classify_module._probe(ratios)


def site_bracket_rows(symbol, t, grid):
    """classify's rows n = 0..64, each copied out of the scratch row, and its probes."""
    rows, probe = classify_module._bracket_rows(symbol, t, 64, grid)
    return np.array([row.copy() for row in rows]), probe()


class Sampled(Exception):
    """Carries the fits' sample out of _weight_extrema, before the zoom."""


def fits_sample(symbol, t, ns, fits, x_max):
    """What _weight_extrema's sample returns on its grid: the zoom is cut off."""

    def sample_only(sample, refine, x_max):
        raise Sampled(sample(np.linspace(0.0, x_max, SAMPLES)))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators_module, "sample_then_refine", sample_only)
        try:
            operators_module._weight_extrema(symbol, t, ns, x_max, fits, [])
        except Sampled as got:
            return got.args[0]
    raise AssertionError("the fits never sampled their grid")


def grown(make, full):
    """outcome() of each read of the table make() returns, rows or full, at
    the doubling SIZES, then at every size again, as a series reads a
    cached table; or the type and message of what make raised."""
    try:
        table = make()
    except Exception as exc:  # noqa: BLE001 - compared as data
        return type(exc), str(exc)
    read = table.full if full else table.rows
    return [outcome(lambda: read(size)) for size in SIZES + SIZES[::-1]]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # phi over- and underflows past the window
@pytest.mark.parametrize("t", STEPS)
@pytest.mark.parametrize("spec", GOLDEN_SPECS + EDGE_SPECS)
def test_every_site_reads_its_old_rows_and_errors(spec, t):
    symbol = parse_phi_spec(spec)
    x_max = window(t, None)
    # classify: the up rows k = 0..64 on its grid, and the delta_n it folds from them
    grid = _sample_grid(symbol, t, 64, x_max)
    want = outcome(lambda: reference_ratio_table(symbol, t, 64, grid))
    assert outcome(lambda: operators_module.RatioRows(symbol, t, grid).full(65)) == want
    want = outcome(lambda: reference_bracket_rows(symbol, t, grid))
    assert outcome(lambda: site_bracket_rows(symbol, t, grid)) == want
    # the weight table on E's midpoints, m = 8, and the kernel column at x = 0,
    # grown as the passes and series grow them, then read again
    mu = model_module._midpoints(t, 8)
    for site, ref_table in (
        (lambda: model_module._model_weights(symbol, t, 8), lambda: ReferenceRatios(symbol, t, mu, weights=True)),
        (lambda: model_module._kernel_ratios(symbol, t, 0.0), lambda: ReferenceRatios(symbol, t, 0.0)),
    ):
        for full in (False, True):
            model_module._model_weights.cache_clear()
            model_module._kernel_ratios.cache_clear()
            assert grown(site, full) == grown(ref_table, full)
    # the spectral fits: both directions from one row per n, n = 1..32
    fits = SUMMARY_FITS + (("L", "max"),)
    want = outcome(lambda: reference_sample(symbol, t, range(1, 33), fits, np.linspace(0.0, x_max, SAMPLES)))
    assert outcome(lambda: fits_sample(symbol, t, range(1, 33), fits, x_max)) == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_the_edge_specs_meet_their_refusals():
    # the cross-site test compares errors only where some site meets one
    sym = parse_phi_spec("expr:70-x")
    with pytest.raises(NonPositiveSymbolError, match=r"value 0\.0 at x=70\.0 "):
        classify_module.classify(sym, 1.0, max_order=64)
    with pytest.raises(NonPositiveSymbolError, match=r"value 0\.0 at x=70\.0 "):
        fits_sample(sym, 1.0, range(1, 33), SUMMARY_FITS, 64.0)
    # the fits' first row, x + 1, before phi(x); a refused phi(x) caches no table
    sym = parse_phi_spec("expr:(x-0.5)*(x-1.5)")
    with pytest.raises(NonPositiveSymbolError, match=r"value -0\.25 at x=1\.0 "):
        fits_sample(sym, 1.0, range(1, 33), SUMMARY_FITS, 64.0)
    model_module._model_weights.cache_clear()
    with pytest.raises(NonPositiveSymbolError, match=r"at x=0\.5625 "):
        model_module._model_weights(sym, 1.0, 8)
    assert model_module._model_weights.cache_info().currsize == 0
    # a stop in a later walk of a block: 128 rows of 256 cells a walk, and
    # e^(2x) refused from row 354 on (mu + 354 > 355), in the third walk
    e2x, mu = parse_phi_spec("exp2x"), model_module._midpoints(1.0, 256)
    model_module._model_weights.cache_clear()
    assert len(model_module._model_weights(e2x, 1.0, 256).rows(1000)) == 354
    model_module._model_weights.cache_clear()
    want = grown(lambda: ReferenceRatios(e2x, 1.0, mu, weights=True), True)
    assert grown(lambda: model_module._model_weights(e2x, 1.0, 256), True) == want
    model_module._kernel_ratios.cache_clear()
    column = model_module._kernel_ratios(parse_phi_spec("exp2x"), 1.0, 0.0)
    assert len(column.rows(4096)) == 355
    with pytest.raises(NonPositiveSymbolError, match=r"value inf at x=355\.0 "):
        column.full(356)


def test_bracket_forms_keeps_its_two_routes_apart(monkeypatch):
    # the operator route reaches phi only through phi_ratio, inside
    # apply_power; the symbol route only through RatioRows, inside
    # _bracket_rows: neither route enters the other's evaluation
    events = []
    phi_ratio, init = operators_module.phi_ratio, operators_module.RatioRows.__init__

    def route():
        frame, names = sys._getframe(2), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        return ("operator" if "apply_power" in names else "") + ("symbol" if "_bracket_rows" in names else "")

    def spied_phi_ratio(*args):
        events.append(("phi_ratio", route()))
        return phi_ratio(*args)

    def spied_init(self, *args, **kwargs):
        events.append(("RatioRows", route()))
        init(self, *args, **kwargs)

    monkeypatch.setattr(operators_module, "phi_ratio", spied_phi_ratio)
    monkeypatch.setattr(operators_module.RatioRows, "__init__", spied_init)
    rng = np.random.default_rng(3)
    for spec, t in (("affine", 1.0), ("reciprocal", 0.3), ("cap", 0.25), ("exp:a=2", 0.5)):
        events.clear()
        bracket_forms(parse_phi_spec(spec), t, 6, random_step(rng, 0.0, 4 * t, 64))
        assert events == [("phi_ratio", "operator")] * 6 + [("RatioRows", "symbol")]
