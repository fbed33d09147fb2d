import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wtsemigroup import (
    DiagonalKernel,
    affine,
    constant,
    exponential,
    indicator,
    kernel_series,
    make_kernel,
    make_operator,
    model_disc_radius,
    norm,
    parse_phi_spec,
    piecewise_cap,
    random_step,
    reciprocal,
    spectral_radius,
    spectral_summary,
    verify_adjoint_eigenvector,
    verify_circular_symmetry,
)
from wtsemigroup.errors import NonPositiveSymbolError, NotLeftInvertibleError, TailBoundNotAchievedError
from wtsemigroup.operators import ExtremumEstimate, _weight_extrema, phi_ratio
from wtsemigroup.spectral import SUMMARY_FITS, _fit_radius
import wtsemigroup.util as util_module
from wtsemigroup.util import SAMPLES, TAIL_STREAK, _zoom, window

E2X = exponential(np.exp(2.0))


@pytest.mark.parametrize("kind", ["S", "S_adjoint", "L"])
@pytest.mark.parametrize("spec,t", [("affine", 1.0), ("cap", 0.25), ("exp:a=2", 0.5), ("expr:x^2+1", 1.0)])
def test_fits_equal_per_n_estimates(spec, t, kind):
    # the fits refine all n in one lockstep search; each row must be the
    # one-n estimate, bit for bit
    op = make_operator(parse_phi_spec(spec), t, kind)
    n_max, x_max = 5, 64.0 * t
    lower = _fit_radius(_weight_extrema(op.symbol, t, range(1, n_max + 1), x_max, [(kind, "min")], [kind])[0])
    for mode, got in (("max", spectral_radius(op, n_max, x_max)), ("min", lower)):
        per_n = [_weight_extrema(op.symbol, t, [n], x_max, [(kind, mode)], [kind])[0][0] for n in range(1, n_max + 1)]
        assert got.values == tuple(e.value for e in per_n)
        assert got.args == tuple(e.arg for e in per_n)
        assert got.window_limited == any(e.window_limited for e in per_n)


def _reference_extrema(op, n_max, x_max, mode):
    """One fit searched on its own: every row samples phi_ratio on the grid,
    then one lockstep zoom refines that fit's rows, on negated values for an
    inf."""
    nt = np.arange(1, n_max + 1) * op.t
    zero = np.zeros_like(nt)
    num, den = (nt, zero) if op.kind in ("S", "S_adjoint") else (zero, nt)
    fn = lambda x, row: np.sqrt(phi_ratio(op.symbol, x, num[row], den[row]))
    grid = np.linspace(0.0, x_max, SAMPLES)
    pick = np.argmax if mode == "max" else np.argmin
    best = np.empty(n_max, dtype=int)
    best_vals = np.empty(n_max)
    for row in range(n_max):
        vals = fn(grid, row)
        best[row] = pick(vals)
        best_vals[row] = vals[best[row]]
    lanes = np.arange(n_max)
    lo = grid[np.maximum(best - 1, 0)]
    hi = grid[np.minimum(best + 1, SAMPLES - 1)]
    if mode == "max":
        arg, value = _zoom(lambda y: fn(y, lanes), lo, hi, best_vals, grid[best])
    else:
        arg, neg = _zoom(lambda y: -fn(y, lanes), lo, hi, -best_vals, grid[best])
        value = -neg
    return [ExtremumEstimate(*est) for est in zip(value.tolist(), arg.tolist(), (best == SAMPLES - 1).tolist())]


def _reference_fits(sym, t, n_max, x_max):
    """The fits of ||S_t^n|| and m(S_t^n), each through its own search, then
    the check of L_t that the model disc radius needs."""
    op_s = make_operator(sym, t, "S")
    fit_r = _fit_radius(_reference_extrema(op_s, n_max, x_max, "max"))
    fit_r1 = _fit_radius(_reference_extrema(op_s, n_max, x_max, "min"))
    make_operator(sym, t, "L", x_max=x_max)
    return fit_r, fit_r1


def _outcome(fn):
    try:
        with np.errstate(over="ignore"):  # exp2x overflows far out on some windows
            return fn()
    except (NonPositiveSymbolError, NotLeftInvertibleError) as exc:
        return type(exc), str(exc)


_PARITY_SPECS = ["const:1", "affine", "reciprocal", "cap", "exp:a=2", "exp2x", "expr:x+1", "expr:x^2+1"]


@settings(max_examples=25, deadline=None)
@given(
    spec=st.sampled_from(_PARITY_SPECS),
    t=st.floats(0.1, 2.0),
    n_max=st.integers(2, 40),
    x_max=st.one_of(st.none(), st.floats(0.5, 400.0)),
)
@example(spec="affine", t=1.0, n_max=8, x_max=None)  # window-limited inf
@example(spec="reciprocal", t=2.0, n_max=6, x_max=None)  # window-limited sup
@example(spec="cap", t=0.3, n_max=32, x_max=None)  # kink
@example(spec="exp2x", t=2.0, n_max=40, x_max=300.0)  # phi overflows on the grid
def test_summary_fits_bitwise_equal_per_fit_searches(spec, t, n_max, x_max):
    sym = parse_phi_spec(spec)
    x_max = window(t, x_max)
    ref = _outcome(lambda: _reference_fits(sym, t, n_max, x_max))
    got = _outcome(
        lambda: [_fit_radius(e) for e in _weight_extrema(sym, t, range(1, n_max + 1), x_max, SUMMARY_FITS, ["L"])]
    )
    if isinstance(ref, tuple) and isinstance(ref[0], type):
        assert got == ref
        assert _outcome(lambda: spectral_summary(sym, t, n_max=n_max, x_max=x_max)) == ref
        return
    for fit, want in zip(got, ref):
        for name in ("values", "args", "sequence"):
            assert np.asarray(getattr(fit, name)).tobytes() == np.asarray(getattr(want, name)).tobytes()
        assert fit.window_limited == want.window_limited
        assert fit.estimate == want.estimate
    summary = spectral_summary(sym, t, n_max=n_max, x_max=x_max)
    assert (summary.r, summary.r1, summary.r_L) == (ref[0].estimate, ref[1].estimate, 1.0 / ref[1].estimate)
    assert summary.window_limited == (ref[0].window_limited or ref[1].window_limited)
    # the fitted model disc radius is r1, through model_disc_radius's own search too
    radius = sym.model_disc_radius(t)
    assert summary.model_disc_radius == (ref[1].estimate if radius is None else radius)
    assert model_disc_radius(sym, t, n_max, x_max) == summary.model_disc_radius


@pytest.mark.parametrize(
    "spec,x_max,error,message",
    [
        ("expr:40-x", 32.0, NonPositiveSymbolError, "symbol value 0.0 at x=40.0 violates positivity"),
        (
            "expr:exp(0-16*x)",
            2.0,
            NotLeftInvertibleError,
            "inf phi(x+t)/phi(x) ~ 1.13e-07 at x=1.0692 is not above 1e-06",
        ),
        ("expr:exp(0-16*x)", 64.0, NonPositiveSymbolError, "symbol value 0.0 at x=46.574400000000004 violates positivity"),
        # not left invertible, and phi underflows on the grid only from n = 2 on:
        # the grid table is complete before the check runs
        ("expr:exp(0-16*x)", 45.0, NonPositiveSymbolError, "symbol value 0.0 at x=46.5725 violates positivity"),
    ],
)
def test_spectral_summary_first_error_as_per_fit_searches(spec, x_max, error, message):
    # the grid table comes first (phi(grid + nt) before phi(grid)), then the
    # left invertibility check, then the refinement: the first error is the
    # one the fit-by-fit searches raised
    with pytest.raises(error) as info:
        spectral_summary(parse_phi_spec(spec), 1.0, x_max=x_max)
    assert str(info.value) == message


def test_spectral_summary_memory_stays_flat():
    # the grid is sampled one n at a time: a (n_max, samples) table of
    # 32 x 10,001 floats alone would take 2.6 MB
    sym = parse_phi_spec("expr:x^2+1")
    spectral_summary(sym, 1.0)  # warm: memoized checks and lazy imports
    tracemalloc.start()
    try:
        spectral_summary(sym, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "sym,t",
    [(constant(1.0), 1.0), (affine(), 1.0), (reciprocal(), 2.0), (piecewise_cap(), 0.25), (exponential(2.0), 0.5)],
)
def test_model_disc_radius_exact_for_builtins(sym, t):
    assert model_disc_radius(sym, t, 32, 64.0 * t) == sym.model_disc_radius(t)


def test_model_disc_radius_fitted_matches_summary():
    sym = parse_phi_spec("expr:x+1")
    assert sym.model_disc_radius(1.0) is None
    summary = spectral_summary(sym, 1.0)
    assert model_disc_radius(sym, 1.0, 32, 64.0) == summary.model_disc_radius == summary.r1


def test_radius_constant_symbol():
    op = make_operator(constant(1.0), 1.0, "S")
    fit = spectral_radius(op, 16, 64.0)
    assert fit.estimate == pytest.approx(1.0, abs=1e-12)
    assert not fit.non_convergent


def test_radius_exponential_exact_norms():
    op = make_operator(E2X, 1.0, "S")
    fit = spectral_radius(op, 32, 64.0)
    assert fit.estimate == pytest.approx(np.e, abs=1e-9)
    # norms are e^{nt} on the nose (values[i] holds n = i + 1)
    assert fit.values[2] == pytest.approx(np.exp(3.0), rel=1e-13)


def test_radius_affine_slow_convergence():
    op = make_operator(affine(), 1.0, "S")
    fit = spectral_radius(op, 64, 64.0)
    assert abs(fit.estimate - 1.0) < 0.02
    # norms sqrt(1 + n) exactly, sup attained at the left edge
    assert fit.values[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_lower_bound_constant():
    r1 = spectral_summary(constant(1.0), 1.0, n_max=16, x_max=64.0).r1
    assert r1 == pytest.approx(1.0, abs=1e-12)


def test_lower_bound_exponential():
    assert spectral_summary(E2X, 1.0, n_max=32, x_max=64.0).r1 == pytest.approx(np.e, abs=1e-9)


def test_lower_bound_power_symbol():
    # a = 4, t = 0.5: the weight is the constant a^{t/2}, so r1 = 4^{1/4}
    r1 = spectral_summary(exponential(4.0), 0.5, n_max=32, x_max=32.0).r1
    assert r1 == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_annulus_degenerates_to_circle():
    inner_r, outer_r = spectral_summary(constant(1.0), 1.0, n_max=16, x_max=64.0).annulus
    assert inner_r == pytest.approx(1.0, abs=1e-9)
    assert outer_r == pytest.approx(1.0, abs=1e-9)


def test_annulus_exponential():
    inner_r, outer_r = spectral_summary(E2X, 0.5, n_max=32, x_max=32.0).annulus
    assert inner_r == pytest.approx(np.exp(0.5), abs=1e-6)
    assert outer_r == pytest.approx(np.exp(0.5), abs=1e-6)


@pytest.mark.parametrize(
    "sym,t",
    [
        (constant(1.0), 1.0),
        (affine(), 1.0),
        (reciprocal(), 1.0),
        (piecewise_cap(), 0.25),
        (exponential(2.0), 1.0),
    ],
)
def test_r1_below_r(sym, t):
    summary = spectral_summary(sym, t, n_max=24)
    assert 0.0 < summary.r1 <= summary.r * (1.0 + 1e-12)
    assert summary.model_disc_radius > 0.0
    assert summary.point_spectrum == "empty"


def test_summary_affine_window_limited():
    summary = spectral_summary(affine(), 1.0, n_max=64, x_max=64.0)
    assert summary.window_limited
    assert summary.diagnostics["window_limited_r1"]
    assert not summary.diagnostics["window_limited_r"]


def test_summary_exponential_radius_note():
    summary = spectral_summary(exponential(2.0), 1.0)
    assert summary.radius_note is not None
    assert summary.model_disc_radius == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert summary.r_L == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)


def test_kernel_radius_consistency():
    # inside the disc the tail rule certifies convergence; outside, on the
    # closed-form examples, the terms stop decreasing
    k = make_kernel(constant(1.0), 1.0)
    r = k.radius * (1.0 - 0.05)
    value, n_terms, tail = kernel_series(k, r, r, 0.0)
    assert np.isfinite(value.real) and n_terms < 10_000
    bad = k.radius * (1.0 + 0.05)
    # a kernel that claims twice the radius lets the domain guard pass
    wide = DiagonalKernel(k.symbol, k.t, 2.0 * k.radius)
    with pytest.MonkeyPatch.context() as mp, pytest.raises(TailBoundNotAchievedError):
        mp.setattr(util_module, "SERIES_CAP", 2000)
        kernel_series(wide, bad, bad, 0.0)


# ---------------------------------------------------------------------------
# circular symmetry
# ---------------------------------------------------------------------------


def test_circular_symmetry_theta_zero_exact():
    rng = np.random.default_rng(0)
    f = random_step(rng, 0.0, 4.0, 64)
    assert verify_circular_symmetry(affine(), 1.0, 0.0, f) == 0.0


def test_circular_symmetry_midpoint_cancels():
    rng = np.random.default_rng(1)
    f = random_step(rng, 0.0, 4.0, 4 * 256, unit_norm=True)
    for sym, t, theta in (
        (constant(1.0), 1.0, np.pi),
        (affine(), 0.5, 2.0),
        (E2X, 1.0, 5.3),
    ):
        assert verify_circular_symmetry(sym, t, theta, f, phase_rule="midpoint") < 1e-12


def test_circular_symmetry_average_rule_second_order():
    rng = np.random.default_rng(2)
    t = 0.5
    f = random_step(rng, 0.0, 8 * t, 8 * 128, unit_norm=True)
    theta = 2.0
    e1 = verify_circular_symmetry(affine(), t, theta, f, phase_rule="average")
    e2 = verify_circular_symmetry(affine(), t, theta, f.subdivide(2), phase_rule="average")
    assert 1.8 < np.log2(e1 / e2) < 2.2
    # the residual is the exact sinc^2 defect times ||S_t f||
    h = t / 128
    u = theta * h / 2.0
    predicted = abs(1.0 - (np.sin(u) / u) ** 2)
    assert e1 == pytest.approx(predicted * norm(f) , rel=0.2)


# ---------------------------------------------------------------------------
# adjoint eigenvectors
# ---------------------------------------------------------------------------


def test_adjoint_eigenvector_w_zero():
    assert verify_adjoint_eigenvector(constant(1.0), 1.0, 0.0, indicator(0.0, 1.0)) == 0.0


def test_adjoint_eigenvector_constant_explicit_truncation():
    # v sums the terms 0.5^n chi_[n, n+1) for n < N, N the term count of the
    # tail rule, so residual = |w|^N ||(L*)^(N-1) e|| / ||v|| = 0.5^N / ||v||
    tol = 1e-12
    n = next(n for n in range(TAIL_STREAK, 1000) if 0.5**n < tol)  # ratio 0.5: tail 0.5^n
    n_terms = n + 1
    assert n_terms == 41
    res = verify_adjoint_eigenvector(constant(1.0), 1.0, 0.5, indicator(0.0, 1.0), tol=tol)
    expected = 0.5**n_terms / np.sqrt(sum(0.25**k for k in range(n_terms)))
    assert res == pytest.approx(expected, rel=1e-9)
    assert res < 1e-9


def test_adjoint_eigenvector_exponential_tail_rule():
    # w = 1.5 < e = 1/r(L_t): per-term ratio 1.5/e
    assert verify_adjoint_eigenvector(E2X, 1.0, 1.5, indicator(0.0, 1.0), tol=1e-8) < 1e-6

