import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wtsemigroup import (
    NonPositiveSymbolError,
    NotLeftInvertibleError,
    OperatorHandle,
    StepFunction,
    affine,
    apply,
    apply_power,
    constant,
    eval_phi,
    exponential,
    indicator,
    inner,
    make_operator,
    norm,
    parse_phi_spec,
    parse_symbol,
    random_step,
    restrict_to_E,
)
from wtsemigroup.operators import (
    _NUM_SHIFTED,
    ExtremumEstimate,
    _weight_extrema,
    phi_ratio,
)
from wtsemigroup.model import _edges, _model_weights, _weights
from wtsemigroup.spectral import SUMMARY_FITS
from wtsemigroup.util import SAMPLES, sample_then_refine, window

E2X = exponential(np.exp(2.0))  # phi(x) = e^{2x}


def extremum(op, n, mode):
    """Sup (mode "max") or inf ("min") on [0, 64] of the n-step weight of op:
    the one-n row of the spectral fits."""
    return _weight_extrema(op.symbol, op.t, [n], 64.0, [(op.kind, mode)], [op.kind])[0][0]


def test_constant_symbol_pure_translation():
    op = make_operator(constant(1.0), 1.0, "S")
    out = apply(op, indicator(0.0, 1.0))
    assert list(out.breakpoints) == [1.0, 2.0]
    assert list(out.values) == [1.0]


def test_affine_weight_at_cell_midpoint():
    # single cell [1,2) lands on [2,3); weight at the output midpoint 2.5
    op = make_operator(affine(), 1.0, "S")
    out = apply(op, indicator(1.0, 2.0))
    assert list(out.breakpoints) == [2.0, 3.0]
    assert out.values[0] == pytest.approx(np.sqrt(3.5 / 2.5), abs=1e-15)


def test_adjoint_kernel_is_E():
    for sym in (constant(1.0), affine(), E2X):
        op = OperatorHandle(sym, 1.0, "S_adjoint")
        assert apply(op, indicator(0.0, 1.0)).is_zero()


def test_adjoint_not_zero_beyond_E():
    op = OperatorHandle(affine(), 1.0, "S_adjoint")
    assert not apply(op, indicator(0.5, 1.5)).is_zero()


def test_power_zero_is_identity():
    rng = np.random.default_rng(0)
    f = random_step(rng, 0.0, 4.0, 32)
    op = make_operator(affine(), 1.0, "S")
    assert apply_power(op, 0, f) is f


def test_power_exponential_closed_form():
    # sqrt(e^{2x} / e^{2(x - 1.5)}) = e^{1.5}, independent of x
    op = make_operator(E2X, 0.5, "S")
    out = apply_power(op, 3, indicator(0.0, 0.5))
    assert list(out.breakpoints) == [1.5, 2.0]
    assert out.values[0] == pytest.approx(np.exp(1.5), rel=1e-14)


def test_power_matches_iterated_application_constant():
    rng = np.random.default_rng(1)
    f = random_step(rng, 0.0, 2.0, 16)
    op = make_operator(constant(2.0), 1.0, "S")
    assert norm(apply_power(op, 2, f) - apply(op, apply(op, f))) <= 1e-9


def test_power_matches_iterated_application_affine():
    # closed-form power against two single steps: midpoint weights cancel
    rng = np.random.default_rng(2)
    f = random_step(rng, 0.0, 2.0, 64)
    op = make_operator(affine(), 0.5, "S")
    assert norm(apply_power(op, 2, f) - apply(op, apply(op, f))) < 1e-12


def test_operator_norm_affine():
    op = make_operator(affine(), 1.0, "S")
    # sup over base points of sqrt(phi(x+1)/phi(x)) = sqrt(2) at x = 0
    assert extremum(op, 1, "max").value == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_operator_norm_exponential_exact():
    op = make_operator(E2X, 1.0, "S")
    for n in (1, 2, 5):
        assert extremum(op, n, "max").value == pytest.approx(np.exp(n), rel=1e-13)


def test_operator_norm_constant():
    op = make_operator(constant(5.0), 1.0, "S")
    assert extremum(op, 3, "max").value == 1.0


def test_lower_bound_constant():
    op = make_operator(constant(5.0), 1.0, "S")
    assert extremum(op, 1, "min").value == 1.0


def test_lower_bound_affine_window_edge():
    op = make_operator(affine(), 1.0, "S")
    est = extremum(op, 1, "min")
    assert est.value == pytest.approx(np.sqrt(66.0 / 65.0), abs=1e-12)
    assert est.window_limited
    assert est.arg == pytest.approx(64.0, abs=1e-9)


def test_lower_bound_exponential():
    op = make_operator(E2X, 1.0, "S")
    assert extremum(op, 2, "min").value == pytest.approx(np.exp(2.0), rel=1e-13)


def test_norm_not_window_limited_at_left_extremum():
    op = make_operator(affine(), 1.0, "S")
    est = extremum(op, 1, "max")
    assert not est.window_limited
    assert est.arg == pytest.approx(0.0, abs=1e-9)


def test_dual_kinds_require_left_invertibility():
    steep = parse_symbol("exp(0-16*x)")
    with pytest.raises(NotLeftInvertibleError):
        make_operator(steep, 1.0, "L", x_max=2.0)


def test_dual_semigroup_inverts_weight():
    op = make_operator(affine(), 1.0, "L_adjoint")
    out = apply(op, indicator(1.0, 2.0))
    assert out.values[0] == pytest.approx(np.sqrt(2.5 / 3.5), abs=1e-15)


@pytest.mark.parametrize("spec,t", [("affine", 1.0), ("reciprocal", 1.0), ("cap", 0.25), ("exp:a=2", 0.5)])
def test_L_adjoint_is_cauchy_dual(spec, t):
    # S_t* S_t multiplies by phi(x+t)/phi(x), so the Cauchy dual
    # S_t' = S_t (S_t* S_t)^{-1} is S_t after multiplying by phi(x)/phi(x+t)
    sym = parse_phi_spec(spec)
    f = random_step(np.random.default_rng(9), 0.0, 8 * t, 128, unit_norm=True)
    mids = f.midpoints()
    inverse_gram = f.with_values(f.values * eval_phi(sym, mids) / eval_phi(sym, mids + t))
    dual = apply(make_operator(sym, t, "S"), inverse_gram)
    assert norm(apply(make_operator(sym, t, "L_adjoint"), f) - dual) < 1e-13


def test_semigroup_law_random():
    rng = np.random.default_rng(3)
    for sym in (constant(1.0), affine(), E2X):
        f = random_step(rng, 0.0, 4.0, 4 * 256, unit_norm=True)
        st = make_operator(sym, 1.0, "S")
        ss = make_operator(sym, 0.5, "S")
        sts = make_operator(sym, 1.5, "S")
        res = norm(apply(st, apply(ss, f)) - apply(sts, f))
        if sym == constant(1.0):
            assert res == 0.0
        else:
            assert res < 1e-12


def test_adjoint_pairing_random():
    rng = np.random.default_rng(4)
    sym = affine()
    f = random_step(rng, 0.0, 4.0, 4 * 256)
    g = random_step(rng, 0.0, 4.0, 4 * 256)
    op = make_operator(sym, 1.0, "S")
    adj = OperatorHandle(sym, 1.0, "S_adjoint")
    assert abs(inner(apply(op, f), g) - inner(f, apply(adj, g))) < 1e-12


def test_left_inverse_random():
    rng = np.random.default_rng(5)
    for sym in (affine(), E2X):
        f = random_step(rng, 0.0, 4.0, 4 * 128, unit_norm=True)
        s = make_operator(sym, 1.0, "S")
        ell = make_operator(sym, 1.0, "L")
        assert norm(apply(ell, apply(s, f)) - f) < 1e-12


def test_analytic_support_marches_right():
    rng = np.random.default_rng(6)
    f = random_step(rng, 0.0, 2.0, 64)
    op = make_operator(affine(), 0.5, "S")
    for k in range(1, 9):
        img = apply_power(op, k, f)
        assert img.support[0] >= k * 0.5


def test_adjoint_kernel_iff():
    rng = np.random.default_rng(7)
    f = random_step(rng, 0.0, 3.0, 96)
    adj = OperatorHandle(affine(), 1.0, "S_adjoint")
    assert apply(adj, restrict_to_E(f, 1.0)).is_zero()
    tail = f.restrict(1.0, 3.0)
    assert norm(apply(adj, tail)) > 0


def test_diagonal_identity_L_Ladjoint():
    # L_t L_t* f = (phi(x)/phi(x+t)) f pointwise at midpoints
    rng = np.random.default_rng(8)
    f = random_step(rng, 0.0, 2.0, 128)
    sym = affine()
    ell = make_operator(sym, 1.0, "L")
    ladj = make_operator(sym, 1.0, "L_adjoint")
    out = apply(ell, apply(ladj, f))
    mids = f.midpoints()
    expect = f.with_values(f.values * eval_phi(sym, mids) / eval_phi(sym, mids + 1.0))
    assert norm(out - expect) < 1e-13


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_operator(affine(), 1.0, "T")


def _outcome(fn):
    """The result of fn, or the type of what it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - compared as data
        return type(exc)


@pytest.mark.parametrize("spec", ["const:1", "affine", "reciprocal", "cap", "exp:a=2", "expr:3-x"])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["L", "L_adjoint", "S"]),
    t=st.sampled_from([0.25, 1.0, 2.5, 0.3, 1 / 3]),
    m=st.sampled_from([1, 2, 3, 16]),
    ns=st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True),
    far=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_power_rows_equals_apply_power_row_by_row(spec, kind, t, m, ns, far, seed):
    # the table form of a power: row n of the model's lattice weight table
    # moves a lattice row between block n and E as apply_power(op, n, .)
    # does. L from block n and L_adjoint onto it multiply by W[n], bit for
    # bit where t and h = t/m are dyadic, and S onto block n divides by it,
    # to rounding. A row is refused exactly when apply_power raises on it;
    # far rows cross 3, where 3 - x turns non-positive, or 1024, where 2^x
    # overflows
    sym, h = parse_phi_spec(spec), t / m
    if far:
        n = int((1023.9 if spec == "exp:a=2" else 2.9) / t)
        ns = ns + [n, n + 1]
    exact = t not in (0.3, 1 / 3) and m != 3
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    op = OperatorHandle(sym, t, kind)
    for n in ns:
        block = np.arange(n * m, n * m + m + 1) * h
        with np.errstate(all="ignore"):
            ref = _outcome(lambda: apply_power(op, n, StepFunction(block if kind == "L" else _edges(t, m), vals)))
            w = _outcome(lambda: _weights(_model_weights(sym, t, m), n + 1)[n])
        if isinstance(ref, type):
            assert w is ref
            continue
        moved, edges = (vals / w, block) if kind == "S" else (vals * w, _edges(t, m) if kind == "L" else block)
        if exact and kind != "S":
            assert ref.breakpoints.tobytes() == edges.tobytes()
            assert ref.values.tobytes() == moved.tobytes()
        else:  # apply_power's edges x - n t, and so its midpoints, are off by ulps of (n + 1) t
            reach = np.finfo(float).eps * (n + 1) * t
            assert np.allclose(ref.breakpoints, edges, rtol=0.0, atol=4 * reach)
            assert np.allclose(ref.values, moved, rtol=8 * (np.finfo(float).eps + reach), atol=0.0)


def _weight_extrema_two_calls(symbol, t, ns, x_max, fits, checked, numerator_first=True):
    """_weight_extrema with two eval_phi calls per zoom level, the
    numerator's first as in phi_ratio, or else the denominator's."""
    nt = np.asarray(ns) * t
    shifted = np.array([kind in _NUM_SHIFTED for kind, _ in fits])

    def sample(grid):
        p0 = None
        for shift in nt:
            pn = eval_phi(symbol, grid + shift)
            if p0 is None:
                p0 = eval_phi(symbol, grid)
            up = np.sqrt(pn / p0) if shifted.any() else None
            down = None if shifted.all() else np.sqrt(p0 / pn)
            for s in shifted:
                yield up if s else down
        for kind in checked:
            make_operator(symbol, t, kind, x_max=x_max)

    lane_nt = np.repeat(nt, len(fits))
    lane_shifted = np.tile(shifted, nt.size)
    num = np.where(lane_shifted, lane_nt, 0.0)
    den = np.where(lane_shifted, 0.0, lane_nt)

    def refine(y):
        if numerator_first:
            return np.sqrt(phi_ratio(symbol, y, num, den))
        below = eval_phi(symbol, y + den)
        return np.sqrt(eval_phi(symbol, y + num) / below)

    found = sample_then_refine(sample, refine, [mode for _, mode in fits] * nt.size, x_max)
    return [[ExtremumEstimate(*est) for est in found[i :: len(fits)]] for i in range(len(fits))]


def _extrema_outcome(fn):
    """The repr of every estimate, its floats to the bit, or the class and
    message of what fn raised."""
    try:
        return repr(fn())
    except Exception as exc:  # noqa: BLE001 - compared as data
        return type(exc), str(exc)


@pytest.mark.parametrize("t", [0.25, 1 / 3, 1.0])
@pytest.mark.parametrize(
    "spec", ["const:1", "affine", "reciprocal", "cap", "exp:a=2", "exp2x", "expr:x+1", "expr:x^2+1"]
)
def test_weight_extrema_equals_two_phi_ratio_calls(spec, t):
    # one eval_phi over the stacked (num, den) points per zoom level: the
    # floats of two phi_ratio calls, to the bit
    sym = parse_phi_spec(spec)
    args = (sym, t, range(1, 33), window(t, None), SUMMARY_FITS + (("L", "max"),), ["L"])
    assert _extrema_outcome(lambda: _weight_extrema(*args)) == _extrema_outcome(lambda: _weight_extrema_two_calls(*args))


@pytest.mark.parametrize("t", [0.25, 1 / 3, 1.0])
@pytest.mark.parametrize(
    "spec", ["const:1", "affine", "reciprocal", "cap", "exp:a=2", "exp2x", "expr:x+1", "expr:x^2+1"]
)
def test_weight_extrema_beat_their_grid_and_a_fine_scan_of_the_bracket(spec, t):
    # oracle: no refined extremum falls behind its grid sample, and none is
    # more than 4 ulps behind the best of 4,097 evenly spaced points between
    # the grid neighbours of that sample, nor behind the best after two more
    # such scans between the neighbours of the best point (one scan is no
    # finer than 3 levels of the zoom)
    sym = parse_phi_spec(spec)
    x_max = window(t, None)
    fits = SUMMARY_FITS + (("L", "max"),)
    ns = range(1, 33)
    grid = np.linspace(0.0, x_max, SAMPLES)
    for (kind, mode), ests in zip(fits, _weight_extrema(sym, t, ns, x_max, fits, [])):
        sign = 1.0 if mode == "max" else -1.0
        for n, est in zip(ns, ests):
            num, den = (n * t, 0.0) if kind in _NUM_SHIFTED else (0.0, n * t)
            signed = lambda x: sign * np.sqrt(phi_ratio(sym, x, num, den))
            vals = signed(grid)
            i = int(np.argmax(vals))
            got = sign * est.value
            assert got >= vals[i]
            assert 0.0 <= est.arg <= x_max
            lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, SAMPLES - 1)]
            for _ in range(3):
                ys = np.linspace(lo, hi, 4097)
                scan = signed(ys)
                j = int(np.argmax(scan))
                assert got >= scan[j] - 4 * np.spacing(abs(scan[j]))
                lo, hi = ys[max(j - 1, 0)], ys[min(j + 1, 4096)]


def test_weight_extrema_refuses_a_dip_numerator_first():
    # phi > 0 at every sampled point x + n, x on the grid of [0, 64], but < 0
    # within 1.28e-4 of 20.0008, between grid points: only the refinement
    # reaches the dip. Within one zoom level the S max lanes meet it in
    # their denominator and the S min lanes in their numerator, at different
    # points, so the order of the rows decides the error. (A dual kind would
    # meet it first in the left-invertibility check, which both forms share.)
    sym = parse_phi_spec("expr:(x-20.0008)^2-1.6384e-8")
    fits = (("S", "max"), ("S", "min"))
    args = (sym, 1.0, range(1, 33), 64.0, fits, ["S"])
    got = _extrema_outcome(lambda: _weight_extrema(*args))
    assert got[0] is NonPositiveSymbolError
    assert got == _extrema_outcome(lambda: _weight_extrema_two_calls(*args))
    assert got != _extrema_outcome(lambda: _weight_extrema_two_calls(*args, numerator_first=False))
