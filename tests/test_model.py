import math
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import wtsemigroup.model as model_module
import wtsemigroup.operators as operators_module
from wtsemigroup import (
    DEFAULT_TOLERANCES,
    DiagonalKernel,
    EValuedPolynomial,
    LatticeError,
    NoClosedFormError,
    NonPositiveSymbolError,
    NumericError,
    OperatorHandle,
    OutsideConvergenceDomainError,
    StepFunction,
    TailBoundNotAchievedError,
    add_all,
    affine,
    apply,
    apply_power,
    block_decompose,
    constant,
    exponential,
    haar,
    indicator,
    inner,
    kernel_closed_form,
    kernel_preimage,
    kernel_series,
    make_kernel,
    make_operator,
    model_inverse,
    model_map,
    norm,
    norm_sq,
    parse_phi_spec,
    parse_symbol,
    parseval_defect,
    piecewise_cap,
    random_step,
    reciprocal,
    reproducing_check,
    restrict_to_E,
    zero,
)
import wtsemigroup.util as util_module
from wtsemigroup.symbols import Symbol, eval_phi
from wtsemigroup.util import TAIL_STREAK, sum_series

import oracles

E2X = exponential(np.exp(2.0))
EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# model map and inverse
# ---------------------------------------------------------------------------


def test_model_map_constant_in_E():
    p = model_map(constant(1.0), 1.0, indicator(0.0, 1.0))
    assert p.degree == 0
    assert norm(p.coeffs[0] - indicator(0.0, 1.0)) == 0.0


def test_model_map_monomial():
    p = model_map(constant(1.0), 1.0, indicator(1.0, 2.0))
    assert p.degree == 1
    assert p.coeffs[0].is_zero()
    assert norm(p.coeffs[1] - indicator(0.0, 1.0)) == 0.0
    assert model_map(affine(), 1.0, indicator(0.0, 3.0)).degree == 2


def test_model_map_haar_degree_zero():
    # supp psi_00 = [0,1) = [0,t): L^n reads past the support for n >= 1
    for sym in (constant(1.0), affine(), E2X):
        p = model_map(sym, 1.0, haar(0, 0))
        assert p.degree == 0


def test_model_map_covers_f_when_its_end_rounds_onto_a_block_edge():
    # g.hi = 0.011000000000000001 lies one ulp past 11 t, but g.hi / t
    # rounds to 11.0: the last block [11 t, g.hi) must still be mapped. g
    # sits on the lattice k t/64 to within an ulp, and comes back on it
    t = 0.001
    f = random_step(np.random.default_rng(0), 0.0, 2 * t, 128, unit_norm=True)
    g = apply_power(make_operator(affine(), t, "S"), 9, f)
    assert g.hi > 0.011 and g.hi / t == 11.0
    p = model_map(affine(), t, g)
    assert p.degree == 10
    back = model_inverse(affine(), t, p)
    assert back.breakpoints.tobytes() == (np.arange(576, 705) * (t / 64)).tobytes()
    assert np.allclose(back.breakpoints, g.breakpoints, rtol=2 * EPS, atol=0.0)
    assert np.allclose(back.values, g.values, rtol=4 * EPS, atol=0.0)


def test_roundtrip_exact_constant():
    f = indicator(0.0, 1.0)
    p = model_map(constant(1.0), 1.0, f)
    assert norm(model_inverse(constant(1.0), 1.0, p) - f) == 0.0


def test_roundtrip_affine_offset_cell():
    f = indicator(1.25, 1.5)
    p = model_map(affine(), 1.0, f)
    assert norm(model_inverse(affine(), 1.0, p) - f) < 1e-15


def test_roundtrip_random():
    rng = np.random.default_rng(0)
    f = random_step(rng, 0.0, 8.0, 8 * 64, unit_norm=True)
    for sym in (affine(), reciprocal(), piecewise_cap()):
        p = model_map(sym, 1.0, f)
        assert norm(model_inverse(sym, 1.0, p) - f) < 1e-14


@pytest.mark.parametrize("t", [0.1, 0.3, 1 / 3, 0.7, 1.0])
@pytest.mark.parametrize("m", [3, 100, 256])
def test_roundtrip_returns_the_breakpoints_of_f(t, m):
    # the lattice k h puts block n + 1 exactly where block n ends: no sliver
    # cells, and no loss, at non-dyadic t as at t = 1
    f = random_step(np.random.default_rng(m), 0.0, 32 * t, 32 * m, unit_norm=True)
    back = model_inverse(affine(), t, model_map(affine(), t, f))
    assert back.breakpoints.tobytes() == f.breakpoints.tobytes()
    assert norm(back - f) <= 1e-15


def test_roundtrip_keeps_an_end_that_falls_on_a_block_edge():
    # t = 1/3: the ragged passes cut block 20 at fl(20 t) + t < 7.0 and lost
    # the rest of f; on the lattice the round trip ends at 7.0
    t = 1 / 3
    f = random_step(np.random.default_rng(7), 0.0, 7.0, 21 * 16, unit_norm=True)
    back = model_inverse(affine(), t, model_map(affine(), t, f))
    assert back.hi == 7.0
    assert back.breakpoints.tobytes() == f.breakpoints.tobytes()
    assert norm(back - f) <= 1e-15


def test_model_passes_refuse_data_off_the_lattice():
    t, lam = 1.0, 0.3
    off = StepFunction(np.array([0.0, 0.25, 0.6]), np.array([1.0, 2.0]))  # 0.6 is not k/4
    e = indicator(0.0, t).subdivide(4)
    refused = {
        "lattice": (
            lambda: model_map(affine(), t, off),
            lambda: parseval_defect(affine(), t, off),
            lambda: reproducing_check(affine(), t, off, lam, e),
            lambda: kernel_preimage(affine(), t, lam, StepFunction(np.array([0.0, 0.3, 1.0]), np.array([1.0, 2.0]))),
            # e off f's lattice t/4: its cells are t/3 wide
            lambda: reproducing_check(affine(), t, random_step(np.random.default_rng(1), 0.0, 4 * t, 16), lam, indicator(0.0, t).subdivide(3)),
        ),
        "lie in E": (
            lambda: kernel_preimage(affine(), t, lam, indicator(0.0, 2 * t)),
            lambda: kernel_preimage(affine(), t, lam, indicator(0.5 * t, 1.5 * t).subdivide(2)),
            lambda: reproducing_check(affine(), t, indicator(0.0, 2 * t), lam, indicator(0.0, 2 * t).subdivide(8)),
        ),
        # a cell an ulp wide asks for more lattice cells a block than the bound
        "lattice cells a block": (
            lambda: model_map(affine(), t, StepFunction(np.array([0.0, 0.5, np.nextafter(0.5, 1.0)]), np.array([1.0, 2.0]))),
        ),
    }
    for message, calls in refused.items():
        for call in calls:
            with pytest.raises(LatticeError, match=message):
                call()


@pytest.mark.parametrize("spec", ["affine", "reciprocal", "cap", "exp:a=2"])
def test_model_map_blockwise_equals_whole_f(spec):
    # each coefficient is L^n of the whole of f, cut to E, at the non-dyadic
    # t = 0.3 as well: f on the lattice t/16, and a coarser f whose cells
    # are 2 and 3 lattice cells wide, weighted on the lattice cells
    sym, t = parse_phi_spec(spec), 0.3
    rng = np.random.default_rng(12)
    uniform = random_step(rng, 0.0, 40 * t, 40 * 16)
    k = np.concatenate([[0, 1], np.cumsum(rng.choice([2, 3], 300)) + 1])
    coarse = StepFunction(k[k <= 640] * (t / 16), [1.0, 1j] @ rng.standard_normal((2, k[k <= 640].size - 1)))
    op_l = make_operator(sym, t, "L")
    for f in (uniform, coarse):
        p = model_map(sym, t, f)
        assert len(p.coeffs) == 40
        for n, c in enumerate(p.coeffs):
            ref = restrict_to_E(apply_power(op_l, n, _on_lattice(f, t, 16)), t)
            assert_near_oracle(c, ref, model_module._midpoints(t, 16), n * t)


# ---------------------------------------------------------------------------
# the lattice passes against their row-by-row reference
# ---------------------------------------------------------------------------


def _on_lattice(f, t, m):
    """f with each cell split into its cells of the lattice k t/m."""
    k = np.rint(f.breakpoints / (t / m)).astype(int)
    return StepFunction(np.arange(k[0], k[-1] + 1) * (t / m), np.repeat(f.values, np.diff(k)))


def reference_model_map(symbol, t, f, blocks):
    """The coefficients of model_map as one apply_power per block, on the
    whole of f: restrict_to_E(L^n f), n < blocks."""
    op_l = make_operator(symbol, t, "L")
    return [restrict_to_E(apply_power(op_l, n, f), t) for n in range(blocks)]


def reference_model_inverse(symbol, t, coeffs):
    op_s = OperatorHandle(symbol, t, "S")
    return add_all(apply_power(op_s, n, c) for n, c in enumerate(coeffs) if not c.is_zero())


def reference_sum_series(term_fn, tol, n_cap=None):
    """util.sum_series as the sequential loop it replaced: one term_fn(n) per term."""
    n_cap = util_module.SERIES_CAP if n_cap is None else n_cap
    total = term_fn(0)
    prev = abs(total)
    ratios = []
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


def reference_kernel_preimage(symbol, t, lam, e, tol=1e-12):
    """kernel_preimage as a list of terms, one apply_power and scale each."""
    op = make_operator(symbol, t, "L_adjoint")
    lam_bar = np.conj(complex(lam))
    terms = []

    def term_norm(n):
        terms.append(apply_power(op, n, e).scale(lam_bar**n))
        return norm(terms[-1])

    reference_sum_series(term_norm, tol)
    return add_all(terms)


def reference_kernel_series(k, z, lam, x, tol=1e-10):
    """kernel_series as one term per call of the loop, from a phi table per
    call that doubles as the loop reaches its end."""
    q = complex(z) * np.conj(complex(lam))
    if abs(q) >= k.radius**2 * (1.0 - model_module.DOMAIN_MARGIN):
        raise OutsideConvergenceDomainError(
            f"|z conj(lambda)| = {abs(q):.6g} is not below "
            f"{k.radius**2 * (1.0 - model_module.DOMAIN_MARGIN):.6g} = radius^2 (1 - margin)"
        )
    n_cap = util_module.SERIES_CAP
    xv = float(x) + 0.0
    phi_x = eval_phi(k.symbol, xv)
    points = np.empty(0)
    den = []
    bad = 0

    def term(n):
        nonlocal points, den, bad
        if n == len(den):
            points = xv + np.arange(min(max(16, 2 * n), n_cap + 1)) * k.t
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                vals = k.symbol.values(points)
            refused = (points < 0) | ~(np.isfinite(vals) & (vals > 0))
            bad = int(np.argmax(refused)) if refused.any() else refused.size
            den = vals.tolist()
        if n >= bad:
            eval_phi(k.symbol, points[n])
        return complex(phi_x / den[n] * q**n)

    return reference_sum_series(term, tol, n_cap)


def assert_same_bytes(got, ref):
    assert np.array_equal(got.breakpoints, ref.breakpoints)
    assert got.breakpoints.tobytes() == ref.breakpoints.tobytes()
    assert got.values.tobytes() == ref.values.tobytes()


def assert_same_function(got, ref):
    """The same breakpoints, bit for bit, and equal values (an exact zero of
    either sign equals the other), once ref's exactly-zero edge cells are
    trimmed (add_all hands back a lone piece as it is)."""
    ref = ref.restrict(ref.lo, ref.hi)
    assert got.breakpoints.tobytes() == ref.breakpoints.tobytes()
    assert np.array_equal(got.values, ref.values)


def assert_near_oracle(got, ref, points, reach, ulps=8):
    """got and ref agree at the given lattice midpoints to within ulps
    roundings of each value, and of the position x + reach at which the
    row-by-row reference forms its weight: its edges x - reach are the
    lattice's only to within ulps of reach."""
    want = ref.values_at_left_edges(points)
    tol = ulps * (EPS + EPS * (reach + points)) * np.abs(want)
    assert np.all(np.abs(got.values_at_left_edges(points) - want) <= tol)


def outcome(fn):
    """The result of fn, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - compared as data
        return (type(exc), str(exc))


SPECS = ["const:1", "affine", "reciprocal", "cap", "exp:a=2", "exp2x", "expr:x^2+1"]
DYADIC = (1.0, 0.25)  # t at which the lattice t/m is dyadic for m a power of 2


@st.composite
def lattice_data(draw, t, m):
    """Step data on the lattice k h, h = t/m, one lattice cell a cell: from
    0, an h or a block and a half in, to a block edge or short of one, with
    exact zeros at the edges, inside or everywhere."""
    blocks = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.sampled_from([0, 0, 1, m + m // 2]))
    hi = max(blocks * m - draw(st.sampled_from([0, 0, 1, m // 2])), lo + 1)
    vals = rng.standard_normal(hi - lo) + 1j * rng.standard_normal(hi - lo)
    zeros = draw(st.sampled_from(["none", "edges", "all", "some"]))
    if zeros == "edges":
        vals[: rng.integers(1, 3)] = 0.0
        vals[-rng.integers(1, 3) :] = 0.0
    elif zeros == "all":
        vals[:] = 0.0
    elif zeros == "some":
        vals[rng.uniform(size=vals.size) < 0.3] = 0.0
    return StepFunction(np.arange(lo, hi + 1) * (t / m), vals)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=st.sampled_from(SPECS),
    t=st.sampled_from([0.3, 1 / 3, 0.7, 1.0, 0.25]),
    m=st.sampled_from([1, 3, 4, 16]),
    data=st.data(),
)
def test_model_passes_equal_row_by_row_reference(spec, t, m, data):
    # coefficient n is restrict_to_E(apply_power(L, n, f), t): bit for bit
    # where the lattice t/m is dyadic, and to within the rounding of the
    # reference's shifted edges elsewhere; the inverse is the sum of
    # apply_power(S, n, c_n), up to its division by the weights, and gives
    # back f on f's own breakpoints
    sym = parse_phi_spec(spec)
    f = zero() if data.draw(st.booleans()) else data.draw(lattice_data(t, m))
    exact = t in DYADIC and m != 3
    got = model_map(sym, t, f)
    k_hi = round(f.hi / (t / m)) if f.values.size else 0
    assert len(got.coeffs) == -(-k_hi // m)  # the blocks that cover f
    ref = reference_model_map(sym, t, f, len(got.coeffs))
    mu = model_module._midpoints(t, m)
    for n, (c, r) in enumerate(zip(got.coeffs, ref)):
        if exact:
            assert_same_bytes(c, r)
        else:
            assert_near_oracle(c, r, mu, n * t)
    assert got.degree == max((n for n, r in enumerate(ref) if not r.is_zero()), default=-1)
    back = model_inverse(sym, t, got)
    points = (np.arange(len(got.coeffs) * m) + 0.5) * (t / m)
    assert_near_oracle(back, reference_model_inverse(sym, t, ref), points, 0.0 if exact else points)
    trimmed = f.restrict(f.lo, f.hi)
    assert back.breakpoints.tobytes() == trimmed.breakpoints.tobytes()
    assert np.allclose(back.values, trimmed.values, rtol=4 * EPS, atol=0.0)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=st.sampled_from(["const:1", "affine", "reciprocal", "cap", "exp:a=2"]),
    t=st.sampled_from([0.3, 0.7, 1.0, 0.25]),
    frac=st.sampled_from([0.0, 0.3, 0.9]),
    angle=st.floats(0.0, 2 * np.pi),
    cells=st.sampled_from([1, 2, 3, 8, 16, 40]),
    shape=st.sampled_from(["E", "zero edges"]),
)
def test_kernel_preimage_equals_term_list(spec, t, frac, angle, cells, shape):
    # term n of the preimage is conj(lambda)^n apply_power(L*, n, e): the
    # same function bit for bit where the lattice t/cells is dyadic, and
    # to rounding elsewhere
    sym = parse_phi_spec(spec)
    e = indicator(0.0, t).subdivide(cells).scale(1 + 0.5j)
    if shape == "zero edges":
        vals = np.arange(1, cells + 1) * (1 + 0.5j)
        vals[[0, -1]] = 0.0
        e = e.with_values(vals)
    lam = frac * sym.model_disc_radius(t) * np.exp(1j * angle)
    got, ref = kernel_preimage(sym, t, lam, e), reference_kernel_preimage(sym, t, lam, e)
    if t in DYADIC and cells in (1, 2, 8, 16):
        assert_same_function(got, ref)
    else:
        points = (np.arange(round(ref.hi / (t / cells))) + 0.5) * (t / cells)
        assert_near_oracle(got, ref, points, points)


def lattice_blocks(f, t, m):
    """f on the lattice k t/m, cut into its blocks [n t, (n + 1) t) as step
    functions on that lattice, for as many blocks as cover f."""
    g = _on_lattice(f, t, m)
    k0 = round(g.lo / (t / m))
    vals = np.concatenate([np.zeros(k0, dtype=complex), g.values])
    vals = np.concatenate([vals, np.zeros(-vals.size % m, dtype=complex)])
    return [StepFunction(np.arange(n * m, (n + 1) * m + 1) * (t / m), v) for n, v in enumerate(vals.reshape(-1, m))]


def refusal(fn):
    """The point and the value of the NonPositiveSymbolError fn raises."""
    with pytest.raises(NonPositiveSymbolError) as info:
        fn()
    return info.value.x, info.value.value


@pytest.mark.parametrize("t, overlaps", [(1.0, False), (0.25, False), (0.1, True), (1 / 3, True)])
def test_model_sums_equal_the_global_merge(t, overlaps):
    # moved by the floats n t, as apply_power moves them, the blocks
    # [nt, (n+1)t) of the inverse overlap by an ulp at non-dyadic t, and
    # their global merge carries sliver cells; the lattice lays the blocks of
    # the inverse and of the preimage end to end at every t, and equals the
    # merge at every lattice midpoint (bit for bit, for the preimage, where
    # the blocks meet exactly)
    rng = np.random.default_rng(3)
    sym = affine()
    f = random_step(rng, 0.0, 32 * t, 32 * 16)
    e = random_step(rng, 0.0, t, 16)
    p = model_map(sym, t, f)
    op_s = OperatorHandle(sym, t, "S")
    blocks = [apply_power(op_s, n, c) for n, c in enumerate(p.coeffs) if not c.is_zero()]
    assert any(b.lo < a.hi for a, b in zip(blocks, blocks[1:])) == overlaps
    pre, ref_pre = kernel_preimage(sym, t, 0.5, e), reference_kernel_preimage(sym, t, 0.5, e)
    for got, ref in ((model_inverse(sym, t, p), add_all(blocks)), (pre, ref_pre)):
        lattice = np.arange(got.values.size + 1) * (t / 16)
        assert got.breakpoints.tobytes() == lattice.tobytes()
        points = lattice[:-1] + 0.5 * (t / 16)
        assert_near_oracle(got, ref, points, points)
    if not overlaps:
        assert_same_function(pre, ref_pre)


def test_model_passes_raise_the_first_error_of_the_block_loop():
    # phi = 3 - x passes the left-invertibility window [0, 64 t] = [0, 2.56]
    # and turns negative at 3: each pass raises the first error of its loop
    # over the lattice blocks, at the loop's point to within the rounding of
    # its shifted edges
    sym, t = parse_symbol("3-x"), 0.04
    f = StepFunction(np.linspace(0.0, 4.0, 801), np.linspace(1.0, 2.0, 800))
    op_l = make_operator(sym, t, "L")
    p = EValuedPolynomial(t, np.ones((90, 3)))
    e = indicator(0.0, t).subdivide(8)
    for got, ref in (
        (lambda: model_map(sym, t, f), lambda: [apply_power(op_l, n, b) for n, b in enumerate(lattice_blocks(f, t, 8))]),
        (lambda: model_inverse(sym, t, p), lambda: reference_model_inverse(sym, t, p.coeffs)),
        (lambda: kernel_preimage(sym, t, 0.99, e), lambda: reference_kernel_preimage(sym, t, 0.99, e)),
    ):
        assert refusal(got) == pytest.approx(refusal(ref), rel=0.0, abs=8 * EPS * 4.0)
    # 2^x overflows at x = 1024: the first block past it raises
    sym, t = parse_phi_spec("exp:a=2"), 0.5
    f = StepFunction(np.linspace(0.0, 1100.0, 2201), np.ones(2200))
    with pytest.warns(RuntimeWarning, match="overflow"):
        error = outcome(lambda: model_map(sym, t, f))
    assert error == (NonPositiveSymbolError, "symbol value inf at x=1024.25 violates positivity")


def test_kernel_preimage_builds_one_chunk_past_its_last_term(monkeypatch):
    # the term table grows by new rows only: the rows past the stopping
    # term are what is left of the first table, whose size |lambda| and tol
    # give, walked in blocks of at most _WALK_POINTS points, and no row is
    # evaluated twice
    sym = affine()
    make_operator(sym, 1.0, "L_adjoint")  # warms the left-invertibility cache: phi is then read by the table alone
    model_module._model_weights.cache_clear()
    built = []
    values = Symbol.values

    def counted_values(symbol, x):
        built.append(np.shape(x))
        return values(symbol, x)

    summed = []
    series = model_module.sum_series

    def counted_series(*args):
        result = series(*args)
        summed.append(result[1])
        return result

    monkeypatch.setattr(Symbol, "values", counted_values)
    monkeypatch.setattr(model_module, "sum_series", counted_series)
    kernel_preimage(sym, 1.0, 0.9 * np.exp(0.4j), indicator(0.0, 1.0).subdivide(256))
    assert summed == [260]
    assert built[0] == (256,)  # phi at the midpoints of E
    rows = [shape[0] for shape in built[1:]]
    assert built[1:] == [(n, 256) for n in rows]
    first, step = util_module._table_size(0.9, 1e-12), operators_module._WALK_POINTS // 256
    assert rows == [min(step, first - i) for i in range(0, first, step)] and sum(rows) < 260 + 64


def test_kernel_preimage_table_past_overflow():
    # 1,562 terms reach x = 937; the table of 2,048 rows reaches x > 1024,
    # where 2^x overflows: rows past the last summed term must not raise
    sym, t = parse_phi_spec("exp:a=2"), 0.6
    e = indicator(0.0, t).scale(1.0 / np.sqrt(t)).subdivide(16)
    lam = 0.98 * sym.model_disc_radius(t) * np.exp(0.3j)
    pre = kernel_preimage(sym, t, lam, e)
    assert pre.hi == pytest.approx(937.2, abs=1e-9)
    points = pre.midpoints()
    assert_near_oracle(pre, reference_kernel_preimage(sym, t, lam, e), points, points)
    # at t = 0.7 a summed term reaches the overflow: the one-term error is
    # raised, at the lattice midpoint (i + 1/2) t/16 + n t
    t = 0.7
    e = indicator(0.0, t).scale(1.0 / np.sqrt(t)).subdivide(16)
    lam = 0.98 * sym.model_disc_radius(t) * np.exp(0.3j)
    with pytest.raises(NonPositiveSymbolError) as info, pytest.warns(RuntimeWarning, match="overflow"):
        kernel_preimage(sym, t, lam, e)
    assert str(info.value) == "symbol value inf at x=1024.034375 violates positivity"


def test_kernel_preimage_refuses_a_term_that_is_not_finite():
    # phi = e^(-x) is accepted up to x = 745, where it underflows to 0, but
    # phi(x)/phi(x + n t) = e^n overflows from n = 710: the sum at 0.99 of
    # the radius e^(-t/2) reaches term 710 and raises a NumericError there
    sym, t = parse_phi_spec("expr:exp(0-x)"), 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        error = outcome(lambda: kernel_preimage(sym, t, 0.99 * np.exp(-t / 2), indicator(0.0, t).subdivide(4)))
    assert error == (NumericError, "term 710 of the kernel preimage is not finite")


@pytest.mark.parametrize("scale", [1e-170, 1e170])
def test_kernel_preimage_scales_with_e_and_tol(scale):
    # the preimage is linear in e, and tol bounds the norm of its tail: c e
    # at tol c tol0 sums the terms of e at tol0. Each term's norm is taken
    # as stepfun.norm takes it, so squares that underflow to 0 (c = 1e-170:
    # the sum stopped after 6 terms) or overflow (c = 1e170: 328 terms) do
    # not move the stop
    e = indicator(0.0, 1.0).subdivide(4)
    ref = kernel_preimage(affine(), 1.0, 0.9, e)
    got = kernel_preimage(affine(), 1.0, 0.9, e.scale(scale), tol=1e-12 * scale)
    assert ref.hi == got.hi == 260.0
    assert got.breakpoints.tobytes() == ref.breakpoints.tobytes()
    assert np.allclose(got.values / scale, ref.values, rtol=4 * EPS, atol=0.0)


def reference_preimage_terms(weights, lam, e, tol=1e-12):
    """model._preimage_terms as it was before the norms were read off the
    weight table: every term formed as a complex row and normed cell by
    cell, a row whose squares sum to 0 or inf rescaled by its largest
    modulus; returns the summed rows."""
    lam_bar = np.conj(complex(lam))
    widths = np.diff(model_module._edges(weights.t, e.size))
    rows, norms = [], np.empty(0)  # rows: the chunks of rows, in order

    def terms(size):
        nonlocal norms
        w = weights.rows(size)[norms.size :]
        with np.errstate(over="ignore", invalid="ignore"):
            new = e * w
            new *= np.power(lam_bar, np.arange(norms.size, norms.size + len(w)))[:, None]
            row_norms = np.sqrt((np.square(np.abs(new)) * widths).sum(axis=1))
            for i in np.flatnonzero((row_norms == 0.0) | (row_norms == np.inf)):
                s = np.abs(new[i]).max() or 1.0
                row_norms[i] = s * np.sqrt(np.sum((np.abs(new[i]) / s) ** 2 * widths))
        rows.append(new)
        norms = np.concatenate([norms, row_norms])
        finite = np.isfinite(norms)
        return norms if finite.all() else norms[: np.argmin(finite)]

    def replay(n):
        weights.raise_at(n)
        raise NumericError(f"term {n} of the kernel preimage is not finite")

    _, n_terms, _ = sum_series(terms, tol, lam_bar, replay)
    head = norms.size - len(rows[-1])
    return np.concatenate([*rows[:-1], rows[-1][: n_terms - head]]) if head else rows[0][:n_terms]


def reference_preimage(sym, t, lam, e, tol):
    """outcome() of kernel_preimage, as bytes, and of its number of terms,
    from the row-norm reference."""
    m = model_module._lattice(t, e)
    e_row = model_module._in_E(e, t, m)
    terms = outcome(lambda: reference_preimage_terms(model_module._model_weights(sym, t, m), lam, e_row, tol))
    if isinstance(terms, tuple):
        return terms, terms
    pre = model_module._trimmed(model_module._points(terms.size + 1, t, m), terms.reshape(-1))
    return model_outcome(lambda: pre), len(terms)


def finite_sum_data(sym, t, f, e):
    """The floats both sides of reproducing_check are built from: the weight
    rows of f's blocks, f's blocks, e on E's cells and the cell widths."""
    m = model_module._lattice(t, f, e)
    f_blocks = model_module._blocks(f, t, m)
    w = model_module._model_weights(sym, t, m).full(len(f_blocks))
    return w, f_blocks, model_module._in_E(e, t, m), np.diff(model_module._edges(t, m))


def reference_sides(sym, t, f, lam, e):
    """outcome() of both sides of reproducing_check as the finite sums over
    f's B blocks: (Uf)(lambda) paired with e, and f paired with the B rows
    conj(lambda)^n W[n] e, each formed as e times the weights, then scaled."""

    def sides():
        w, f_blocks, e_row, widths = finite_sum_data(sym, t, f, e)
        lhs = model_module._pair(model_module._evaluate(f_blocks * w, lam), e_row, widths)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = e_row * w
            rows *= np.power(np.conj(complex(lam)), np.arange(len(w)))[:, None]
        return lhs, model_module._pair(f_blocks, rows, widths)

    return outcome(sides)


def assert_near_the_exact_sum(chk, sym, t, f, lam, e):
    """Both sides of chk lie within oracles.reproducing_bound of the exact
    finite sum over f's blocks, the distance taken exactly."""
    data = finite_sum_data(sym, t, f, e)
    re, im = oracles.reproducing_sum(*data, lam)
    bound = Fraction(oracles.reproducing_bound(*data, lam))
    for side in (chk.lhs, chk.rhs):
        dr, di = Fraction(side.real) - re, Fraction(side.imag) - im
        within = dr * dr + di * di <= bound * bound
        assert within, f"{side!r} is off the exact {complex(re, im)!r} by more than {float(bound)!r}"


@pytest.mark.parametrize("spec", SPECS + ["expr:x+1"])
@pytest.mark.parametrize("m", [1, 4, 64, 256])
def test_preimage_equals_the_row_norm_reference(spec, m):
    # the norms read off the weight table stop every sum of kernel_preimage
    # at the term at which the complex rows' norms stop it, or raise the same
    # error, and the rows formed after the stop are the reference's, bit for
    # bit: at tol scaled with e, and at 1e-12 for e of modulus 1e-170, with e
    # of modulus 1, 1e-170 (squares that underflow) and 1e170 (that
    # overflow). Both sides of reproducing_check are the finite sums over
    # f's 16 blocks, the same floats as the reference's; where the
    # preimage's tail rule at 1e-12 held before row 16 (lambda = 0, and e of
    # modulus 1e-170, whose norms sit far below it), the right side once
    # stopped there, and both sides are held to the exact sum
    sym = parse_phi_spec(spec)
    rng = np.random.default_rng(m)
    # one step a wide lattice, for time; below t = 1/2 the first table, sized
    # from |lambda| alone, far outgrows the sum for 2^x
    for t in {1: (0.7, 1.0), 4: (0.7, 1.0), 64: (0.7,), 256: (1.0,)}[m]:
        radius = sym.model_disc_radius(t) or 1.0
        vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        vals[rng.uniform(size=m) < 0.25] = 0.0
        e = StepFunction(model_module._edges(t, m), vals)
        f = random_step(rng, 0.0, 16 * t, 16 * m)
        make_operator(sym, t, "L")  # both passes check L_t first; the reference reads the weights alone
        for frac in (0.0, 0.3, 0.9, 0.93):
            lam = frac * radius * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
            for scale in (1.0, 1e-170, 1e170):
                es = e.scale(scale)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    weights, e_row = model_module._model_weights(sym, t, m), model_module._in_E(es, t, m)
                    for tol in {1e-12 * scale, min(1e-12, 1e-12 * scale)}:  # at 1e170 the tail rule once read 1e-12 too
                        pre = model_outcome(lambda: kernel_preimage(sym, t, lam, es, tol))
                        n = outcome(lambda: len(model_module._preimage_terms(weights, lam, e_row, tol)))
                        assert (pre, n) == reference_preimage(sym, t, lam, es, tol), (t, frac, scale, tol)
                    chk = outcome(lambda: reproducing_check(sym, t, f, lam, es))
                    ref = reference_sides(sym, t, f, lam, es)
                    rule = outcome(lambda: len(model_module._preimage_terms(weights, lam, e_row, 1e-12)))
                assert repr(chk if isinstance(chk, tuple) else (chk.lhs, chk.rhs)) == repr(ref), (t, frac, scale)
                if not (isinstance(rule, int) and rule >= 16):
                    assert_near_the_exact_sum(chk, sym, t, f, lam, es)


@pytest.mark.parametrize(
    "spec, t, lam, summed, edge, want",
    [
        # W[n]^2 = e^(-n): its products with |e|^2 h underflow to 0 from
        # n = 744, where W is still positive, and the ratios phi(mu)/phi(mu + n)
        # themselves from n = 746, before the tail bound holds at 0.97 of the
        # radius e^(1/2)
        ("expr:exp(x-700)", 1.0, 0.97 * np.exp(0.5 + 0.7j), 751, 0.0, 751),
        # W[n]^2 = e^(6 n): the product of row 118, e^708 times t = 6,
        # overflows, and row 119's weights are inf
        ("expr:exp(0-x)", 6.0, 0.99 * np.exp(-3.0 + 0.7j), 120, np.inf, (NumericError, "term 119 of the kernel preimage is not finite")),
    ],
)
def test_preimage_rescales_the_rows_whose_products_leave_the_floats(spec, t, lam, summed, edge, want):
    # a row of finite positive weights whose product with |e|^2 h is 0 or
    # inf is divided by its largest cell first, and the sum stops where the
    # reference's stops
    sym, m = parse_phi_spec(spec), 4
    e = indicator(0.0, t).subdivide(m)
    weights, e_row = model_module._model_weights(sym, t, m), model_module._in_E(e, t, m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = outcome(lambda: len(model_module._preimage_terms(weights, lam, e_row, 1e-12)))
        ref = outcome(lambda: len(reference_preimage_terms(weights, lam, e_row)))
        w = weights.rows(summed)
        products = np.square(w) @ (np.abs(e_row) ** 2 * np.diff(model_module._edges(t, m)))
    assert got == ref == want
    assert ((products == edge) & np.isfinite(w).all(axis=1) & (w.min(axis=1) > 0)).any()
    if isinstance(want, int):
        assert model_outcome(lambda: kernel_preimage(sym, t, lam, e)) == reference_preimage(sym, t, lam, e, 1e-12)[0]


def test_reproducing_check_forms_only_the_rows_it_pairs(monkeypatch):
    # reproducing_check pairs f's 16 blocks with the weighted e directly: it
    # reaches neither the preimage's terms nor a series, and its cold weight
    # table holds the 16 rows of f's blocks; kernel_preimage sums and forms
    # all of its terms
    formed, summed = [], []
    terms, series = model_module._preimage_terms, model_module.sum_series

    def counted_terms(*args):
        rows = terms(*args)
        formed.append(len(rows))
        return rows

    def counted_series(*args):
        result = series(*args)
        summed.append(result[1])
        return result

    monkeypatch.setattr(model_module, "_preimage_terms", counted_terms)
    monkeypatch.setattr(model_module, "sum_series", counted_series)
    monkeypatch.setattr(util_module, "sum_series", counted_series)
    rng = np.random.default_rng(9)
    for spec, t, count in (("affine", 1.0, 260), ("reciprocal", 2.0, 316)):
        sym, m = parse_phi_spec(spec), 256
        lam = 0.9 * sym.model_disc_radius(t) * np.exp(0.4j)
        f, e = random_step(rng, 0.0, 16 * t, 16 * m), indicator(0.0, t).subdivide(m)
        formed.clear(), summed.clear()
        model_module._model_weights.cache_clear()
        chk = reproducing_check(sym, t, f, lam, e)
        assert (formed, summed) == ([], [])
        assert model_module._model_weights(sym, t, m)._table[0].shape == (16, m)
        assert_near_the_exact_sum(chk, sym, t, f, lam, e)
        assert kernel_preimage(sym, t, lam, e).hi == pytest.approx(count * t)
        assert (formed, summed) == ([count], [count])


def reference_model_map_table(sym, t, f):
    """model_map's table as it was built: a zero table, f's values spread
    over their lattice cells, then multiplied by the weight rows."""
    m = model_module._lattice(t, f)
    k = model_module._index(f, t, m)
    make_operator(sym, t, "L")
    table = np.zeros((-(-int(k[-1]) // m), m), dtype=complex)
    table.reshape(-1)[k[0] : k[-1]] = np.repeat(f.values, np.diff(k))
    table *= model_module._model_weights(sym, t, m).full(len(table))
    return table.tobytes()


SIGNED_ZEROS = np.array([0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, 1.5), complex(2.0, -0.0)])


@st.composite
def multi_cell_data(draw, t, m):
    """Step data on the lattice k h, h = t/m, whose cells span one or more
    lattice cells, at least one of them a single one: from 0, an h, a block
    and a half or a whole block in, to a block edge or short of one, with
    exact zeros of either sign."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.sampled_from([0, 1, m + m // 2, m]))
    widths = rng.choice([1, 1, 2, 3, 7], size=draw(st.integers(1, 40)))
    widths[rng.integers(widths.size)] = 1
    k = lo + np.concatenate([[0], np.cumsum(widths)])
    vals = rng.standard_normal(widths.size) + 1j * rng.standard_normal(widths.size)
    signed = rng.uniform(size=widths.size) < 0.3
    vals[signed] = rng.choice(SIGNED_ZEROS, size=signed.sum())
    return StepFunction(k * (t / m), vals)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=st.sampled_from(SPECS),
    t=st.sampled_from([0.3, 1 / 3, 0.7, 1.0, 0.25]),
    m=st.sampled_from([1, 3, 4, 16, 256]),
    data=st.data(),
)
def test_model_map_equals_the_zeroed_table_times_the_weights(spec, t, m, data):
    # the one product into the table writes the floats, signed zeros
    # included, of a zero table with f spread into it times the weights
    sym = parse_phi_spec(spec)
    f = data.draw(multi_cell_data(t, m))
    got = model_outcome(lambda: model_map(sym, t, f))
    assert got == outcome(lambda: reference_model_map_table(sym, t, f))


@pytest.mark.parametrize("spec", SPECS)
def test_model_inverse_divides_by_the_weights(spec):
    # block n of U^-1 p is row n divided by W[n], bit for bit, signed zeros
    # included (a product with the rounded reciprocal 1/W gives other zeros)
    sym, t, m = parse_phi_spec(spec), 0.7, 6
    rng = np.random.default_rng(12)
    table = rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m))
    table[rng.uniform(size=table.shape) < 0.3] = 0.0
    table.reshape(-1)[: SIGNED_ZEROS.size] = SIGNED_ZEROS
    table[-1, -1] = complex(-0.0, 1.0)  # the last row nonzero
    p = EValuedPolynomial(t, table)
    got = model_inverse(sym, t, p)
    values = p.table / model_module._model_weights(sym, t, m).full(len(table))
    ref = model_module._trimmed(model_module._points(values.size + 1, t, m), values.reshape(-1))
    assert (got.breakpoints.tobytes(), got.values.tobytes()) == (ref.breakpoints.tobytes(), ref.values.tobytes())


def test_reproducing_check_evaluates_phi_once_per_point(monkeypatch):
    # both sides read one table of weights: once the left-invertibility
    # check is cached, phi is evaluated once at the midpoints mu_i of E, and
    # once at each mu_i + n t of the rows the table builds, row 0 included:
    # the rows of f's 8 blocks, and none past them
    sym, t, m = affine(), 1.0, 16
    f = random_step(np.random.default_rng(3), 0.0, 8.0 * t, 8 * m, unit_norm=True)
    e = indicator(0.0, t).subdivide(m)
    make_operator(sym, t, "L")
    model_module._model_weights.cache_clear()
    seen = []
    values = Symbol.values

    def counted_values(symbol, x):
        seen.append(np.asarray(x, dtype=float).ravel())
        return values(symbol, x)

    monkeypatch.setattr(Symbol, "values", counted_values)
    reproducing_check(sym, t, f, 0.5, e)
    points = np.concatenate(seen)
    rows = points.size // m - 1
    assert rows == 8
    mu = (np.arange(m) + 0.5) * (t / m)
    assert np.array_equal(np.sort(points), np.sort(np.concatenate([mu, (mu + np.arange(rows)[:, None] * t).ravel()])))


# ---------------------------------------------------------------------------
# the model's cached weight tables
# ---------------------------------------------------------------------------


def model_outcome(fn):
    """outcome(fn) of a model pass, its result as bytes."""
    result = outcome(fn)
    if isinstance(result, EValuedPolynomial):
        return result.table.tobytes()
    if isinstance(result, StepFunction):
        return result.breakpoints.tobytes(), result.values.tobytes()
    return result if isinstance(result, tuple) else repr(result)


def model_passes(spec, t, m=16):
    """The four model passes on the lattice t/m, each a call with no argument:
    round trips of f on 6 and 40 blocks, preimages and reproducing checks at
    0.5 and 0.9 of the disc radius."""
    sym = parse_phi_spec(spec)
    radius = sym.model_disc_radius(t) or 1.0
    rng = np.random.default_rng(5)
    fs = [random_step(rng, 0.0, n * t, n * m) for n in (6, 40)]
    ps = [model_map(sym, t, f) for f in fs]
    e = indicator(0.0, t).subdivide(m)
    lams = [frac * radius * np.exp(2.1j) for frac in (0.5, 0.9)]
    calls = [lambda f=f: model_map(sym, t, f) for f in fs]
    calls += [lambda p=p: model_inverse(sym, t, p) for p in ps]
    calls += [lambda lam=lam: kernel_preimage(sym, t, lam, e) for lam in lams]
    calls += [lambda lam=lam: reproducing_check(sym, t, fs[0], lam, e) for lam in lams]
    return calls


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("t", [0.25, 0.3])
def test_model_passes_warm_equal_cold(spec, t):
    # each pass from an empty cache, then every pass again on the warm table
    # grown by the others, in two orders: the bytes must not change
    calls = model_passes(spec, t)
    cold = []
    for fn in calls:
        model_module._model_weights.cache_clear()
        cold.append(model_outcome(fn))
    model_module._model_weights.cache_clear()
    assert [model_outcome(fn) for fn in calls[::-1]] == cold[::-1]
    assert [model_outcome(fn) for fn in calls] == cold


def test_model_passes_evaluate_phi_once_per_lattice(monkeypatch):
    # a second pass on the same lattice reads the cached table: phi is
    # evaluated at no point, whichever pass built the table
    calls = model_passes("reciprocal", 0.3)
    model_module._model_weights.cache_clear()
    first = [model_outcome(fn) for fn in calls]
    seen = []
    values = Symbol.values

    def counted_values(symbol, x):
        seen.append(np.size(x))
        return values(symbol, x)

    monkeypatch.setattr(Symbol, "values", counted_values)
    assert [model_outcome(fn) for fn in calls[::-1]] == first[::-1]
    assert seen == []


def refused_pass_outcome(fn):
    """outcome(fn) with the warnings it raised, as (category, message) pairs."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = outcome(fn)
    return result, [(w.category, str(w.message)) for w in caught]


def test_refused_rows_raise_the_same_error_from_a_warm_table():
    # the table stops before a refused row and keeps no error: every pass
    # that needs the row evaluates it again and raises its error and warning,
    # cold, warm, and after a pass that read the table up to its stop
    sym, t = parse_symbol("3-x"), 0.04
    f = StepFunction(np.linspace(0.0, 4.0, 801), np.linspace(1.0, 2.0, 800))
    e = indicator(0.0, t).subdivide(8)
    passes = [lambda: model_map(sym, t, f), lambda: kernel_preimage(sym, t, 0.99, e)]
    # phi(mu) itself refused: the table is never made, and never cached
    passes.append(lambda: model_inverse(parse_symbol("x-0.01"), t, EValuedPolynomial(t, np.ones((2, 8)))))
    sym2, t2 = parse_phi_spec("exp:a=2"), 0.5
    g = StepFunction(np.linspace(0.0, 1100.0, 2201), np.ones(2200))
    passes.append(lambda: model_map(sym2, t2, g))  # 2^x overflows at x = 1024
    passes.append(lambda: reproducing_check(sym2, t2, g, 0.5, indicator(0.0, t2).subdivide(2)))
    for fn in passes:
        model_module._model_weights.cache_clear()
        cold = refused_pass_outcome(fn)
        assert isinstance(cold[0][0], type) and issubclass(cold[0][0], NonPositiveSymbolError)
        assert refused_pass_outcome(fn) == cold
        for other in passes:
            refused_pass_outcome(other)
        assert refused_pass_outcome(fn) == cold
    assert refused_pass_outcome(passes[3]) == (
        (NonPositiveSymbolError, "symbol value inf at x=1024.25 violates positivity"),
        [(RuntimeWarning, "overflow encountered in power")],
    )


def test_weight_rows_are_read_only():
    weights = model_module._model_weights(affine(), 1.0, 4)
    w = weights.full(6)
    with pytest.raises(ValueError, match="read-only"):
        w[0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        weights.rows(3)[1] *= 2.0
    column = model_module._kernel_ratios(affine(), 1.0, 0.25)
    with pytest.raises(ValueError, match="read-only"):
        column.rows(4)[0, 0] = 2.0


def test_model_passes_threads_share_one_table():
    # eight threads read one fresh cached table at once, growing it to
    # different lengths, up to and past its stop before x = 1024, where 2^x
    # overflows: every result and error is the one of a call on its own
    sym, t, m = parse_phi_spec("exp:a=2"), 0.5, 4
    radius = sym.model_disc_radius(t)
    rng = np.random.default_rng(8)
    e = indicator(0.0, t).subdivide(m)
    fs = [random_step(rng, 0.0, n * t, n * m) for n in (2, 64, 2048, 2100)]
    ps = [EValuedPolynomial(t, rng.standard_normal((n, m))) for n in (3, 500, 2049)]
    calls = [lambda f=f: model_map(sym, t, f) for f in fs]
    calls += [lambda p=p: model_inverse(sym, t, p) for p in ps]
    calls += [lambda frac=frac: kernel_preimage(sym, t, frac * radius * np.exp(0.7j), e) for frac in (0.3, 0.9, 0.99)]
    calls += [lambda: reproducing_check(sym, t, fs[1], 0.8 * radius, e)]
    want = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for fn in calls:
            model_module._model_weights.cache_clear()
            want.append(model_outcome(fn))
        assert any(isinstance(w[0], type) for w in want) and not all(isinstance(w[0], type) for w in want)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for rnd in range(10):
                model_module._model_weights.cache_clear()
                got, start = {}, threading.Barrier(8, timeout=60)

                def run(seed):
                    order = np.random.default_rng([rnd, seed]).permutation(len(calls))
                    start.wait()  # every thread meets the fresh table at once
                    got[seed] = {int(i): model_outcome(calls[i]) for i in order}

                threads = [threading.Thread(target=run, args=(seed,)) for seed in range(8)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
                    assert not th.is_alive()
                assert len(got) == 8
                for results in got.values():
                    assert all(results[i] == want[i] for i in range(len(calls)))
        finally:
            sys.setswitchinterval(interval)


def test_weight_rows_past_the_byte_limit_are_not_stored():
    # rows that would take a table's rows, x and phi(x) past _TABLE_BYTES
    # go to the pass that asked for them, unstored: a pass on 7 blocks gives
    # the bytes of a cold call, and leaves at most the 6 rows that fit
    sym, t, m = reciprocal(), 0.5, 2**15
    assert 8 * m * (6 + 2) == operators_module._TABLE_BYTES  # 6 rows of m cells, with x and phi(x), fill it
    rng = np.random.default_rng(6)
    f = random_step(rng, 0.0, 7 * t, 7 * m)
    model_module._model_weights.cache_clear()
    cold = model_outcome(lambda: model_map(sym, t, f))
    weights = model_module._model_weights(sym, t, m)
    assert len(weights._table[0]) == 0
    model_map(sym, t, random_step(rng, 0.0, 6 * t, 6 * m))  # 6 rows fit: stored
    assert len(weights._table[0]) == 6
    assert model_outcome(lambda: model_map(sym, t, f)) == cold
    assert len(weights._table[0]) == 6
    assert model_outcome(lambda: model_map(sym, t, f)) == cold


def test_kernel_column_past_the_byte_limit_keeps_no_rows(monkeypatch):
    # a limit below a column's own x and phi(x): the column stores no rows,
    # and every sum forms them afresh, to the same value, terms and tail
    k = kernel_for("expr:x^2+1", 0.5)
    model_module._kernel_ratios.cache_clear()
    want = kernel_series(k, 0.9, 0.9 * np.exp(2.0j), 0.2, 1e-14)
    model_module._kernel_ratios.cache_clear()
    monkeypatch.setattr(operators_module, "_TABLE_BYTES", 8)  # x and phi(x) alone take 16
    for _ in range(2):
        assert kernel_series(k, 0.9, 0.9 * np.exp(2.0j), 0.2, 1e-14) == want
        assert len(model_module._kernel_ratios(k.symbol, k.t, 0.2)._table[0]) == 0


def test_weight_cache_rebuilds_the_least_recently_used_table(monkeypatch):
    # 9 lattices through a cache of 8 tables: the least recently used one is
    # built again, one read since is not
    sym = affine()
    model_module._model_weights.cache_clear()
    for m in range(1, 9):
        model_map(sym, 1.0, indicator(0.0, 1.0).subdivide(m))
    model_inverse(sym, 1.0, EValuedPolynomial(1.0, np.ones((1, 1))))  # m = 1 is used again
    model_map(sym, 1.0, indicator(0.0, 1.0).subdivide(9))  # drops m = 2
    built = []
    init = operators_module.RatioRows.__init__

    def counted_init(self, symbol, t, x, **kwargs):
        built.append(np.size(x))
        init(self, symbol, t, x, **kwargs)

    monkeypatch.setattr(operators_module.RatioRows, "__init__", counted_init)
    for m in (1, 9, 2):
        model_map(sym, 1.0, indicator(0.0, 1.0).subdivide(m))
    assert built == [2]


def test_inverse_single_coefficient():
    # coefficient 1 = chi_[0,1) pulls back to e * chi_[1,2) for phi = e^{2x}
    p = EValuedPolynomial(1.0, [[0.0], [1.0]])
    f = model_inverse(E2X, 1.0, p)
    assert list(f.breakpoints) == [1.0, 2.0]
    assert f.values[0] == pytest.approx(np.e, rel=1e-14)


def test_coefficients_live_in_E():
    # each coefficient is a row of E's lattice cells, so it lies in [0, t];
    # a table that is not 2-d has no rows of E and is refused
    t = 0.3
    p = model_map(affine(), t, random_step(np.random.default_rng(8), 0.1 * t, 10 * t, 99))
    assert len(p.coeffs) == 10
    for c in p.coeffs:
        assert c.breakpoints[0] >= 0.0 and c.breakpoints[-1] <= t
    assert p.coeffs[-1].hi == t
    with pytest.raises(ValueError):
        EValuedPolynomial(1.0, [1.0, 2.0])


# ---------------------------------------------------------------------------
# the coefficient table against the coefficients of the block loop
# ---------------------------------------------------------------------------

GOLDEN_SPECS = SPECS + ["expr:x+1"]
EVAL_ULPS = 64  # rounding allowance of (Uf)(z), in units of EPS times evaluation_scale


def evaluation_scale(coeffs, z) -> float:
    """sum_n |z|^n ||c_n||, which bounds ||(Uf)(z)||; the rounding of the
    sum, and of its pairing with e, is a few EPS of it (times ||e||)."""
    return sum(abs(complex(z)) ** n * norm(c) for n, c in enumerate(coeffs))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=st.sampled_from(GOLDEN_SPECS),
    t=st.sampled_from([0.3, 1 / 3, 0.7, 1.0, 0.25]),
    m=st.sampled_from([1, 4, 6]),
    data=st.data(),
)
def test_coefficient_table_equals_block_loop(spec, t, m, data):
    # row n of the table is apply_power(L, n, .) of f's block n alone, and
    # both sides of the reproducing identity are, to rounding, the sum of
    # the per-coefficient pairings and the pairing of f with the preimage
    sym = parse_phi_spec(spec)
    f = zero() if data.draw(st.booleans()) else data.draw(lattice_data(t, m))
    got = model_map(sym, t, f)
    op_l = make_operator(sym, t, "L")
    ref = [restrict_to_E(apply_power(op_l, n, b), t) for n, b in enumerate(lattice_blocks(f, t, m))] if f.values.size else []
    assert len(got.coeffs) == len(ref)
    exact = t in DYADIC and m != 6
    mu = model_module._midpoints(t, m)
    for n, (a, b) in enumerate(zip(got.coeffs, ref)):
        if exact:
            assert_same_bytes(a, b)
        else:
            assert_near_oracle(a, b, mu, n * t)
    assert got.degree == max((n for n, c in enumerate(ref) if not c.is_zero()), default=-1)
    radius = sym.model_disc_radius(t) or 1.0
    lam = data.draw(st.sampled_from([0.0, 0.4, 0.8])) * radius * np.exp(1j * data.draw(st.floats(0, 6.3)))
    a = data.draw(st.integers(0, m - 1))
    b = data.draw(st.integers(a + 1, m))
    vals = 1.0 + np.arange(b - a) * (0.5 - 1j)  # distinct, so a cell read from the wrong place shows
    e = data.draw(st.sampled_from([StepFunction(np.arange(a, b + 1) * (t / m), vals), indicator(0.0, t), zero()]))
    chk = reproducing_check(sym, t, f, lam, e)
    e_fine = _on_lattice(e, t, m) if e.values.size else e
    lhs = complex(sum(inner(c, e_fine) * complex(lam) ** n for n, c in enumerate(got.coeffs)))
    pre = kernel_preimage(sym, t, lam, e_fine)
    assert abs(chk.lhs - lhs) <= EVAL_ULPS * EPS * evaluation_scale(got.coeffs, lam) * norm(e)
    assert abs(chk.rhs - inner(f, pre)) <= EVAL_ULPS * EPS * norm(f) * norm(pre)
    assert chk.diff == abs(chk.lhs - chk.rhs)


def test_coefficient_table_layout():
    # row n of the table is coefficient n on E's lattice cells [i h, (i+1) h),
    # h = t/m, without its exactly-zero edge cells; a zero row is zero()
    c1 = StepFunction([0.0, 0.125, 0.25, 0.375], [1.0, 0.0, 2j])
    c3 = indicator(0.125, 0.25)
    table = np.zeros((5, 4), dtype=complex)
    table[1, :3], table[3, 1] = (1.0, 0.0, 2j), 1.0
    p = EValuedPolynomial(0.5, table)
    assert p.degree == 3
    for a, b in zip(p.coeffs, (zero(), c1, zero(), c3, zero())):
        assert_same_bytes(a, b)
    with pytest.raises(ValueError):
        p.table[0, 0] = 3.0  # the table is read-only
    q = EValuedPolynomial(0.5, table[1:3])
    assert q.degree == 0 and q.coeffs[1].is_zero()
    back, ref = model_inverse(affine(), 0.5, q), reference_model_inverse(affine(), 0.5, q.coeffs)
    assert back.breakpoints.tobytes() == ref.breakpoints.tobytes()
    assert np.allclose(back.values, ref.values, rtol=4 * EPS, atol=0.0)


@st.composite
def polynomials(draw, t):
    """A table of up to 8 rows on E's lattice of 1, 3 or 7 cells, with exact
    zeros and zero rows, or the model map of lattice data on a symbol."""
    m = draw(st.sampled_from([1, 3, 7]))
    if draw(st.booleans()):
        return model_map(parse_phi_spec(draw(st.sampled_from(SPECS))), t, draw(lattice_data(t, m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(0, 8))
    table = rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m))
    table[rng.uniform(size=table.shape) < 0.2] = 0.0
    table[rng.uniform(size=rows) < 0.25] = 0.0
    return EValuedPolynomial(t, table)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    t=st.sampled_from([0.3, 1 / 3, 0.7, 1.0]),
    data=st.data(),
    modulus=st.sampled_from([0.3, 0.9, 1.0, 1.7]),
    angle=st.floats(0.1, 6.2),
)
def test_evaluate_sums_the_coefficients_at_every_point(t, data, modulus, angle):
    p = data.draw(polynomials(t))
    z = modulus * np.exp(1j * angle)
    g = model_module._evaluate(p.table, z)
    left = model_module._edges(t, p.table.shape[1])[:-1]
    terms = np.array([complex(z) ** n * c.values_at_left_edges(left) for n, c in enumerate(p.coeffs)]).reshape(-1, left.size)
    ref, scale = terms.sum(axis=0), np.abs(terms).sum(axis=0)
    assert g.shape == left.shape
    assert np.all(np.abs(g - ref) <= EVAL_ULPS * EPS * scale)


@settings(max_examples=40, deadline=None)
@given(t=st.sampled_from([0.3, 1.0]), data=st.data())
def test_evaluate_at_zero_is_the_constant_coefficient(t, data):
    p = data.draw(polynomials(t))
    g = model_module._evaluate(p.table, 0.0)
    left = model_module._edges(t, p.table.shape[1])[:-1]
    c0 = p.coeffs[0] if p.coeffs else zero()
    assert np.array_equal(g, c0.values_at_left_edges(left))


@pytest.mark.parametrize("z", [0.0, 0.5 - 0.25j, 3.0])
def test_evaluate_the_zero_polynomial_is_zero(z):
    for table in (np.zeros((0, 2)), np.zeros((2, 3)), [[0.0]]):
        g = model_module._evaluate(EValuedPolynomial(0.5, table).table, z)
        assert np.array_equal(g, np.zeros(np.shape(table)[1]))
    # the finiteness check runs over the whole table
    with pytest.raises(ValueError):
        EValuedPolynomial(0.3, [[1.0, 2.0], [3.0, np.inf]])


def test_refused_rows_raise_the_error_of_apply_power():
    # phi = 3 - x turns negative at x = 3: the first block whose weights
    # reach past 3 is refused, and apply_power on that block alone raises
    # there, to within the rounding of its shifted edges
    sym, t = parse_symbol("3-x"), 0.04
    f = StepFunction(np.linspace(0.0, 4.0, 801), np.linspace(1.0, 2.0, 800))
    op_l, op_s = make_operator(sym, t, "L"), OperatorHandle(sym, t, "S")
    blocks = lattice_blocks(f, t, 8)
    first = next(n for n, b in enumerate(blocks) if isinstance(outcome(lambda: apply_power(op_l, n, b)), tuple))
    error = refusal(lambda: model_map(sym, t, f))
    assert error == pytest.approx(refusal(lambda: apply_power(op_l, first, blocks[first])), rel=0.0, abs=8 * EPS * 4.0)
    assert refusal(lambda: reproducing_check(sym, t, f, 0.1, indicator(0.0, t))) == error
    c = indicator(0.0, t).subdivide(3)
    p = EValuedPolynomial(t, np.vstack([np.zeros((20, 3)), np.ones((70, 3))]))
    first = next(n for n in range(20, 90) if isinstance(outcome(lambda: apply_power(op_s, n, c)), tuple))
    error = refusal(lambda: model_inverse(sym, t, p))
    assert error == pytest.approx(refusal(lambda: apply_power(op_s, first, c)), rel=0.0, abs=8 * EPS * 4.0)


# ---------------------------------------------------------------------------
# unitarity
# ---------------------------------------------------------------------------


def test_parseval_pullback_exact():
    rng = np.random.default_rng(1)
    f = random_step(rng, 0.0, 16.0, 16 * 256, unit_norm=True)
    assert parseval_defect(affine(), 1.0, f)[0] < 1e-12


def test_parseval_gauss_second_order():
    rng = np.random.default_rng(2)
    f = random_step(rng, 0.0, 16.0, 16 * 128, unit_norm=True)
    _, e1 = parseval_defect(affine(), 1.0, f)
    _, e2 = parseval_defect(affine(), 1.0, f.subdivide(2))
    assert e2 < 1e-6
    assert np.log2(e1 / e2) > 1.8


def test_intertwining_shifts_coefficients():
    rng = np.random.default_rng(3)
    sym = affine()
    f = random_step(rng, 0.0, 8.0, 8 * 256, unit_norm=True)
    p = model_map(sym, 1.0, f)
    p_shift = model_map(sym, 1.0, apply(make_operator(sym, 1.0, "S"), f))
    assert norm(p_shift.coeffs[0]) == 0.0
    worst = max(
        norm(p_shift.coeffs[n] - p.coeffs[n - 1]) for n in range(1, len(p.coeffs) + 1)
    )
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# diagonal kernel
# ---------------------------------------------------------------------------


def test_kernel_szego_value():
    k = make_kernel(constant(1.0), 1.0)
    assert kernel_series(k, 0.5, 0.5, 0.0)[0] == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_kernel_scaled_szego_value():
    # 1 / (1 - a^{-t} z conj(lambda)) with a = e^2, t = 1, z = lambda = 1
    k = make_kernel(E2X, 1.0)
    assert k.radius == pytest.approx(np.e, rel=1e-15)
    expect = 1.0 / (1.0 - np.exp(-2.0))
    assert kernel_series(k, 1.0, 1.0, 0.0)[0] == pytest.approx(expect, abs=1e-9)
    assert kernel_closed_form(k, 1.0, 1.0, 0.0) == pytest.approx(expect, rel=1e-15)


def test_make_kernel_raises_when_the_exp_radius_overflows():
    with pytest.raises(NonPositiveSymbolError, match=r"value inf at x=1500\.0"):
        make_kernel(exponential(2.0), 3000.0)


def test_kernel_at_origin_is_one():
    for sym, t in ((constant(1.0), 1.0), (affine(), 1.0), (reciprocal(), 2.0)):
        k = make_kernel(sym, t)
        assert kernel_series(k, 0.0, 0.3, 0.1)[0] == 1.0 + 0j


def test_kernel_bergman_like_closed():
    # 1/(1-q) + (t/(x+1)) q/(1-q)^2 at q = 0.25, t = 2, x = 0
    k = make_kernel(reciprocal(), 2.0)
    assert kernel_closed_form(k, 0.5, 0.5, 0.0) == pytest.approx(
        4.0 / 3.0 + 8.0 / 9.0, rel=1e-15
    )
    assert kernel_series(k, 0.5, 0.5, 0.0)[0] == pytest.approx(20.0 / 9.0, abs=1e-9)


def test_kernel_szego_negative_lambda():
    k = make_kernel(constant(1.0), 1.0)
    assert kernel_closed_form(k, 0.9, -0.9, 0.0) == pytest.approx(1.0 / 1.81, rel=1e-15)
    assert kernel_series(k, 0.9, -0.9, 0.0)[0] == pytest.approx(1.0 / 1.81, abs=1e-9)


def test_kernel_cap_szego_branch_above_one():
    k = make_kernel(piecewise_cap(), 0.25)
    assert kernel_closed_form(k, 0.5, 0.5, 1.5) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert kernel_series(k, 0.5, 0.5, 1.5)[0] == pytest.approx(4.0 / 3.0, abs=1e-9)


@pytest.mark.parametrize(
    "sym,t",
    [
        (constant(1.0), 1.0),
        (affine(), 1.0),
        (reciprocal(), 2.0),
        (piecewise_cap(), 0.25),
        (exponential(2.0), 0.5),
    ],
)
def test_kernel_series_matches_closed_form(sym, t):
    # a fixed seed, so a failure replays; over seeds 0..999 the worst
    # difference of these cases was 1.01e-10, a hundredth of the bound
    k = make_kernel(sym, t)
    rng = np.random.default_rng(0)
    for _ in range(25):
        z = 0.9 * k.radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        lam = 0.9 * k.radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        x = rng.uniform(0.0, t)
        assert abs(kernel_series(k, z, lam, x)[0] - kernel_closed_form(k, z, lam, x)) < 1e-8


def test_kernel_domain_guard():
    k = make_kernel(constant(1.0), 1.0)
    with pytest.raises(OutsideConvergenceDomainError):
        kernel_series(k, 1.0, 1.0, 0.0)


def test_kernel_divergence_outside_radius():
    # the true radius is 1; a kernel that claims radius 2 lets the guard pass
    k = DiagonalKernel(constant(1.0), 1.0, 2.0)
    with pytest.raises(TailBoundNotAchievedError):
        kernel_series(k, 1.02, 1.03, 0.0)


def test_kernel_series_table_past_overflow():
    # 328 terms: the table of phi(x + n) holds 512, and e^(2x) overflows past
    # x = 355; entries that are never summed must not raise
    k = make_kernel(E2X, 1.0)
    z, lam = 0.9 * k.radius, k.radius * complex(0.6, 0.8)
    value, n_terms, tail = kernel_series(k, z, lam, 0.5, tol=1e-14)
    assert n_terms == 328 and tail < 1e-14
    assert abs(value - kernel_closed_form(k, z, lam, 0.5)) < 1e-12


def test_kernel_series_raises_at_first_non_positive_term():
    # phi = 3 - x turns negative at x + n t with n = 30, in the second table
    k = DiagonalKernel(parse_symbol("3-x"), 0.1, 10.0)
    with pytest.raises(NonPositiveSymbolError) as info:
        kernel_series(k, 0.99, 1.0, 0.05)
    assert info.value.x == 0.05 + 30 * 0.1
    assert info.value.value == 3.0 - (0.05 + 30 * 0.1)
    # a cap below n = 30 stops the sum before it reaches the bad point
    with pytest.MonkeyPatch.context() as mp, pytest.raises(TailBoundNotAchievedError):
        mp.setattr(util_module, "SERIES_CAP", 20)
        kernel_series(k, 0.99, 1.0, 0.05)


def test_kernel_preimage_raises_at_cap():
    # |lambda| = 0.9: five shrinking terms are needed before any tail bound
    e = indicator(0.0, 1.0)
    with pytest.MonkeyPatch.context() as mp, pytest.raises(TailBoundNotAchievedError):
        mp.setattr(util_module, "SERIES_CAP", 3)
        kernel_preimage(constant(1.0), 1.0, 0.9, e)


# ---------------------------------------------------------------------------
# the table-driven tail rule against its sequential loop, bit for bit
# ---------------------------------------------------------------------------


def same_result(got, ref):
    """Equal (value, n_terms, tail) by repr and type, or equal errors."""
    if isinstance(ref, tuple) and isinstance(ref[0], type):
        return got == ref
    return [type(v) for v in got] == [type(v) for v in ref] and repr(got) == repr(ref)


def series_outcome(fn):
    """outcome(fn), with the count and tail of a TailBoundNotAchievedError."""
    try:
        return fn()
    except TailBoundNotAchievedError as exc:
        return (type(exc), str(exc), exc.n_terms, repr(exc.tail_estimate))
    except Exception as exc:  # noqa: BLE001 - compared as data
        return (type(exc), str(exc))


@st.composite
def term_sequences(draw):
    """Terms n = 0, 1, ...: a drawn head with exact zeros, NaNs, exact
    repeats (ratio 1), halvings (so that streaks run inside the head, over
    its zeros and NaNs) and random entries, then a geometric tail that may
    not shrink."""
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    head = []
    kinds = ["zero", "nan", "repeat", "half", "random", "tiny"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=30)):
        if kind == "zero":
            head.append(0.0 if real else 0j)
        elif kind == "nan":
            head.append(math.nan if real else complex(math.nan, rng.standard_normal()))
        elif kind == "repeat" and head:
            head.append(head[-1])
        elif kind == "half" and head:
            head.append(head[-1] * 0.5)
        else:
            v = rng.standard_normal() * (1e-300 if kind == "tiny" else 1.0)
            head.append(v if real else complex(v, rng.standard_normal()))
    base = head[-1] if head and abs(head[-1]) > 0 else (0.7 if real else 0.7 - 0.2j)  # neither 0 nor NaN
    ratio = draw(st.sampled_from([0.0, 0.3, 0.9, 0.999, 1.0, 1.001]))
    if not real:
        ratio = ratio * complex(np.cos(1.3), np.sin(1.3))
    h = len(head)
    return lambda n: head[n] if n < h else base * ratio ** (n - h + 1)


def q_of_first_size(size, tol):
    """A |q| in [0, 1] at which sum_series' first table holds size terms, if
    any does: bisection on |q|, along which the first size grows."""
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if util_module._table_size(mid, tol) < size else (lo, mid)
    return hi


@settings(max_examples=150, deadline=None)
@given(
    term=term_sequences(),
    tol=st.sampled_from([0.0, 1e-18, 1e-12, 1e-6, 0.5, np.inf]),
    cap=st.sampled_from([None, 5, 6, 40, 300]),
    end=st.one_of(st.none(), st.integers(0, 80)),
    size=st.sampled_from([16, 23, 200]),
    step=st.sampled_from([None, 1, 7]),
)
def test_sum_series_equals_the_loop(term, tol, cap, end, size, step):
    # end: a table ends before term `end`, which cannot be formed; the loop
    # raises there, and sum_series reports the terms it saw instead.
    # size: the first table's, from q; tol 0 and inf give 16 at every q.
    # step: the table grows by at most step terms a call
    q = q_of_first_size(size, tol)
    assume(util_module._table_size(q, tol) == size)
    def term_fn(n):
        if end is not None and n >= end:
            raise ArithmeticError(f"term {n}")
        return term(n)

    assume(step is None or cap is not None)  # a call per step up to 10,001 terms is slow
    table = []

    def terms(k):
        k = k if step is None else min(k, len(table) + step)
        table.extend(term(n) for n in range(len(table), k))
        return np.array(table[: k if end is None else min(k, end)])

    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(util_module, "SERIES_CAP", cap)
        ref = series_outcome(lambda: reference_sum_series(term_fn, tol))
        got = series_outcome(lambda: sum_series(terms, tol, q))
    if ref[0] is ArithmeticError:
        assert got[0] is TailBoundNotAchievedError and got[2] == end
    else:
        assert same_result(got, ref)


KERNEL_SPECS = ["const:1", "affine", "reciprocal", "cap", "exp:a=2", "exp2x", "expr:x+1", "expr:x^2+1"]


def kernel_for(spec, t):
    sym = parse_phi_spec(spec)
    radius = sym.model_disc_radius(t)
    return DiagonalKernel(sym, t, 1.0 if radius is None else radius)


def reference_closed_form(k, z, lam, x):
    """kernel_closed_form's two_isometry branch with its residual summed by the loop."""
    q = complex(z) * np.conj(complex(lam))
    residual, _, _ = reference_sum_series(
        lambda n: complex((n * k.t / (x + 1.0 + n * k.t)) * q**n), model_module.CLOSED_FORM_TOL
    )
    return 1.0 / (1.0 - q) - residual


@settings(max_examples=300, deadline=None)
@given(
    spec=st.sampled_from(KERNEL_SPECS),
    t=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    x_frac=st.sampled_from([0.0, 0.3, 0.999]),
    q_frac=st.sampled_from([0.0, 1e-320, 0.3, 0.9, 0.99999999]),
    where=st.sampled_from(["lambda = 0", "z = 0", "both", "general"]),
    angles=st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi)),
    tol=st.sampled_from([1e-6, 1e-10, 1e-14, 1e-18]),
    clear=st.booleans(),
)
@example(spec="exp2x", t=1.0, x_frac=0.0, q_frac=0.99, where="general", angles=(0.0, 0.0), tol=1e-10, clear=True)
def test_kernel_series_equals_the_loop(spec, t, x_frac, q_frac, where, angles, tol, clear):
    # |q| = q_frac of the guard radius^2 (1 - DOMAIN_MARGIN)
    k = kernel_for(spec, t)
    x = x_frac * t
    size = k.radius * np.sqrt(q_frac * (1.0 - model_module.DOMAIN_MARGIN))
    z, lam = size * np.exp(1j * angles[0]), size * np.exp(1j * angles[1])
    if where in ("z = 0", "both"):
        z = 0.0
    if where in ("lambda = 0", "both"):
        lam = 0.0
    if clear:
        model_module._kernel_ratios.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = series_outcome(lambda: reference_kernel_series(k, z, lam, x, tol))
        got = series_outcome(lambda: kernel_series(k, z, lam, x, tol))
    assert same_result(got, ref)
    if spec == "affine" and not isinstance(ref[0], type):
        cf, ref_cf = kernel_closed_form(k, z, lam, x), reference_closed_form(k, z, lam, x)
        assert repr(cf) == repr(ref_cf)


def test_kernel_series_cache_hit_equals_miss():
    # one x, calls with different z, lambda and tol, in two orders and each
    # from an empty cache: the column's length must not change a result
    k = kernel_for("expr:x^2+1", 0.5)
    calls = [
        (0.3, 0.2 + 0.1j, 1e-6),
        (0.9, 0.9 * np.exp(2.0j), 1e-18),
        (0.0, 0.5, 1e-10),
        (0.97, 0.97, 1e-14),
        (0.5j, 0.0, 1e-12),
        (0.6, -0.6j, 1e-8),
    ]
    want = [series_outcome(lambda: reference_kernel_series(k, z, lam, 0.2, tol)) for z, lam, tol in calls]
    for order in (calls, calls[::-1]):
        model_module._kernel_ratios.cache_clear()
        for z, lam, tol in order:
            got = series_outcome(lambda: kernel_series(k, z, lam, 0.2, tol))
            assert same_result(got, want[calls.index((z, lam, tol))])
    for (z, lam, tol), ref in zip(calls, want):
        model_module._kernel_ratios.cache_clear()
        assert same_result(series_outcome(lambda: kernel_series(k, z, lam, 0.2, tol)), ref)


def test_kernel_series_overflow_raises_the_loop_error_and_warning():
    # e^(2x) overflows at x = 355 before the tail rule holds at |q| ~ 0.94 radius^2
    k = make_kernel(E2X, 1.0)
    model_module._kernel_ratios.cache_clear()
    seen = []
    for fn in (reference_kernel_series, kernel_series):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            error = series_outcome(lambda: fn(k, 2.5552, 2.718281828, 0.0))
        seen.append((error, [(w.category, str(w.message)) for w in caught]))
    assert seen[0] == seen[1]
    assert seen[0][0] == (NonPositiveSymbolError, "symbol value inf at x=355.0 violates positivity")
    assert seen[0][1] == [(RuntimeWarning, "overflow encountered in power")]


def test_kernel_series_threads_share_one_column():
    # eight threads grow one fresh cached column to different lengths at
    # once, up to and past its stop before x = 355, where e^(2x) overflows:
    # every result and error is the one of a call on its own
    k = make_kernel(E2X, 1.0)
    calls = [(z, 1.0, 0.1, tol) for z in (0.5, 3.0, 6.0, 6.84, 6.95) for tol in (1e-6, 1e-10, 1e-14)]
    want = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for args in calls:
            model_module._kernel_ratios.cache_clear()
            want.append(series_outcome(lambda: kernel_series(k, *args)))
        assert any(isinstance(w[0], type) for w in want) and not all(isinstance(w[0], type) for w in want)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for rnd in range(10):
                model_module._kernel_ratios.cache_clear()
                got, start = {}, threading.Barrier(8, timeout=60)

                def run(seed):
                    order = np.random.default_rng([rnd, seed]).permutation(len(calls))
                    start.wait()  # every thread meets the fresh column at once
                    got[seed] = {int(i): series_outcome(lambda: kernel_series(k, *calls[i])) for i in order}

                threads = [threading.Thread(target=run, args=(seed,)) for seed in range(8)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
                    assert not th.is_alive()
                assert len(got) == 8
                for results in got.values():
                    assert all(same_result(results[i], want[i]) for i in range(len(calls)))
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0, 0.0])
def test_make_kernel_refuses_a_radius_that_is_not_positive_and_finite(radius):
    # a NaN radius turned the domain guard off: kernel_series then formed
    # 10,001 terms before it raised TailBoundNotAchievedError
    with pytest.raises(OutsideConvergenceDomainError, match="radius must be positive and finite"):
        make_kernel(parse_symbol("x+2"), 1.0, radius=radius)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0, 0.0])
def test_diagonal_kernel_refuses_a_radius_that_is_not_positive_and_finite(radius):
    # built directly, a NaN radius switched the domain guard off and
    # kernel_series formed 10,001 terms before TailBoundNotAchievedError
    with pytest.raises(OutsideConvergenceDomainError, match="radius must be positive and finite"):
        DiagonalKernel(constant(1.0), 1.0, radius)


@pytest.mark.parametrize("t", [math.inf, math.nan, 0.0, -1.0])
def test_diagonal_kernel_refuses_a_step_that_is_not_positive_and_finite(t):
    # t = inf formed inf * 0 in the phi column: a RuntimeWarning, then a value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="t must be positive and finite"):
            DiagonalKernel(constant(1.0), t, 1.0)
        with pytest.raises(ValueError, match="t must be positive and finite"):
            make_kernel(constant(1.0), t, radius=1.0)


def test_kernel_no_closed_form_for_expression():
    sym = parse_symbol("x+2")
    k = make_kernel(sym, 1.0, radius=1.0)
    with pytest.raises(NoClosedFormError):
        kernel_closed_form(k, 0.1, 0.1, 0.0)


def test_kernel_diagonality():
    # preimage of k(., lambda) e stays orthogonal to E-vectors disjoint from e
    e = indicator(0.0, 0.5)
    e_prime = indicator(0.5, 1.0)
    pre = kernel_preimage(affine(), 1.0, 0.4, e)
    assert inner(pre, e_prime) == 0j


# ---------------------------------------------------------------------------
# reproducing property and adjoint eigenvectors
# ---------------------------------------------------------------------------


def test_reproducing_constant_in_E():
    chk = reproducing_check(constant(1.0), 1.0, indicator(0.0, 1.0), 0.3, indicator(0.0, 1.0))
    assert chk.lhs == pytest.approx(1.0, abs=1e-12)
    assert chk.rhs == pytest.approx(1.0, abs=1e-12)


def test_reproducing_constant_monomial():
    chk = reproducing_check(constant(1.0), 1.0, indicator(1.0, 2.0), 0.3, indicator(0.0, 1.0))
    assert chk.lhs == pytest.approx(0.3, abs=1e-12)
    assert chk.rhs == pytest.approx(0.3, abs=1e-12)


def test_reproducing_exponential_two_routes():
    chk = reproducing_check(E2X, 1.0, indicator(1.0, 2.0), 0.5, indicator(0.0, 1.0))
    assert chk.diff < 1e-9
    assert chk.lhs == pytest.approx(0.5 * np.exp(-1.0), rel=1e-12)


def test_reproducing_random_function():
    rng = np.random.default_rng(4)
    f = random_step(rng, 0.0, 8.0, 8 * 128, unit_norm=True)
    e = indicator(0.0, 1.0).subdivide(128)
    chk = reproducing_check(affine(), 1.0, f, 0.35 + 0.2j, e)
    assert chk.diff < 1e-9


def pairing_bound(f, g) -> float:
    """EVAL_ULPS roundings of the sum of |f| |g| over cells, which is at
    most norm(f) norm(g)."""
    return EVAL_ULPS * EPS * norm(f) * norm(g)


@pytest.mark.parametrize("spec", GOLDEN_SPECS)
@pytest.mark.parametrize("t", [0.1, 0.25, 1 / 3, 1.0])
def test_reproducing_rhs_pairs_the_whole_preimage(spec, t):
    # the right side pairs f, on and off block edges, with the preimage on
    # the lattice of f and e: what inner(f, kernel_preimage) gives, to rounding
    sym = parse_phi_spec(spec)
    radius = sym.model_disc_radius(t) or 1.0
    rng = np.random.default_rng(11)
    fs = (
        random_step(rng, 0.0, 6 * t, 6 * 16),  # f.hi on a block edge
        random_step(rng, 0.75 * t, 4.5 * t, 60),  # f.lo and f.hi off one
    )
    es = (
        indicator(0.0, t).subdivide(8),
        StepFunction(np.linspace(0.0, t, 9), [0.0, 1.0, 2j, 3.0, -1.0, 0.5, 1j, 0.0]),  # zero edge cells
    )
    for f in fs:
        for e in es:
            for lam in (0.0, 0.9 * radius * np.exp(2.1j)):
                chk = reproducing_check(sym, t, f, lam, e)
                whole = kernel_preimage(sym, t, lam, e.subdivide(2))  # on f's lattice t/16
                assert abs(chk.rhs - inner(f, whole)) <= pairing_bound(f, whole)


def test_reproducing_rhs_falls_back_to_the_whole_preimage():
    # e = 1e-300 and lambda = 1e-25: every term past the first underflows to
    # zero cells, so the preimage ends at 1, before f.hi = 2; the right side
    # still pairs f with the whole of it
    sym, t, lam = constant(1.0), 1.0, 1e-25
    e = indicator(0.0, t, 1e-300).subdivide(4)
    f = random_step(np.random.default_rng(2), 0.0, 2.0, 8)
    chk = reproducing_check(sym, t, f, lam, e)
    whole = kernel_preimage(sym, t, lam, e)
    assert whole.hi == 1.0
    assert chk.rhs != 0.0 and abs(chk.rhs - inner(f, whole)) <= 8 * EPS * abs(inner(f, whole))


@pytest.mark.parametrize("scale", [1.0, 1e-170, 1e170])
@pytest.mark.parametrize("spec", GOLDEN_SPECS)
def test_reproducing_check_is_within_rounding_of_the_exact_sum(spec, scale):
    # both sides are the finite sum over f's 16 blocks, to within the
    # rounding bound of the exact sum over the same floats, for any scale of
    # e and any lambda. At e x 1e-170 the right side once stopped where the
    # preimage's tail rule, read against an absolute 1e-12, held: after 6
    # of the 16 blocks, up to 60% off
    sym = parse_phi_spec(spec)
    rng = np.random.default_rng(31)
    for t, m in ((1.0, 16), (0.3, 8)):
        radius = sym.model_disc_radius(t) or 1.0
        e = StepFunction(model_module._edges(t, m), rng.standard_normal(m) + 1j * rng.standard_normal(m)).scale(scale)
        f = random_step(rng, 0.0, 16 * t, 16 * m)
        for frac in (0.0, 0.3, 0.9, 0.93):
            lam = frac * radius * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
            assert_near_the_exact_sum(reproducing_check(sym, t, f, lam, e), sym, t, f, lam, e)


def test_model_results_are_read_only_and_the_coefficients_views():
    f = random_step(np.random.default_rng(6), 0.0, 3.0, 48)
    p = model_map(affine(), 1.0, f)
    assert not p.table.flags.writeable
    for c in p.coeffs:
        assert not (c.breakpoints.flags.writeable or c.values.flags.writeable)
        assert np.shares_memory(c.values, p.table)
    lone = EValuedPolynomial(1.0, np.vstack([np.zeros(16), p.table[1]]))
    e = indicator(0.0, 1.0).subdivide(4)
    tables = (f.breakpoints, f.values, p.table, lone.table, e.breakpoints, e.values)
    for g in (model_inverse(affine(), 1.0, p), model_inverse(affine(), 1.0, lone), kernel_preimage(affine(), 1.0, 0.5, e)):
        assert not (g.breakpoints.flags.writeable or g.values.flags.writeable)
        assert not any(np.shares_memory(a, b) for a in (g.breakpoints, g.values) for b in tables)


def test_polynomial_copies_the_arrays_it_is_given():
    table = np.array([[1.0, 2j]])
    p = EValuedPolynomial(1.0, table)
    table[0, 0] = 99.0
    assert p.table.tolist() == [[1.0, 2j]] and p.coeffs[0].values.tolist() == [1.0, 2j]
    assert not p.table.flags.writeable and not np.shares_memory(p.table, table)


@pytest.mark.parametrize(
    "t,table",
    [
        (1.0, [1.0, 2j]),  # a flat table: rows of E must be 2-d
        (1.0, np.ones((1, 2, 2))),
        (1.0, [[math.nan, 1.0]]),
        (1.0, [[1.0], [math.inf]]),
        (1.0, np.zeros((2, 0))),  # rows shorter than one cell of E
        (-1.0, [[1.0]]),  # a negative step
        (math.inf, [[1.0]]),
        (1.0, [["1", "x"]]),  # entries that are not floats
    ],
    ids=["2-d", "3-d", "nan", "inf", "short", "negative", "infinite t", "float"],
)
def test_polynomial_refuses_malformed_tables(t, table):
    with pytest.raises(ValueError):
        EValuedPolynomial(t, table)


def test_polynomial_holds_integer_tables_as_floats():
    # the table is complex whatever it is given as, so model_inverse divides
    # it by the float weights as it divides a complex one
    p = EValuedPolynomial(1.0, [[0], [2]])
    assert p.table.dtype == complex
    ref = EValuedPolynomial(1.0, [[0.0], [2.0 + 0j]])
    assert_same_bytes(model_inverse(affine(), 1.0, p), model_inverse(affine(), 1.0, ref))


def test_model_map_tables_are_exactly_sized():
    # 256 blocks of 256 cells: one (blocks, m) table, the product of f's
    # blocks and the weights, with no base array behind it
    f = random_step(np.random.default_rng(11), 0.0, 256.0, 256 * 256)
    p = model_map(affine(), 1.0, f)
    assert p.table.shape == (256, 256) and p.table.base is None
    assert p.degree == 255


def test_reproducing_near_disc_boundary():
    # |lambda| = 0.99 of the disc radius: the whole preimage series sums
    # 2,831 terms, of which the check sums the 16 that meet f's blocks
    sym, t = affine(), 1.0
    rng = np.random.default_rng(5)
    f = random_step(rng, 0.0, 16 * t, 16 * 256, unit_norm=True)
    e = indicator(0.0, t).scale(1.0 / np.sqrt(t)).subdivide(256)
    lam = 0.99 * sym.model_disc_radius(t) * np.exp(0.7j)
    chk = reproducing_check(sym, t, f, lam, e)
    assert chk.diff <= DEFAULT_TOLERANCES["reproducing"]


@pytest.mark.parametrize("t, frac", [(0.3, 0.9), (0.5, 0.99)])
def test_reproducing_check_builds_only_the_weights_of_f_blocks(monkeypatch, t, frac):
    # exp:a=2 on 16 blocks of 256 cells. At t = 0.3 and 0.9 of the radius
    # (|lambda| = 0.9986) the first table of the whole series asked for the
    # capped 10,001 rows, and phi was evaluated at 5.1 million points; at
    # t = 0.5 and 0.99 of it the series reached 2^x's overflow at x = 1024
    # and raised. The check builds the 16 rows of f's blocks, phi(mu) and
    # nothing more, and returns
    sym, m = parse_phi_spec("exp:a=2"), 256
    f = random_step(np.random.default_rng(5), 0.0, 16 * t, 16 * m, unit_norm=True)
    e = indicator(0.0, t).scale(1.0 / np.sqrt(t)).subdivide(m)
    lam = frac * sym.model_disc_radius(t) * np.exp(0.7j)
    make_operator(sym, t, "L")
    model_module._model_weights.cache_clear()
    seen, values = [], Symbol.values

    def counted_values(symbol, x):
        seen.append(np.size(x))
        return values(symbol, x)

    monkeypatch.setattr(Symbol, "values", counted_values)
    chk = reproducing_check(sym, t, f, lam, e)
    assert sum(seen) <= 17 * m
    assert chk.diff <= DEFAULT_TOLERANCES["reproducing"]


def test_kernel_preimage_past_the_overflow_still_raises():
    # whether the series of k(., lambda) e converges stays kernel_preimage's
    # question: at 0.99 of the radius for exp:a=2 at t = 0.5 its sum reaches
    # the rows past x = 1024, where 2^x overflows (ROADMAP item 3)
    sym, t = parse_phi_spec("exp:a=2"), 0.5
    e = indicator(0.0, t).scale(1.0 / np.sqrt(t)).subdivide(256)
    lam = 0.99 * sym.model_disc_radius(t) * np.exp(0.7j)
    with pytest.raises(NonPositiveSymbolError, match=r"value inf at x=1024\.0009765625 "), pytest.warns(RuntimeWarning, match="overflow"):
        kernel_preimage(sym, t, lam, e)


@pytest.mark.parametrize("r", [0.5, 1.5])
def test_reproducing_check_is_the_finite_sum_for_const(r):
    # W = 1 for const:1, so for f on B blocks both sides are the finite sum
    # sum_{n < B} lambda^n <f_n, e>, also outside the disc (|lambda| = 1.5),
    # where the preimage's series itself has no sum: its norms leave the
    # floats at term 1,750
    sym, t, m, blocks = constant(1.0), 1.0, 4, 16
    rng = np.random.default_rng(21)
    f = random_step(rng, 0.0, blocks * t, blocks * m)
    e = StepFunction(np.linspace(0.0, t, m + 1), rng.standard_normal(m) + 1j * rng.standard_normal(m))
    lam = r * np.exp(0.3j)
    pairs = f.values.reshape(blocks, m) @ np.conj(e.values) * (t / m)
    direct = complex(np.sum(np.power(lam, np.arange(blocks)) * pairs))
    chk = reproducing_check(sym, t, f, lam, e)
    assert abs(chk.lhs - direct) <= 1e-14 * abs(direct)
    assert abs(chk.rhs - direct) <= 1e-14 * abs(direct)
    if r > 1:
        with pytest.raises(NumericError, match="term 1750 of the kernel preimage is not finite"):
            kernel_preimage(sym, t, lam, e)


def test_reproducing_check_work_stays_capped():
    # the check's work is f's B blocks of m cells, and MAX_LATTICE_CELLS
    # refuses an f past it before any table is built; no series cap is
    # left. On |lambda| = 1 the preimage's norms of const:1 never shrink, so
    # no tail bound holds: 10,002 one-cell blocks, one past the series cap,
    # still return the finite sum; at |lambda| = 1.5, lambda^n leaves the
    # floats from n = 1,751, and diff is not finite, with nothing raised
    sym, t = constant(1.0), 1.0
    e = indicator(0.0, t)
    blocks = util_module.SERIES_CAP + 2
    f = random_step(np.random.default_rng(22), 0.0, blocks * t, blocks)
    lam = np.exp(0.3j)
    chk = reproducing_check(sym, t, f, lam, e)
    direct = complex(np.sum(np.power(lam, np.arange(blocks)) * f.values))
    assert abs(chk.lhs - direct) <= 1e-14 * abs(direct) and abs(chk.rhs - direct) <= 1e-14 * abs(direct)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # lambda^n overflows on both sides
        chk = reproducing_check(sym, t, f, 1.5 * lam, e)
    assert not np.isfinite(chk.diff)
    past = indicator(0.0, model_module.MAX_LATTICE_CELLS + 1.0)
    with pytest.raises(LatticeError, match=f"past {model_module.MAX_LATTICE_CELLS}$"):
        reproducing_check(sym, t, past, lam, e)


def test_adjoint_eigenvector_relation_through_model():
    # S_t* applied to the kernel preimage reproduces conj(w) times it
    sym, t, w = affine(), 1.0, 0.45 + 0.15j
    e = indicator(0.0, t).subdivide(64)
    v = kernel_preimage(sym, t, w, e, tol=1e-13)
    adj = OperatorHandle(sym, t, "S_adjoint")
    rel = norm(apply(adj, v) - v.scale(np.conj(w))) / norm(v)
    assert rel < 1e-9


# ---------------------------------------------------------------------------
# blocks and the Haar basis of the model space
# ---------------------------------------------------------------------------


def test_block_decompose_indicator():
    blocks = block_decompose(indicator(0.0, 2.0), 1.0, 1)
    assert norm(blocks[0] - indicator(0.0, 1.0)) == 0.0
    assert norm(blocks[1] - indicator(1.0, 2.0)) == 0.0


def test_blocks_mutually_orthogonal_exact():
    rng = np.random.default_rng(5)
    f = random_step(rng, 0.0, 8.0, 8 * 32)
    blocks = block_decompose(f, 1.0, 7)
    for m in range(8):
        for n in range(8):
            if m != n:
                assert inner(blocks[m], blocks[n]) == 0j


def test_blocks_conserve_mass():
    rng = np.random.default_rng(6)
    f = random_step(rng, 0.0, 8.0, 8 * 32)
    blocks = block_decompose(f, 1.0, 7)
    assert sum(norm_sq(b) for b in blocks) == pytest.approx(norm_sq(f), rel=1e-12)


def test_shift_lands_in_next_block():
    rng = np.random.default_rng(7)
    f = random_step(rng, 0.0, 4.0, 64)
    op = make_operator(affine(), 0.5, "S")
    blocks = block_decompose(f, 0.5, 7)
    for n, b in enumerate(blocks):
        if b.is_zero():
            continue
        image = apply(op, b)
        others = block_decompose(image, 0.5, 8)
        for m, piece in enumerate(others):
            if m != n + 1:
                assert piece.is_zero()


def haar_degree_bound(j, k, t):
    """floor((k+1) / (2^j t)): L_t^n psi_jk vanishes once n t exceeds (k+1) 2^-j."""
    return math.floor((k + 1) / (2.0**j * t))


def haar_gram(sym, t, index):
    """Model-space Gram matrix of U psi_jk, (j, k) in index, by pullback."""
    pre = [model_inverse(sym, t, model_map(sym, t, haar(j, k))) for j, k in index]
    return np.array([[inner(a, b) for b in pre] for a in pre])


def test_haar_degree_bounds_step_quarter():
    # t = 0.25: bound floor((k+1)/(2^j t)) = 4 at j = 0, k = 0, observed 3,
    # above the unscaled count floor((k+1)/2^j) = 1, which ignores the step
    p = model_map(constant(1.0), 0.25, haar(0, 0))
    assert haar_degree_bound(0, 0, 0.25) == 4
    assert p.degree == 3
    assert math.floor((0 + 1) / 2.0**0) == 1 < p.degree


def test_haar_degree_zero_when_support_in_E():
    p = model_map(constant(1.0), 1.0, haar(0, 0))
    assert p.degree == 0
    assert norm(p.coeffs[0] - haar(0, 0)) == 0.0


def test_haar_gram_small_identity():
    g = haar_gram(affine(), 1.0, [(0, 0), (0, 1), (0, 2)])
    assert np.max(np.abs(g - np.eye(3))) < 1e-8


def test_haar_degrees_respect_bound():
    for t in (0.25, 0.5, 1.0):
        for j in (-1, 0, 1):
            for k in range(4):
                assert model_map(affine(), t, haar(j, k)).degree <= haar_degree_bound(j, k, t)
