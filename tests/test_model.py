import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import wtsemigroup.model as model_module
from wtsemigroup import (
    DEFAULT_TOLERANCES,
    DiagonalKernel,
    EValuedPolynomial,
    NoClosedFormError,
    NonPositiveSymbolError,
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
from wtsemigroup.symbols import eval_phi, phi_table
from wtsemigroup.util import TAIL_STREAK, sum_series
from test_stepfun import reference_merge

E2X = exponential(np.exp(2.0))


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
    # rounds to 11.0: the last block [11 t, g.hi) must still be mapped
    t = 0.001
    f = random_step(np.random.default_rng(0), 0.0, 2 * t, 128, unit_norm=True)
    g = apply_power(make_operator(affine(), t, "S"), 9, f)
    assert g.hi > 0.011 and g.hi / t == 11.0
    back = model_inverse(affine(), t, model_map(affine(), t, g))
    assert back.hi == g.hi
    assert_same_outcome(model_map(affine(), t, g), reference_model_map(affine(), t, g))


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


@pytest.mark.parametrize("spec", ["affine", "reciprocal", "cap", "exp:a=2"])
def test_model_map_blockwise_equals_whole_f(spec):
    # each coefficient sees only the cells of f near its block; at the
    # non-dyadic t = 0.3 it must still equal L^n of the whole of f, cut to E
    sym, t = parse_phi_spec(spec), 0.3
    rng = np.random.default_rng(12)
    uniform = random_step(rng, 0.0, 40 * t, 40 * 16)
    bp = np.unique(rng.uniform(0.01, 40 * t, 500))
    scattered = StepFunction(bp, [1.0, 1j] @ rng.standard_normal((2, bp.size - 1)))
    op_l = make_operator(sym, t, "L")
    for f in (uniform, scattered):
        p = model_map(sym, t, f)
        assert len(p.coeffs) == 40
        for n, c in enumerate(p.coeffs):
            ref = restrict_to_E(apply_power(op_l, n, f), t)
            assert np.array_equal(c.breakpoints, ref.breakpoints)
            assert np.array_equal(c.values, ref.values)


# ---------------------------------------------------------------------------
# the batched passes against their row-by-row reference, bit for bit
# ---------------------------------------------------------------------------


def reference_model_map(symbol, t, f):
    """model_map as one apply_power per block, on the cells of f near it,
    for as many blocks as cover f."""
    op_l = make_operator(symbol, t, "L")
    n_terms = max(0, math.ceil(f.hi / t) - 1) if f.values.size else 0
    while (n_terms + 1) * op_l.t < f.hi:
        n_terms += 1
    bp, coeffs = f.breakpoints, []
    for n in range(n_terms + 1):
        nt = n * op_l.t
        lo = max(int(np.searchsorted(bp, nt, side="right")) - 1, 0)
        hi = min(int(np.searchsorted(bp, nt + op_l.t, side="left")) + 1, f.values.size)
        block = StepFunction(bp[lo : hi + 1], f.values[lo:hi])
        coeffs.append(restrict_to_E(apply_power(op_l, n, block), t))
    return EValuedPolynomial.from_coeffs(t, coeffs)


def reference_model_inverse(symbol, t, p):
    op_s = OperatorHandle(symbol, t, "S")
    return add_all(apply_power(op_s, n, c) for n, c in enumerate(p.coeffs) if not c.is_zero())


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
            vals, refused = phi_table(k.symbol, points)
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


def outcome(fn):
    """The result of fn, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - compared as data
        return (type(exc), str(exc))


def assert_same_outcome(got, ref):
    if isinstance(ref, tuple):
        assert got == ref
    elif isinstance(ref, EValuedPolynomial):
        assert len(got.coeffs) == len(ref.coeffs)
        for a, b in zip(got.coeffs, ref.coeffs):
            assert_same_bytes(a, b)
    else:
        assert_same_bytes(got, ref)


SPECS = ["const:1", "affine", "reciprocal", "cap", "exp:a=2", "exp2x", "expr:x^2+1"]


@st.composite
def step_data(draw, t):
    """Scattered breakpoints from past 0 to mid-block, exact zeros at the
    edges, and now and then a cell an ulp wide, which collapses on a shift."""
    blocks = draw(st.integers(1, 12))
    cells = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.sampled_from([0.0, 0.0, 0.37 * t, 2.5 * t]))
    hi = lo + (blocks - draw(st.sampled_from([0.0, 0.5, 0.9]))) * t
    bp = np.unique(np.concatenate([[lo, hi], rng.uniform(lo, hi, cells)]))
    if draw(st.booleans()):  # ulp-wide cells next to some breakpoints
        picks = bp[rng.integers(0, bp.size - 1, 3)]
        bp = np.unique(np.concatenate([bp, np.nextafter(picks, np.inf)]))
    vals = rng.standard_normal(bp.size - 1) + 1j * rng.standard_normal(bp.size - 1)
    zeros = draw(st.sampled_from(["none", "edges", "all", "some"]))
    if zeros == "edges":
        vals[: rng.integers(1, 3)] = 0.0
        vals[-rng.integers(1, 3) :] = 0.0
    elif zeros == "all":
        vals[:] = 0.0
    elif zeros == "some":
        vals[rng.uniform(size=vals.size) < 0.3] = 0.0
    return StepFunction(bp, vals)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=st.sampled_from(SPECS),
    t=st.sampled_from([0.3, 1 / 3, 0.7, 1.0, 0.25]),
    data=st.data(),
    table_cells=st.sampled_from([2**16, 7, 40]),
)
def test_model_passes_equal_row_by_row_reference(spec, t, data, table_cells):
    # small table bounds put chunk boundaries inside the passes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_module, "TABLE_CELLS", table_cells)
        check_model_passes(parse_phi_spec(spec), t, data)


def check_model_passes(sym, t, data):
    f = data.draw(step_data(t))
    if data.draw(st.booleans()):
        f = zero()
    got = outcome(lambda: model_map(sym, t, f))
    ref = outcome(lambda: reference_model_map(sym, t, f))
    assert_same_outcome(got, ref)
    if isinstance(ref, EValuedPolynomial):
        assert_same_outcome(
            outcome(lambda: model_inverse(sym, t, got)), outcome(lambda: reference_model_inverse(sym, t, ref))
        )
    # coefficients whose cells collapse when shifted far right
    p = EValuedPolynomial.from_coeffs(t, (zero(),) * 40 + (f.restrict(0.0, t),) * 3)
    assert_same_outcome(outcome(lambda: model_inverse(sym, t, p)), outcome(lambda: reference_model_inverse(sym, t, p)))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=st.sampled_from(["const:1", "affine", "reciprocal", "cap", "exp:a=2"]),
    t=st.sampled_from([0.3, 0.7, 1.0, 0.25]),
    frac=st.sampled_from([0.0, 0.3, 0.9]),
    angle=st.floats(0.0, 2 * np.pi),
    cells=st.integers(1, 40),
    shape=st.sampled_from(["E", "narrow", "zero edges", "past t"]),
    table_cells=st.sampled_from([2**16, 50]),
)
def test_kernel_preimage_equals_term_list(spec, t, frac, angle, cells, shape, table_cells):
    sym = parse_phi_spec(spec)
    e = indicator(0.0, t).subdivide(cells)
    if shape == "narrow":  # a cell an ulp wide, which collapses once shifted by n t
        bp = np.unique(np.append(e.breakpoints, [0.5 * t, np.nextafter(0.5 * t, np.inf)]))
        e = StepFunction(bp, np.arange(1, bp.size) * (1 + 0.5j))
    elif shape == "zero edges":
        e = StepFunction(np.linspace(0.0, t, cells + 3), np.r_[0.0, np.arange(1, cells + 1), 0.0])
    elif shape == "past t":  # the terms overlap
        e = indicator(0.1 * t, 2.3 * t).subdivide(cells)
    lam = frac * sym.model_disc_radius(t) * np.exp(1j * angle)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_module, "TABLE_CELLS", table_cells)
        got = outcome(lambda: kernel_preimage(sym, t, lam, e))
    assert_same_outcome(got, outcome(lambda: reference_kernel_preimage(sym, t, lam, e)))


def test_model_inverse_keeps_a_lone_piece_as_it_is():
    # one nonzero coefficient is returned untrimmed, as add_all returns one piece
    c = StepFunction(np.linspace(0.0, 0.3, 5), [0.0, 1j, 2.0, 0.0])
    p = EValuedPolynomial.from_coeffs(0.3, (zero(),) * 5 + (c,))
    got = model_inverse(affine(), 0.3, p)
    assert got.values.size == 4
    assert_same_bytes(got, reference_model_inverse(affine(), 0.3, p))


@pytest.mark.parametrize("t, overlaps", [(1.0, False), (0.25, False), (0.1, True), (1 / 3, True)])
def test_model_sums_equal_the_global_merge(t, overlaps, monkeypatch):
    # blocks [nt, (n+1)t) that meet exactly concatenate; at non-dyadic t
    # rounding makes some overlap by an ulp and the sum takes the merge
    rng = np.random.default_rng(3)
    sym = affine()
    f = random_step(rng, 0.0, 32 * t, 32 * 16)
    e = random_step(rng, 0.0, t, 16)
    p = model_map(sym, t, f)
    op_s = OperatorHandle(sym, t, "S")
    blocks = [apply_power(op_s, n, c) for n, c in enumerate(p.coeffs) if not c.is_zero()]
    assert any(b.lo < a.hi for a, b in zip(blocks, blocks[1:])) == overlaps
    got = (model_inverse(sym, t, p), kernel_preimage(sym, t, 0.5, e))
    monkeypatch.setattr(model_module, "sum_pieces", reference_merge)
    ref = (model_inverse(sym, t, p), kernel_preimage(sym, t, 0.5, e))
    for a, b in zip(got, ref):
        assert_same_bytes(a, b)


def test_model_passes_raise_the_first_error_of_the_block_loop():
    # phi = 3 - x passes the left-invertibility window [0, 64 t] = [0, 2.56]
    # and turns negative at 3: each pass raises the first error of its loop
    sym, t = parse_symbol("3-x"), 0.04
    f = StepFunction(np.linspace(0.0, 4.0, 801), np.linspace(1.0, 2.0, 800))
    p = EValuedPolynomial.from_coeffs(t, (indicator(0.0, t).subdivide(3),) * 90)
    e = indicator(0.0, t).subdivide(8)
    for got, ref in (
        (lambda: model_map(sym, t, f), lambda: reference_model_map(sym, t, f)),
        (lambda: model_inverse(sym, t, p), lambda: reference_model_inverse(sym, t, p)),
        (lambda: kernel_preimage(sym, t, 0.99, e), lambda: reference_kernel_preimage(sym, t, 0.99, e)),
    ):
        error = outcome(got)
        assert error[0] is NonPositiveSymbolError
        assert error == outcome(ref)
    # 2^x overflows at x = 1024: the first block past it raises
    sym, t = parse_phi_spec("exp:a=2"), 0.5
    f = StepFunction(np.linspace(0.0, 1100.0, 2201), np.ones(2200))
    with pytest.warns(RuntimeWarning, match="overflow"):
        error = outcome(lambda: model_map(sym, t, f))
    assert error == (NonPositiveSymbolError, "symbol value inf at x=1024.25 violates positivity")


def test_kernel_preimage_builds_one_chunk_past_its_last_term(monkeypatch):
    # rows past the stopping term are built and dropped: at most one chunk
    # of TABLE_CELLS // cells = 64 rows, not a doubled table
    built = []
    rows = model_module._preimage_rows

    def counted_rows(op, e, lam_bar, ns):
        built.append(ns.size)
        return rows(op, e, lam_bar, ns)

    summed = []
    series = model_module.sum_series

    def counted_series(*args):
        result = series(*args)
        summed.append(result[1])
        return result

    monkeypatch.setattr(model_module, "_preimage_rows", counted_rows)
    monkeypatch.setattr(model_module, "sum_series", counted_series)
    kernel_preimage(affine(), 1.0, 0.9 * np.exp(0.4j), indicator(0.0, 1.0).subdivide(256))
    assert summed == [260]
    assert max(built) <= 64 and sum(built) < 260 + 64


def test_kernel_preimage_table_past_overflow():
    # 1,562 terms reach x = 937; the table of 2,048 rows reaches x > 1024,
    # where 2^x overflows: rows past the last summed term must not raise
    sym, t = parse_phi_spec("exp:a=2"), 0.6
    e = indicator(0.0, t).scale(1.0 / np.sqrt(t)).subdivide(16)
    lam = 0.98 * sym.model_disc_radius(t) * np.exp(0.3j)
    pre = kernel_preimage(sym, t, lam, e)
    assert pre.hi == pytest.approx(937.2, abs=1e-9)
    assert_same_bytes(pre, reference_kernel_preimage(sym, t, lam, e))
    # at t = 0.7 a summed term reaches the overflow: the one-term error is raised
    t = 0.7
    e = indicator(0.0, t).scale(1.0 / np.sqrt(t)).subdivide(16)
    lam = 0.98 * sym.model_disc_radius(t) * np.exp(0.3j)
    with pytest.raises(NonPositiveSymbolError) as info, pytest.warns(RuntimeWarning, match="overflow"):
        kernel_preimage(sym, t, lam, e)
    assert str(info.value) == "symbol value inf at x=1024.0343750000002 violates positivity"


def test_inverse_single_coefficient():
    # coefficient 1 = chi_[0,1) pulls back to e * chi_[1,2) for phi = e^{2x}
    p = EValuedPolynomial.from_coeffs(1.0, (zero(), indicator(0.0, 1.0)))
    f = model_inverse(E2X, 1.0, p)
    assert list(f.breakpoints) == [1.0, 2.0]
    assert f.values[0] == pytest.approx(np.e, rel=1e-14)


def test_coefficients_live_in_E():
    with pytest.raises(ValueError):
        EValuedPolynomial.from_coeffs(1.0, (indicator(0.5, 1.5),))


# ---------------------------------------------------------------------------
# the coefficient table against the coefficients of the block loop
# ---------------------------------------------------------------------------

GOLDEN_SPECS = SPECS + ["expr:x+1"]


def assert_same_table(got, ref):
    """Equal tables, bit for bit: cell counts, breakpoints, values."""
    assert got.t == ref.t
    assert np.array_equal(got.cells, ref.cells)
    assert got.breakpoints.tobytes() == ref.breakpoints.tobytes()
    assert got.values.tobytes() == ref.values.tobytes()


def complex_bytes(*zs):
    return np.array(zs, dtype=complex).tobytes()


EPS = np.finfo(float).eps
EVAL_ULPS = 64  # rounding allowance of (Uf)(z), in units of EPS times evaluation_scale


def evaluation_scale(coeffs, z) -> float:
    """sum_n |z|^n ||c_n||, which bounds ||(Uf)(z)||; the rounding of the
    merged sum, and of its pairing with e, is a few EPS of it (times ||e||)."""
    return sum(abs(complex(z)) ** n * norm(c) for n, c in enumerate(coeffs))


@st.composite
def gapped_step_data(draw, t):
    """step_data, now and then with exact zeros over whole blocks between
    live ones, so that zero coefficients sit between nonzero ones."""
    f = draw(step_data(t))
    if f.values.size and draw(st.booleans()):
        lo = draw(st.sampled_from([0.5, 1.0, 2.0])) * t
        mid = f.midpoints()
        f = f.with_values(np.where((mid >= f.lo + lo) & (mid < f.lo + lo + 2 * t), 0.0, f.values))
    return f


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=st.sampled_from(GOLDEN_SPECS),
    t=st.sampled_from([0.3, 1 / 3, 0.7, 1.0, 0.25]),
    data=st.data(),
    table_cells=st.sampled_from([2**16, 7, 40]),
)
def test_coefficient_table_equals_block_loop(spec, t, data, table_cells):
    sym = parse_phi_spec(spec)
    f = zero() if data.draw(st.booleans()) else data.draw(gapped_step_data(t))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_module, "TABLE_CELLS", table_cells)
        got = outcome(lambda: model_map(sym, t, f))
        ref = outcome(lambda: reference_model_map(sym, t, f))
        if isinstance(ref, tuple):
            assert got == ref
            return
        assert_same_table(got, ref)
        assert len(got.coeffs) == len(ref.coeffs)
        for a, b in zip(got.coeffs, ref.coeffs):
            assert_same_bytes(a, b)
        assert got.degree == max((n for n, c in enumerate(ref.coeffs) if not c.is_zero()), default=-1)
        assert_same_outcome(
            outcome(lambda: model_inverse(sym, t, got)), outcome(lambda: reference_model_inverse(sym, t, ref))
        )
        # the left side of the reproducing identity, one inner per coefficient
        radius = sym.model_disc_radius(t) or 1.0
        lam = data.draw(st.sampled_from([0.0, 0.4, 0.8])) * radius * np.exp(1j * data.draw(st.floats(0, 6.3)))
        cells = data.draw(st.integers(1, 20))
        vals = 1.0 + np.arange(cells) * (0.5 - 1j)  # distinct, so a cell read from the wrong place shows
        shared = np.unique(np.append(f.breakpoints[f.breakpoints <= t], t))  # the mesh of coefficient 0
        e = data.draw(
            st.sampled_from(
                [
                    StepFunction(np.linspace(0.0, t, cells + 1), vals),
                    StepFunction(np.linspace(0.13 * t, 0.61 * t, cells + 1), vals[::-1]),
                    StepFunction(np.linspace(0.4 * t, 1.9 * t, cells + 1), vals),
                    StepFunction(shared, np.arange(1, shared.size) * (1 + 0.5j)) if shared.size > 1 else zero(),
                    zero(),
                ]
            )
        )
        chk = outcome(lambda: reproducing_check(sym, t, f, lam, e))
    lhs = complex(sum(inner(c, e) * complex(lam) ** n for n, c in enumerate(ref.coeffs)))
    rhs = outcome(lambda: complex(inner(f, kernel_preimage(sym, t, lam, e))))
    if isinstance(rhs, tuple):
        assert chk == rhs
        return
    # the left side pairs (Uf)(lambda), one merged sum of the rows, with e:
    # within rounding of the sum of the per-coefficient pairings
    assert abs(chk.lhs - lhs) <= EVAL_ULPS * EPS * evaluation_scale(ref.coeffs, lam) * norm(e)
    assert complex_bytes(chk.rhs, chk.diff) == complex_bytes(rhs, abs(chk.lhs - rhs))


def test_coefficient_table_layout():
    # row n of the table: cells[n] values and cells[n] + 1 breakpoints, none for a zero row
    c1 = StepFunction([0.0, 0.125, 0.25, 0.375], [1.0, 0.0, 2j])
    c3 = indicator(0.125, 0.25)
    p = EValuedPolynomial.from_coeffs(0.5, (zero(), c1, zero(), c3, zero()))
    assert p.cells.tolist() == [0, 3, 0, 1, 0]
    assert p.breakpoints.tolist() == [0.0, 0.125, 0.25, 0.375, 0.125, 0.25]
    assert p.values.tolist() == [1.0, 0.0, 2j, 1.0]
    assert p.degree == 3
    for a, b in zip(p.coeffs, (zero(), c1, zero(), c3, zero())):
        assert_same_bytes(a, b)
    with pytest.raises(ValueError):
        p.values[0] = 3.0  # the table is read-only
    # a coefficient whose values are all zero is a row without cells
    q = EValuedPolynomial.from_coeffs(0.5, (c1, c1.with_values(np.zeros(3))))
    assert q.cells.tolist() == [3, 0] and q.degree == 0
    assert_same_bytes(model_inverse(affine(), 0.5, q), reference_model_inverse(affine(), 0.5, q))


@st.composite
def scattered_polynomials(draw, t):
    """A polynomial whose coefficients lie on meshes of their own in [0, t),
    some of them zero, or the model map of step_data on a symbol."""
    if draw(st.booleans()):
        return model_map(parse_phi_spec(draw(st.sampled_from(SPECS))), t, draw(step_data(t)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = []
    for _ in range(draw(st.integers(0, 8))):
        bp = np.unique(rng.uniform(0.0, t, rng.integers(2, 12)))
        if rng.uniform() < 0.5:  # rows that reach the edges of E
            bp = np.unique(np.concatenate([[0.0, t], bp]))
        vals = rng.standard_normal(bp.size - 1) + 1j * rng.standard_normal(bp.size - 1)
        vals[rng.uniform(size=vals.size) < 0.2] = 0.0
        coeffs.append(zero() if rng.uniform() < 0.25 or bp.size < 2 else StepFunction(bp, vals))
    return EValuedPolynomial.from_coeffs(t, coeffs)


def merged_edges(p: EValuedPolynomial) -> np.ndarray:
    return np.unique(np.concatenate([[0.0]] + [c.breakpoints for c in p.coeffs]))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    t=st.sampled_from([0.3, 1 / 3, 0.7, 1.0]),
    data=st.data(),
    modulus=st.sampled_from([0.3, 0.9, 1.0, 1.7]),
    angle=st.floats(0.1, 6.2),
)
def test_evaluate_sums_the_coefficients_at_every_point(t, data, modulus, angle):
    p = data.draw(scattered_polynomials(t))
    z = modulus * np.exp(1j * angle)
    g = model_module._evaluate(p, z)
    edges = merged_edges(p)
    terms = np.array([complex(z) ** n * c.values_at_left_edges(edges) for n, c in enumerate(p.coeffs)])
    ref, scale = terms.sum(axis=0), np.abs(terms).sum(axis=0)
    assert np.all(np.abs(g.values_at_left_edges(edges) - ref) <= EVAL_ULPS * EPS * scale)
    assert np.isin(g.breakpoints, edges).all()  # no point of its own, none past the rows
    assert not (g.breakpoints.flags.writeable or g.values.flags.writeable)


@settings(max_examples=40, deadline=None)
@given(t=st.sampled_from([0.3, 1.0]), data=st.data())
def test_evaluate_at_zero_is_the_constant_coefficient(t, data):
    p = data.draw(scattered_polynomials(t))
    g = model_module._evaluate(p, 0.0)
    edges = merged_edges(p)
    c0 = p.coeffs[0] if p.coeffs else zero()
    assert np.array_equal(g.values_at_left_edges(edges), c0.values_at_left_edges(edges))
    if c0.is_zero():
        assert_same_bytes(g, zero())


@pytest.mark.parametrize("z", [0.0, 0.5 - 0.25j, 3.0])
def test_evaluate_the_zero_polynomial_is_zero(z):
    for coeffs in ((), (zero(), zero()), (indicator(0.0, 0.5, 0.0),)):
        assert_same_bytes(model_module._evaluate(EValuedPolynomial.from_coeffs(0.5, coeffs), z), zero())
    # the support check runs over the whole table
    with pytest.raises(ValueError):
        EValuedPolynomial(0.3, np.array([1]), np.array([0.2, 0.31]), np.array([1.0 + 0j]))


def test_refused_rows_raise_the_error_of_apply_power():
    # phi = 3 - x turns negative at x = 3: the first block whose weights
    # reach past 3 is refused, and apply_power on that block alone raises
    sym, t = parse_symbol("3-x"), 0.04
    f = StepFunction(np.linspace(0.0, 4.0, 801), np.linspace(1.0, 2.0, 800))
    op_l, op_s = make_operator(sym, t, "L"), OperatorHandle(sym, t, "S")
    blocks = [f.restrict(n * t, (n + 1) * t) for n in range(100)]
    first = next(n for n, b in enumerate(blocks) if isinstance(outcome(lambda: apply_power(op_l, n, b)), tuple))
    error = outcome(lambda: model_map(sym, t, f))
    assert error[0] is NonPositiveSymbolError
    assert error == outcome(lambda: apply_power(op_l, first, blocks[first]))
    assert outcome(lambda: reproducing_check(sym, t, f, 0.1, indicator(0.0, t))) == error
    c = indicator(0.0, t).subdivide(3)
    p = EValuedPolynomial.from_coeffs(t, (zero(),) * 20 + (c,) * 70)
    first = next(n for n in range(20, 90) if isinstance(outcome(lambda: apply_power(op_s, n, c)), tuple))
    error = outcome(lambda: model_inverse(sym, t, p))
    assert error[0] is NonPositiveSymbolError
    assert error == outcome(lambda: apply_power(op_s, first, c))


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
    """Terms n = 0, 1, ...: a drawn head with exact zeros, exact repeats
    (ratio 1) and random entries, then a geometric tail that may not shrink."""
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    head = []
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "random", "tiny"]), max_size=30)):
        if kind == "zero":
            head.append(0.0 if real else 0j)
        elif kind == "repeat" and head:
            head.append(head[-1])
        else:
            v = rng.standard_normal() * (1e-300 if kind == "tiny" else 1.0)
            head.append(v if real else complex(v, rng.standard_normal()))
    base = head[-1] if head and head[-1] != 0 else (0.7 if real else 0.7 - 0.2j)
    ratio = draw(st.sampled_from([0.0, 0.3, 0.9, 0.999, 1.0, 1.001]))
    if not real:
        ratio = ratio * complex(np.cos(1.3), np.sin(1.3))
    h = len(head)
    return lambda n: head[n] if n < h else base * ratio ** (n - h + 1)


@settings(max_examples=150, deadline=None)
@given(
    term=term_sequences(),
    tol=st.sampled_from([0.0, 1e-18, 1e-12, 1e-6, 0.5, np.inf]),
    cap=st.sampled_from([None, 5, 6, 40, 300]),
    end=st.one_of(st.none(), st.integers(0, 80)),
    size=st.sampled_from([1, 16, 23, 200]),
    step=st.sampled_from([None, 1, 7]),
)
def test_sum_series_equals_the_loop(term, tol, cap, end, size, step):
    # end: a table ends before term `end`, which cannot be formed; the loop
    # raises there, and sum_series reports the terms it saw instead.
    # step: the table grows by at most step terms a call
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
        got = series_outcome(lambda: sum_series(terms, tol, size))
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
        model_module._phi_column.cache_clear()
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
        model_module._phi_column.cache_clear()
        for z, lam, tol in order:
            got = series_outcome(lambda: kernel_series(k, z, lam, 0.2, tol))
            assert same_result(got, want[calls.index((z, lam, tol))])
    for (z, lam, tol), ref in zip(calls, want):
        model_module._phi_column.cache_clear()
        assert same_result(series_outcome(lambda: kernel_series(k, z, lam, 0.2, tol)), ref)


def test_kernel_series_overflow_raises_the_loop_error_and_warning():
    # e^(2x) overflows at x = 355 before the tail rule holds at |q| ~ 0.94 radius^2
    k = make_kernel(E2X, 1.0)
    model_module._phi_column.cache_clear()
    seen = []
    for fn in (reference_kernel_series, kernel_series):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            error = series_outcome(lambda: fn(k, 2.5552, 2.718281828, 0.0))
        seen.append((error, [(w.category, str(w.message)) for w in caught]))
    assert seen[0] == seen[1]
    assert seen[0][0] == (NonPositiveSymbolError, "symbol value inf at x=355.0 violates positivity")
    assert seen[0][1] == [(RuntimeWarning, "overflow encountered in power")]


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


def spy_sum_rows(monkeypatch) -> list:
    """The step functions that model._sum_rows returns from now on, in order."""
    sums, sum_rows = [], model_module._sum_rows
    monkeypatch.setattr(model_module, "_sum_rows", lambda chunks: sums.append(sum_rows(chunks)) or sums[-1])
    return sums


@pytest.mark.parametrize("spec", GOLDEN_SPECS)
@pytest.mark.parametrize("t", [0.1, 0.25, 1 / 3, 1.0])
def test_reproducing_rhs_pairs_the_whole_preimage(spec, t, monkeypatch):
    # the right side pairs f only with the terms up to the first one that
    # starts at or past f.hi; its bytes must be those of the whole preimage
    sums = spy_sum_rows(monkeypatch)
    sym = parse_phi_spec(spec)
    radius = sym.model_disc_radius(t) or 1.0
    rng = np.random.default_rng(11)
    fs = (
        random_step(rng, 0.0, 6 * t, 6 * 16),  # f.hi on a block edge
        random_step(rng, 0.7 * t, 4.5 * t, 40),  # f.lo and f.hi off one
    )
    es = (
        indicator(0.0, t).subdivide(8),
        StepFunction(np.linspace(0.0, t, 7), [0.0, 1.0, 2j, 3.0, -1.0, 0.0]),  # zero edge cells
    )
    for f in fs:
        for e in es:
            for lam in (0.0, 0.9 * radius * np.exp(2.1j)):
                sums.clear()
                chk = reproducing_check(sym, t, f, lam, e)
                (paired,) = sums  # one sum, cut short where the terms run past f.hi
                whole = kernel_preimage(sym, t, lam, e)
                assert (paired.hi < whole.hi) == (lam != 0.0)
                assert complex_bytes(chk.rhs) == complex_bytes(inner(f, whole))


def test_reproducing_rhs_falls_back_to_the_whole_preimage(monkeypatch):
    # e = 1e-300 and lambda = 1e-25: every term past the first underflows to
    # zero cells, so the terms up to f.hi = 2 sum to a function that ends at
    # 1, before f.hi, and the whole preimage is summed and paired instead
    sym, t, lam = constant(1.0), 1.0, 1e-25
    e = indicator(0.0, t, 1e-300).subdivide(4)
    f = random_step(np.random.default_rng(2), 0.0, 2.0, 8)
    sums = spy_sum_rows(monkeypatch)
    chk = reproducing_check(sym, t, f, lam, e)
    assert [g.hi for g in sums] == [1.0, 1.0]  # the cut sum, then the whole one
    whole = kernel_preimage(sym, t, lam, e)
    assert whole.hi == 1.0
    assert complex_bytes(chk.rhs) == complex_bytes(inner(f, whole))


def test_model_results_are_read_only_and_the_coefficients_views():
    f = random_step(np.random.default_rng(6), 0.0, 3.0, 48)
    p = model_map(affine(), 1.0, f)
    for c in p.coeffs:
        assert not (c.breakpoints.flags.writeable or c.values.flags.writeable)
        assert np.shares_memory(c.breakpoints, p.breakpoints) and np.shares_memory(c.values, p.values)
    lone = EValuedPolynomial.from_coeffs(1.0, (zero(), p.coeffs[1]))  # one piece, kept as it is
    e = indicator(0.0, 1.0).subdivide(4)
    tables = (f.breakpoints, f.values, p.breakpoints, p.values, lone.breakpoints, lone.values, e.breakpoints, e.values)
    for g in (model_inverse(affine(), 1.0, p), model_inverse(affine(), 1.0, lone), kernel_preimage(affine(), 1.0, 0.5, e)):
        assert not (g.breakpoints.flags.writeable or g.values.flags.writeable)
        assert not any(np.shares_memory(a, b) for a in (g.breakpoints, g.values) for b in tables)


def test_polynomial_copies_the_arrays_it_is_given():
    cells, bp, v = np.array([2]), np.array([0.0, 0.25, 0.5]), np.array([1.0, 2j])
    p = EValuedPolynomial(1.0, cells, bp, v)
    v[0], bp[1], cells[0] = 99.0, 0.375, 1
    assert p.cells.tolist() == [2] and p.breakpoints.tolist() == [0.0, 0.25, 0.5]
    assert p.values.tolist() == [1.0, 2j] and p.coeffs[0].values.tolist() == [1.0, 2j]
    for table in (p.cells, p.breakpoints, p.values):
        assert not table.flags.writeable and not any(np.shares_memory(table, a) for a in (cells, bp, v))


@pytest.mark.parametrize(
    "cells,breakpoints,values",
    [
        ([2], [0.5, 0.2, 0.7], [1j, 2]),  # breakpoints out of order
        ([1], [math.nan, math.nan], [1.0]),
        ([5], [0.0, 0.5], [1.0]),  # fewer values than cells
        ([-1, 2], [0.0, 0.25, 0.5], [1.0]),  # a negative cell count
        ([[1]], [0.0, 0.5], [1.0]),  # cells in 2-d
        ([1.0], [0.0, 0.5], [1.0]),  # cell counts that are not integers
        ([1], [0.0, 0.5], [math.inf]),
        ([0, 1], [0.0, 0.5], [0.0]),  # a row with cells and no nonzero value
    ],
    ids=["unordered", "nan", "short", "negative", "2-d", "float", "inf", "zero-row"],
)
def test_polynomial_refuses_malformed_tables(cells, breakpoints, values):
    with pytest.raises(ValueError):
        EValuedPolynomial(1.0, cells, breakpoints, values)


def test_polynomial_holds_integer_tables_as_floats():
    # model_inverse weights a copy of the values in place, which an integer
    # table refuses with numpy's casting error
    p = EValuedPolynomial(1.0, [0, 1], [0, 1], [2])
    assert p.breakpoints.dtype == float and p.values.dtype == complex
    ref = EValuedPolynomial(1.0, [0, 1], [0.0, 1.0], [2.0 + 0j])
    assert_same_bytes(model_inverse(affine(), 1.0, p), model_inverse(affine(), 1.0, ref))


def test_model_map_tables_are_exactly_sized():
    # 256 blocks of 256 cells: the rows come in several chunks of TABLE_CELLS
    f = random_step(np.random.default_rng(11), 0.0, 256.0, 256 * 256)
    p = model_map(affine(), 1.0, f)
    assert p.cells.size == 256 and p.cells.sum() > model_module.TABLE_CELLS
    for table in (p.cells, p.breakpoints, p.values):
        assert table.base is None or table.base.size <= table.size
    assert p.values.size == p.cells.sum() and p.breakpoints.size == p.cells.sum() + np.count_nonzero(p.cells)


def test_reproducing_near_disc_boundary():
    # |lambda| = 0.99 of the disc radius: the preimage sums 2,831 blocks
    sym, t = affine(), 1.0
    rng = np.random.default_rng(5)
    f = random_step(rng, 0.0, 16 * t, 16 * 256, unit_norm=True)
    e = indicator(0.0, t).scale(1.0 / np.sqrt(t)).subdivide(256)
    lam = 0.99 * sym.model_disc_radius(t) * np.exp(0.7j)
    chk = reproducing_check(sym, t, f, lam, e)
    assert chk.diff <= DEFAULT_TOLERANCES["reproducing"]


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
