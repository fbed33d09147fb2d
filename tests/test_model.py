import numpy as np
import pytest

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
    affine,
    apply,
    apply_power,
    block_decompose,
    constant,
    distance,
    exponential,
    gram_matrix,
    haar,
    haar_degree_bound,
    haar_polynomial_basis,
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

E2X = exponential(np.exp(2.0))


# ---------------------------------------------------------------------------
# model map and inverse
# ---------------------------------------------------------------------------


def test_model_map_constant_in_E():
    p = model_map(constant(1.0), 1.0, indicator(0.0, 1.0), n_terms=4)
    assert p.degree == 0
    assert distance(p.coeffs[0], indicator(0.0, 1.0)) == 0.0
    assert not p.truncated


def test_model_map_monomial():
    p = model_map(constant(1.0), 1.0, indicator(1.0, 2.0), n_terms=4)
    assert p.degree == 1
    assert p.coeffs[0].is_zero()
    assert distance(p.coeffs[1], indicator(0.0, 1.0)) == 0.0


def test_model_map_haar_degree_zero():
    # supp psi_00 = [0,1) = [0,t): L^n reads past the support for n >= 1
    for sym in (constant(1.0), affine(), E2X):
        p = model_map(sym, 1.0, haar(0, 0), n_terms=3)
        assert p.degree == 0


def test_model_map_truncation_flag():
    p = model_map(affine(), 1.0, indicator(0.0, 3.0), n_terms=1)
    assert p.truncated
    p_full = model_map(affine(), 1.0, indicator(0.0, 3.0))
    assert not p_full.truncated
    assert p_full.degree == 2


def test_roundtrip_exact_constant():
    f = indicator(0.0, 1.0)
    p = model_map(constant(1.0), 1.0, f)
    assert distance(model_inverse(constant(1.0), 1.0, p), f) == 0.0


def test_roundtrip_affine_offset_cell():
    f = indicator(1.25, 1.5)
    p = model_map(affine(), 1.0, f)
    assert distance(model_inverse(affine(), 1.0, p), f) < 1e-15


def test_roundtrip_random():
    rng = np.random.default_rng(0)
    f = random_step(rng, 0.0, 8.0, 8 * 64, unit_norm=True)
    for sym in (affine(), reciprocal(), piecewise_cap()):
        p = model_map(sym, 1.0, f)
        assert distance(model_inverse(sym, 1.0, p), f) < 1e-14


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


def test_inverse_single_coefficient():
    # coefficient 1 = chi_[0,1) pulls back to e * chi_[1,2) for phi = e^{2x}
    p = EValuedPolynomial(1.0, (zero(), indicator(0.0, 1.0)))
    f = model_inverse(E2X, 1.0, p)
    assert list(f.breakpoints) == [1.0, 2.0]
    assert f.values[0] == pytest.approx(np.e, rel=1e-14)


def test_coefficients_live_in_E():
    with pytest.raises(ValueError):
        EValuedPolynomial(1.0, (indicator(0.5, 1.5),))


def test_polynomial_json_roundtrip():
    p = model_map(affine(), 1.0, indicator(0.25, 2.75))
    q = EValuedPolynomial.from_json_dict(p.to_json_dict())
    assert q.t == p.t and q.truncated == p.truncated
    for a, b in zip(p.coeffs, q.coeffs):
        assert distance(a, b) == 0.0


# ---------------------------------------------------------------------------
# unitarity
# ---------------------------------------------------------------------------


def test_parseval_pullback_exact():
    rng = np.random.default_rng(1)
    f = random_step(rng, 0.0, 16.0, 16 * 256, unit_norm=True)
    assert parseval_defect(affine(), 1.0, f, quadrature="pullback") < 1e-12


def test_parseval_gauss_second_order():
    rng = np.random.default_rng(2)
    f = random_step(rng, 0.0, 16.0, 16 * 128, unit_norm=True)
    e1 = parseval_defect(affine(), 1.0, f, quadrature="gauss")
    e2 = parseval_defect(affine(), 1.0, f.subdivide(2), quadrature="gauss")
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
        distance(p_shift.coeffs[n], p.coeffs[n - 1]) for n in range(1, len(p.coeffs) + 1)
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
    k = make_kernel(sym, t)
    rng = np.random.default_rng(hash(sym.name) % 2**32)
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
    with pytest.raises(TailBoundNotAchievedError):
        kernel_series(k, 0.99, 1.0, 0.05, n_cap=20)


def test_kernel_preimage_raises_at_cap():
    # |lambda| = 0.9: five shrinking terms are needed before any tail bound
    e = indicator(0.0, 1.0)
    with pytest.raises(TailBoundNotAchievedError):
        kernel_preimage(constant(1.0), 1.0, 0.9, e, n_cap=3)


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
    assert distance(blocks[0], indicator(0.0, 1.0)) == 0.0
    assert distance(blocks[1], indicator(1.0, 2.0)) == 0.0


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


def test_haar_degree_bounds_step_quarter():
    # t = 0.25: bound floor((k+1)/(2^j t)) = 4 at j = 0, k = 0, observed 3
    vecs = haar_polynomial_basis(constant(1.0), 0.25, [0], [0])
    assert vecs[0].degree_bound == 4
    assert vecs[0].degree == 3
    assert vecs[0].degree_bound_unscaled == 1


def test_haar_degree_zero_when_support_in_E():
    vecs = haar_polynomial_basis(constant(1.0), 1.0, [0], [0])
    assert vecs[0].degree == 0
    assert distance(vecs[0].poly.coeffs[0], haar(0, 0)) == 0.0


def test_haar_gram_small_identity():
    vecs = haar_polynomial_basis(affine(), 1.0, [0], [0, 1, 2])
    g = gram_matrix(affine(), 1.0, vecs)
    assert np.max(np.abs(g - np.eye(3))) < 1e-8


def test_haar_degrees_respect_bound():
    for t in (0.25, 0.5, 1.0):
        for vec in haar_polynomial_basis(affine(), t, [-1, 0, 1], range(4)):
            assert vec.degree <= vec.degree_bound
            assert haar_degree_bound(vec.j, vec.k, t) == vec.degree_bound
