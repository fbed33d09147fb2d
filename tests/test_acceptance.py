"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
ledger. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from wtsemigroup import (
    OperatorHandle,
    affine,
    apply,
    apply_power,
    block_decompose,
    constant,
    exponential,
    bracket_forms,
    classify,
    haar,
    indicator,
    inner,
    kernel_closed_form,
    kernel_series,
    make_kernel,
    make_operator,
    model_inverse,
    model_map,
    norm,
    parseval_defect,
    piecewise_cap,
    random_step,
    reciprocal,
    restrict_to_E,
    spectral_summary,
    verify_adjoint_eigenvector,
    verify_circular_symmetry,
)

E2X = exponential(np.exp(2.0))

GOLDEN_SYMBOLS = [
    (constant(1.0), 1.0),
    (affine(), 1.0),
    (reciprocal(), 2.0),
    (piecewise_cap(), 0.25),
    (exponential(2.0), 0.5),
]


def report(criterion: int, detail: str):
    print(f"\nACCEPTANCE {criterion:2d} PASS  {detail}")


def test_c01_kernel_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(101)
    for sym, t in GOLDEN_SYMBOLS:
        k = make_kernel(sym, t)
        for _ in range(100):
            z = 0.9 * k.radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            lam = 0.9 * k.radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            x = rng.uniform(0.0, t)
            delta = abs(kernel_series(k, z, lam, x)[0] - kernel_closed_form(k, z, lam, x))
            worst = max(worst, delta)
            assert delta <= 1e-8
    # spot checks at known closed-form values
    k_c = make_kernel(constant(1.0), 1.0)
    assert kernel_series(k_c, 0.5, 0.5, 0.0)[0] == pytest.approx(4.0 / 3.0, abs=1e-9)
    a, t = np.exp(2.0), 1.0
    k_a = make_kernel(exponential(a), t)
    z = lam = 1.0
    assert kernel_series(k_a, z, lam, 0.0)[0] == pytest.approx(
        1.0 / (1.0 - a ** (-t) * z * np.conj(lam)), abs=1e-8
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(1, f"5 symbols x 100 points, worst series/closed-form gap {worst:.2e} <= 1e-8, {elapsed:.2f}s")


def test_c02_spectral_examples():
    t0 = time.perf_counter()
    s_const = spectral_summary(constant(1.0), 1.0)
    assert s_const.r == pytest.approx(1.0, abs=1e-6)
    assert s_const.r1 == pytest.approx(1.0, abs=1e-6)
    s_exp = spectral_summary(E2X, 1.0)
    assert s_exp.r == pytest.approx(np.e, abs=1e-6)
    assert s_exp.r1 == pytest.approx(np.e, abs=1e-6)
    s_aff = spectral_summary(affine(), 1.0, n_max=64, x_max=64.0)
    assert abs(s_aff.r - 1.0) <= 0.02
    assert s_aff.window_limited
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(
        2,
        f"const r=r1={s_const.r:.9f}; e^2x r={s_exp.r:.9f} (e={np.e:.9f}); "
        f"x+1 r={s_aff.r:.6f} window_limited={s_aff.window_limited}, {elapsed:.2f}s",
    )


def test_c03_classification_golden_set():
    expectations = [
        (constant(1.0), 1.0, ["isometry"]),
        (affine(), 1.0, ["2-isometry"]),
        (reciprocal(), 1.0, ["contraction", "completely-monotone-moment-candidate(16)"]),
        (piecewise_cap(), 0.25, ["2-hyperexpansive"]),
        (exponential(2.0), 1.0, ["alternatingly-hyperexpansive(16)", "expansion"]),
    ]
    summary = []
    for sym, t, labels in expectations:
        rep = classify(sym, t, max_order=16)
        assert rep.tol_class == 1e-9
        for label in labels:
            assert label in rep.labels, f"{sym.describe()}: missing {label}"
            assert label not in rep.witnesses
        summary.append(f"{sym.describe()} -> {labels[0]}")
    # distinguishing negatives
    assert "isometry" not in classify(affine(), 1.0).labels
    rep_cap = classify(piecewise_cap(), 0.25, max_order=16)
    assert "completely-hyperexpansive(16)" not in rep_cap.labels
    report(3, "; ".join(summary) + " (zero witnesses at tol 1e-9)")


def test_c04_parseval_unitarity():
    sym, t = affine(), 1.0
    rng = np.random.default_rng(104)
    coarse_defects = []
    fine_defects = []
    for _ in range(50):
        f = random_step(rng, 0.0, 16 * t, 16 * 128, unit_norm=True)  # h = t/128
        _, e_coarse = parseval_defect(sym, t, f)
        _, e_fine = parseval_defect(sym, t, f.subdivide(2))  # h = t/256
        assert e_fine <= 1e-6
        coarse_defects.append(e_coarse)
        fine_defects.append(e_fine)
    exponent = np.log2(np.mean(coarse_defects) / np.mean(fine_defects))
    assert exponent >= 1.8
    report(
        4,
        f"50 random f: max defect {max(fine_defects):.2e} <= 1e-6 at h=t/256, "
        f"refinement exponent {exponent:.3f} >= 1.8",
    )


def test_c05_intertwining():
    sym, t = affine(), 1.0
    op = make_operator(sym, t, "S")
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(50):
        f = random_step(rng, 0.0, 16 * t, 16 * 256, unit_norm=True)  # h = t/256
        p = model_map(sym, t, f)
        p_shift = model_map(sym, t, apply(op, f))
        resid = norm(p_shift.coeffs[0])
        for n in range(1, len(p_shift.coeffs)):
            if n - 1 < len(p.coeffs):
                resid = max(resid, norm(p_shift.coeffs[n] - p.coeffs[n - 1]))
        worst = max(worst, resid)
        assert resid <= 1e-6
    report(5, f"coefficient shift residual {worst:.2e} <= 1e-6 for 50 random f")


def test_c06_structural_exactness():
    rng = np.random.default_rng(106)
    for sym in (affine(), E2X, piecewise_cap()):
        for t in (0.5, 0.3):
            op = make_operator(sym, t, "S")
            adj = OperatorHandle(sym, t, "S_adjoint")
            # kernel of the adjoint: exactly zero on E, never zero off E
            f_in = random_step(rng, 0.0, t, 32)
            assert apply(adj, f_in).is_zero()
            f_any = random_step(rng, 0.0, 8 * t, 8 * 32)
            assert apply(adj, restrict_to_E(f_any, t)).is_zero()
            assert norm(apply(adj, f_any.restrict(t, 8 * t))) > 0.0
            # analytic support growth: supp(S^k f) inside [k t, inf), exactly
            for k in (1, 2, 5, 8):
                img = apply_power(op, k, f_any)
                assert img.support[0] >= k * t
            # block orthogonality, residual exactly zero
            blocks = block_decompose(f_any, t, 7)
            for m in range(8):
                for n in range(8):
                    if m != n:
                        assert inner(blocks[m], blocks[n]) == 0j
    report(6, "ker S_t*, support growth, block orthogonality: exact (residual 0) on step data")


def test_c07_adjoint_eigenvectors():
    worst = 0.0
    for sym, t in ((constant(1.0), 1.0), (E2X, 1.0)):
        radius = sym.model_disc_radius(t)
        e = indicator(0.0, t)
        rng = np.random.default_rng(107)
        for _ in range(20):
            w = 0.9 * radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            res = verify_adjoint_eigenvector(sym, t, w, e, tol=1e-8)
            worst = max(worst, res)
            assert res <= 1e-6
    report(7, f"20 random w per symbol, worst relative residual {worst:.2e} <= 1e-6")


def test_c08_circular_symmetry():
    sym, t = affine(), 0.125
    rng = np.random.default_rng(108)
    f_coarse = random_step(rng, 0.0, 8 * t, 8 * 128, unit_norm=True)  # h = t/128
    f_fine = f_coarse.subdivide(2)  # h = t/256
    details = []
    for theta in (0.7, np.pi, 5.3):
        e_fine = verify_circular_symmetry(sym, t, theta, f_fine, phase_rule="average")
        e_coarse = verify_circular_symmetry(sym, t, theta, f_coarse, phase_rule="average")
        assert e_fine <= 1e-6
        exponent = np.log2(e_coarse / e_fine)
        assert exponent >= 1.8
        # the midpoint discretization satisfies the identity by construction
        assert verify_circular_symmetry(sym, t, theta, f_fine, phase_rule="midpoint") <= 1e-9
        details.append(f"theta={theta:.3g}: {e_fine:.2e} (order {exponent:.2f})")
    report(8, "; ".join(details))


def test_c09_bracket_oracle():
    worst = 0.0
    for sym, t in GOLDEN_SYMBOLS:
        rng = np.random.default_rng(109)
        for _ in range(20):
            f = random_step(rng, 0.0, 4 * t, 4 * 64, unit_norm=True)
            forms, integrals = bracket_forms(sym, t, 6, f)
            for n in range(1, 7):
                gap = abs(forms[n] - integrals[n])
                worst = max(worst, gap)
                assert gap <= 1e-6
    report(9, f"operator vs symbol bracket, n <= 6, worst gap {worst:.2e} <= 1e-6")


def test_c10_haar_model_basis():
    sym, t = affine(), 1.0
    # the Haar functions supported inside [0, 8): k <= 3 at j = -1, k <= 7 at j = 0, 1
    index = [(-1, k) for k in range(4)] + [(j, k) for j in (0, 1) for k in range(8)]
    assert len(index) == 20  # j=-1 keeps k <= 3 inside [0, 8)
    pre = []
    for j, k in index:
        poly = model_map(sym, t, haar(j, k))
        assert poly.degree <= math.floor((k + 1) / (2.0**j * t))
        pre.append(model_inverse(sym, t, poly))  # model-space inner products by pullback
    g = np.array([[inner(a, b) for b in pre] for a in pre])
    gap = float(np.max(np.abs(g - np.eye(len(index)))))
    assert gap <= 1e-6
    report(
        10,
        f"{len(index)} Haar vectors: Gram-identity gap {gap:.2e} <= 1e-6, "
        "degrees within floor((k+1)/(2^j t))",
    )
