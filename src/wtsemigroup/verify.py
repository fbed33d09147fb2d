"""Named invariant suites behind the `verify` command.

Each suite measures one identity of the semigroup or its model and returns
the residual together with the configured tolerance. Identities that hold
exactly on step data (support facts, kernel of the adjoint, block
orthogonality) are asserted with tolerance zero; identities that cancel
cell by cell under the midpoint discretization carry a rounding budget; the
genuinely discretization-limited checks get tol(h) budgets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import bracket_forms
from .config import RunConfig
from .model import (
    DOMAIN_MARGIN,
    block_decompose,
    kernel_closed_form,
    kernel_series,
    make_kernel,
    model_map,
    parseval_defect,
    reproducing_check,
)
from .operators import OperatorHandle, apply, apply_power, make_operator
from .spectral import (
    model_disc_radius,
    verify_adjoint_eigenvector,
    verify_circular_symmetry,
)
from .stepfun import indicator, inner, norm, random_step, restrict_to_E
from .symbols import Symbol

MAX_CELLS = 2**19  # budget for the 8 * cfg.per_block cells of each test function on [0, 8 t)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float
    passed: bool
    note: str = ""


def _result(name: str, residual: float, tol: float, note: str = "") -> CheckResult:
    return CheckResult(name, float(residual), tol, float(residual) <= tol, note)


def run_verify(symbol: Symbol, cfg: RunConfig) -> list[CheckResult]:
    """Run every invariant suite at the configured tolerances."""
    t = cfg.t
    per_block = cfg.per_block  # the rounding-level suites need the snapped mesh
    h = t / per_block
    rng = np.random.default_rng(cfg.seed)
    f = random_step(rng, 0.0, 8 * t, 8 * per_block, unit_norm=True)
    g = random_step(rng, 0.0, 8 * t, 8 * per_block, unit_norm=True)
    tol = cfg.tol

    op_s = make_operator(symbol, t, "S")
    op_sadj = OperatorHandle(symbol, t, "S_adjoint")
    op_shalf = make_operator(symbol, t / 2, "S")
    op_sfull = make_operator(symbol, 1.5 * t, "S")
    op_l = make_operator(symbol, t, "L", x_max=cfg.resolved_x_max)

    results: list[CheckResult] = []

    # semigroup law: S_t S_{t/2} = S_{3t/2}
    r = norm(apply(op_s, apply(op_shalf, f)) - apply(op_sfull, f))
    results.append(_result("semigroup_law", r, tol["semigroup_law"]))

    # adjoint pairing <S f, g> = <f, S* g>
    sf = apply(op_s, f)
    r = abs(inner(sf, g) - inner(f, apply(op_sadj, g)))
    results.append(_result("adjoint_pairing", r, tol["adjoint_pairing"]))

    # L_t S_t = identity
    r = norm(apply(op_l, sf) - f)
    results.append(_result("left_inverse", r, tol["left_inverse"]))

    # analyticity: supp S_t^k f sits in [k t, inf), exactly
    worst = 0.0
    for k in range(1, 6):
        img = apply_power(op_s, k, f)
        sup = img.support
        if sup is not None:
            worst = max(worst, k * t - sup[0])
    results.append(_result("analyticity_support", max(0.0, worst), tol["analyticity_support"]))

    # ker S_t* = chi_[0,t) L2, exactly (both directions)
    r = norm(apply(op_sadj, restrict_to_E(f, t)))
    tail = f.restrict(t, f.hi)
    if not tail.is_zero() and norm(apply(op_sadj, tail)) == 0.0:
        r = np.inf  # adjoint killed mass beyond t: kernel is too big
    results.append(_result("adjoint_kernel", r, tol["adjoint_kernel"]))

    # orthogonal blocks chi_[nt,(n+1)t) f
    blocks = block_decompose(f, t, 7)
    r = max(
        abs(inner(blocks[m], blocks[n]))
        for m in range(8)
        for n in range(8)
        if m != n
    )
    results.append(_result("block_orthogonality", r, tol["block_orthogonality"]))

    # unitarity of the model map, both evaluation routes; the quadrature
    # route carries the O(h^2) coefficient error, so its budget is anchored
    # at h = t/256 and rescaled quadratically for coarser meshes
    pullback, gauss = parseval_defect(symbol, t, f)
    results.append(_result("parseval_pullback", pullback, tol["parseval_pullback"]))
    quad_tol = tol["parseval_quadrature"] * max(1.0, (256.0 * h / t) ** 2)
    results.append(_result("parseval_quadrature", gauss, quad_tol, f"h={h:g}"))

    # intertwining: U S_t shifts coefficients
    # only the coefficient views are kept: a table and its view would hold
    # the coefficients twice
    coeffs = model_map(symbol, t, f).coeffs
    shifted = model_map(symbol, t, sf).coeffs
    r = norm(shifted[0])
    for n in range(1, len(shifted)):
        prev = coeffs[n - 1] if n - 1 < len(coeffs) else None
        if prev is not None:
            r = max(r, norm(shifted[n] - prev))
    results.append(_result("intertwining", r, tol["intertwining"]))
    del sf  # 8 blocks of cells, freed before the reproducing and eigenvector checks

    # reproducing property at a safe lambda; e lives on the same mesh as f
    # so the two evaluation routes share their midpoint resolution
    radius = model_disc_radius(symbol, t, cfg.n_max, cfg.resolved_x_max)
    lam = 0.4 * radius * (1.0 - DOMAIN_MARGIN)
    e = indicator(0.0, t).scale(1.0 / np.sqrt(t)).subdivide(per_block)
    chk = reproducing_check(symbol, t, f, lam, e)
    results.append(_result("reproducing", chk.diff, tol["reproducing"], f"lambda={lam:g}"))

    # circular symmetry of the conjugated operator
    r = verify_circular_symmetry(symbol, t, 2.0, f, phase_rule="midpoint")
    results.append(_result("circular_symmetry", r, tol["circular_symmetry"], "theta=2"))

    # adjoint eigenvector inside the model disc
    w = 0.5 * radius * (1.0 - DOMAIN_MARGIN)
    r = verify_adjoint_eigenvector(symbol, t, w, e, tol=tol["adjoint_eigenvector"] / 10)
    results.append(_result("adjoint_eigenvector", r, tol["adjoint_eigenvector"], f"w={w:g}"))

    # operator-level vs symbol-level bracket
    small = random_step(rng, 0.0, 4 * t, 4 * per_block, unit_norm=True)
    forms, integrals = bracket_forms(symbol, t, 6, small)
    r = max(abs(forms[n] - integrals[n]) for n in range(1, 7))
    results.append(_result("bracket_agreement", r, tol["bracket_agreement"], "n <= 6"))

    # kernel series against the closed form, when one is tagged
    if symbol.closed_form is not None:
        kern = make_kernel(symbol, t)
        rng_k = np.random.default_rng(cfg.seed + 1)
        worst = 0.0
        for _ in range(10):
            zr = 0.9 * kern.radius * np.sqrt(rng_k.uniform()) * np.exp(2j * np.pi * rng_k.uniform())
            lr = 0.9 * kern.radius * np.sqrt(rng_k.uniform()) * np.exp(2j * np.pi * rng_k.uniform())
            x = rng_k.uniform(0.0, t)
            worst = max(
                worst,
                abs(kernel_series(kern, zr, lr, x)[0] - kernel_closed_form(kern, zr, lr, x)),
            )
        results.append(_result("kernel_agreement", worst, tol["kernel_agreement"]))

    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
