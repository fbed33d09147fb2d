import math

import numpy as np
import pytest

from wtsemigroup import (
    affine,
    bracket,
    bracket_integral,
    bracket_quadratic_form,
    classify,
    constant,
    exponential,
    indicator,
    parse_symbol,
    piecewise_cap,
    random_step,
    reciprocal,
)


def test_bracket_affine_second_order_telescopes():
    # (x+1) - 2(x+t+1) + (x+2t+1) = 0 for every t and x
    for t in (0.3, 1.0, 2.5):
        xs = np.linspace(0.0, 20.0, 101)
        assert np.max(np.abs(bracket(affine(), t, 2, xs))) < 1e-12


def test_bracket_constant_isometry():
    assert bracket(constant(3.0), 1.0, 1, 7.7) == 0.0


def test_bracket_exponential_expansion():
    # 1 - e^2 at every x
    val = bracket(exponential(np.exp(2.0)), 1.0, 1, 2.9)
    assert val == pytest.approx(1.0 - np.exp(2.0), rel=1e-12)
    assert val < 0


def test_bracket_exponential_binomial_closed_form():
    # sum (-1)^k C(n,k) a^{kt} = (1 - a^t)^n
    a, t = 2.0, 1.0
    for n in range(1, 9):
        assert bracket(exponential(a), t, n, 1.23) == pytest.approx(
            (1.0 - a**t) ** n, rel=1e-10
        )


def test_bracket_pascal_recurrence():
    # delta_{n+1}(x) = delta_n(x) - (phi(x+t)/phi(x)) delta_n(x+t)
    rng = np.random.default_rng(0)
    xs = rng.uniform(0.0, 10.0, 25)
    for sym in (affine(), reciprocal(), piecewise_cap(), exponential(1.5)):
        t = 0.4
        for n in range(0, 7):
            lhs = bracket(sym, t, n + 1, xs)
            ratio = sym.values(xs + t) / sym.values(xs)
            rhs = bracket(sym, t, n, xs) - ratio * bracket(sym, t, n, xs + t)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_bracket_order_guard():
    with pytest.raises(OverflowError):
        bracket(affine(), 1.0, 65, 0.0)


# ---------------------------------------------------------------------------
# golden classification set
# ---------------------------------------------------------------------------


def test_classify_constant_isometry():
    rep = classify(constant(1.0), 1.0)
    assert "isometry" in rep.labels
    assert rep.m_isometry == 1
    # degenerate companions
    for label in ("contraction", "expansion", "completely-hyperexpansive(16)"):
        assert label in rep.labels


def test_classify_affine_two_isometry():
    rep = classify(affine(), 1.0, max_order=8)
    assert "2-isometry" in rep.labels
    assert "2-hyperexpansive" in rep.labels
    assert "completely-hyperexpansive(8)" in rep.labels
    assert rep.m_isometry == 2
    assert "isometry" not in rep.labels


def test_classify_reciprocal_subnormal_candidate():
    rep = classify(reciprocal(), 1.0, max_order=8)
    assert "contraction" in rep.labels
    assert "completely-monotone-moment-candidate(8)" in rep.labels
    assert "expansion" not in rep.labels
    assert rep.max_hyperexpansive_order == 0


def test_classify_cap_two_hyperexpansive():
    rep = classify(piecewise_cap(), 0.25, max_order=2)
    assert "2-hyperexpansive" in rep.labels
    rep16 = classify(piecewise_cap(), 0.25, max_order=16)
    assert "2-hyperexpansive" in rep16.labels
    assert rep16.max_hyperexpansive_order == 2
    assert "completely-hyperexpansive(16)" not in rep16.labels
    assert "completely-hyperexpansive(16)" in rep16.witnesses


def test_classify_four_hyperexpansive():
    # for n >= 2 the linear part cancels: delta_n(x) phi(x) =
    # -e^{-x} (1 - e^{-1})^n / 2 + e^{-2x} (1 - e^{-2})^n / 8, negative at
    # every x >= 0 for n <= 4 and positive at x = 0 for n >= 5
    rep = classify(parse_symbol("x+1-exp(-x)/2+exp(-2*x)/8"), 1.0, max_order=16)
    assert "4-hyperexpansive" in rep.labels
    assert "completely-hyperexpansive(16)" not in rep.labels
    assert rep.max_hyperexpansive_order == 4
    witness = rep.witnesses["completely-hyperexpansive(16)"]
    assert (witness.n, witness.x) == (5, 0.0)
    phi0 = 1.0 - 1.0 / 2 + 1.0 / 8
    exact = (-((1 - math.exp(-1)) ** 5) / 2 + (1 - math.exp(-2)) ** 5 / 8) / phi0
    assert witness.value == pytest.approx(exact, abs=1e-12)


def test_classify_exponential_alternating():
    rep = classify(exponential(2.0), 1.0, max_order=8)
    assert "alternatingly-hyperexpansive(8)" in rep.labels
    assert "expansion" in rep.labels
    assert "contraction" not in rep.labels
    rep_half = classify(exponential(2.0), 0.5, max_order=16)
    assert "alternatingly-hyperexpansive(16)" in rep_half.labels


def test_classify_witness_locates_failure():
    rep = classify(piecewise_cap(), 0.25, max_order=16)
    wit = rep.witnesses["completely-hyperexpansive(16)"]
    assert wit.n == 3
    assert bracket(piecewise_cap(), 0.25, wit.n, wit.x) == pytest.approx(wit.value, rel=1e-12)
    assert wit.value > 0  # genuine sign violation


def test_classify_label_monotonicity():
    # completely hyperexpansive to order N implies every lower hyperexpansion
    rep = classify(affine(), 1.0, max_order=16)
    assert rep.max_hyperexpansive_order == 16
    # isometry forces every bracket to vanish
    rep_c = classify(constant(2.0), 0.7, max_order=16)
    assert rep_c.m_isometry == 1
    assert rep_c.max_hyperexpansive_order == 16


def test_classify_report_json_roundtrip():
    import json

    rep = classify(piecewise_cap(), 0.25)
    payload = json.loads(json.dumps(rep.to_json_dict()))
    assert payload["labels"] == list(rep.labels)
    assert payload["max_order"] == 16


# ---------------------------------------------------------------------------
# operator-level versus symbol-level quadratic forms
# ---------------------------------------------------------------------------


def test_quadratic_form_affine_two_isometry():
    v = bracket_quadratic_form(affine(), 1.0, 2, indicator(0.0, 1.0))
    assert abs(v) < 1e-9


def test_quadratic_form_constant_isometry():
    rng = np.random.default_rng(1)
    f = random_step(rng, 0.0, 3.0, 48, unit_norm=True)
    assert abs(bracket_quadratic_form(constant(1.0), 1.0, 1, f)) < 1e-12


def test_quadratic_form_exponential_constant_bracket():
    v = bracket_quadratic_form(exponential(np.exp(2.0)), 1.0, 1, indicator(0.0, 1.0))
    assert v == pytest.approx(1.0 - np.exp(2.0), rel=1e-12)


@pytest.mark.parametrize(
    "sym,t",
    [
        (constant(1.0), 1.0),
        (affine(), 1.0),
        (reciprocal(), 1.0),
        (piecewise_cap(), 0.25),
        (exponential(2.0), 0.5),
    ],
)
def test_operator_symbol_agreement(sym, t):
    rng = np.random.default_rng(2)
    for _ in range(4):
        f = random_step(rng, 0.0, 4 * t, 128, unit_norm=True)
        for n in range(1, 7):
            lhs = bracket_quadratic_form(sym, t, n, f)
            rhs = bracket_integral(sym, t, n, f)
            assert abs(lhs - rhs) < 1e-9
