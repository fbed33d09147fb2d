import importlib
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
    parse_phi_spec,
    parse_symbol,
    piecewise_cap,
    random_step,
    reciprocal,
)
from wtsemigroup.classify import (
    TOL_CLASS,
    ClassificationReport,
    Witness,
    _fold,
    _sample_grid,
    bracket_table,
)
from wtsemigroup.symbols import eval_phi
from wtsemigroup.util import window

# the package exports the function classify under the module's name
classify_module = importlib.import_module("wtsemigroup.classify")


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


# ---------------------------------------------------------------------------
# the in-place table and the labels from row extrema, against the loops they
# replaced, to the bit
# ---------------------------------------------------------------------------

GOLDEN_SPECS = ("const:1", "affine", "reciprocal", "cap", "exp:a=2", "exp2x", "expr:x+1", "expr:x^2+1")
# phi(x + k t) / phi(x) = e^(20 k) overflows from k = 36: one inf row, then NaN rows
NAN_ROWS = ("expr:exp(20*x-690)", 1.0, 64, 2.0)


def _reference_bracket_table(symbol, t, n_max, grid):
    """bracket_table as it was: two full tables and a temporary per (n, k)."""
    ratios = np.empty((n_max + 1, *grid.shape), dtype=float)
    base = eval_phi(symbol, grid)
    for k in range(n_max + 1):
        ratios[k] = eval_phi(symbol, grid + k * t) / base
    table = np.empty_like(ratios)
    for n in range(n_max + 1):
        acc = np.zeros(grid.shape, dtype=float)
        for k in range(n + 1):
            acc += float((-1) ** k * math.comb(n, k)) * ratios[k]
        table[n] = acc
    return table


def _reference_report(symbol, t, max_order, grid, table):
    """classify's labels as they were decided: one mask per order and test."""
    tol = np.array(
        [TOL_CLASS * max(1.0, float(np.max(np.abs(table[n])))) for n in range(max_order + 1)]
    )
    labels, witnesses = [], {}

    def first_violation(table_row, bad, n):
        i = int(np.argmax(bad))
        return Witness(n, float(grid[i]), float(table_row[i]))

    def check(name, ok_mask_by_n):
        for n, ok in ok_mask_by_n.items():
            if not bool(np.all(ok)):
                witnesses[name] = first_violation(table[n], ~ok, n)
                return
        labels.append(name)

    d1 = table[1]
    check("contraction", {1: d1 >= -tol[1]})
    check("expansion", {1: d1 <= tol[1]})
    m_isometry = None
    for m in range(1, max_order + 1):
        if bool(np.all(np.abs(table[m]) <= tol[m])):
            m_isometry = m
            break
    if m_isometry is not None:
        labels.append("isometry" if m_isometry == 1 else f"{m_isometry}-isometry")
    max_hyper = 0
    for n in range(1, max_order + 1):
        if bool(np.all(table[n] <= tol[n])):
            max_hyper = n
        else:
            witnesses[f"completely-hyperexpansive({max_order})"] = first_violation(
                table[n], table[n] > tol[n], n
            )
            break
    if max_hyper >= 2:
        labels.append("2-hyperexpansive")
        if max_hyper > 2 and max_hyper < max_order:
            labels.append(f"{max_hyper}-hyperexpansive")
    if max_hyper == max_order:
        labels.append(f"completely-hyperexpansive({max_order})")
    check(
        f"alternatingly-hyperexpansive({max_order})",
        {n: ((-1) ** n) * table[n] >= -tol[n] for n in range(1, max_order + 1)},
    )
    check(
        f"completely-monotone-moment-candidate({max_order})",
        {n: table[n] >= -tol[n] for n in range(1, max_order + 1)},
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


def _assert_as_reference(symbol, t, order, x_max=None):
    grid = _sample_grid(symbol, t, order, window(t, x_max))
    ref_table = _reference_bracket_table(symbol, t, order, grid)
    assert bracket_table(symbol, t, order, grid).tobytes() == ref_table.tobytes()
    # repr spells every float to the bit, a signed zero and a NaN included
    got = classify(symbol, t, max_order=order, x_max=x_max)
    assert repr(got) == repr(_reference_report(symbol, t, order, grid, ref_table))


@pytest.mark.parametrize("spec", GOLDEN_SPECS)
def test_table_and_report_keep_the_reference_bytes(spec):
    symbol = parse_phi_spec(spec)
    for t in (0.25, 1 / 3, 1.0):
        for order in (1, 2, 3, 16, 64):
            _assert_as_reference(symbol, t, order)


def test_nan_rows_keep_the_reference_bytes():
    spec, t, order, x_max = NAN_ROWS
    symbol = parse_phi_spec(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        table = bracket_table(symbol, t, order, _sample_grid(symbol, t, order, x_max))
        assert (np.isnan(table).any(axis=1).sum(), np.isinf(table).any(axis=1).sum()) == (28, 1)
        _assert_as_reference(symbol, t, order, x_max)


def test_labels_from_extrema_on_drawn_tables(monkeypatch):
    """Tables drawn to sit on the edges of the sign tests: rows of one sign
    with values at +-tol, NaN and inf at random points, so a failed row's
    first NaN may come before or after its first violation."""
    rng = np.random.default_rng(3)
    drawn = {}

    def drawn_table(symbol, t, n_max, grid):
        rows = rng.choice([-1.0, 1.0], size=(n_max + 1, 1)) * rng.uniform(0.0, 1.0, (n_max + 1, grid.size))
        rows *= 10.0 ** rng.integers(-12, 4, (n_max + 1, 1))
        mixed = rng.uniform(size=n_max + 1) < 0.3
        rows[mixed] *= rng.choice([-1.0, 1.0], size=(int(mixed.sum()), grid.size))
        for value, share in ((np.nan, 0.3), (np.inf, 0.1), (-np.inf, 0.1), (TOL_CLASS, 0.2), (-TOL_CLASS, 0.2)):
            for n in np.flatnonzero(rng.uniform(size=n_max + 1) < share):
                rows[n, rng.integers(0, grid.size, rng.integers(1, 4))] = value
        rows[rng.uniform(size=rows.shape) < 0.001] = 0.0
        drawn["table"] = rows
        return rows

    monkeypatch.setattr(classify_module, "bracket_table", drawn_table)
    symbol = constant(1.0)
    for order in (1, 2, 3, 4, 6) * 40:
        got = classify(symbol, 1.0, max_order=order)
        grid = _sample_grid(symbol, 1.0, order, window(1.0, None))
        assert repr(got) == repr(_reference_report(symbol, 1.0, order, grid, drawn["table"]))


def test_fold_adds_from_zero_in_the_order_of_k():
    # column 0 makes every product -0.0: a fold from 0.0 ends at 0.0, one
    # that starts at its first product at -0.0. NaN, inf and huge values in
    # the other columns give the order of the additions away
    rng = np.random.default_rng(4)
    for n in (1, 2, 5, 16, 64):
        ratios = rng.normal(size=(n + 1, 64)) * 10.0 ** rng.integers(-300, 300, (n + 1, 64))
        ratios[:, 1:8] = [0.0, np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324]
        ratios[:, 0] = np.where(np.arange(n + 1) % 2 == 0, -0.0, 0.0)
        want = np.zeros(64)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n + 1):
                want += float((-1) ** k * math.comb(n, k)) * ratios[k]
            got = _fold(ratios, n, np.empty(64), np.empty(64))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", GOLDEN_SPECS)
def test_bracket_is_its_table_row(spec):
    symbol = parse_phi_spec(spec)
    for t in (0.25, 1.0):
        grid = _sample_grid(symbol, t, 64, window(t, None))[::8]
        table = bracket_table(symbol, t, 64, grid)
        for n in range(65):
            assert bracket(symbol, t, n, grid).tobytes() == table[n].tobytes()
            assert bracket(symbol, t, n, float(grid[5])) == table[n, 5]
