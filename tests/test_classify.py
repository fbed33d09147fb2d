import importlib
import math

import numpy as np
import pytest

from wtsemigroup import (
    affine,
    bracket,
    bracket_forms,
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
)
from wtsemigroup.operators import OperatorHandle, apply_power
from wtsemigroup.stepfun import norm_sq
from wtsemigroup.symbols import Symbol, eval_phi
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
    v = bracket_forms(affine(), 1.0, 2, indicator(0.0, 1.0))[0][2]
    assert abs(v) < 1e-9


def test_quadratic_form_constant_isometry():
    rng = np.random.default_rng(1)
    f = random_step(rng, 0.0, 3.0, 48, unit_norm=True)
    assert abs(bracket_forms(constant(1.0), 1.0, 1, f)[0][1]) < 1e-12


def test_quadratic_form_exponential_constant_bracket():
    v = bracket_forms(exponential(np.exp(2.0)), 1.0, 1, indicator(0.0, 1.0))[0][1]
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
        forms, integrals = bracket_forms(sym, t, 6, f)
        for n in range(1, 7):
            assert abs(forms[n] - integrals[n]) < 1e-9


# ---------------------------------------------------------------------------
# the bracket rows and the labels from row extrema, against the loops they
# replaced, to the bit
# ---------------------------------------------------------------------------

GOLDEN_SPECS = ("const:1", "affine", "reciprocal", "cap", "exp:a=2", "exp2x", "expr:x+1", "expr:x^2+1")
# phi(x + k t) / phi(x) = e^(20 k) overflows from k = 36: one inf row, then NaN rows
NAN_ROWS = ("expr:exp(20*x-690)", 1.0, 64, 2.0)


def _table(symbol, t, n_max, grid):
    """delta_n(grid) for n = 0..n_max: the rows classify folds, each copied
    out of the scratch row before the next overwrites it."""
    return np.array([row.copy() for row in classify_module._bracket_rows(symbol, t, n_max, grid)[0]])


def _reference_bracket_table(symbol, t, n_max, grid):
    """The table as it was first built: two full tables and a temporary per (n, k)."""
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
    assert _table(symbol, t, order, grid).tobytes() == ref_table.tobytes()
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
        table = _table(symbol, t, order, _sample_grid(symbol, t, order, x_max))
        assert (np.isnan(table).any(axis=1).sum(), np.isinf(table).any(axis=1).sum()) == (28, 1)
        _assert_as_reference(symbol, t, order, x_max)


def test_labels_from_extrema_on_drawn_tables(monkeypatch):
    """Tables drawn to sit on the edges of the sign tests: rows of one sign
    with values at +-tol, NaN and inf at random points, so a failed row's
    first NaN may come before or after its first violation. classify reads
    the rows bottom-up and may stop early; its probes are 16 columns of the
    drawn table, and half the edge values fall on them. A table that holds
    an infinity comes without probes, as _probe gives none when a delta_n
    might be infinite."""
    rng = np.random.default_rng(3)
    drawn = {}

    def drawn_rows(symbol, t, n_max, grid):
        rows = rng.choice([-1.0, 1.0], size=(n_max + 1, 1)) * rng.uniform(0.0, 1.0, (n_max + 1, grid.size))
        rows *= 10.0 ** rng.integers(-12, 4, (n_max + 1, 1))
        mixed = rng.uniform(size=n_max + 1) < 0.3
        rows[mixed] *= rng.choice([-1.0, 1.0], size=(int(mixed.sum()), grid.size))
        columns = rng.choice(grid.size, 16, replace=False)
        spots = np.concatenate([columns, rng.integers(0, grid.size, 16)])
        for value, share in ((np.nan, 0.3), (np.inf, 0.1), (-np.inf, 0.1), (TOL_CLASS, 0.2), (-TOL_CLASS, 0.2)):
            for n in np.flatnonzero(rng.uniform(size=n_max + 1) < share):
                rows[n, rng.choice(spots, rng.integers(1, 4))] = value
        rows[rng.uniform(size=rows.shape) < 0.001] = 0.0
        drawn["table"] = rows
        probes = None if np.isinf(rows).any() else rows[:, columns]
        return iter(rows), lambda: probes

    monkeypatch.setattr(classify_module, "_bracket_rows", drawn_rows)
    symbol = constant(1.0)
    for order in (1, 2, 3, 4, 6) * 40:
        got = classify(symbol, 1.0, max_order=order)
        grid = _sample_grid(symbol, 1.0, order, window(1.0, None))
        assert repr(got) == repr(_reference_report(symbol, 1.0, order, grid, drawn["table"]))


def test_a_probe_on_the_band_edge_leaves_its_order_open(monkeypatch):
    # order 1 fails all three sign tests, so the fold may stop there unless
    # the probes leave an order above open. Row 3 is zero but for
    # +-TOL_CLASS on the probe columns: max |delta_3| = TOL_CLASS sits on its
    # band, so order 3 is the isometry order and no probe may rule it out
    symbol = constant(1.0)
    grid = _sample_grid(symbol, 1.0, 4, window(1.0, None))
    columns = np.arange(0, grid.size, grid.size // 16)
    table = np.zeros((5, grid.size))
    table[0] = 1.0
    table[1:3] = np.where(np.arange(grid.size) % 2 == 0, 1.0, -1.0)
    table[3, columns] = np.where(np.arange(columns.size) % 2 == 0, TOL_CLASS, -TOL_CLASS)
    table[4] = 2.0
    monkeypatch.setattr(classify_module, "_bracket_rows", lambda *args: (iter(table), lambda: table[:, columns]))
    got = classify(symbol, 1.0, max_order=4)
    assert got.m_isometry == 3
    assert repr(got) == repr(_reference_report(symbol, 1.0, 4, grid, table))


@pytest.mark.parametrize("spec", ("affine", "cap", "reciprocal"))
def test_every_stop_keeps_the_full_table_report(spec):
    symbol = parse_phi_spec(spec)
    for t in (0.25, 1 / 3, 1.0):
        for order in range(1, 65):
            grid = _sample_grid(symbol, t, order, window(t, None))
            table = _table(symbol, t, order, grid)
            got = classify(symbol, t, max_order=order)
            assert repr(got) == repr(_reference_report(symbol, t, order, grid, table))


def test_rows_folded_before_the_labels_are_decided(monkeypatch):
    folds = []

    def counted(ratios, n, acc, term):
        folds.append(n)
        return _fold(ratios, n, acc, term)

    monkeypatch.setattr(classify_module, "_fold", counted)
    # affine's three sign tests have failed by order 22 and its isometry order is 2
    classify(affine(), 1.0, max_order=64)
    assert folds == list(range(len(folds))) and len(folds) <= 23
    # every delta_n of const:1 is zero, so its moment test never fails
    folds.clear()
    classify(constant(1.0), 1.0, max_order=64)
    assert folds == list(range(65))


@pytest.mark.parametrize("spec", GOLDEN_SPECS)
def test_probes_are_columns_of_the_table(spec):
    symbol = parse_phi_spec(spec)
    for t in (0.25, 1.0):
        grid = _sample_grid(symbol, t, 64, window(t, None))
        _, probe = classify_module._bracket_rows(symbol, t, 64, grid)
        columns = np.linspace(0, grid.size - 1, 16, dtype=int)
        assert probe().tobytes() == _table(symbol, t, 64, grid)[:, columns].tobytes()


def test_probes_add_in_the_order_of_the_fold():
    # the magnitudes span 1e-300..1e280, so another order of the additions
    # loses or keeps other bits; column 0 gives -0.0 products only
    rng = np.random.default_rng(6)
    ratios = rng.uniform(0.0, 1.0, (65, 64)) * 10.0 ** rng.integers(-300, 280, (65, 64))
    ratios[:, 0] = 0.0
    columns = np.linspace(0, 63, 16, dtype=int)
    want = np.array([_fold(ratios[:, columns], n, np.empty(16), np.empty(16)) for n in range(65)])
    assert classify_module._probe(ratios).tobytes() == want.tobytes()


def test_no_probes_when_a_row_might_overflow():
    bound = np.finfo(float).max / 2.0**65
    ratios = np.ones((65, 64))
    ratios[40, 7] = bound
    assert classify_module._probe(ratios) is not None
    for value in (np.nextafter(bound, np.inf), np.inf, np.nan):
        ratios[40, 7] = value
        assert classify_module._probe(ratios) is None


def test_an_infinite_row_above_the_stop_keeps_the_reference_bytes():
    # every sign test fails at order 1 and phi(x + k t) / phi(x) overflows
    # near x = 3 from k = 40, while the probe column at x = 0 stays finite:
    # probes would rule out every order above 1, but the inf row 40 reads as
    # a zero row (the 40-isometry of ROADMAP item 1), so no probes are made
    symbol = parse_symbol("exp(700-466*x)+exp(17.75*x-753.25)")
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_as_reference(symbol, 1.0, 64, 5.0)
        assert classify(symbol, 1.0, max_order=64, x_max=5.0).m_isometry == 40


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
        table = _table(symbol, t, 64, grid)
        for n in range(65):
            assert bracket(symbol, t, n, grid).tobytes() == table[n].tobytes()
            assert bracket(symbol, t, n, float(grid[5])) == table[n, 5]


def _reference_agreement(symbol, t, f):
    """verify's bracket_agreement as it was: both routes once per order."""
    op = OperatorHandle(symbol, t, "S")
    worst = []
    for n in range(1, 7):
        form = 0.0
        for k in range(n + 1):
            form += float((-1) ** k * math.comb(n, k)) * norm_sq(apply_power(op, k, f))
        integral = float(np.sum(bracket(symbol, t, n, f.midpoints()) * np.abs(f.values) ** 2 * f.widths()))
        worst.append(abs(form - integral))
    return max(worst)


@pytest.mark.parametrize("spec", GOLDEN_SPECS)
def test_bracket_agreement_keeps_the_per_order_bytes(spec):
    symbol = parse_phi_spec(spec)
    rng = np.random.default_rng(7)
    for t in (0.1, 0.25, 1 / 3, 1.0):
        f = random_step(rng, 0.0, 4 * t, 4 * 64, unit_norm=True)
        forms, integrals = bracket_forms(symbol, t, 6, f)
        got = max(abs(forms[n] - integrals[n]) for n in range(1, 7))
        want = _reference_agreement(symbol, t, f)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("max_order", [0, -1])
@pytest.mark.parametrize("spec", ["exp:a=2", "reciprocal"])
def test_an_order_below_one_is_refused_before_any_phi(monkeypatch, spec, max_order):
    # an order below 1 reads no delta_n with n >= 1, so no label has evidence
    calls = []
    values = Symbol.values
    monkeypatch.setattr(Symbol, "values", lambda self, x: calls.append(x) or values(self, x))
    with pytest.raises(ValueError, match=r"^classify needs max_order >= 1, got -?\d+$"):
        classify(parse_phi_spec(spec), 1.0, max_order=max_order)
    assert calls == []
    # delta_0 = 1 stays a bracket
    assert bracket(parse_phi_spec(spec), 1.0, 0, 0.5) == 1.0
