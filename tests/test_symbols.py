import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wtsemigroup import (
    NonPositiveSymbolError,
    SymbolSyntaxError,
    affine,
    apply_power,
    check_left_invertible,
    constant,
    eval_phi,
    exponential,
    expression_to_string,
    make_operator,
    parse_phi_spec,
    parse_symbol,
    piecewise_cap,
    random_step,
    reciprocal,
    validate_positivity,
)
from wtsemigroup.operators import phi_ratio
from wtsemigroup.symbols import MAX_DEPTH, POSITIVITY_FLOOR, POSITIVITY_SAMPLES, BinOp, Call, Neg, Num, Var


def test_parse_affine_tree():
    s = parse_symbol("x+1")
    assert eval_phi(s, 2.0) == 3.0


def test_parse_exp_tree():
    s = parse_symbol("exp(2*x)")
    assert eval_phi(s, 0.0) == 1.0
    assert eval_phi(s, 1.0) == pytest.approx(np.exp(2.0), abs=1e-12)


def test_parse_reciprocal_tree():
    s = parse_symbol("1/(x+1)")
    assert eval_phi(s, 1.0) == 0.5


@pytest.mark.parametrize(
    "text",
    ["x+1", "exp(2*x)", "1/(x+1)", "x*x - 2*x + 3", "(x+1)^2", "2^x", "x/(x+1)/(x+2)", "exp(log(x+1)*0.5)", "-x+5", "3.5e-1*x+1"],
)
def test_print_parse_roundtrip_bit_exact(text):
    tree = parse_symbol(text)
    printed = expression_to_string(tree.expr)
    again = parse_symbol(printed)
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 50.0, size=1000)
    v1 = tree.values(x)
    v2 = again.values(x)
    assert np.array_equal(v1, v2)


def test_syntax_error_carries_position():
    with pytest.raises(SymbolSyntaxError) as ei:
        parse_symbol("x+*2")
    assert ei.value.position == 2


def test_unknown_identifier():
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("x+y")


def test_unbalanced_paren():
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("exp(x")


@pytest.mark.parametrize(
    "nest",
    [
        lambda k: "x+" * (k - 1) + "1",
        lambda k: "-" * (k - 1) + "x",
        lambda k: "x^" * (k - 1) + "1",
        lambda k: "exp(" * (k - 1) + "x" + ")" * (k - 1),
        lambda k: "x+(" * (k - 1) + "1" + ")" * (k - 1),
        lambda k: "x*(" * (k - 1) + "2" + ")" * (k - 1),
        lambda k: "(" * (k - 1) + "2" + "^x)" * (k - 1),
        lambda k: "min(x," * (k - 1) + "1" + ")" * (k - 1),
    ],
    ids=["sum", "negation", "power", "calls", "right-sum", "right-product", "left-power", "min"],
)
def test_expression_depth_limit(nest):
    # a tree at the limit parses, evaluates, and prints to text that parses to
    # it again: the printed form keeps each parenthesis of the right-nested
    # sums and products and the left-nested powers, within 2 * MAX_DEPTH
    tree = parse_symbol(nest(MAX_DEPTH))
    assert tree.values(np.array([0.5])).shape == (1,)
    assert parse_symbol(expression_to_string(tree.expr)).expr == tree.expr
    with pytest.raises(SymbolSyntaxError, match=f"deeper than {MAX_DEPTH} levels"):
        parse_symbol(nest(MAX_DEPTH + 1))


def _trees():
    """Every tree the parser can build: a literal is a float >= 0 (inf from
    1e999), and parentheses and signs reach any shape."""
    literal = st.floats(min_value=0.0, allow_nan=False).filter(lambda v: math.copysign(1.0, v) > 0)
    return st.recursive(
        st.one_of(st.builds(Num, literal), st.just(Var())),
        lambda sub: st.one_of(
            st.builds(Neg, sub),
            st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^", "min"]), sub, sub),
            st.builds(Call, st.sampled_from(["exp", "log"]), sub),
        ),
        max_leaves=24,
    )


def _levels(node) -> int:
    children = [getattr(node, a) for a in ("arg", "left", "right") if hasattr(node, a)]
    return 1 + max(map(_levels, children), default=0)


@settings(max_examples=500, deadline=None)
@given(_trees())
@example(parse_symbol("(2^x)^2").expr)
@example(parse_symbol("x*(3*0.1)").expr)
@example(parse_symbol("x+(x+1)").expr)
@example(parse_symbol("x-(x+1)").expr)
@example(parse_symbol("1e999*x").expr)
@example(parse_symbol("-min(x,1)^min(2,x)").expr)
def test_printed_tree_parses_to_itself(tree):
    assume(_levels(tree) <= MAX_DEPTH)
    assert parse_symbol(expression_to_string(tree)).expr == tree


# the golden specs of test_classify: every built-in and two expressions
@pytest.mark.parametrize(
    "spec", ["const:1", "affine", "reciprocal", "cap", "exp:a=2", "exp2x", "expr:x+1", "expr:x^2+1"]
)
def test_every_golden_symbol_prints_to_text_that_parses_to_its_tree(spec):
    sym = parse_phi_spec(spec)
    assert parse_symbol(expression_to_string(sym.expr)).expr == sym.expr


def test_cap_prints_min_in_its_one_spelling():
    assert expression_to_string(piecewise_cap().expr) == "min(x+1.0,2.0)"
    assert parse_symbol(" min ( x + 1 , 2 ) ").expr == piecewise_cap().expr


@pytest.mark.parametrize(
    "text,position",
    [("min(x)", 5), ("min(x,1,2)", 7), ("min(x 1)", 6), ("min", 3), ("min(x,)", 6), ("x,1", 1), ("exp(x,1)", 5)],
)
def test_min_takes_exactly_two_arguments(text, position):
    with pytest.raises(SymbolSyntaxError) as info:
        parse_symbol(text)
    assert info.value.position == position


def test_printed_power_of_a_power_keeps_its_value():
    # printed without parentheses, (2^x)^2 read back as 2^(x^2): 512, not 64, at x = 3
    again = parse_symbol(expression_to_string(parse_symbol("(2^x)^2").expr))
    assert again.values(np.array([3.0])).tolist() == [64.0]


def test_parser_nesting_limit():
    at_limit = "(" * (2 * MAX_DEPTH - 1) + "x" + ")" * (2 * MAX_DEPTH - 1)
    assert parse_symbol(at_limit).expr == parse_symbol("x").expr
    with pytest.raises(SymbolSyntaxError, match=f"more than {2 * MAX_DEPTH} parentheses"):
        parse_symbol("(" + at_limit + ")")


def test_eval_phi_constant():
    assert eval_phi(constant(1.0), 7.3) == 1.0


def test_eval_phi_piecewise_cap():
    cap = piecewise_cap()
    assert eval_phi(cap, 0.5) == 1.5
    assert eval_phi(cap, 3.0) == 2.0


def test_eval_phi_exponential():
    assert eval_phi(exponential(2.0), 3.0) == 8.0


def test_eval_phi_rejects_nonpositive():
    s = parse_symbol("x-2")
    with pytest.raises(NonPositiveSymbolError):
        eval_phi(s, 1.0)


def _eval_phi_by_masks(symbol, x):
    """eval_phi as it checked before the reductions: one mask over every
    point per check, and numpy's scalar test."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        bad = float(arr.flat[np.argmax(arr.ravel() < 0)])
        raise ValueError(f"phi is defined on the half line; got x={bad}")
    vals = symbol.values(arr)
    good = np.isfinite(vals) & (vals > 0)
    if not np.all(good):
        i = int(np.argmin(good.ravel()))
        raise NonPositiveSymbolError(float(arr.ravel()[i]), float(vals.ravel()[i]))
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(vals.flat[0])
    return vals


def _phi_outcome(fn):
    """The bytes, type and shape of what fn returns, or the class and message
    of what it raises."""
    try:
        got = fn()
    except Exception as exc:  # noqa: BLE001 - compared as data
        return type(exc), str(exc)
    return type(got), np.shape(got), np.asarray(got).tobytes()


_ENTRIES = st.one_of(
    st.sampled_from([-2.5, -1.0, -0.0, 0.0, math.nan, math.inf, -math.inf, 3.0, 69.0, 70.0, 355.0, 1024.0]),
    st.floats(-5.0, 100.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _phi_inputs(draw):
    """A Python float, a 0-d array, or an array of 0, 1 or 2 dimensions."""
    form = draw(st.sampled_from(["float", "0-d", "1-d", "2-d"]))
    if form == "float":
        return draw(_ENTRIES)
    if form == "0-d":
        return np.array(draw(_ENTRIES))
    n = draw(st.integers(0, 6))
    size = n if form == "1-d" else 2 * n
    entries = draw(st.lists(_ENTRIES, min_size=size, max_size=size))
    return np.array(entries, dtype=float).reshape(-1 if form == "1-d" else (2, n))


@settings(max_examples=400, deadline=None)
@given(
    spec=st.sampled_from(
        ["const:1", "const:2.5", "affine", "reciprocal", "cap", "exp:a=2", "exp2x",
         "expr:3-x", "expr:log(x)", "expr:1/(x-70)+1", "expr:x+1/0"]
    ),
    x=_phi_inputs(),
)
def test_eval_phi_matches_the_mask_checks(spec, x):
    # the same value bytes and return type, or the same error class and message
    sym = parse_phi_spec(spec)
    with np.errstate(all="ignore"):
        assert _phi_outcome(lambda: eval_phi(sym, x)) == _phi_outcome(lambda: _eval_phi_by_masks(sym, x))


def _values_by_name(name, param, x):
    """Symbol.values as it was when each built-in had its own branch."""
    x = np.asarray(x, dtype=float)
    if name == "const":
        return np.full(x.shape, param, dtype=float)
    if name == "affine":
        return x + 1.0
    if name == "reciprocal":
        # np.divide, the tree's ufunc: at a float or 0-d x = -1, 1.0 / (x + 1.0)
        # divides numpy scalars and warns "... in scalar divide" instead
        return np.divide(1.0, x + 1.0)
    if name == "cap":
        return np.where(x <= 1.0, x + 1.0, 2.0)
    return np.power(param, x)  # exp


def _outcome_and_warnings(fn):
    """_phi_outcome of fn, with the category and message of each warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = _phi_outcome(fn)
    return outcome, [(w.category, str(w.message)) for w in caught]


# each built-in, the same tree typed as an expression, and its branch by name
_SPELLINGS = [
    ("const:2.5", "expr:2.5", ("const", 2.5)),
    ("affine", "expr:x+1", ("affine", None)),
    ("reciprocal", "expr:1/(x+1)", ("reciprocal", None)),
    ("exp:a=2", "expr:2^x", ("exp", 2.0)),
    ("exp2x", "expr:7.38905609893065^x", ("exp", math.exp(2.0))),
]


@settings(max_examples=300, deadline=None)
@given(spelling=st.sampled_from(_SPELLINGS), x=_phi_inputs())
@example(spelling=_SPELLINGS[2], x=np.array([-math.inf, -1.0, -0.0]))  # -0.0, 1/0 and 0/0
@example(spelling=_SPELLINGS[0], x=np.array(3.0))  # a 0-d x
@example(spelling=_SPELLINGS[4], x=np.array([[355.0, math.nan], [-math.inf, 1.0]]))
@example(spelling=_SPELLINGS[2], x=-1.0)  # 1/0 at a float x
@example(spelling=_SPELLINGS[2], x=np.array(-1.0))  # and at a 0-d x
def test_builtin_and_its_expression_are_one_tree(spelling, x):
    # the same bytes and type as the branch by name, and as each other; a new
    # array, never x; and the same eval_phi outcome and warnings
    builtin, typed = parse_phi_spec(spelling[0]), parse_phi_spec(spelling[1])
    assert builtin.expr == typed.expr
    ref = _outcome_and_warnings(lambda: _values_by_name(*spelling[2], x))
    for sym in (builtin, typed):
        assert _outcome_and_warnings(lambda: sym.values(x)) == ref
        with np.errstate(all="ignore"):
            got, want = sym.values(x), _values_by_name(*spelling[2], x)
        assert type(got) is type(want) and not np.shares_memory(got, x)
    assert _outcome_and_warnings(lambda: eval_phi(builtin, x)) == _outcome_and_warnings(lambda: eval_phi(typed, x))


@settings(max_examples=200, deadline=None)
@given(x=_phi_inputs())
@example(x=np.array([math.nan, 1.0, 1.0 - 2**-53, 1.0 + 2**-52, math.inf, -math.inf]))
def test_cap_is_min_of_x_plus_one_and_two(x):
    # the branch by name's bytes wherever x is a number; at x = NaN the min is
    # x+1's NaN, payload and all, where np.where gave 2.0
    cap = piecewise_cap()
    got = cap.values(x)
    assert np.asarray(got).tobytes() == np.asarray(parse_symbol("min(x+1,2)").values(x)).tobytes()
    want = np.where(np.isnan(x), np.add(x, 1.0), _values_by_name("cap", None, x))
    assert np.asarray(got).tobytes() == want.tobytes()
    assert not np.shares_memory(got, x)


def test_cap_refuses_nan_as_affine_does():
    # the branch by name returned 2.0 at x = NaN
    assert _phi_outcome(lambda: eval_phi(piecewise_cap(), math.nan)) == _phi_outcome(
        lambda: eval_phi(affine(), math.nan)
    )
    with pytest.raises(NonPositiveSymbolError) as info:
        eval_phi(piecewise_cap(), np.array([0.5, math.nan]))
    assert math.isnan(info.value.x) and math.isnan(info.value.value)


@pytest.mark.parametrize("x", [np.array([-0.0, 2.0]), np.array([[1.0], [3.0]]), np.array(4.0), 5.0])
def test_a_bare_x_is_copied_and_a_tree_without_x_broadcast(x):
    for text, want in (("x", np.asarray(x)), ("1/(1+1)", np.full(np.shape(x), 0.5))):
        got = parse_symbol(text).values(x)
        assert np.shape(got) == np.shape(x) and np.asarray(got).tobytes() == want.tobytes()
        assert not np.shares_memory(got, x)


def test_expression_warns_as_numpy_does():
    # one error-state policy for every tree: numpy's default, the built-ins' own
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        parse_symbol("x+1/0").values(np.array([1.0]))
    with pytest.warns(RuntimeWarning, match="overflow encountered in power"):
        exponential(2.0).values(np.array([2000.0]))


@pytest.mark.parametrize(
    "spec,closed_form,growth,kinks,radius",
    [
        ("const:2", "szego", 1.0, (), 1.0),
        ("affine", "two_isometry", 1.0, (), 1.0),
        ("reciprocal", "bergman_like", 1.0, (), 1.0),
        ("cap", "piecewise_cap", 1.0, (1.0,), 1.0),
        ("exp:a=4", "scaled_szego", 4.0, (), 8.0),
        ("expr:x+1", None, None, (), None),
    ],
)
def test_tags_set_by_the_constructors(spec, closed_form, growth, kinks, radius):
    # the model disc radius is growth ** (t/2), here at t = 3
    sym = parse_phi_spec(spec)
    assert (sym.closed_form, sym.growth, sym.kinks) == (closed_form, growth, kinks)
    assert sym.model_disc_radius(3.0) == radius


def test_validate_positivity_catches_pole():
    s = parse_symbol("1/(x-2)")
    with pytest.raises(NonPositiveSymbolError):
        validate_positivity(s, 64.0)


def test_validate_positivity_ok():
    assert validate_positivity(parse_symbol("x*x+0.5"), 64.0) == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("shift", [-1e-9, 1e-9])
def test_validate_positivity_refines_a_dip_between_samples(shift):
    # the dip at x = 32 falls between grid samples, each at least 1e-7: only
    # the refinement of the samples below POSITIVITY_FLOOR reaches it
    sym = parse_phi_spec(f"expr:(x-32)^2/100{shift:+g}")
    grid = np.linspace(0.0, 64.0, POSITIVITY_SAMPLES)
    lowest_sample = float(np.min(eval_phi(sym, grid)))
    assert 1e-7 <= lowest_sample < POSITIVITY_FLOOR
    if shift < 0:
        with pytest.raises(NonPositiveSymbolError):
            validate_positivity(sym, 64.0)
    else:
        assert 0.0 < validate_positivity(sym, 64.0) < lowest_sample / 10


def _validate_positivity_by_windows(symbol, x_max):
    """validate_positivity as it refined before: one linspace and one
    eval_phi for each sample below POSITIVITY_FLOOR."""
    grid = np.linspace(0.0, x_max, POSITIVITY_SAMPLES)
    vals = eval_phi(symbol, grid)
    lowest = float(np.min(vals))
    for i in np.nonzero(vals < POSITIVITY_FLOOR)[0]:
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, POSITIVITY_SAMPLES - 1)]
        lowest = min(lowest, float(np.min(eval_phi(symbol, np.linspace(lo, hi, 200)))))
    return lowest


@pytest.mark.parametrize(
    "spec",
    [
        "const:1",
        "const:1e-7",
        "affine",
        "reciprocal",
        "exp2x",
        "expr:exp(-x)",  # about 7,800 windows below the floor
        "expr:1e-7+0*x",  # every sample below the floor
        "expr:x",  # refused on the grid, at x = 0
        "expr:x^2+1e-9",
        "expr:(x-32)^2/100-1e-9",  # a dip between samples, refused by a window
        "expr:(x-32)^2/100+1e-9",
        "expr:exp(-x)*((x-60)^2-1e-8)",  # refused by a window thousands of windows in
        "expr:(x-20.0008)^2-1.6384e-8",  # a dip that no sample is close enough to see
    ],
)
def test_validate_positivity_in_blocks_equals_the_window_loop(spec):
    sym = parse_phi_spec(spec)
    got = _phi_outcome(lambda: validate_positivity(sym, 64.0))
    assert got == _phi_outcome(lambda: _validate_positivity_by_windows(sym, 64.0))


def test_exp_disc_radius_overflow_raises_at_half_step():
    # the radius a^(t/2) is phi(t/2), which overflows a float at a = 2, t = 3000
    with pytest.raises(NonPositiveSymbolError) as info:
        exponential(2.0).model_disc_radius(3000.0)
    assert (info.value.x, info.value.value) == (1500.0, math.inf)


# the one-step weight of S_t at x >= t is sqrt(phi(x)/phi(x-t)) = sqrt(phi_ratio(phi, x, 0, -t))


def test_weight_affine_at_step():
    # oracle: sqrt(phi(1)/phi(0)) evaluated independently
    assert np.sqrt(phi_ratio(affine(), 1.0, 0, -1.0)) == pytest.approx(np.sqrt(2.0 / 1.0), abs=1e-12)


def test_weight_zero_below_step_exactly():
    # S_t f vanishes on [0, t) exactly, whatever f does there
    f = random_step(np.random.default_rng(0), 0.0, 2.0, 64)
    g = apply_power(make_operator(affine(), 1.0, "S"), 1, f)
    assert g.lo == 1.0
    xs = np.linspace(0.0, 0.999, 57)
    assert np.all(g.values_at_left_edges(xs) == 0.0)


def test_weight_exponential_constant():
    # sqrt(e^{2x} / e^{2(x-t)}) simplifies to e^t for every x >= t
    xs = np.linspace(0.7, 40.0, 101)
    w = np.sqrt(phi_ratio(exponential(np.exp(2.0)), xs, 0, -0.7))
    assert np.max(np.abs(w - np.exp(0.7))) < 1e-12


@pytest.mark.parametrize("sym", [constant(2.0), affine(), reciprocal(), piecewise_cap(), exponential(1.7)])
def test_weight_cocycle_identity(sym):
    # phi_{t+s}(x) = phi_t(x) phi_s(x-t) for x >= s+t
    t, s = 0.6, 0.9
    xs = np.linspace(t + s, 50.0, 211)
    lhs = np.sqrt(phi_ratio(sym, xs, 0, -(t + s)))
    rhs = np.sqrt(phi_ratio(sym, xs, 0, -t)) * np.sqrt(phi_ratio(sym, xs - t, 0, -s))
    assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 1e-12


def test_left_invertible_constant():
    chk = check_left_invertible(constant(3.0), 1.0, 64.0)
    assert chk.ok
    assert chk.inf_estimate == pytest.approx(1.0, abs=1e-14)


def test_left_invertible_exponential():
    chk = check_left_invertible(exponential(np.exp(2.0)), 1.0, 64.0)
    assert chk.ok
    assert chk.inf_estimate == pytest.approx(np.exp(2.0), rel=1e-12)


def test_left_invertible_reciprocal():
    # ratio phi(x+1)/phi(x) = (x+1)/(x+2) increases toward 1, so the sampled
    # infimum over [0, 100] sits at x = 0 with value 1/2 (still comfortably
    # above the threshold, hence left invertible)
    chk = check_left_invertible(reciprocal(), 1.0, 100.0)
    assert chk.ok
    assert chk.inf_estimate == pytest.approx(0.5, abs=1e-12)
    assert chk.arg_inf == pytest.approx(0.0, abs=1e-9)


def test_not_left_invertible_steep_decay():
    # ratio exp(-16) sits below the default threshold 1e-6
    chk = check_left_invertible(parse_symbol("exp(0-16*x)"), 1.0, 2.0)
    assert not chk.ok
    assert chk.inf_estimate == pytest.approx(np.exp(-16.0), rel=1e-9)


@pytest.mark.parametrize(
    "spec,x,expected",
    [
        ("const:1", 5.0, 1.0),
        ("affine", 2.0, 3.0),
        ("reciprocal", 1.0, 0.5),
        ("cap", 0.25, 1.25),
        ("exp:a=2", 3.0, 8.0),
        ("exp:2", 3.0, 8.0),
        ("expr:x+1", 2.0, 3.0),
    ],
)
def test_parse_phi_spec(spec, x, expected):
    assert eval_phi(parse_phi_spec(spec), x) == pytest.approx(expected, abs=1e-12)


def test_parse_phi_spec_exp2x_alias():
    s = parse_phi_spec("exp2x")
    assert eval_phi(s, 1.0) == pytest.approx(np.exp(2.0), rel=1e-14)


def test_parse_phi_spec_unknown():
    with pytest.raises(SymbolSyntaxError):
        parse_phi_spec("fancy:1")


def test_evaluation_deterministic():
    s = parse_symbol("exp(x/3)*(x+1)^2")
    xs = np.linspace(0.0, 64.0, 1000)
    assert np.array_equal(s.values(xs), s.values(xs.copy()))


def test_constant_subtrees_compute_in_numpy_arithmetic():
    # 1/0 is inf and 1/inf is 0.0, so 0.0 + x + 1 is affine's x + 1.0 to the bit
    grid = np.linspace(0.0, 64.0, 1001)
    assert parse_symbol("1/(1/0)+x+1").values(grid).tobytes() == affine().values(grid).tobytes()
