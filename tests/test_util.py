import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wtsemigroup import (
    RunConfig,
    affine,
    block_decompose,
    check_left_invertible,
    indicator,
    make_operator,
    parse_phi_spec,
    restrict_to_E,
)
from wtsemigroup.operators import phi_ratio
from wtsemigroup.errors import TailBoundNotAchievedError
from wtsemigroup.util import (
    SAMPLES,
    SERIES_CAP,
    ZOOM_LEVELS,
    ZOOM_POINTS,
    _zoom,
    root_extreme,
    sample_then_refine,
    sum_series,
)


def _zoom_scalar(fn, lo, hi, value, arg):
    """The one-lane zoom that util._zoom runs per lane, on Python floats."""
    lo, hi, value, arg = float(lo), float(hi), float(value), float(arg)
    for _ in range(ZOOM_LEVELS):
        ys = [min(lo + (k / ZOOM_POINTS) * (hi - lo), hi) for k in range(ZOOM_POINTS + 1)]
        vals = [float(fn(y)) for y in ys]
        k = max(range(len(vals)), key=vals.__getitem__)  # the first of the best
        if vals[k] > value:
            value, arg = vals[k], ys[k]
        lo, hi = ys[max(k - 1, 0)], ys[min(k + 1, ZOOM_POINTS)]
    return arg, value


def _sample_then_refine_scalar(fn, x_max, mode):
    """The one-function grid-then-zoom search that sample_then_refine runs per row."""
    grid = np.linspace(0.0, x_max, SAMPLES)
    vals = fn(grid)
    i = int(np.argmax(vals) if mode == "max" else np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, SAMPLES - 1)]
    scalar = lambda y: float(fn(np.asarray([y]))[0])
    if mode == "max":
        arg, value = _zoom_scalar(scalar, lo, hi, vals[i], grid[i])
    else:
        arg, neg = _zoom_scalar(lambda y: -scalar(y), lo, hi, -vals[i], grid[i])
        value = -neg
    return value, float(arg), i == SAMPLES - 1


# objectives with one peak, several peaks, plateaus and exact ties
_OBJECTIVES = {
    "quadratic": lambda m, s: lambda y: -s * (y - m) * (y - m),
    "plateau": lambda m, s: lambda y: float(math.floor((y - m) * s)),
    "constant": lambda m, s: lambda y: s,
    "rounded_vee": lambda m, s: lambda y: round(-abs(y - m), 1),
    "cosine": lambda m, s: lambda y: math.cos(s * y + m),
}


@st.composite
def _lane(draw):
    lo = draw(st.floats(-50.0, 50.0))
    hi = draw(
        st.one_of(
            st.floats(-50.0, 50.0),  # hi <= lo is an empty bracket
            st.just(lo),
            st.just(float(np.nextafter(lo, np.inf))),
            st.floats(1e-9, 100.0).map(lambda w: lo + w),
        )
    )
    kind = draw(st.sampled_from(sorted(_OBJECTIVES)))
    m = draw(st.floats(-60.0, 60.0))
    s = draw(st.floats(0.0, 10.0))
    obj = _OBJECTIVES[kind](m, s)
    # the start: the objective's own value at lo (a tie), or any other value
    value = draw(st.one_of(st.just(obj(lo)), st.floats(-1e3, 1e3)))
    return lo, hi, value, obj


@settings(max_examples=100, deadline=None)
@given(st.lists(_lane(), min_size=1, max_size=6))
def test_zoom_lockstep_equals_scalar(lanes):
    objectives = [obj for *_, obj in lanes]
    # obj sees a Python float on both sides: round() on an np.float64 rounds
    # differently (round(np.float64(-0.05), 1) is -0.0, round(-0.05, 1) is -0.1)
    fn = lambda ys: np.array([[obj(float(y)) for y in row] for obj, row in zip(objectives, ys)])
    lo, hi, value = (np.array([lane[j] for lane in lanes]) for j in range(3))
    args, values = _zoom(fn, lo, hi, value, lo, len(lanes))
    for i, (lo_i, hi_i, value_i, obj) in enumerate(lanes):
        arg, best = _zoom_scalar(obj, lo_i, hi_i, value_i, lo_i)
        assert args[i] == arg
        assert values[i] == best
        if hi_i >= lo_i:  # every point it keeps lies in the bracket
            assert lo_i <= args[i] <= hi_i


def _best_samples(rows, modes):
    """The first best sample of each row, and its value: what a sampler returns."""
    best = [int(np.argmax(vals) if mode == "max" else np.argmin(vals)) for vals, mode in zip(rows, modes)]
    return best, [vals[i] for vals, i in zip(rows, best)]


def _ulps_away(v, k, toward):
    for _ in range(k):
        v = math.nextafter(v, toward)
    return v


@st.composite
def _ratio_rows(draw):
    """A row of a ratio r: no NaN, no negative value; random floats, and
    floats up to two ulps either side of a drawn value, among them 0 and
    inf, so that runs of floats with one root sit at the row's extremes."""
    centre = draw(
        st.one_of(
            st.sampled_from([0.0, 5e-324, 1.5, 2.0, 3.0, 0.7, 1e300, np.finfo(float).max, np.inf]),
            st.floats(0.0, np.inf),
        )
    )
    near = [_ulps_away(centre, k, toward) for k in (0, 1, 2) for toward in (0.0, np.inf)] + [0.0, np.inf]
    return np.array(draw(st.lists(st.one_of(st.sampled_from(near), st.floats(0.0, np.inf)), min_size=1, max_size=30)))


@settings(max_examples=400, deadline=None)
@given(_ratio_rows(), st.booleans())
@example(np.array([1.0, _ulps_away(1.5, 2, 0.0), _ulps_away(1.5, 1, 0.0), 1.5]), True)  # three floats, one root
@example(np.array([1.0, _ulps_away(0.7, 1, np.inf), 0.7, _ulps_away(0.7, 1, np.inf)]), False)
@example(np.array([3.0, _ulps_away(3.0, 1, 0.0), 3.0]), True)
def test_root_extreme_is_the_roots_argmax(r, is_max):
    # the first best index of np.sqrt(r), and the root there, from r's own
    # first extreme
    first = int(np.argmax(r) if is_max else np.argmin(r))
    roots = np.sqrt(r)
    want = int(np.argmax(roots) if is_max else np.argmin(roots))
    i, root = root_extreme(r, first, is_max)
    assert i == want
    assert np.float64(root).tobytes() == roots[want].tobytes()


@pytest.mark.parametrize("mode", ["max", "min"])
@pytest.mark.parametrize("spec,t", [("cap", 0.25), ("exp:a=2", 0.5), ("expr:x^2+1", 1.0)])
def test_sample_then_refine_rows_equal_scalar(spec, t, mode):
    symbol = parse_phi_spec(spec)
    shifts = np.array([1, 2, 5]) * t
    fn = lambda x, row: np.sqrt(phi_ratio(symbol, x, 0.0, shifts[row]))
    lanes = np.arange(len(shifts))
    sample = lambda grid: _best_samples([fn(grid, row) for row in lanes], [mode] * len(shifts))
    maxima = len(shifts) if mode == "max" else 0
    rows = sample_then_refine(sample, lambda y: fn(y, lanes[:, None]), maxima, 64.0 * t)
    for row, shift in enumerate(shifts):
        ref = _sample_then_refine_scalar(lambda x: np.sqrt(phi_ratio(symbol, x, 0.0, shift)), 64.0 * t, mode)
        assert rows[row] == ref


@pytest.mark.parametrize("spec,t", [("cap", 0.25), ("affine", 1.0), ("expr:x^2+1", 1.0)])
def test_sample_then_refine_mode_per_row_equals_scalar(spec, t):
    # one sampled array serves a max row and a min row; each row is still
    # the one-function search in its own mode
    symbol = parse_phi_spec(spec)
    shifts = np.array([1, 3, 1, 3, 2]) * t
    modes = ["max", "max", "min", "min", "min"]
    lanes = np.arange(len(shifts))
    fn = lambda x, row: np.sqrt(phi_ratio(symbol, x, shifts[row], 0.0))

    def sample(grid):
        drawn = {shifts[row]: fn(grid, row) for row in (0, 1, 4)}
        return _best_samples([drawn[shift] for shift in shifts], modes)

    rows = sample_then_refine(sample, lambda y: fn(y, lanes[:, None]), 2, 64.0 * t)
    for row, (shift, mode) in enumerate(zip(shifts, modes)):
        ref = _sample_then_refine_scalar(lambda x: np.sqrt(phi_ratio(symbol, x, shift, 0.0)), 64.0 * t, mode)
        assert rows[row] == ref


def test_left_invertibility_check_equals_scalar():
    symbol = parse_phi_spec("reciprocal")
    chk = check_left_invertible(symbol, 2.0, 128.0)
    ref = _sample_then_refine_scalar(lambda x: phi_ratio(symbol, x, 2.0, 0), 128.0, "min")
    assert (chk.inf_estimate, chk.arg_inf) == ref[:2]


def test_sum_series_replays_the_term_at_which_the_table_stops():
    # the terms 1, 1, ... never pass the tail rule; the table stops at 20
    replayed = []
    with pytest.raises(ZeroDivisionError):
        sum_series(lambda size: np.ones(min(size, 20)), 1e-10, 0.0, lambda n: replayed.append(n) or 1 / 0)
    assert replayed == [20]


def test_sum_series_raises_its_own_error_when_the_replay_returns():
    replayed = []
    with pytest.raises(TailBoundNotAchievedError) as exc:
        sum_series(lambda size: np.ones(min(size, 20)), 1e-10, 0.0, replayed.append)
    assert replayed == [20] and exc.value.n_terms == 20


def test_sum_series_does_not_replay_at_the_cap():
    replayed = []
    with pytest.raises(TailBoundNotAchievedError) as exc:
        sum_series(lambda size: np.ones(size), 1e-10, 0.0, replayed.append)
    assert replayed == [] and exc.value.n_terms == SERIES_CAP + 1


@pytest.mark.parametrize(
    "call",
    [
        lambda t: make_operator(affine(), t),
        lambda t: check_left_invertible(affine(), t, 64.0),
        lambda t: block_decompose(indicator(0.0, 1.0), t, 3),
        lambda t: restrict_to_E(indicator(0.0, 1.0), t),
        lambda t: RunConfig(t=t),
    ],
    ids=["make_operator", "check_left_invertible", "block_decompose", "restrict_to_E", "RunConfig"],
)
def test_an_infinite_step_is_refused(call):
    # each tested only t > 0: S_inf applied to f was the zero function, with
    # a RuntimeWarning, and block_decompose gave four zero blocks
    with pytest.raises(ValueError, match="t must be positive"):
        call(math.inf)
