import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from wtsemigroup.util import GOLDEN_ITERS, SAMPLES, SERIES_CAP, golden_max, sample_then_refine, sum_series

# Python floats, so every point the reference search visits is a Python float
_INVPHI = float((np.sqrt(5.0) - 1.0) / 2.0)
_INVPHI2 = float((3.0 - np.sqrt(5.0)) / 2.0)


def _golden_scalar(fn, lo, hi):
    """The one-bracket golden-section search that golden_max runs per lane."""
    a, b = float(lo), float(hi)
    if not b > a:
        return a, float(fn(a))
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc = float(fn(c))
    fd = float(fn(d))
    for _ in range(GOLDEN_ITERS):
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = float(fn(c))
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = float(fn(d))
    return (c, fc) if fc >= fd else (d, fd)


def _sample_then_refine_scalar(fn, x_max, mode):
    """The one-function grid-then-golden search that sample_then_refine runs per row."""
    grid = np.linspace(0.0, x_max, SAMPLES)
    vals = fn(grid)
    i = int(np.argmax(vals) if mode == "max" else np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, SAMPLES - 1)]
    scalar = lambda y: float(fn(np.asarray([y]))[0])
    if mode == "max":
        arg, refined = _golden_scalar(scalar, lo, hi)
        better = refined > vals[i]
    else:
        arg, neg = _golden_scalar(lambda y: -scalar(y), lo, hi)
        refined = -neg
        better = refined < vals[i]
    if better:
        return refined, float(arg), i == SAMPLES - 1
    return float(vals[i]), float(grid[i]), i == SAMPLES - 1


# objectives with one peak, several peaks, plateaus and exact ties (fc == fd)
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
    return lo, hi, _OBJECTIVES[kind](m, s)


@settings(max_examples=100, deadline=None)
@given(st.lists(_lane(), min_size=1, max_size=6))
def test_golden_max_lockstep_equals_scalar(lanes):
    objectives = [obj for _, _, obj in lanes]
    # obj sees a Python float on both sides: round() on an np.float64 rounds
    # differently (round(np.float64(-0.05), 1) is -0.0, round(-0.05, 1) is -0.1)
    fn = lambda ys: np.array([obj(float(y)) for obj, y in zip(objectives, ys)])
    args, values = golden_max(fn, [lo for lo, _, _ in lanes], [hi for _, hi, _ in lanes])
    for i, (lo, hi, obj) in enumerate(lanes):
        arg, value = _golden_scalar(obj, lo, hi)
        assert args[i] == arg
        assert values[i] == value


@pytest.mark.parametrize("mode", ["max", "min"])
@pytest.mark.parametrize("spec,t", [("cap", 0.25), ("exp:a=2", 0.5), ("expr:x^2+1", 1.0)])
def test_sample_then_refine_rows_equal_scalar(spec, t, mode):
    symbol = parse_phi_spec(spec)
    shifts = np.array([1, 2, 5]) * t
    fn = lambda x, row: np.sqrt(phi_ratio(symbol, x, 0.0, shifts[row]))
    lanes = np.arange(len(shifts))
    sample = lambda grid: (fn(grid, row) for row in lanes)
    rows = sample_then_refine(sample, lambda y: fn(y, lanes), [mode] * len(shifts), 64.0 * t)
    for row, shift in enumerate(shifts):
        ref = _sample_then_refine_scalar(lambda x: np.sqrt(phi_ratio(symbol, x, 0.0, shift)), 64.0 * t, mode)
        assert rows[row] == ref


@pytest.mark.parametrize("spec,t", [("cap", 0.25), ("affine", 1.0), ("expr:x^2+1", 1.0)])
def test_sample_then_refine_mode_per_row_equals_scalar(spec, t):
    # one sampled array serves a max row and a min row; each row is still
    # the one-function search in its own mode
    symbol = parse_phi_spec(spec)
    shifts = np.array([1, 1, 3, 3, 2]) * t
    modes = ["max", "min", "min", "max", "min"]
    lanes = np.arange(len(shifts))
    fn = lambda x, row: np.sqrt(phi_ratio(symbol, x, shifts[row], 0.0))

    def sample(grid):
        for row in (0, 2, 4):
            vals = fn(grid, row)
            yield from [vals, vals] if row < 4 else [vals]

    rows = sample_then_refine(sample, lambda y: fn(y, lanes), modes, 64.0 * t)
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
        sum_series(lambda size: np.ones(min(size, 20)), 1e-10, 16, lambda n: replayed.append(n) or 1 / 0)
    assert replayed == [20]


def test_sum_series_raises_its_own_error_when_the_replay_returns():
    replayed = []
    with pytest.raises(TailBoundNotAchievedError) as exc:
        sum_series(lambda size: np.ones(min(size, 20)), 1e-10, 16, replayed.append)
    assert replayed == [20] and exc.value.n_terms == 20


def test_sum_series_does_not_replay_at_the_cap():
    replayed = []
    with pytest.raises(TailBoundNotAchievedError) as exc:
        sum_series(lambda size: np.ones(size), 1e-10, 16, replayed.append)
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
