import functools
import math
import operator
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wtsemigroup import (
    StepFunction,
    add_all,
    haar,
    indicator,
    inner,
    norm,
    norm_sq,
    random_step,
    restrict_to_E,
    zero,
)
from wtsemigroup.stepfun import sum_pieces


def test_inner_unit_indicator():
    chi = indicator(0.0, 1.0)
    assert inner(chi, chi) == 1.0 + 0j


def test_inner_disjoint_supports_exact_zero():
    assert inner(indicator(0.0, 1.0), indicator(1.0, 2.0)) == 0j


def test_inner_haar_normalized():
    h = haar(0, 0)
    assert inner(h, h) == 1.0 + 0j


def test_inner_conjugate_symmetric():
    rng = np.random.default_rng(1)
    f = random_step(rng, 0.0, 3.0, 17)
    g = random_step(rng, 0.5, 2.5, 11)
    assert inner(f, g) == pytest.approx(np.conj(inner(g, f)), abs=1e-15)


def test_haar_00_values():
    h = haar(0, 0)
    assert list(h.breakpoints) == [0.0, 0.5, 1.0]
    assert list(h.values) == [1.0, -1.0]


def test_haar_fine_scale():
    # 2^{j/2} psi(2^j x - k) at j=1, k=0: +sqrt(2) on [0, 1/4), -sqrt(2) on [1/4, 1/2)
    h = haar(1, 0)
    assert list(h.breakpoints) == [0.0, 0.25, 0.5]
    assert h.values[0] == pytest.approx(np.sqrt(2.0), abs=1e-15)
    # unit norm by exact cell integration
    assert norm_sq(h) == pytest.approx(1.0, abs=1e-15)


def test_haar_coarse_scale_support_and_orthogonality():
    h = haar(-1, 2)
    assert list(h.breakpoints) == [4.0, 5.0, 6.0]
    assert h.values[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)
    assert inner(h, haar(-1, 1)) == 0j


def test_haar_orthonormal_family_exact():
    family = [haar(j, k) for j in (-2, -1, 0, 1, 2) for k in range(4)]
    for a, fa in enumerate(family):
        for b, fb in enumerate(family):
            val = inner(fa, fb)
            if a == b:
                assert val.real == pytest.approx(1.0, abs=5e-16)
                assert val.imag == 0.0
            else:
                assert val == 0j  # exact: dyadic breakpoints, exact integration


def test_haar_parseval_on_window():
    # coarse scales contribute 2^j (integral f)^2, so scanning j down to -40
    # resolves the tail below 1e-10 for moderate f
    rng = np.random.default_rng(5)
    f = random_step(rng, 0.0, 4.0, 32)
    f = f.with_values(f.values.real)  # the real parts are the first 32 draws
    total = 0.0
    for j in range(-40, 4):
        kmax = max(0, int(4 * 2**j) - 1)
        for k in range(kmax + 1):
            total += abs(inner(f, haar(j, k))) ** 2
    assert abs(total - norm_sq(f)) < 1e-10


def test_restrict_truncates():
    out = restrict_to_E(indicator(0.0, 2.0), 1.0)
    assert list(out.breakpoints) == [0.0, 1.0]
    assert list(out.values) == [1.0]


def test_restrict_disjoint_is_zero():
    assert restrict_to_E(indicator(1.0, 2.0), 1.0).is_zero()


def test_restrict_haar_half():
    out = restrict_to_E(haar(0, 0), 0.5)
    assert list(out.breakpoints) == [0.0, 0.5]
    assert list(out.values) == [1.0]


def test_restrict_idempotent():
    rng = np.random.default_rng(2)
    f = random_step(rng, 0.0, 4.0, 37)
    once = f.restrict(0.7, 2.3)
    twice = once.restrict(0.7, 2.3)
    assert norm(once - twice) == 0.0


def test_restrict_is_contraction():
    rng = np.random.default_rng(3)
    f = random_step(rng, 0.0, 4.0, 29)
    assert norm(restrict_to_E(f, 1.0)) <= norm(f)
    g = random_step(rng, 0.0, 1.0, 8)
    assert norm(restrict_to_E(g, 1.0)) == norm(g)  # supp g inside [0, t)


def test_translate_right_exact_breakpoints():
    f = indicator(0.25, 0.75)
    g = f.translate(0.5)
    assert list(g.breakpoints) == [0.75, 1.25]


def test_translate_drops_cells_collapsed_by_rounding():
    # adding a large shift can land two distinct breakpoints on one float;
    # the ulp-wide cell carries no mass and must vanish, not crash
    hi = 0.3
    lo = float(np.nextafter(hi, 0.0))
    assert lo != hi and lo + 9.3 == hi + 9.3
    sliver = StepFunction(np.array([lo, hi]), np.array([1.0 + 0j]))
    assert sliver.translate(9.3).is_zero()
    f = StepFunction(np.array([0.0, lo, hi, 1.0]), np.array([2.0, 5.0, 3.0], dtype=complex))
    g = f.translate(9.3)
    assert list(g.values) == [2.0, 3.0]
    assert norm_sq(g) == pytest.approx(norm_sq(f), rel=1e-12)


def test_translate_left_clips_at_zero():
    f = indicator(0.5, 2.5)
    g = f.translate(-1.0)
    assert list(g.breakpoints) == [0.0, 1.5]
    h = f.translate(-3.0)
    assert h.is_zero()


def test_add_sub_roundtrip():
    rng = np.random.default_rng(4)
    f = random_step(rng, 0.0, 4.0, 16)
    g = random_step(rng, 1.0, 3.0, 7)
    assert norm((f + g) - g - f) < 1e-15


def test_subdivide_preserves_function():
    rng = np.random.default_rng(6)
    f = random_step(rng, 0.0, 2.0, 9)
    g = f.subdivide(4)
    assert g.values.size == 36
    assert norm(f - g) == 0.0
    assert norm_sq(f) == pytest.approx(norm_sq(g), rel=1e-15)


def test_zero_function():
    z = zero()
    assert z.is_zero()
    assert norm(z) == 0.0
    assert inner(z, indicator(0, 1)) == 0j


def test_breakpoints_must_increase():
    with pytest.raises(ValueError):
        StepFunction(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0]))


def test_negative_support_rejected():
    with pytest.raises(ValueError):
        StepFunction(np.array([-1.0, 1.0]), np.array([1.0]))


# -- one-merge sum against the pairwise fold ----------------------------------


def _pairwise_add(f, g):
    """Reference: merge two meshes, read both at each left edge, trim the edges."""
    if f.values.size == 0:
        return g
    if g.values.size == 0:
        return f
    bp = np.unique(np.concatenate([f.breakpoints, g.breakpoints]))
    vals = f.values_at_left_edges(bp[:-1]) + g.values_at_left_edges(bp[:-1])
    nz = np.nonzero(vals != 0)[0]
    if nz.size == 0:
        return zero()
    a, b = nz[0], nz[-1] + 1
    return StepFunction(bp[a : b + 1], vals[a:b])


def reference_merge(pieces):
    """sum_pieces as the one global merge: every piece adds onto exact zeros
    over its span of all breakpoints, cell by cell, in order."""
    bp = np.unique(np.concatenate([p.breakpoints for p in pieces]))
    vals = np.zeros(bp.size - 1, dtype=complex)
    for p in pieces:
        idx = np.searchsorted(bp, p.breakpoints)
        for j, v in enumerate(p.values):
            vals[idx[j] : idx[j + 1]] += v
    nz = np.nonzero(vals != 0)[0]
    if nz.size == 0:
        return zero()
    return StepFunction(bp[nz[0] : nz[-1] + 2], vals[nz[0] : nz[-1] + 1])


def assert_same_bytes(got, ref):
    assert got.breakpoints.tobytes() == ref.breakpoints.tobytes()
    assert got.values.tobytes() == ref.values.tobytes()


# grid edges, three of them not dyadic; each drawn edge moves by up to two ulps,
# so pieces overlap, touch, miss each other or overlap by a sliver
_EDGES = (0.0, 0.1, 0.25, 0.3, 0.5, 1.0, 1.2, 2.0)


@st.composite
def _nudged(draw):
    """An edge of _EDGES moved by up to two ulps, and not below 0."""
    e = draw(st.sampled_from(_EDGES))
    for _ in range(draw(st.integers(0, 2))):
        e = np.nextafter(e, draw(st.sampled_from((-np.inf, np.inf))))
    return max(float(e), 0.0)


@st.composite
def _piece(draw):
    bp = np.unique(draw(st.lists(_nudged(), min_size=2, max_size=6)))
    if bp.size < 2:
        return zero()
    # positive real parts: no partial sum cancels to an exactly zero cell,
    # which the pairwise fold would trim and the one merge would keep
    vals = [
        complex(draw(st.floats(0.5, 2.0)), draw(st.floats(-2.0, 2.0)))
        for _ in range(bp.size - 1)
    ]
    return StepFunction(bp, np.array(vals))


@settings(max_examples=300, deadline=None)
@given(st.lists(_piece(), max_size=6))
def test_add_all_equals_pairwise_fold(pieces):
    ref = functools.reduce(_pairwise_add, pieces, zero())
    for got in (add_all(pieces), functools.reduce(operator.add, pieces, zero())):
        assert np.array_equal(got.breakpoints, ref.breakpoints)
        assert np.array_equal(got.values, ref.values)


@settings(max_examples=300, deadline=None)
@given(
    bp=st.lists(st.floats(0.0, 4.0), min_size=2, max_size=12, unique=True).map(sorted),
    count=st.integers(2, 5),
    data=st.data(),
)
def test_add_all_on_one_mesh_equals_the_merge(bp, count, data):
    # pieces on one mesh skip the merge of their breakpoints; the bytes,
    # exact-zero edge cells (trimmed) and signed zeros must be the merge's
    bp = np.array(bp)
    cell = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5j, 2.5 - 1j, 1e-300, complex(0.0, -0.0)])
    pieces = [
        StepFunction(bp.copy(), np.array(data.draw(st.lists(cell, min_size=bp.size - 1, max_size=bp.size - 1)), dtype=complex))
        for _ in range(count)
    ]
    got = add_all(pieces)
    ref = reference_merge(pieces)
    assert_same_bytes(got, ref)


def test_add_all_empty_and_single():
    f = StepFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 3.0]))
    assert add_all([]).is_zero()
    assert add_all([zero(), f, zero()]) is f


# -- sum_pieces against the global merge ---------------------------------------


# exact zeros of every sign, at the edges and inside the pieces
_CELLS = (0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 1.0, -1.0, 0.5j, 2.5 - 1j, 1e-300)
_NONZERO = tuple(c for c in _CELLS if c != 0)


@st.composite
def _laid_pieces(draw, joins=("touch", "gap", "overlap")):
    """Pieces laid left to right, each joined to the one before by a touch,
    a gap or an overlap of one or two ulps, from a first breakpoint that may
    be -0.0; then, at times, in any order. Pieces drawn without overlaps
    have nonzero edge cells."""
    x = draw(st.sampled_from((0.0, -0.0, 0.1, 1.0)))
    pieces = []
    for _ in range(draw(st.integers(1, 6))):
        join = draw(st.sampled_from(joins))
        if pieces and join == "gap":
            x += draw(st.sampled_from((1e-300, 0.1, 0.5)))
        elif pieces and join == "overlap":
            for _ in range(draw(st.integers(1, 2))):
                x = float(np.nextafter(x, -np.inf))
        widths = draw(st.lists(st.sampled_from((0.1, 0.25, 1 / 3, 1.0)), min_size=1, max_size=4))
        bp = np.concatenate([[x], x + np.cumsum(widths)])
        cells = draw(st.lists(st.sampled_from(_CELLS), min_size=len(widths), max_size=len(widths)))
        if "overlap" not in joins:
            cells[0] = draw(st.sampled_from(_NONZERO))
            cells[-1] = draw(st.sampled_from(_NONZERO))
        pieces.append(StepFunction(bp, np.array(cells, dtype=complex)))
        x = float(bp[-1])
    if draw(st.booleans()):
        pieces = draw(st.permutations(pieces))
    return pieces


@settings(max_examples=400, deadline=None)
@given(_laid_pieces())
def test_sum_pieces_equals_the_global_merge(pieces):
    # pieces that touch, leave a gap or overlap by an ulp, in any order: the
    # bytes, the zero cells of a gap and the sign of every zero are the merge's
    assert_same_bytes(sum_pieces(pieces), reference_merge(pieces))


@settings(max_examples=200, deadline=None)
@given(_laid_pieces(joins=("touch", "gap")))
def test_add_all_of_disjoint_pieces_equals_the_left_fold(pieces):
    # no cell gets two summands and no partial sum an exactly zero edge
    # cell, so the fold trims nothing the one sum keeps
    assert_same_bytes(add_all(pieces), functools.reduce(operator.add, pieces, zero()))


# -- inner, restrict and translate on drawn step functions ---------------------


@st.composite
def _step(draw):
    """A step function on nudged edges, its cells exact zeros of every sign
    or any complex number of modulus up to 10."""
    bp = np.unique(draw(st.lists(_nudged(), min_size=2, max_size=6)))
    if bp.size < 2:
        return zero()
    cell = st.one_of(st.sampled_from(_CELLS), st.complex_numbers(max_magnitude=10.0))
    return StepFunction(bp, np.array(draw(st.lists(cell, min_size=bp.size - 1, max_size=bp.size - 1)), dtype=complex))


def _same_function(f, g):
    """f and g take equal values on every cell of their joint mesh (an extra
    breakpoint, or an exactly zero cell at an edge, changes nothing)."""
    left = np.union1d(f.breakpoints, g.breakpoints)[:-1]
    return np.array_equal(f.values_at_left_edges(left), g.values_at_left_edges(left))


def _abs_pairing(f, g):
    """The integral of |f| |g| over the joint mesh of their common support."""
    lo, hi = max(f.lo, g.lo), min(f.hi, g.hi)
    if f.values.size == 0 or g.values.size == 0 or hi <= lo:
        return 0.0
    bp = np.union1d(f.breakpoints, g.breakpoints)
    bp = bp[(bp >= lo) & (bp <= hi)]
    left = bp[:-1]
    return float(np.sum(np.abs(f.values_at_left_edges(left)) * np.abs(g.values_at_left_edges(left)) * np.diff(bp)))


@settings(max_examples=300, deadline=None)
@given(_step(), _step())
# norm(g) underflows to 0.0 here, while the imaginary parts cancel to 1.67e-198
@example(
    StepFunction(np.array([0.0, 0.1]), np.array([2.25 + 1j])),
    StepFunction(np.array([0.0, 0.1]), np.array([5.9462166e-182 + 5.9462166e-182j])),
)
def test_inner_is_conjugate_symmetric(f, g):
    # the real parts agree exactly. numpy may fuse the multiply and add of a
    # complex product, so im(a conj(b)) need not be -im(b conj(a)) to the
    # bit; the imaginary parts cancel to within a few roundings of each
    # product, so of sum |f g| over the joint mesh, which by Cauchy-Schwarz
    # is at most norm(f) norm(g) but, unlike that product, does not underflow
    # where |f|^2 or |g|^2 would
    fg, gf = inner(f, g), inner(g, f)
    assert fg.real == gf.real
    assert abs(fg.imag + gf.imag) <= 8 * np.finfo(float).eps * _abs_pairing(f, g)


@settings(max_examples=300, deadline=None)
@given(_step(), st.lists(st.one_of(_nudged(), st.floats(0.0, 3.0)), min_size=3, max_size=3).map(sorted))
def test_restrict_to_adjacent_intervals_sums_to_their_union(f, cuts):
    a, b, c = cuts
    assert _same_function(f.restrict(a, b) + f.restrict(b, c), f.restrict(a, c))


@settings(max_examples=300, deadline=None)
@given(_piece(), st.one_of(_nudged(), st.floats(0.0, 3.0), st.floats(0.0, 1e300)))
def test_translate_left_then_right_restricts_to_the_shift(f, s):
    # every breakpoint x of f.restrict(s, f.hi) comes back as the float
    # (x - s) + s, and a cell that rounding collapses on the way is dropped
    # (the cells of _piece are nonzero, so restrict trims none)
    back = f.translate(-s).translate(s)
    ref = f.restrict(s, f.hi)
    moved = (ref.breakpoints - s) + s
    keep = np.diff(moved) > 0
    if not keep.any():
        assert back.values.size == 0
        return
    assert back.breakpoints.tobytes() == np.concatenate([moved[:1], moved[1:][keep]]).tobytes()
    assert back.values.tobytes() == ref.values[keep].tobytes()


# -- results that own their arrays ----------------------------------------------


def assert_owned(f, *arrays):
    """f's arrays are read-only and share no memory with the given arrays."""
    for a in (f.breakpoints, f.values):
        assert not a.flags.writeable
        assert not any(np.shares_memory(a, b) for b in arrays)


def test_owned_results_are_read_only_and_their_own():
    bp, vals = np.array([0.0, 0.25, 0.5, 1.0]), np.array([1.0, -2j, 3.0])
    f = StepFunction(bp, vals)
    g = StepFunction(bp + 1.0, vals)  # touches f at 1
    results = (
        f,
        f.with_values(vals),
        f.translate(0.5),
        f.translate(-0.3),
        f.scale(2j),
        f.scale(-1.0),
        f - g,
        f.restrict(0.1, 0.7),
        f + f,
        f + g,
        add_all([f, g, f.translate(3.0)]),
        add_all([f, g.translate(0.1)]),
    )
    for r in results:
        assert_owned(r, bp, vals)
    pieces = (f, g, f.translate(3.0))
    assert_owned(sum_pieces(pieces), *(a for p in pieces for a in (p.breakpoints, p.values)))


@pytest.mark.parametrize(
    "bp, vals, message",
    [
        (np.zeros((2, 2)), [1.0], "breakpoints and values must be 1-d"),
        ([0.0, 1.0], [[1.0]], "breakpoints and values must be 1-d"),
        ([0.0, 1.0, 2.0], [1.0], "need one more breakpoint than values"),
        ([], [], "need one more breakpoint than values"),
        ([-1.0, 1.0], [1.0], "support must lie in the half line"),
        ([0.0, 1.0, 1.0], [1.0, 2.0], "breakpoints must be strictly increasing"),
        ([0.0, 2.0, 1.0], [1.0, 2.0], "breakpoints must be strictly increasing"),
        ([0.0, np.inf, 1.0], [1.0, 2.0], "breakpoints must be strictly increasing"),
        # inf - inf is NaN, which np.diff(bp) <= 0 does not flag
        ([0.0, np.inf, np.inf], [1.0, 2.0], "breakpoints and values must be finite"),
        ([0.0, np.nan, 1.0], [1.0, 2.0], "breakpoints and values must be finite"),
        ([0.0, 1.0], [np.inf], "breakpoints and values must be finite"),
        ([0.0, 1.0], [complex(0.0, np.nan)], "breakpoints and values must be finite"),
    ],
)
def test_owned_constructor_raises_the_constructor_errors(bp, vals, message):
    for make in (StepFunction, StepFunction._owned):
        with pytest.raises(ValueError) as info:
            make(np.array(bp, dtype=float), np.array(vals, dtype=complex))
        assert str(info.value) == message


@pytest.mark.parametrize("value", [5.9462166e-182 * (1 + 1j), 1e200, -3e170j, 1e-170])
def test_norm_survives_squares_that_underflow_or_overflow(value):
    f = StepFunction(np.array([0.0, 0.1]), np.array([value]))
    assert norm_sq(f) in (0.0, np.inf)
    assert norm(f) == pytest.approx(abs(value) * math.sqrt(0.1), rel=4 * np.finfo(float).eps)


def test_refusals_and_rescaled_norms_warn_nothing():
    # the squares of 1e200 overflow before norm rescales them, and the
    # constructor's inf - inf comes before its own error: neither warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (1e200, -3e170j):
            f = StepFunction(np.array([0.0, 0.1]), np.array([value]))
            assert norm_sq(f) == np.inf
            assert norm(f) == pytest.approx(abs(value) * math.sqrt(0.1), rel=4 * np.finfo(float).eps)
        for make in (StepFunction, StepFunction._owned):
            with pytest.raises(ValueError, match="^breakpoints and values must be finite$"):
                make(np.array([0.0, np.inf, np.inf]), np.array([1.0, 2.0], dtype=complex))


@settings(max_examples=300, deadline=None)
@given(_step())
# a subnormal largest modulus: a complex division by it overflows to inf
@example(StepFunction(np.array([0.0, 5e-324]), np.array([2.22507386e-309 + 0j])))
def test_norm_keeps_its_bytes_where_the_squares_sum(f):
    sq = norm_sq(f)
    if 0.0 < sq < np.inf:
        assert norm(f) == float(np.sqrt(sq))
    # at least the largest cell's share |v| sqrt(width), never inf
    if f.values.size:
        i = int(np.argmax(np.abs(f.values)))
        assert norm(f) >= 0.5 * abs(f.values[i]) * math.sqrt(f.widths()[i])
    assert norm(f) < np.inf
