"""Piecewise constant elements of L2(R+), with exact pairing.

Breakpoints are explicit and finite and the function is zero outside the
recorded range, so every inner product, norm and restriction reduces to a
finite sum: there is no quadrature error on step data. Dyadic breakpoints
(Haar functions, indicators on multiples of a dyadic step) stay exact in
binary floating point, which is what makes the structural identities in the
rest of the toolkit hold with residual zero rather than "small".

Values are immutable after construction; everything here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import check_step


@dataclass(frozen=True, eq=False)
class StepFunction:
    breakpoints: np.ndarray  # strictly increasing, nonnegative
    values: np.ndarray  # complex, one per cell; implicit 0 outside

    def __post_init__(self):
        bp, vals = _checked(self.breakpoints, self.values)
        self._freeze(bp.copy(), vals.copy())

    @classmethod
    def _owned(cls, breakpoints, values) -> "StepFunction":
        """A step function on arrays the package has just made and hands
        over: the constructor's checks, with its errors, without its copies.
        The arrays become read-only; no caller may hold them writable."""
        f = object.__new__(cls)
        f._freeze(*_checked(breakpoints, values))
        return f

    def _freeze(self, bp: np.ndarray, vals: np.ndarray):
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    # -- basic queries -----------------------------------------------------

    @property
    def lo(self) -> float:
        return float(self.breakpoints[0]) if self.values.size else 0.0

    @property
    def hi(self) -> float:
        return float(self.breakpoints[-1]) if self.values.size else 0.0

    @property
    def support(self) -> tuple[float, float] | None:
        """Bounding interval of the nonzero cells, or None for the zero function."""
        nz = np.nonzero(self.values != 0)[0]
        if nz.size == 0:
            return None
        return float(self.breakpoints[nz[0]]), float(self.breakpoints[nz[-1] + 1])

    def is_zero(self) -> bool:
        return self.values.size == 0 or bool(np.all(self.values == 0))

    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.breakpoints[:-1] + self.breakpoints[1:])

    def widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def values_at_left_edges(self, edges: np.ndarray) -> np.ndarray:
        """Cell values for cells starting at the given left edges (0 outside)."""
        idx = np.searchsorted(self.breakpoints, edges, side="right") - 1
        out = np.zeros(edges.shape, dtype=complex)
        ok = (idx >= 0) & (idx < self.values.size)
        out[ok] = self.values[idx[ok]]
        return out

    # -- algebra -----------------------------------------------------------

    def with_values(self, new_values) -> "StepFunction":
        return StepFunction(self.breakpoints, new_values)

    def scale(self, c: complex) -> "StepFunction":
        if self.values.size == 0 or c == 0:
            return zero()
        return StepFunction._owned(self.breakpoints, self.values * c)

    def __add__(self, other: "StepFunction") -> "StepFunction":
        return add_all((self, other))

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        return self + other.scale(-1.0)

    # -- geometry ----------------------------------------------------------

    def restrict(self, lo: float, hi: float) -> "StepFunction":
        """Pointwise multiplication by the indicator of [lo, hi); exact cuts."""
        if self.values.size == 0 or hi <= lo:
            return zero()
        a = max(lo, self.lo)
        b = min(hi, self.hi)
        if b <= a:
            return zero()
        inner_bp = self.breakpoints[(self.breakpoints > a) & (self.breakpoints < b)]
        bp = np.concatenate([[a], inner_bp, [b]])
        vals = self.values_at_left_edges(bp[:-1])
        return _trimmed(bp, vals)

    def translate(self, shift: float) -> "StepFunction":
        """Shift the graph by `shift`; a left shift clips exactly at 0."""
        if self.values.size == 0:
            return self
        bp = self.breakpoints + shift
        vals = self.values
        keep = np.diff(bp) > 0
        if not np.all(keep):
            # rounding can collapse an ulp-wide cell onto a single breakpoint;
            # such a cell carries no mass, dropping it is exact
            vals = vals[keep]
            if vals.size == 0:
                return zero()
            bp = np.concatenate([bp[:1], bp[1:][keep]])
        if bp[0] < 0:
            idx = int(np.searchsorted(bp, 0.0, side="right"))
            if idx >= bp.size:
                return zero()
            bp = np.concatenate([[0.0], bp[idx:]])
            vals = vals[idx - 1 :]
        return StepFunction._owned(bp, vals)

    def subdivide(self, m: int) -> "StepFunction":
        """Split every cell into m equal parts; same function, finer mesh."""
        if m <= 1 or self.values.size == 0:
            return self
        bp = self.breakpoints
        pieces = [np.linspace(bp[i], bp[i + 1], m + 1)[:-1] for i in range(bp.size - 1)]
        pieces.append(bp[-1:])
        return StepFunction(np.concatenate(pieces), np.repeat(self.values, m))


def _checked(breakpoints, values) -> tuple[np.ndarray, np.ndarray]:
    """The step data as float and complex arrays, copied only to convert;
    raises ValueError for data that is not a step function."""
    bp = np.asarray(breakpoints, dtype=float)
    vals = np.asarray(values, dtype=complex)
    if bp.ndim != 1 or vals.ndim != 1:
        raise ValueError("breakpoints and values must be 1-d")
    if not (bp.size == vals.size + 1 or (bp.size == 1 and vals.size == 0)):
        raise ValueError("need one more breakpoint than values")
    if bp.size and bp[0] < 0:
        raise ValueError("support must lie in the half line")
    # np.diff(bp) <= 0 implies bp[1:] <= bp[:-1], whose test needs no
    # float temporary; the second is false only for pairs of equal
    # infinities, whose inf - inf is the NaN refused as not finite below
    if np.any(bp[1:] <= bp[:-1]):
        with np.errstate(invalid="ignore"):
            if np.any(np.diff(bp) <= 0):
                raise ValueError("breakpoints must be strictly increasing")
    if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(vals))):
        raise ValueError("breakpoints and values must be finite")
    return bp, vals


def _trimmed(bp: np.ndarray, vals: np.ndarray) -> StepFunction:
    """Drop exactly-zero edge cells; collapse to the canonical zero function."""
    nz = vals.astype(bool)  # vals != 0, without numpy's slower complex compare
    a = int(nz.argmax())
    if not nz[a]:
        return zero()
    b = vals.size - int(nz[::-1].argmax())
    return StepFunction._owned(bp[a : b + 1], vals[a:b])


def add_all(pieces) -> StepFunction:
    """Sum of step functions over one merged mesh, in a single pass.

    Each piece adds its values over its own span of the merged breakpoints,
    in the order given, so every cell sums in the same order as the left
    fold of `+` and the values agree bit for bit (up to the sign of an exact
    zero). The mesh can be finer than the fold's only where a partial sum
    has exactly zero edge cells, which the fold trims away.
    """
    pieces = [p for p in pieces if p.values.size]
    if not pieces:
        return zero()
    if len(pieces) == 1:
        return pieces[0]
    mesh = pieces[0].breakpoints
    if all(_same_mesh(p.breakpoints, mesh) for p in pieces[1:]):
        # the merge on one mesh: each piece adds over every cell, in order
        vals = np.zeros(mesh.size - 1, dtype=complex)
        for p in pieces:
            vals += p.values
        return _trimmed(mesh, vals)
    return sum_pieces(pieces)


def _same_mesh(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal breakpoints, down to the sign of a zero first one."""
    if a is b:
        return True
    return a.size == b.size and np.array_equal(a, b) and np.signbit(a[0]) == np.signbit(b[0])


def sum_pieces(pieces) -> StepFunction:
    """The merge of add_all, for nonempty step functions: each adds its
    values over its span of the merged breakpoints, in order, from exact
    zeros, so every cell sums in the order of the left fold of `+`."""
    bp = np.unique(np.concatenate([p.breakpoints for p in pieces]))
    vals = np.zeros(bp.size - 1, dtype=complex)
    for p in pieces:
        idx = np.searchsorted(bp, p.breakpoints)
        vals[idx[0] : idx[-1]] += np.repeat(p.values, np.diff(idx))
    return _trimmed(bp, vals)


def zero() -> StepFunction:
    return StepFunction(np.array([0.0]), np.array([], dtype=complex))


def indicator(lo: float, hi: float, value: complex = 1.0) -> StepFunction:
    return StepFunction(np.array([lo, hi], dtype=float), np.array([value], dtype=complex))


# -- pairing ----------------------------------------------------------------


def inner(f: StepFunction, g: StepFunction) -> complex:
    """Exact L2 pairing <f, g> = integral f conj(g) over merged breakpoints."""
    if f.values.size == 0 or g.values.size == 0:
        return 0j
    lo = max(f.lo, g.lo)
    hi = min(f.hi, g.hi)
    if hi <= lo:
        return 0j
    bp = np.unique(np.concatenate([f.breakpoints, g.breakpoints]))
    bp = bp[(bp >= lo) & (bp <= hi)]
    left = bp[:-1]
    vf = f.values_at_left_edges(left)
    vg = g.values_at_left_edges(left)
    return complex(np.sum(vf * np.conj(vg) * np.diff(bp)))


def norm_sq(f: StepFunction) -> float:
    """integral |f|^2; inf where the squares overflow, without a warning."""
    if f.values.size == 0:
        return 0.0
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(f.values) ** 2 * f.widths()))


def norm(f: StepFunction) -> float:
    """sqrt(norm_sq(f)); where |v|^2 underflows to 0 or overflows to inf, the
    moduli |v| are divided by the largest one, s, before they are squared,
    as hypot does, and the root is multiplied by s. The moduli are real, so
    a subnormal s divides them without the overflow of a complex division."""
    sq = norm_sq(f)
    if 0.0 < sq < np.inf or f.values.size == 0:
        return float(np.sqrt(sq))
    moduli = np.abs(f.values)
    s = float(np.max(moduli))
    if s == 0.0:
        return 0.0
    return s * float(np.sqrt(np.sum((moduli / s) ** 2 * f.widths())))


def restrict_to_E(f: StepFunction, t: float) -> StepFunction:
    """Orthogonal projection onto E = chi_[0,t) L2: exact truncation."""
    check_step(t)
    return f.restrict(0.0, t)


# -- Haar system -------------------------------------------------------------


def haar(j: int, k: int) -> StepFunction:
    """Haar function psi_jk(x) = 2**(j/2) psi(2**j x - k) restricted to R+.

    psi is +1 on [0, 1/2), -1 on [1/2, 1). Breakpoints are dyadic rationals,
    exact in floating point, so the family is orthonormal with exact zero
    off-diagonal pairings.
    """
    if k < 0:
        raise ValueError("shift k must be nonnegative")
    lo = float(np.ldexp(float(k), -j))
    mid = float(np.ldexp(float(2 * k + 1), -j - 1))
    hi = float(np.ldexp(float(k + 1), -j))
    amp = float(np.sqrt(np.ldexp(1.0, j)))
    return StepFunction(np.array([lo, mid, hi]), np.array([amp, -amp], dtype=complex))


def random_step(
    rng: np.random.Generator,
    lo: float,
    hi: float,
    cells: int,
    unit_norm: bool = False,
) -> StepFunction:
    """Random complex step function on a uniform mesh; deterministic given the rng."""
    bp = np.linspace(lo, hi, cells + 1)
    f = StepFunction(bp, rng.standard_normal(cells) + 1j * rng.standard_normal(cells))
    if unit_norm:
        f = f.scale(1.0 / norm(f))
    return f
