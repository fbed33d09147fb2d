"""Spectral picture: radius estimates, annulus bounds, symmetry checks.

The spectral radius comes from the norm sequence, r = lim ||S_t^n||^(1/n),
estimated by a log-linear fit over the tail half of the sequence; the same
scheme on the injectivity moduli m(S_t^n) gives the lower bound r_1. The
approximate point spectrum lies in the annulus r_1 <= |z| <= r, the point
spectrum is empty, the adjoint's point spectrum fills the model disc, and
the spectrum itself is the closed disc of radius r.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NumericError
from .model import kernel_preimage
from .operators import OperatorHandle, _weight_extrema, apply, make_operator
from .stepfun import StepFunction, norm
from .symbols import Symbol
from .util import check_step, window

FIT_RESIDUAL_MAX = 0.05  # a tail fit with a larger log residual is flagged non_convergent
MAX_FIT_ORDER = 1024  # largest n_max the command line fits, 32 times the default
# the fits of spectral_summary: ||S_t^n|| and m(S_t^n) = 1 / ||L_t^n||
SUMMARY_FITS = (("S", "max"), ("S", "min"))


@dataclass(frozen=True)
class RadiusEstimate:
    estimate: float
    fit_residual: float
    sequence: tuple[float, ...]  # a_n = value_n ** (1/n)
    values: tuple[float, ...]  # ||op^n|| or m(op^n) for n = 1..n_max
    args: tuple[float, ...]  # where each extremum was attained (base point)
    window_limited: bool
    non_convergent: bool


def _measured(ests, name: str):
    """ests, name's extrema for n = 1, 2, ..., once each is a positive finite
    float: one that is 0 or inf left the floats, and a fit to it measured
    nothing."""
    for n, est in enumerate(ests, 1):
        if not 0.0 < est.value < np.inf:
            raise NumericError(
                f"{name} = {est.value!r} at n={n}: the n-step weight left the floats, so the radius fit measured nothing"
            )
    return ests


def _fit_radius(ests) -> RadiusEstimate:
    values = [e.value for e in ests]
    ns = np.arange(1, len(values) + 1, dtype=float)
    vals = np.asarray(values, dtype=float)
    logs = np.log(vals)
    tail = ns >= max(1, len(values) // 2)
    slope, intercept = np.polyfit(ns[tail], logs[tail], 1)
    resid = float(np.max(np.abs(slope * ns[tail] + intercept - logs[tail])))
    a_n = vals ** (1.0 / ns)
    return RadiusEstimate(
        estimate=float(np.exp(slope)),
        fit_residual=resid,
        sequence=tuple(float(a) for a in a_n),
        values=tuple(float(v) for v in vals),
        args=tuple(float(e.arg) for e in ests),
        window_limited=any(e.window_limited for e in ests),
        non_convergent=resid > FIT_RESIDUAL_MAX,
    )


def _tail_fits(symbol: Symbol, t: float, n_max: int, x_max: float, fits, checked, checked_first=()):
    """Tail fits of each (kind, mode) in fits over n = 1..n_max on [0, x_max]:
    ||kind_t^n|| for "max", m(kind_t^n) for "min". t and n_max are refused
    before any phi is evaluated; each kind in checked_first is built with
    make_operator before the grid is sampled, each in checked once it is."""
    check_step(t)
    if n_max < 2:
        raise ValueError("need n_max >= 2 for the tail fit")
    for kind in checked_first:
        make_operator(symbol, t, kind, x_max=x_max)
    extrema = _weight_extrema(symbol, t, range(1, n_max + 1), x_max, fits, checked)
    names = (f"||{kind}_t^n||" if mode == "max" else f"m({kind}_t^n)" for kind, mode in fits)
    return [_fit_radius(_measured(ests, name)) for ests, name in zip(extrema, names)]


def spectral_radius(op: OperatorHandle, n_max: int, x_max: float) -> RadiusEstimate:
    """r(op) from the norm sequence; diagnostics flag slow or window-biased fits."""
    return _tail_fits(op.symbol, op.t, n_max, x_max, [(op.kind, "max")], [op.kind])[0]


def model_disc_radius(symbol: Symbol, t: float, n_max: int, x_max: float) -> float:
    """The model disc radius 1/r(L_t) = r_1(S_t): exact for the built-in
    symbols, at any n_max, else the tail fit of m(S_t^n) = 1/||L_t^n|| over
    n = 1..n_max on [0, x_max], the r_1 of spectral_summary to the bit. L_t
    is checked before the grid is sampled."""
    exact = symbol.model_disc_radius(t)
    if exact is not None:
        return exact
    return _tail_fits(symbol, t, n_max, x_max, [("S", "min")], [], checked_first=["L"])[0].estimate


@dataclass(frozen=True)
class SpectralSummary:
    r: float
    r1: float
    r_L: float
    annulus: tuple[float, float]
    model_disc_radius: float
    window_limited: bool
    point_spectrum: str = "empty"
    adjoint_point_spectrum: str = "contains the open disc of the model radius"
    radius_note: str | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


def spectral_summary(
    symbol: Symbol,
    t: float,
    n_max: int = 32,
    x_max: float | None = None,
) -> SpectralSummary:
    """Full spectral picture for S_t: radius, annulus, model disc, diagnostics.

    r is the fit of spectral_radius(S_t), and r_1 = lim m(S_t^n)^(1/n) is
    the same fit on the lower moduli, both found in one pass: one phi table
    per shift and one refinement for both. On one window m(S_t^n) is
    1/||L_t^n||, so r(L_t) = 1/r_1 and the fitted model disc radius is r_1.
    L_t is checked once the grid is sampled.
    """
    x_max = window(t, x_max)
    fit_r, fit_r1 = _tail_fits(symbol, t, n_max, x_max, SUMMARY_FITS, ["L"])
    note = None
    if symbol.closed_form == "scaled_szego":
        a = symbol.growth
        note = (
            "square-root-consistent radii in use: ||L_t^n|| = a**(-nt/2) gives "
            f"r(L_t) = a**(-t/2) = {a ** (-t / 2.0):.9g} and model disc radius "
            f"a**(t/2) = {a ** (t / 2.0):.9g}; the kernel coefficient a**(-nt) "
            f"converges exactly for |z conj(lambda)| < a**t = {a ** t:.9g}"
        )
    exact_radius = symbol.model_disc_radius(t)
    return SpectralSummary(
        r=fit_r.estimate,
        r1=fit_r1.estimate,
        r_L=1.0 / fit_r1.estimate,
        annulus=(fit_r1.estimate, fit_r.estimate),
        model_disc_radius=exact_radius if exact_radius is not None else fit_r1.estimate,
        window_limited=fit_r.window_limited or fit_r1.window_limited,
        radius_note=note,
        diagnostics={
            "norms": list(fit_r.values),
            "lower_moduli": list(fit_r1.values),
            "a_n": list(fit_r.sequence),
            "m_n_roots": list(fit_r1.sequence),
            "arg_sup": list(fit_r.args),
            "arg_inf": list(fit_r1.args),
            "fit_residual_r": fit_r.fit_residual,
            "fit_residual_r1": fit_r1.fit_residual,
            "non_convergent": fit_r.non_convergent or fit_r1.non_convergent,
            "window_limited_r": fit_r.window_limited,
            "window_limited_r1": fit_r1.window_limited,
            "n_max": n_max,
            "x_max": x_max,
        },
    )


# ---------------------------------------------------------------------------
# Checks of the spectral picture: circular symmetry, adjoint eigenvectors
# ---------------------------------------------------------------------------


def _phase_factors(breakpoints: np.ndarray, theta: float, rule: str) -> np.ndarray:
    """Per-cell representation of multiplication by exp(i theta x)."""
    if theta == 0.0:
        return np.ones(breakpoints.size - 1, dtype=complex)
    if rule == "midpoint":
        mids = 0.5 * (breakpoints[:-1] + breakpoints[1:])
        return np.exp(1j * theta * mids)
    if rule == "average":
        a = breakpoints[:-1]
        b = breakpoints[1:]
        return (np.exp(1j * theta * b) - np.exp(1j * theta * a)) / (1j * theta * (b - a))
    raise ValueError("phase rule must be 'midpoint' or 'average'")


def verify_circular_symmetry(
    symbol: Symbol,
    t: float,
    theta: float,
    f: StepFunction,
    phase_rule: str = "midpoint",
) -> float:
    """Residual || M_theta* S_t M_theta f - e^{-i theta t} S_t f ||.

    With midpoint phases the conjugation identity cancels cell by cell, so
    the residual sits at rounding level on any mesh: the identity is exact
    for the discretized operators by construction. The "average" rule
    represents each phase by its exact cell mean instead; then the residual
    measures the genuine O(h^2) cost of representing exp(i theta x) f on a
    step mesh and decreases at second order under mesh refinement.
    """
    op = OperatorHandle(symbol, t, "S")
    if f.values.size == 0:
        return 0.0
    fwd = _phase_factors(f.breakpoints, theta, phase_rule)
    g = apply(op, f.with_values(f.values * fwd))
    back = _phase_factors(g.breakpoints, -theta, phase_rule)
    lhs = g.with_values(g.values * back)
    rhs = apply(op, f).scale(np.exp(-1j * theta * t))
    return norm(lhs - rhs)


def verify_adjoint_eigenvector(
    symbol: Symbol,
    t: float,
    w: complex,
    e: StepFunction,
    tol: float = 1e-8,
) -> float:
    """Build v = sum conj(w)^n (L_t*)^n e and return ||S_t* v - conj(w) v|| / ||v||.

    The geometric tail rule at `tol` fixes the number N of terms; the
    residual is then |w|^N ||(L*)^(N-1) e|| over ||v|| up to rounding.
    """
    op_sadj = OperatorHandle(symbol, t, "S_adjoint")
    v = kernel_preimage(symbol, t, w, e, tol=tol)
    return norm(apply(op_sadj, v) - v.scale(np.conj(complex(w)))) / norm(v)
