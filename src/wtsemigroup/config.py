"""Run configuration shared by the CLI and the verification suites."""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from numbers import Real
from types import MappingProxyType

from .util import check_step, window

DEFAULT_TOLERANCES = {
    # identities that cancel cell by cell under the midpoint rule; on dyadic
    # meshes they sit at rounding level, on non-dyadic meshes ulp-wide cell
    # slivers under translate-and-return cost a few orders more
    "semigroup_law": 1e-6,
    "adjoint_pairing": 1e-6,
    "left_inverse": 1e-6,
    "parseval_pullback": 1e-6,
    "intertwining": 1e-6,
    "reproducing": 1e-6,
    "circular_symmetry": 1e-6,
    # exact-by-construction support facts: no tolerance at all
    "analyticity_support": 0.0,
    "adjoint_kernel": 0.0,
    "block_orthogonality": 0.0,
    # genuinely discretization- or truncation-limited checks;
    # parseval_quadrature is anchored at h = t/256 and rescales by (h / anchor)^2
    "parseval_quadrature": 1e-6,
    "adjoint_eigenvector": 1e-6,
    "bracket_agreement": 1e-6,
    "kernel_agreement": 1e-8,
}


@dataclass
class RunConfig:
    """Single static record passed down to every command; no global state."""

    phi: str = "const:1"
    t: float = 1.0
    x_max: float | None = None  # default 64 t
    h: float | None = None  # default t / 256
    n_max: int = 32
    seed: int = 0
    out: str | None = None
    fmt: str = "json"
    tol: Mapping = field(default_factory=dict)  # overrides of DEFAULT_TOLERANCES, by name

    def __post_init__(self):
        check_step(self.t)
        for name, value in self.tol.items():
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(f"unknown tolerance {name!r}; known: {sorted(DEFAULT_TOLERANCES)}")
            if not isinstance(value, Real):
                raise ValueError(f"tolerance {name}: {value!r} is not a number")
            if not 0 <= value < math.inf:  # NaN fails every check, inf passes any
                raise ValueError(f"tolerance {name} must be a nonnegative finite number")
        self.tol = MappingProxyType({**DEFAULT_TOLERANCES, **self.tol})  # merged, and read-only: checked once

    @property
    def resolved_x_max(self) -> float:
        return window(self.t, self.x_max)

    @property
    def resolved_h(self) -> float:
        return self.h if self.h is not None else self.t / 256.0

    @property
    def per_block(self) -> int:
        """Cells per block of verify's mesh: t / h snapped so translation by t keeps cell edges."""
        return max(1, round(self.t / self.resolved_h))
