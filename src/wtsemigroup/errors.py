"""Exception types shared across the toolkit."""

from __future__ import annotations


class NumericError(Exception):
    """A numeric or convergence error: the command line exits 3."""


class SymbolSyntaxError(ValueError):
    """Malformed symbol expression or phi spec; carries the offending position."""

    def __init__(self, message: str, position: int | None = None, text: str | None = None):
        self.position = position
        self.text = text
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class NonPositiveSymbolError(NumericError, ArithmeticError):
    """A symbol evaluated to a non-positive or non-finite value somewhere."""

    def __init__(self, x: float, value: float):
        self.x = x
        self.value = value
        super().__init__(f"symbol value {value!r} at x={x!r} violates positivity")


class NotLeftInvertibleError(NumericError, RuntimeError):
    """Dual operators need inf_x phi(x+t)/phi(x) bounded away from zero."""


class OutsideConvergenceDomainError(NumericError, ValueError):
    """Kernel evaluation requested outside the guaranteed convergence disc."""


class LatticeError(NumericError, ValueError):
    """Step data the model cannot hold on its lattice k h: off it, outside E,
    or with more lattice cells than the model's bound."""


class TailBoundNotAchievedError(NumericError, RuntimeError):
    """Series truncation could not certify the requested tail bound."""

    def __init__(self, n_terms: int, tail_estimate: float, tol: float):
        self.n_terms = n_terms
        self.tail_estimate = tail_estimate
        self.tol = tol
        super().__init__(
            f"no geometric tail below {tol:g} after {n_terms} terms "
            f"(last estimate {tail_estimate:g})"
        )


class NoClosedFormError(LookupError):
    """The kernel carries no closed-form tag."""
