"""Weighted translation semigroups on L2(R+), at desk scale.

S_t translates by t and multiplies by the weight sqrt(phi(x)/phi(x-t))
derived from a positive continuous symbol phi. The toolkit realizes the
semigroup on exact step-function data, builds the analytic model in which
every left invertible S_t is multiplication by z on a space with a diagonal
reproducing kernel, estimates the spectral picture, and classifies the
semigroup from the signs of its alternating brackets.
"""

from .classify import (
    ClassificationReport,
    bracket,
    bracket_forms,
    classify,
)
from .config import DEFAULT_TOLERANCES, RunConfig
from .errors import (
    LatticeError,
    NoClosedFormError,
    NonPositiveSymbolError,
    NotLeftInvertibleError,
    NumericError,
    OutsideConvergenceDomainError,
    SymbolSyntaxError,
    TailBoundNotAchievedError,
)
from .model import (
    DiagonalKernel,
    EValuedPolynomial,
    block_decompose,
    kernel_closed_form,
    kernel_preimage,
    kernel_series,
    make_kernel,
    model_inverse,
    model_map,
    parseval_defect,
    reproducing_check,
)
from .operators import (
    KINDS,
    OperatorHandle,
    apply,
    apply_power,
    check_left_invertible,
    make_operator,
)
from .spectral import (
    SpectralSummary,
    model_disc_radius,
    spectral_radius,
    spectral_summary,
    verify_adjoint_eigenvector,
    verify_circular_symmetry,
)
from .stepfun import (
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
from .symbols import (
    Symbol,
    affine,
    constant,
    eval_phi,
    exponential,
    expression_to_string,
    parse_phi_spec,
    parse_symbol,
    piecewise_cap,
    reciprocal,
    validate_positivity,
)
from .verify import CheckResult, all_passed, run_verify

__version__ = "0.1.0"
