"""Exact apolarity computations and Waring/cactus rank bounds.

Everything is exact over the rationals: sparse polynomials, dual forms
acting by differentiation, graded derivative layers (sparse integer
spans) and the Hilbert functions, apolar lengths and annihilator pieces
read off them, and the bound families built on them.  Catalecticant
matrices, with their exact ``rank`` and ``kernel_basis``, remain
available on request.
"""

from .linalg import (
    DimensionMismatchError,
    QMatrix,
    Rational,
    SpanBuilder,
    kernel_basis,
    rank,
)
from .poly import (
    ContextMismatchError,
    DualForm,
    Monomial,
    ParseError,
    PolyError,
    Polynomial,
    VarContext,
    apply_operator,
    dehomogenize,
    evaluate_decomposition,
    format_polynomial,
    homogenize,
    monomial_basis,
    parse_dual_form,
    parse_polynomial,
    parse_polynomial_list,
    substitute,
)
from .apolarity import (
    DegreeRangeError,
    GeneratorDegrees,
    HilbertFunction,
    InvariantError,
    LinearSeries,
    NoVariablesError,
    ZeroSeriesError,
    apolar_ideal_component,
    apolar_length,
    catalecticant_matrix,
    colon_component,
    derivative_kernel_dims,
    diff_closure_dim,
    differentiate_series,
    hilbert_function,
    minimal_generator_degrees,
    minimal_generators,
    quotient_length_with_linear,
)
from .bounds import (
    BoundConsistencyError,
    BoundEntry,
    BoundReport,
    InvarianceAssertion,
    bernardi_ranestad_upper,
    bound_report,
    derivative_bound,
    generic_derivative_bound,
    generic_derivative_trials,
    landsberg_teitler_det,
    leading_coefficient_bound,
    ranestad_schreyer_bound,
    sylvester_bound,
)
from .catalog import (
    FamilySpec,
    NoClosedFormError,
    build,
    canonical_partial,
    closed_form_hilbert,
    closed_form_table,
    matmul_bound,
    monomial_decomposition,
    parse_family,
)

__version__ = "0.1.0"
