"""Weighted orthonormal-polynomial sums and their verification toolkit."""

__version__ = "0.1.0"

from .diffop import (
    DifferentialOperator,
    apply,
    eigenvalue_jacobi,
    eigenvalue_laguerre,
    family_operator,
    jacobi_operator,
    laguerre_operator,
    verify_composed_equation,
    verify_eigen_relation,
    verify_kernel_image,
)
from .integralrep import (
    CutoffError,
    SeriesRangeError,
    bessel_j,
    f_n_partial_sum,
    integral_rep_errors,
    laguerre_via_bessel,
    sobolev_laguerre_closed_form,
    sobolev_laguerre_integral_rep,
)
from .kernels import (
    EigScaledKernel,
    PlainKernel,
    SecondKind,
    chebyshev_bounds_check,
    generate_weights,
    jacobi_sobolev_poly,
    laguerre_sobolev_poly,
    quadratic_discriminant,
    second_kind_values,
    sobolev_poly,
    sobolev_tables,
    weighted_tables,
)
from .pencil import (
    JacobiTypePencil,
    WeightSequence,
    associated_values,
    build_pencil_formulas,
    build_pencil_matrices,
    five_term_residual,
    path_equivalence_residual,
)
from .polycore import (
    COEFF_DEGREE_CAP,
    Chebyshev1,
    DensePolynomial,
    FamilySpec,
    Jacobi,
    LaguerreNeg,
    RecurrenceCoefficients,
    derivative_tables,
    orthonormal_coeffs,
    orthonormal_values,
    recurrence_coefficients,
)
from .quadrature import (
    QuadratureRangeError,
    QuadratureRule,
    family_rule,
    gauss_rule,
    integrate,
    moment_residual,
    weight_moments,
)
from .sobolev import (
    MatrixWeight,
    gram_matrix,
    gram_offdiagonal_measures,
    jacobi_matrix_weight,
    laguerre_matrix_weight,
    matrix_weight,
    sobolev_gram,
)
