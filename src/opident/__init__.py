"""opident: exact verification of a determinant identity for moments of
orthogonal polynomials, the Uvarov construction for rationally modified
densities, and the Chebyshev / Catalan Hankel determinant evaluations."""

from .ring import (
    DimensionError,
    InverseSeries,
    RingMatrix,
    UniPoly,
    det_berkowitz,
    det_cofactor,
    det_generic,
    det_rational,
    format_rational,
    parse_rational,
    vandermonde_product,
)
from .moments import (
    ChebyshevCatalanFunctional,
    DomainError,
    FiniteAtomFunctional,
    ModeError,
    MomentFunctional,
    MomentHorizonError,
    PoleAtAtomError,
    SequenceFunctional,
    catalan,
    functional_from_json,
    random_atom_functional,
    random_sequence_functional,
)
from .orthopoly import (
    DegenerateFunctionalError,
    OrthoSystem,
    build_ortho_system,
    hankel_product_formula,
    poly_lemma4,
    poly_lemma5,
    q_exact,
    q_series,
)
from .identity import (
    ConfluentRequiredError,
    IdentityInstance,
    VerificationReport,
    jacobi_check,
    lemma8_check,
    lemma9_check,
    lhs_theorem1,
    matrix_M,
    matrix_N,
    modified_functional,
    prop13_sign,
    rhs_theorem1,
    sweep_jacobi,
    sweep_lemmas,
    sweep_prop13,
    sweep_theorem1_atom,
    sweep_theorem1_series,
    theorem1_sign,
    uvarov_polynomial,
    uvarov_system,
    verify_theorem1,
)
from .chebyshev import (
    chebU_classical,
    chebU_monic,
    closed_form_suite,
    conjecture16_check,
    conjecture16_table,
    modified_moment_cheb,
    q_cheb,
    run_chebyshev_suite,
    theorem14_eval,
    theorem15_eval,
)

__version__ = "0.1.0"
