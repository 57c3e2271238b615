"""Purifications, factorability tests and correlation witnesses for
bipartite quantum states."""

from .correlation import (
    FACTORABLE_TOL,
    WITNESS_TOL,
    CorrelationOperator,
    CorrelationWitness,
    OperatorSchmidt,
    SamplingResult,
    brute_force_max_covariance,
    chi_square_goodness,
    chi_square_homogeneity,
    correlation_operator,
    covariance,
    is_factorable,
    named_observable,
    operator_schmidt,
    sample_measurements,
    synthesize_witness,
    to_projective,
    verify_witness_criterion,
)
from .linalg import (
    DimPair,
    EigDecomposition,
    SvdDecomposition,
    hermitian_basis,
    hermitian_eig,
    multi_partial_trace,
    operator_to_coefficient_matrix,
    partial_trace,
    svd,
    tensor_product,
)
from .purification import (
    EntanglementReport,
    Purification,
    apply_ancilla_unitary,
    cut_entanglement,
    embed_ancilla,
    entanglement_campaign,
    factored_purification,
    purify,
    verify_purification_entanglement,
)
from .reports import TheoremReport
from .states import (
    GENERATOR_NAME,
    BipartiteState,
    DensityMatrix,
    Observable,
    PureState,
    example_source_state,
    from_pure,
    ghz,
    random_density,
    random_isometry,
    random_product_state,
    random_pure,
    random_unitary,
)
from .stateio import (
    StateFileError,
    emit_state_file,
    parse_observable_file,
    parse_state_file,
)

__version__ = "0.1.0"
