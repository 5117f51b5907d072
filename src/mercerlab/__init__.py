"""Numerical laboratory for Jensen-Mercer operator inequalities.

Evaluates the operator Jensen-Mercer inequality, its curvature-corrected and
log-convexity refinements, and quasi-arithmetic Mercer means on dense
Hermitian matrices with unital families of positive linear maps, rendering
PSD-order verdicts with eigenvalue witnesses.
"""

from .errors import (
    ArityMismatch,
    BadWeights,
    BudgetExhausted,
    DimensionMismatch,
    DomainMismatch,
    FunctionDomainError,
    HypothesisNotMet,
    InvalidConfig,
    InvalidInterval,
    InverseDomainError,
    MercerLabError,
    MissingSecondDerivative,
    NonHermitianInput,
    NonpositiveFunction,
    OperandOverflow,
    OutOfInterval,
    SingularNormalizer,
    SpectrumOutOfDomain,
)
from .functions import (
    CurvatureBounds,
    ScalarFunction,
    curvature_bounds,
    inverse_entry,
    is_log_convex_on,
    parse_function_spec,
    refined_vs_geometric_gap,
)
from .linalg import (
    HermitianOperator,
    LoewnerOrder,
    OrderVerdict,
    Relation,
    SpectralBounds,
    SpectralDecomposition,
    apply_to_decomposition,
    loewner_orders,
    spectral_decompose,
)
from .maps import (
    Compression,
    MapFamily,
    PositiveLinearMap,
    WeightedTrace,
    apply_map,
    family_sum,
    unitality_defect,
)
from .mercer import (
    CHAIN_KINDS,
    InequalityReport,
    MercerInstance,
    diamond_plain,
    evaluate_chain,
    mercer_lhs,
    mercer_rhs_classic,
    refined_bounds,
    scalar_mercer_check,
)
from .quasimeans import (
    QuasiArithmeticSpec,
    curvature_bound_expected_relation,
    curvature_mean_bound,
    diamond_phi,
    incomparability_probe,
    mercer_quasi_mean,
    predicted_mean_relation,
    resolve_spec,
)
from .sampling import generator, haar_unitary, random_hermitian, random_unital_family, trial_seed
from .tolerance import tolerance_from_norms

__version__ = "0.1.0"
