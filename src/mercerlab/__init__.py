"""Numerical laboratory for Jensen-Mercer operator inequalities.

Evaluates the operator Jensen-Mercer inequality, its curvature-corrected and
log-convexity refinements, and quasi-arithmetic Mercer means on dense
Hermitian matrices with unital families of positive linear maps, rendering
PSD-order verdicts with eigenvalue witnesses.

Importing the package loads none of its submodules.  Each public name below
is resolved from its defining module on first access (PEP 562 module
``__getattr__``), which then imports that module: a process compiles only the
modules it uses, and under ``PYTHONDONTWRITEBYTECODE=1`` compiling the source
is most of what importing it costs.  Submodules (``mercerlab.harness``, ...)
resolve the same way.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "ArityMismatch",
        "BadWeights",
        "BudgetExhausted",
        "DimensionMismatch",
        "DomainMismatch",
        "FunctionDomainError",
        "HypothesisNotMet",
        "InvalidConfig",
        "InvalidInterval",
        "InverseDomainError",
        "MercerLabError",
        "MissingSecondDerivative",
        "NonHermitianInput",
        "NonpositiveFunction",
        "OperandOverflow",
        "OutOfInterval",
        "SingularNormalizer",
        "SpectrumOutOfDomain",
    ),
    "functions": (
        "CurvatureBounds",
        "ScalarFunction",
        "curvature_bounds",
        "inverse_entry",
        "is_log_convex_on",
        "parse_function_spec",
        "refined_vs_geometric_gap",
    ),
    "linalg": (
        "HermitianOperator",
        "LoewnerOrder",
        "OrderVerdict",
        "Relation",
        "SpectralBounds",
        "SpectralDecomposition",
        "apply_to_decomposition",
        "loewner_orders",
        "spectral_decompose",
    ),
    "maps": (
        "Compression",
        "MapFamily",
        "PositiveLinearMap",
        "WeightedTrace",
        "apply_map",
        "family_sum",
        "unitality_defect",
    ),
    "mercer": (
        "CHAIN_KINDS",
        "InequalityReport",
        "MercerInstance",
        "diamond_plain",
        "evaluate_chain",
        "mercer_lhs",
        "mercer_rhs_classic",
        "refined_bounds",
        "scalar_mercer_check",
    ),
    "quasimeans": (
        "QuasiArithmeticSpec",
        "curvature_bound_expected_relation",
        "curvature_mean_bound",
        "diamond_phi",
        "incomparability_probe",
        "mercer_quasi_mean",
        "predicted_mean_relation",
        "resolve_spec",
    ),
    "sampling": ("generator", "haar_unitary", "random_hermitian", "random_unital_family", "trial_seed"),
    "tolerance": ("tolerance_from_norms",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "core", "harness")

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later accesses skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
