"""The package namespace: every public name, resolved from its defining module on first access."""

import importlib

import pytest

import mercerlab

# Every name the package exports, by defining module, written out.
EXPORTS = {
    "errors": [
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
    ],
    "functions": [
        "CurvatureBounds",
        "ScalarFunction",
        "curvature_bounds",
        "inverse_entry",
        "is_log_convex_on",
        "parse_function_spec",
        "refined_vs_geometric_gap",
    ],
    "linalg": [
        "HermitianOperator",
        "LoewnerOrder",
        "OrderVerdict",
        "Relation",
        "SpectralBounds",
        "SpectralDecomposition",
        "apply_to_decomposition",
        "loewner_orders",
        "spectral_decompose",
    ],
    "maps": [
        "Compression",
        "MapFamily",
        "PositiveLinearMap",
        "WeightedTrace",
        "apply_map",
        "family_sum",
        "unitality_defect",
    ],
    "mercer": [
        "CHAIN_KINDS",
        "InequalityReport",
        "MercerInstance",
        "diamond_plain",
        "evaluate_chain",
        "mercer_lhs",
        "mercer_rhs_classic",
        "refined_bounds",
        "scalar_mercer_check",
    ],
    "quasimeans": [
        "QuasiArithmeticSpec",
        "curvature_bound_expected_relation",
        "curvature_mean_bound",
        "diamond_phi",
        "incomparability_probe",
        "mercer_quasi_mean",
        "predicted_mean_relation",
        "resolve_spec",
    ],
    "sampling": ["generator", "haar_unitary", "random_hermitian", "random_unital_family", "trial_seed"],
    "tolerance": ["tolerance_from_norms"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_name_is_its_defining_modules_object(module, name):
    assert getattr(mercerlab, name) is getattr(importlib.import_module(f"mercerlab.{module}"), name)


def test_dir_lists_every_name_and_the_version():
    listed = set(dir(mercerlab))
    assert {name for _, name in NAMES} <= listed
    assert "__version__" in listed
    assert mercerlab.__version__ == "0.1.0"


def test_submodules_resolve_as_attributes():
    for module in [*EXPORTS, "cli", "core", "harness"]:
        assert getattr(mercerlab, module) is importlib.import_module(f"mercerlab.{module}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mercerlab.no_such_name
    assert not hasattr(mercerlab, "MASK64")  # a submodule's name the package does not export
    with pytest.raises(ImportError):
        from mercerlab import no_such_name  # noqa: F401
