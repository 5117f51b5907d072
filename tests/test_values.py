"""Contract of the package's value classes, which are plain classes written out by hand.

Each keeps the constructor of the dataclass it replaced (parameter names, order
and defaults, copied below), and each formerly frozen one refuses assignment and
deletion.  Equality is value equality only where the package or a test relies
on it (``ScalarFunction``, a ``core.FamilySums`` key; ``SpectralBounds`` and
``WeightedTrace``); every other value compares by identity.
"""

import inspect
import math

import numpy as np
import pytest

from mercerlab.functions import CurvatureBounds, ScalarFunction, exponential, identity, logarithm, power
from mercerlab.harness import RunSummary, Tally, TrialConfig
from mercerlab.linalg import (
    HermitianOperator,
    LoewnerOrder,
    OrderVerdict,
    Relation,
    SpectralBounds,
    SpectralDecomposition,
    loewner_orders,
)
from mercerlab.maps import Compression, MapFamily, WeightedTrace
from mercerlab.mercer import InequalityReport, MercerInstance, evaluate_chain
from mercerlab.quasimeans import ProbeRow, QuasiArithmeticSpec, resolve_spec

REQUIRED = inspect.Parameter.empty
FRESH_LIST = "a new empty list per instance"

# (parameter, default) of each constructor, in order, as the dataclasses declared them.
SIGNATURES = {
    SpectralBounds: [("m", REQUIRED), ("M", REQUIRED)],
    HermitianOperator: [("entries", REQUIRED)],
    SpectralDecomposition: [("eigenvalues", REQUIRED), ("eigenvectors", REQUIRED)],
    OrderVerdict: [("relation", REQUIRED), ("gap_min_eigenvalue", REQUIRED), ("witness_vector", REQUIRED)],
    LoewnerOrder: [
        ("left", REQUIRED), ("right", REQUIRED), ("difference", REQUIRED), ("eigenvalues", REQUIRED), ("tol", REQUIRED),
    ],
    Compression: [("v", REQUIRED)],
    WeightedTrace: [("weight", REQUIRED), ("dim_in", REQUIRED), ("dim_out", REQUIRED)],
    MapFamily: [("maps", REQUIRED)],
    ScalarFunction: [
        ("name", REQUIRED),
        ("fn", REQUIRED),
        ("natural_domain", (-math.inf, math.inf)),
        ("derivative", None),
        ("second_derivative", None),
        ("convex_on_domain", False),
        ("log_convex_on_domain", None),
        ("operator_monotone", False),
        ("operator_decreasing", False),
        ("parameters", ()),
        ("second_derivative_monotone", None),
    ],
    CurvatureBounds: [("alpha", REQUIRED), ("beta", REQUIRED), ("method", REQUIRED)],
    MercerInstance: [("f", REQUIRED), ("family", REQUIRED), ("operators", REQUIRED), ("bounds", REQUIRED)],
    InequalityReport: [("sides", REQUIRED), ("orders", REQUIRED), ("scalars", REQUIRED)],
    QuasiArithmeticSpec: [
        ("phi", REQUIRED),
        ("psi", REQUIRED),
        ("bounds", REQUIRED),
        ("phi_interval", REQUIRED),
        ("composite_curvature", REQUIRED),
        ("composite_is_convex", REQUIRED),
        ("composite_is_concave", REQUIRED),
        ("composite_is_log_convex", REQUIRED),
        ("phi_inverse", REQUIRED),
        ("psi_inverse", REQUIRED),
    ],
    ProbeRow: [("t", REQUIRED), ("p", REQUIRED), ("gap", REQUIRED), ("sign", REQUIRED)],
    TrialConfig: [
        ("seed", 0),
        ("dim_h", 4),
        ("dim_k", 4),
        ("n_maps", 2),
        ("m", 1.0),
        ("M", 3.0),
        ("function_spec", "exp"),
        ("chain", "classic"),
        ("tol_abs", None),
        ("force", False),
        ("mixed", False),
        ("vary_dims", False),
    ],
    Tally: [("evaluated", 0), ("domain_skips", 0), ("min_gap", math.inf), ("violations", FRESH_LIST)],
    RunSummary: [("trials", REQUIRED), ("violations", REQUIRED), ("min_gap_overall", REQUIRED), ("rows", FRESH_LIST)],
}

BOUNDS = SpectralBounds(1.0, 3.0)
HALF_TRACE = WeightedTrace(0.5, dim_in=2, dim_out=1)


def instance():
    return MercerInstance(
        f=exponential(), family=MapFamily((HALF_TRACE,)), operators=(HermitianOperator.diagonal([1.5, 2.5]),),
        bounds=BOUNDS,
    )


# One value of each formerly frozen class.
FROZEN = {
    SpectralBounds: lambda: BOUNDS,
    HermitianOperator: lambda: HermitianOperator.identity(2),
    SpectralDecomposition: lambda: SpectralDecomposition(np.ones(2), np.eye(2)),
    OrderVerdict: lambda: OrderVerdict(Relation.EQUAL, 0.0, np.ones(2)),
    LoewnerOrder: lambda: loewner_orders([(HermitianOperator.identity(2), HermitianOperator.identity(2))])[0],
    Compression: lambda: Compression(np.eye(2)),
    WeightedTrace: lambda: HALF_TRACE,
    MapFamily: lambda: MapFamily((HALF_TRACE,)),
    ScalarFunction: exponential,
    CurvatureBounds: lambda: CurvatureBounds(0.0, 1.0, "analytic"),
    MercerInstance: instance,
    InequalityReport: lambda: evaluate_chain(instance(), "classic"),
    QuasiArithmeticSpec: lambda: resolve_spec(logarithm(), identity(), BOUNDS),
    ProbeRow: lambda: ProbeRow(1.5, 2.0, 0.0, 0),
    TrialConfig: TrialConfig,
}


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda cls: cls.__name__)
def test_constructor_signature_is_the_dataclass_one(cls):
    params = inspect.signature(cls).parameters.values()
    expected = SIGNATURES[cls]
    assert [p.name for p in params] == [name for name, _ in expected]
    for param, (name, default) in zip(params, expected):
        assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, name
        if default is FRESH_LIST:
            assert param.default is not REQUIRED, name
        else:
            assert param.default == default, name


@pytest.mark.parametrize("cls", [Tally, RunSummary], ids=lambda cls: cls.__name__)
def test_a_defaulted_list_is_new_per_instance(cls):
    name = SIGNATURES[cls][-1][0]
    args = (3, [], -1.0) if cls is RunSummary else ()
    first, second = cls(*args), cls(*args)
    assert getattr(first, name) == [] and getattr(first, name) is not getattr(second, name)
    given = [{"trial": 0}]
    assert getattr(cls(*args, **{name: given}), name) is given


@pytest.mark.parametrize("cls", list(FROZEN), ids=lambda cls: cls.__name__)
def test_frozen_fields_refuse_assignment_and_deletion(cls):
    value = FROZEN[cls]()
    assert type(value) is cls
    for name in [*inspect.signature(cls).parameters, "unknown"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_tally_and_summary_stay_mutable():
    tally = Tally()
    tally.record(4, 9, (-1.0, False))
    tally.evaluated = 7
    summary = RunSummary(1, [], 0.5)
    summary.trials = 2
    assert (tally.evaluated, tally.min_gap, tally.violations, summary.trials) == (7, -1.0, [(4, 9, -1.0)], 2)


def test_catalog_functions_of_module_level_callables_are_equal():
    assert exponential() == exponential()
    assert hash(exponential()) == hash(exponential())
    assert len({exponential(): 1, exponential(): 2}) == 1
    # power's callables are lambdas of each call, so two entries differ
    assert power(2.0) != power(2.0)
    assert exponential() != logarithm() and exponential() != "exp"


def test_bounds_and_trace_maps_compare_by_value():
    assert SpectralBounds(1.0, 3.0) == BOUNDS and hash(SpectralBounds(1.0, 3.0)) == hash(BOUNDS)
    assert SpectralBounds(1.0, 2.0) != BOUNDS
    assert WeightedTrace(0.5, 2, 1) == HALF_TRACE and WeightedTrace(0.25, 2, 1) != HALF_TRACE


def test_construction_calls_a_patched_post_init(monkeypatch):
    original = MercerInstance.__dict__["__post_init__"]
    seen = []

    def spy(self):
        seen.append(self)
        original(self)

    monkeypatch.setattr(MercerInstance, "__post_init__", spy)
    inst = instance()
    assert seen == [inst] and inst.core is not None
