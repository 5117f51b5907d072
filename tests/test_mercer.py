import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mercerlab.errors import (
    ArityMismatch,
    BadWeights,
    FunctionDomainError,
    HypothesisNotMet,
    NonpositiveFunction,
    OutOfInterval,
    SpectrumOutOfDomain,
)
from mercerlab.functions import (
    ScalarFunction,
    curvature_bounds,
    exponential,
    identity,
    logarithm,
    power,
    reciprocal,
    sine,
    square,
)
from mercerlab.linalg import HermitianOperator, Relation, SpectralBounds, spectral_norms
from mercerlab.maps import Compression, MapFamily, WeightedTrace
from mercerlab.mercer import (
    CHAIN_KINDS,
    CHAINS,
    MercerInstance,
    diamond_plain,
    evaluate_chain,
    mercer_lhs,
    mercer_rhs_classic,
    refined_bounds,
    scalar_mercer_check,
)
from mercerlab.sampling import generator, random_hermitian, random_unital_family

# Frozen scalar-arithmetic oracle values for the 2x2 sine instance
# (m, M) = (pi/4, pi/2), A = diag(m, M), half-trace map:
SIN_BOUNDS = SpectralBounds(math.pi / 4, math.pi / 2)
SIN_LHS = 0.9238795325112867          # sin(3 pi / 8)
SIN_RHS = 0.8535533905932737          # (1 + sqrt(2)/2) / 2
SIN_DIAMOND = math.pi**2 / 128        # = (M - m)^2 / 8 = 0.07710628438...
SIN_UPPER = SIN_RHS + SIN_DIAMOND     # alpha = -1


def sine_instance(f=None):
    family = MapFamily((WeightedTrace(0.5, dim_in=2, dim_out=1),))
    a = HermitianOperator.diagonal([SIN_BOUNDS.m, SIN_BOUNDS.M])
    return MercerInstance(f=f or sine(), family=family, operators=(a,), bounds=SIN_BOUNDS)


def random_instance(f, seed, bounds, dims=(2, 7), n_max=4):
    rng = generator(seed)
    dim_h = int(rng.integers(dims[0], dims[1] + 1))
    dim_k = int(rng.integers(1, dim_h + 1))
    n = int(rng.integers(1, n_max + 1))
    family = random_unital_family(n, dim_h, dim_k, rng)
    ops = tuple(random_hermitian(dim_h, bounds, rng) for _ in range(n))
    return MercerInstance(f=f, family=family, operators=ops, bounds=bounds)


class TestScalarMercer:
    def test_degenerate_weight_hits_equality(self):
        b = SpectralBounds(1.0, 3.0)
        lhs, rhs = scalar_mercer_check(square(), [1.0], [b.m], b)
        assert lhs == pytest.approx(b.M**2)
        assert rhs == pytest.approx(b.M**2)

    def test_exponential_strict_inequality(self):
        b = SpectralBounds(1.0, 3.0)
        lhs, rhs = scalar_mercer_check(exponential(), [0.5, 0.5], [1.0, 3.0], b)
        assert lhs == pytest.approx(math.e**2)
        assert rhs == pytest.approx(11.401909375823355)
        assert lhs <= rhs

    def test_sine_violates_without_convexity(self):
        lhs, rhs = scalar_mercer_check(
            sine(), [0.5, 0.5], [math.pi / 4, math.pi / 2], SIN_BOUNDS
        )
        assert lhs == pytest.approx(SIN_LHS, abs=1e-7)
        assert rhs == pytest.approx(SIN_RHS, abs=1e-7)
        assert lhs > rhs

    @pytest.mark.parametrize("weights", [[0.5, 0.6], [-0.1, 1.1], [0.5]])
    def test_bad_weights(self, weights):
        xs = [1.5] * len(weights) if len(weights) != 1 else [1.5, 2.0]
        with pytest.raises(BadWeights):
            scalar_mercer_check(square(), weights, xs, SpectralBounds(1.0, 3.0))

    @pytest.mark.parametrize(
        "xs, inside", [([1.0, 3.0], True), ([1.0 - 1e-10, 3.0], True), ([0.9, 2.0], False), ([2.0, 3.1], False)]
    )
    def test_points_must_lie_in_the_clamp_band(self, xs, inside):
        b = SpectralBounds(1.0, 3.0)
        if inside:
            scalar_mercer_check(square(), [0.5, 0.5], xs, b)
        else:
            with pytest.raises(OutOfInterval):
                scalar_mercer_check(square(), [0.5, 0.5], xs, b)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_convex_inequality_holds(self, seed, n):
        rng = generator(seed)
        b = SpectralBounds(0.5, 3.0)
        w = rng.uniform(0.0, 1.0, size=n)
        w = w / w.sum()
        xs = rng.uniform(b.m, b.M, size=n)
        lhs, rhs = scalar_mercer_check(exponential(), w, xs, b)
        assert lhs <= rhs + 1e-10


class TestInstanceValidation:
    def test_spectrum_out_of_domain(self):
        family = MapFamily((WeightedTrace(0.5, dim_in=2, dim_out=1),))
        a = HermitianOperator.diagonal([0.1, 5.0])
        with pytest.raises(SpectrumOutOfDomain):
            MercerInstance(f=sine(), family=family, operators=(a,), bounds=SIN_BOUNDS)

    def test_non_unital_family(self):
        family = MapFamily((WeightedTrace(0.9, dim_in=2, dim_out=1),))
        a = HermitianOperator.diagonal([1.0, 3.0])
        with pytest.raises(HypothesisNotMet):
            MercerInstance(
                f=sine(), family=family, operators=(a,), bounds=SpectralBounds(1.0, 3.0)
            )

    def test_arity(self):
        family = MapFamily((WeightedTrace(0.5, dim_in=2, dim_out=1),))
        a = HermitianOperator.diagonal([1.0, 3.0])
        with pytest.raises(ArityMismatch, match="1 maps but 2 operators"):
            MercerInstance(
                f=sine(), family=family, operators=(a, a), bounds=SpectralBounds(1.0, 3.0)
            )

    def test_unitality_is_checked_before_the_range(self):
        family = MapFamily((WeightedTrace(0.9, dim_in=2, dim_out=1),))
        a = HermitianOperator.diagonal([0.1, 5.0])  # outside SIN_BOUNDS as well
        with pytest.raises(HypothesisNotMet, match="not unital"):
            MercerInstance(f=sine(), family=family, operators=(a,), bounds=SIN_BOUNDS)

    def test_f_is_evaluated_at_construction(self):
        # f sees the spectra clamped onto [m, M], so an f undefined there fails at once.
        family = MapFamily((WeightedTrace(0.5, dim_in=2, dim_out=1),))
        a = HermitianOperator.diagonal([-0.5, 0.5])
        with pytest.raises(FunctionDomainError):
            MercerInstance(f=logarithm(), family=family, operators=(a,), bounds=SpectralBounds(-1.0, 1.0))

    def test_post_init_is_the_class_own(self):
        # perfbench/tracer.py times the instance span by patching
        # MercerInstance.__dict__["__post_init__"]; it must not be inherited.
        assert "__post_init__" in MercerInstance.__dict__


class TestOperatorSides:
    def test_lhs_sine_value(self):
        assert mercer_lhs(sine_instance()).scalar() == pytest.approx(SIN_LHS, abs=1e-12)

    def test_rhs_sine_value(self):
        assert mercer_rhs_classic(sine_instance()).scalar() == pytest.approx(SIN_RHS, abs=1e-12)

    def test_affine_function_collapses_chain(self):
        b = SpectralBounds(0.5, 2.0)
        inst = random_instance(identity(), seed=42, bounds=b)
        lhs = mercer_lhs(inst)
        for op in (mercer_rhs_classic(inst), evaluate_chain(inst, "chain", force=True).side("chain_middle")):
            assert np.max(np.abs(op.entries - lhs.entries)) <= 1e-12

    def test_square_with_identity_compression(self):
        b = SpectralBounds(1.0, 2.0)
        family = MapFamily((Compression(np.eye(2, dtype=complex)),))
        inst = MercerInstance(
            f=square(),
            family=family,
            operators=(HermitianOperator.diagonal([1.0, 2.0]),),
            bounds=b,
        )
        np.testing.assert_allclose(
            np.diag(mercer_lhs(inst).entries).real, [4.0, 1.0], atol=1e-12
        )

    def test_square_rhs_half_trace(self):
        b = SpectralBounds(1.0, 2.0)
        family = MapFamily((WeightedTrace(0.5, dim_in=2, dim_out=1),))
        inst = MercerInstance(
            f=square(),
            family=family,
            operators=(HermitianOperator.diagonal([1.0, 2.0]),),
            bounds=b,
        )
        assert mercer_rhs_classic(inst).scalar() == pytest.approx(2.5)

    def test_chain_middle_sine_value(self):
        # reflected chord at S = 3 pi / 8, which is the interval midpoint
        middle = evaluate_chain(sine_instance(), "chain", force=True).side("chain_middle")
        assert middle.scalar() == pytest.approx(SIN_RHS, abs=1e-12)

    def test_chain_middle_between_sides_for_convex(self):
        b = SpectralBounds(0.5, 2.5)
        for seed in range(200):
            inst = random_instance(exponential(), seed=1000 + seed, bounds=b)
            lhs = mercer_lhs(inst)
            mid = evaluate_chain(inst, "chain", force=True).side("chain_middle")
            rhs = mercer_rhs_classic(inst)
            assert np.linalg.eigvalsh((mid - lhs).entries)[0] >= -1e-9 * (1 + spectral_norms(mid))
            assert np.linalg.eigvalsh((rhs - mid).entries)[0] >= -1e-9 * (1 + spectral_norms(rhs))


class TestDiamond:
    def test_sine_instance_value(self):
        assert diamond_plain(sine_instance()).scalar() == pytest.approx(SIN_DIAMOND, abs=1e-13)

    def test_lower_endpoint_degenerate(self):
        b = SpectralBounds(0.7, 2.2)
        family = MapFamily((WeightedTrace(1.0 / 3.0, dim_in=3, dim_out=1),))
        inst = MercerInstance(
            f=square(),
            family=family,
            operators=(b.m * HermitianOperator.identity(3),),
            bounds=b,
        )
        assert diamond_plain(inst).scalar() == pytest.approx(0.0, abs=1e-12)

    def test_midpoint_maximizes(self):
        b = SpectralBounds(1.0, 3.0)
        family = MapFamily((Compression(np.eye(2, dtype=complex)),))
        c = (b.m + b.M) / 2
        inst = MercerInstance(
            f=square(), family=family, operators=(c * HermitianOperator.identity(2),), bounds=b
        )
        np.testing.assert_allclose(
            diamond_plain(inst).entries, (b.width**2 / 4) * np.eye(2), atol=1e-12
        )

    def test_psd_on_random_instances(self):
        b = SpectralBounds(-1.0, 2.0)
        for seed in range(300):
            inst = random_instance(square(), seed=5000 + seed, bounds=b)
            d = diamond_plain(inst)
            assert np.linalg.eigvalsh(d.entries)[0] >= -1e-9 * (1 + spectral_norms(d))


class TestRefinedBounds:
    def test_sine_counterexample_is_repaired(self):
        inst = sine_instance()
        curv = curvature_bounds(sine(), SIN_BOUNDS)
        assert curv.alpha == pytest.approx(-1.0)
        lower, upper = refined_bounds(inst, curv)
        # classic bound fails ...
        assert mercer_lhs(inst).scalar() > mercer_rhs_classic(inst).scalar()
        # ... but the corrected bounds hold, matching the reported ~0.9306
        assert upper.scalar() == pytest.approx(SIN_UPPER, abs=1e-12)
        assert abs(upper.scalar() - 0.9306) < 1e-4
        assert lower.scalar() <= SIN_LHS <= upper.scalar()

    def test_quadratic_saturation(self):
        b = SpectralBounds(0.5, 2.0)
        curv = curvature_bounds(square(), b)
        for seed in range(200):
            inst = random_instance(square(), seed=9000 + seed, bounds=b)
            lower, upper = refined_bounds(inst, curv)
            lhs = mercer_lhs(inst)
            assert np.max(np.abs(lower.entries - lhs.entries)) <= 1e-9
            assert np.max(np.abs(upper.entries - lhs.entries)) <= 1e-9

    def test_affine_gives_equalities(self):
        b = SpectralBounds(1.0, 3.0)
        inst = random_instance(identity(), seed=77, bounds=b)
        curv = curvature_bounds(identity(), b)
        assert curv.alpha == curv.beta == 0.0
        lower, upper = refined_bounds(inst, curv)
        rhs = mercer_rhs_classic(inst)
        assert np.max(np.abs(lower.entries - rhs.entries)) <= 1e-12
        assert np.max(np.abs(upper.entries - rhs.entries)) <= 1e-12


class TestLogConvexMiddle:
    def test_reciprocal_worked_example(self):
        b = SpectralBounds(1.0, 3.0)
        family = MapFamily((WeightedTrace(0.5, dim_in=2, dim_out=1),))
        inst = MercerInstance(
            f=reciprocal(),
            family=family,
            operators=(HermitianOperator.diagonal([1.0, 3.0]),),
            bounds=b,
        )
        middle = evaluate_chain(inst, "log_convex", force=True).side("geometric_middle").scalar()
        assert middle == pytest.approx(3 ** -0.5, abs=1e-12)
        assert mercer_lhs(inst).scalar() == pytest.approx(0.5)
        assert mercer_rhs_classic(inst).scalar() == pytest.approx(2.0 / 3.0)
        assert 0.5 <= middle <= 2.0 / 3.0

    def test_exponential_saturates_at_scalar_argument(self):
        b = SpectralBounds(1.0, 3.0)
        c = (b.m + b.M) / 2
        family = MapFamily((Compression(np.eye(2, dtype=complex)),))
        inst = MercerInstance(
            f=exponential(),
            family=family,
            operators=(c * HermitianOperator.identity(2),),
            bounds=b,
        )
        middle = evaluate_chain(inst, "log_convex", force=True).side("geometric_middle")
        lhs = mercer_lhs(inst)
        assert np.max(np.abs(middle.entries - lhs.entries)) <= 1e-12

    def test_constant_function_collapses(self):
        const = ScalarFunction(
            name="const", fn=lambda t: np.full_like(np.asarray(t, dtype=float), 2.5),
            log_convex_on_domain=True,
        )
        b = SpectralBounds(1.0, 3.0)
        inst = random_instance(const, seed=13, bounds=b)
        eye = HermitianOperator.identity(inst.family.dim_out)
        middle = evaluate_chain(inst, "log_convex", force=True).side("geometric_middle")
        for side in (middle, mercer_lhs(inst), mercer_rhs_classic(inst)):
            assert np.max(np.abs(side.entries - 2.5 * eye.entries)) <= 1e-12

    def test_nonpositive_rejected(self):
        # sin changes sign on an interval containing 0
        b = SpectralBounds(-1.0, 1.0)
        family = MapFamily((WeightedTrace(0.5, dim_in=2, dim_out=1),))
        bad = MercerInstance(
            f=sine(), family=family,
            operators=(HermitianOperator.diagonal([-0.5, 0.5]),), bounds=b,
        )
        with pytest.raises(NonpositiveFunction):
            evaluate_chain(bad, "log_convex", force=True).side("geometric_middle")


class TestEvaluateChain:
    def test_convexity_gate(self):
        with pytest.raises(HypothesisNotMet):
            evaluate_chain(sine_instance(), "classic")

    def test_forced_counterexample_records_violation(self):
        report = evaluate_chain(sine_instance(), "classic", force=True)
        verdict = report.orders["lhs", "rhs_classic"].verdict()
        assert verdict.relation in (Relation.GREATER_EQUAL, Relation.INCOMPARABLE)
        # the diamond term is hypothesis-free and stays PSD even here
        assert report.orders["zero", "diamond"].verdict().relation in (
            Relation.LESS_EQUAL,
            Relation.EQUAL,
        )

    def test_quadratic_twice_diff_saturates(self):
        b = SpectralBounds(1.0, 2.0)
        inst = random_instance(square(), seed=3, bounds=b)
        report = evaluate_chain(inst, "twice_diff")
        assert report.orders["lower_refined", "lhs"].verdict().relation is Relation.EQUAL
        assert report.orders["lhs", "upper_refined"].verdict().relation is Relation.EQUAL
        assert report.scalars["alpha"] == 2.0

    def test_log_convex_gate(self):
        b = SpectralBounds(1.0, 3.0)
        inst = random_instance(square(), seed=8, bounds=b)  # t^2 is not log-convex
        with pytest.raises(HypothesisNotMet):
            evaluate_chain(inst, "log_convex")

    def test_every_verdict_references_reported_sides(self):
        b = SpectralBounds(0.5, 2.0)
        inst = random_instance(exponential(), seed=21, bounds=b)
        for which in CHAIN_KINDS:
            report = evaluate_chain(inst, which)
            labels = set(report.sides)
            for left, right in report.orders:
                assert {left, right} <= labels
            blob = report.to_json()
            assert set(blob) == {"sides", "verdicts", "scalars"}

    def test_contract_pairs_alpha_gate(self):
        # The rows of the chain table judged for a gate's scalars: the pair
        # (upper_refined, rhs_classic) only when alpha >= 0, and each judged
        # row is one compared pair of the report, asserted as left <= right.
        def judged(which, alpha):
            rows = [(check, check.relation({"alpha": alpha})) for check in CHAINS[which].checks]
            assert all(relation in (None, Relation.LESS_EQUAL) for _, relation in rows)
            return [pair for check, relation in rows if relation is not None for pair in check.pairs]

        with_refinement = judged("twice_diff", 0.5)
        without = judged("twice_diff", -0.5)
        assert ("upper_refined", "rhs_classic") in with_refinement
        assert ("upper_refined", "rhs_classic") not in without
        assert ("chain_middle", "upper_refined") not in with_refinement
        assert ("zero", "diamond") in without
        # for every kind and either sign of alpha, the judged pairs are
        # compared pairs of the report, in comparison order
        inst = random_instance(exponential(), seed=21, bounds=SpectralBounds(0.5, 2.0))
        for which in CHAIN_KINDS:
            compared = list(evaluate_chain(inst, which).orders)
            assert all(len(check.pairs) == 1 for check in CHAINS[which].checks)
            for alpha in (0.5, -0.5):
                pairs = judged(which, alpha)
                assert pairs == [pair for pair in compared if pair in pairs]
        with pytest.raises(ValueError):
            evaluate_chain(inst, "sideways")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_scalar_operator_consistency(self, seed, n):
        # dim-1 trace maps with weights w_i reproduce the scalar inequality
        rng = generator(seed)
        b = SpectralBounds(0.5, 3.0)
        w = rng.uniform(0.05, 1.0, size=n)
        w = w / w.sum()
        xs = rng.uniform(b.m, b.M, size=n)
        family = MapFamily(tuple(WeightedTrace(float(wi), 1, 1) for wi in w))
        ops = tuple(HermitianOperator.diagonal([float(x)]) for x in xs)
        inst = MercerInstance(f=exponential(), family=family, operators=ops, bounds=b)
        report = evaluate_chain(inst, "classic")
        lhs, rhs = scalar_mercer_check(exponential(), w, xs, b)
        assert report.side("lhs").scalar() == pytest.approx(lhs, abs=1e-10)
        assert report.side("rhs_classic").scalar() == pytest.approx(rhs, abs=1e-10)
