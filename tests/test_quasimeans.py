import inspect
import math
import warnings

import numpy as np
import pytest

from mercerlab.errors import (
    HypothesisNotMet,
    InvalidInterval,
    InverseDomainError,
)
from mercerlab.functions import (
    CURVATURE_GRID_POINTS,
    CurvatureBounds,
    ScalarFunction,
    curvature_bounds,
    exponential,
    identity,
    inverse_entry,
    logarithm,
    parse_function_spec,
    power,
    reciprocal,
    sine,
    square,
    square_root,
)
from mercerlab.core import endpoint_values, image_interval, trial_sums
from mercerlab.linalg import HermitianOperator, Relation, SpectralBounds, loewner_orders, spectral_decompose, spectral_norms
from mercerlab.maps import Compression, MapFamily, WeightedTrace
from mercerlab.mercer import MercerInstance, diamond_plain, evaluate_chain, mercer_lhs
from mercerlab.harness import TrialConfig, run_sweep
from mercerlab.quasimeans import (
    ALPHA_SIDE,
    BETA_SIDE,
    MEAN_CHECKS,
    curvature_bound_expected_relation,
    curvature_mean_bound,
    diamond_phi,
    incomparability_probe,
    inverse_of_decomposition,
    inverse_within_domain,
    mercer_quasi_mean,
    predicted_mean_relation,
    resolve_spec,
)
from mercerlab.sampling import generator, random_hermitian, random_unital_family
from mercerlab.tolerance import (
    LOG_CONVEXITY_SLACK,
    composite_curvature_margin,
    inverse_roundtrip_tolerance,
    tolerance_from_norms,
)


def replace(obj, **changes):
    """A copy of ``obj`` built by its constructor, from the fields of its parameters, ``changes`` set."""
    fields = {name: getattr(obj, name) for name in inspect.signature(type(obj)).parameters}
    return type(obj)(**{**fields, **changes})


BOUNDS_13 = SpectralBounds(1.0, 3.0)
SQRT3 = math.sqrt(3.0)
# scalar-arithmetic oracle for the log/id refinement witness on the canonical
# instance: 2 - 1 * (log 3)^2 / 8
LOG_ID_BOUND = 2.0 - (math.log(3.0) ** 2) / 8.0  # = 1.8491313798984272


def canonical():
    family = MapFamily((WeightedTrace(0.5, dim_in=2, dim_out=1),))
    ops = (HermitianOperator.diagonal([1.0, 3.0]),)
    return family, ops


def random_family_and_ops(seed, bounds, dim_max=6):
    rng = generator(seed)
    dim_h = int(rng.integers(2, dim_max + 1))
    dim_k = int(rng.integers(1, dim_h + 1))
    n = int(rng.integers(1, 4))
    family = random_unital_family(n, dim_h, dim_k, rng)
    ops = tuple(random_hermitian(dim_h, bounds, rng) for _ in range(n))
    return family, ops


def compare(a, b):
    """The Loewner verdict of A against B at the engine's default tolerance."""
    return loewner_orders([(a, b)], tolerance_from_norms(spectral_norms(a), spectral_norms(b)))[0].verdict()


def pair_sums(spec, family, ops):
    """The family sums of phi(A_i) and psi(A_i) of a generator pair."""
    return trial_sums(family, ops, spec.bounds, [(spec.phi, False), (spec.psi, False)])


def both_means(spec, core):
    """(QM_phi, QM_psi) of a generator pair on its family sums."""
    return core.mean(spec.phi, spec.phi_inverse), core.mean(spec.psi, spec.psi_inverse)


def mean_verdict(spec, family, ops):
    """QM_phi against QM_psi in the Loewner order."""
    return compare(*both_means(spec, pair_sums(spec, family, ops)))


def sandwich(spec, family, ops):
    """The geometric middle and its verdicts against QM_phi (below) and QM_psi (above)."""
    core = pair_sums(spec, family, ops)
    middle = inverse_within_domain(spec.psi_inverse, core.geometric(spec.phi, *endpoint_values(spec.psi, spec.bounds)))
    mean_phi, mean_psi = both_means(spec, core)
    return middle, compare(mean_phi, middle), compare(middle, mean_psi)


def composite_by_definition(psi, phi):
    """psi o phi^{-1} as a function of its own, each evaluator applying phi^{-1} again:

        (psi o phi^{-1})'  = psi' / phi',
        (psi o phi^{-1})'' = (psi'' phi' - psi' phi'') / phi'^3   at x = phi^{-1}(u).
    """
    phi_inv = inverse_entry(phi).fn

    def d1(u):
        x = phi_inv(u)
        return np.asarray(psi.derivative(x), dtype=float) / np.asarray(phi.derivative(x), dtype=float)

    def d2(u):
        x = phi_inv(u)
        dp = np.asarray(phi.derivative(x), dtype=float)
        return (
            np.asarray(psi.second_derivative(x), dtype=float) * dp
            - np.asarray(psi.derivative(x), dtype=float) * np.asarray(phi.second_derivative(x), dtype=float)
        ) / dp**3

    return ScalarFunction(name="composite", fn=lambda u: psi.fn(phi_inv(u)), derivative=d1, second_derivative=d2)


def spec_by_definition(phi, psi, bounds):
    """What resolve_spec decides, each fact from its own evaluations: both generators'
    grid checks and round trips, phi first, then the composite's curvature bounds from
    ``curvature_bounds`` and its log-convexity from f, f' and f'' on the interior grid."""
    grid = np.linspace(bounds.m, bounds.M, 1000)
    for g in (phi, psi):
        if not g.domain_contains_interval(bounds):
            raise InvalidInterval(f"[{bounds.m}, {bounds.M}] not inside the domain of {g.label()}")
        values = np.asarray(g(grid), dtype=float)
        if not np.all(np.isfinite(values)):
            raise InvalidInterval(f"{g.label()} is not finite on [{bounds.m}, {bounds.M}]")
        steps = np.diff(values)
        if not (np.all(steps > 0) or np.all(steps < 0)):
            raise InvalidInterval(f"{g.label()} is not strictly monotone on [{bounds.m}, {bounds.M}]")
        entry = inverse_entry(g)
        if entry is None:
            raise InverseDomainError(f"{g.label()} has no inverse evaluator")
        roundtrip = np.asarray(entry.fn(np.asarray(g(grid), dtype=float)), dtype=float)
        defect = float(np.max(np.abs(roundtrip - grid)))
        if not np.all(np.isfinite(roundtrip)) or defect > inverse_roundtrip_tolerance(grid):
            raise InverseDomainError(
                f"inverse round trip of {g.label()} fails on [{bounds.m}, {bounds.M}] (defect {defect:.3e})"
            )
    composite, interval = composite_by_definition(psi, phi), image_interval(phi, bounds)
    curv = curvature_bounds(composite, interval)
    if math.isnan(curv.alpha) or math.isnan(curv.beta):  # refused: no JSON report can hold a NaN
        raise InvalidInterval(
            f"the curvature of {psi.label()} o {phi.label()}^-1 is NaN on its grid over [{bounds.m:.12g}, {bounds.M:.12g}]"
        )
    kappa = composite_curvature_margin(curv.alpha, curv.beta)
    log_convex = False
    u = np.linspace(interval.m, interval.M, CURVATURE_GRID_POINTS)
    values = np.asarray(composite(u), dtype=float)
    if min(endpoint_values(psi, bounds)) > 0.0 and np.all(np.isfinite(values)) and values.min() > 0.0:
        interior = u[1:-1]
        vals = np.asarray(composite(interior), dtype=float)
        d1 = np.asarray(composite.derivative(interior), dtype=float)
        d2 = np.asarray(composite.second_derivative(interior), dtype=float)
        log_convex = bool(np.min(d2 / vals - np.square(d1 / vals)) >= -LOG_CONVEXITY_SLACK)
    return interval, curv, curv.alpha >= -kappa, curv.beta <= kappa, log_convex


RESOLVE_SPECS = ["id", "square", "exp", "log", "sin", "xlogx", "inv", "sqrt",
                 "pow:p=-0.2", "pow:p=0.5", "pow:p=2", "pow:p=-1"]
RESOLVE_INTERVALS = [(1.0, 3.0), (1.0, 30.0), (1.0, 1e10), (math.pi / 4, math.pi / 2), (1e-3, 5.0),
                     (-2.0, 2.0), (1.0, 700.0)]


@pytest.mark.parametrize("m, M", RESOLVE_INTERVALS)
def test_resolve_spec_equals_the_composite_by_definition(m, M):
    # resolve_spec evaluates each generator once on its 1000-point grid and
    # the composite, phi^-1 and every derivative once on the 10,001-point
    # grid, and reads a whole-grid result's interior as [1:-1].  Every catalog
    # pair must give the facts of the composite built and evaluated by
    # definition, alpha and beta by float.hex, or the same error, and no
    # numpy warning, however the grid overflows.
    bounds, outcomes = SpectralBounds(m, M), set()
    for phi, psi in ((parse_function_spec(a), parse_function_spec(b)) for a in RESOLVE_SPECS for b in RESOLVE_SPECS):
        try:
            with np.errstate(all="ignore"):
                expected = spec_by_definition(phi, psi, bounds)
        except (InvalidInterval, InverseDomainError) as error:
            with pytest.raises(type(error)) as raised:
                resolve_spec(phi, psi, bounds)
            assert str(raised.value) == str(error), (phi.label(), psi.label())
            outcomes.add(type(error).__name__)
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = resolve_spec(phi, psi, bounds)
        interval, curv, convex, concave, log_convex = expected
        got = spec.composite_curvature
        assert spec.phi_interval == interval
        assert (got.alpha.hex(), got.beta.hex(), got.method) == (curv.alpha.hex(), curv.beta.hex(), curv.method)
        flags = (spec.composite_is_convex, spec.composite_is_concave, spec.composite_is_log_convex)
        assert flags == (convex, concave, log_convex), (phi.label(), psi.label())
        outcomes.add(flags)
    assert len(outcomes) > 1


class TestResolveSpec:
    def test_rejects_non_monotone_generator(self):
        with pytest.raises(InvalidInterval):
            resolve_spec(sine(), identity(), SpectralBounds(0.5, 3.0))

    def test_rejects_generator_without_inverse(self):
        with pytest.raises(InverseDomainError):
            resolve_spec(sine(), identity(), SpectralBounds(0.2, 1.2))

    def test_log_id_composite_is_exponential_like(self):
        spec = resolve_spec(logarithm(), identity(), BOUNDS_13)
        assert spec.composite_is_convex
        assert not spec.composite_is_concave
        assert spec.composite_is_log_convex
        assert spec.composite_curvature.alpha == pytest.approx(1.0, abs=1e-5)
        assert spec.composite_curvature.beta == pytest.approx(3.0, abs=1e-4)
        assert spec.psi_inverse.operator_monotone and not spec.psi_inverse.operator_decreasing

    def test_id_inv_pair_flags_reversal(self):
        spec = resolve_spec(identity(), reciprocal(), BOUNDS_13)
        assert spec.composite_is_convex
        assert spec.psi_inverse.operator_decreasing and not spec.psi_inverse.operator_monotone

    def test_decreasing_generator_orients_interval(self):
        spec = resolve_spec(reciprocal(), identity(), BOUNDS_13)
        assert spec.phi_interval.m == pytest.approx(1.0 / 3.0)
        assert spec.phi_interval.M == pytest.approx(1.0)


class TestQuasiMean:
    def test_identity_generator_matches_plain_lhs(self):
        family, ops = random_family_and_ops(5, BOUNDS_13)
        mean = mercer_quasi_mean(identity(), family, ops, BOUNDS_13)
        inst = MercerInstance(f=identity(), family=family, operators=ops, bounds=BOUNDS_13)
        assert np.max(np.abs(mean.entries - mercer_lhs(inst).entries)) <= 1e-10

    def test_log_generator_gives_geometric_value(self):
        family, ops = canonical()
        mean = mercer_quasi_mean(logarithm(), family, ops, BOUNDS_13)
        assert mean.scalar() == pytest.approx(SQRT3, abs=1e-12)

    def test_square_generator_value(self):
        family, ops = canonical()
        mean = mercer_quasi_mean(square(), family, ops, BOUNDS_13)
        assert mean.scalar() == pytest.approx(math.sqrt(5.0), abs=1e-12)

    def test_inverse_missing(self):
        family, ops = canonical()
        with pytest.raises(InverseDomainError):
            mercer_quasi_mean(sine(), family, ops, SpectralBounds(0.3, 1.2))

    def test_non_unital_family_rejected(self):
        # Phi(I) = 4 I: unchecked, the "diamond" would have eigenvalue -45 and
        # the log mean would fail with a misleading SpectrumOutOfDomain.
        family = MapFamily((Compression(2.0 * np.eye(2, dtype=np.complex128)),))
        ops = (HermitianOperator.diagonal([1.0, 3.0]),)
        spec = resolve_spec(logarithm(), identity(), BOUNDS_13)
        for call in (
            lambda: diamond_phi(identity(), family, ops, BOUNDS_13),
            lambda: mercer_quasi_mean(logarithm(), family, ops, BOUNDS_13),
            lambda: curvature_mean_bound(spec, family, ops),
        ):
            with pytest.raises(HypothesisNotMet, match="not unital"):
                call()


class TestCompareMeans:
    def test_equal_generators(self):
        spec = resolve_spec(logarithm(), logarithm(), BOUNDS_13)
        assert predicted_mean_relation(spec) is Relation.EQUAL
        family, ops = random_family_and_ops(11, BOUNDS_13)
        assert mean_verdict(spec, family, ops).relation is Relation.EQUAL

    def test_log_below_arithmetic(self):
        spec = resolve_spec(logarithm(), identity(), BOUNDS_13)
        assert predicted_mean_relation(spec) is Relation.LESS_EQUAL
        family, ops = canonical()
        verdict = mean_verdict(spec, family, ops)
        assert verdict.relation in (Relation.LESS_EQUAL, Relation.EQUAL)
        # scalar witness: geometric-type mean sqrt(3) below arithmetic-type 2
        assert mercer_quasi_mean(logarithm(), family, ops, BOUNDS_13).scalar() <= 2.0

    @pytest.mark.parametrize(
        "phi,psi,expected",
        [
            (square_root(), identity(), Relation.LESS_EQUAL),
            (square(), identity(), Relation.GREATER_EQUAL),
            (identity(), reciprocal(), Relation.GREATER_EQUAL),
        ],
    )
    def test_predicted_directions(self, phi, psi, expected):
        spec = resolve_spec(phi, psi, BOUNDS_13)
        assert predicted_mean_relation(spec) is expected
        for seed in (1, 2, 3):
            family, ops = random_family_and_ops(100 + seed, BOUNDS_13)
            verdict = mean_verdict(spec, family, ops)
            assert verdict.relation in (expected, Relation.EQUAL)

    def test_no_case_applies(self):
        # composite log(u^2) is concave but psi^-1 = exp is not operator monotone
        spec = resolve_spec(square_root(), logarithm(), BOUNDS_13)
        with pytest.raises(HypothesisNotMet):
            predicted_mean_relation(spec)


class TestDiamondPhi:
    def test_identity_matches_plain_diamond(self):
        family, ops = random_family_and_ops(21, BOUNDS_13)
        inst = MercerInstance(f=identity(), family=family, operators=ops, bounds=BOUNDS_13)
        phi_version = diamond_phi(identity(), family, ops, BOUNDS_13)
        assert np.max(np.abs(phi_version.entries - diamond_plain(inst).entries)) <= 1e-10

    def test_identity_generator_on_sine_instance(self):
        # same oracle as the plain correction term: (M - m)^2 / 8 here
        b = SpectralBounds(math.pi / 4, math.pi / 2)
        family = MapFamily((WeightedTrace(0.5, dim_in=2, dim_out=1),))
        ops = (HermitianOperator.diagonal([b.m, b.M]),)
        d = diamond_phi(identity(), family, ops, b)
        assert d.scalar() == pytest.approx(math.pi**2 / 128, abs=1e-13)

    def test_log_canonical_value(self):
        family, ops = canonical()
        d = diamond_phi(logarithm(), family, ops, BOUNDS_13)
        assert d.scalar() == pytest.approx((math.log(3.0) ** 2) / 8.0, abs=1e-12)

    def test_degenerate_lower_endpoint(self):
        family = MapFamily((WeightedTrace(0.5, dim_in=2, dim_out=1),))
        ops = (HermitianOperator.identity(2),)  # both eigenvalues at m = 1
        d = diamond_phi(logarithm(), family, ops, BOUNDS_13)
        assert d.scalar() == pytest.approx(0.0, abs=1e-12)

    def test_psd_in_phi_coordinates(self):
        for seed in range(100):
            family, ops = random_family_and_ops(3000 + seed, BOUNDS_13)
            d = diamond_phi(logarithm(), family, ops, BOUNDS_13)
            assert np.linalg.eigvalsh(d.entries)[0] >= -1e-9 * (1 + spectral_norms(d))


class TestCurvatureMeanBound:
    def test_log_id_witness_value(self):
        spec = resolve_spec(logarithm(), identity(), BOUNDS_13)
        family, ops = canonical()
        bound = curvature_mean_bound(spec, family, ops, side=ALPHA_SIDE)
        # sampled curvature widens alpha by ~2e-6, shifting the bound by < 4e-7
        assert bound.scalar() == pytest.approx(LOG_ID_BOUND, abs=1e-6)
        mean_phi = mercer_quasi_mean(logarithm(), family, ops, BOUNDS_13)
        assert mean_phi.scalar() == pytest.approx(SQRT3, abs=1e-12)
        assert mean_phi.scalar() <= bound.scalar()

    def test_zero_curvature_reduces_to_psi_mean(self):
        spec = resolve_spec(logarithm(), identity(), BOUNDS_13)
        family, ops = random_family_and_ops(31, BOUNDS_13)
        flat = CurvatureBounds(alpha=0.0, beta=0.0, method="analytic")
        bound = curvature_mean_bound(spec, family, ops, side=ALPHA_SIDE, curvature=flat)
        mean_psi = mercer_quasi_mean(identity(), family, ops, BOUNDS_13)
        assert np.max(np.abs(bound.entries - mean_psi.entries)) <= 1e-10

    def test_identity_pair_collapses(self):
        spec = resolve_spec(identity(), identity(), BOUNDS_13)
        family, ops = random_family_and_ops(41, BOUNDS_13)
        flat = CurvatureBounds(alpha=0.0, beta=0.0, method="analytic")
        bound = curvature_mean_bound(spec, family, ops, side=ALPHA_SIDE, curvature=flat)
        mean = mercer_quasi_mean(identity(), family, ops, BOUNDS_13)
        assert np.max(np.abs(bound.entries - mean.entries)) <= 1e-10

    def test_reversed_direction_for_decreasing_inverse(self):
        spec = resolve_spec(identity(), reciprocal(), BOUNDS_13)
        assert curvature_bound_expected_relation(spec, ALPHA_SIDE) is Relation.GREATER_EQUAL
        assert curvature_bound_expected_relation(spec, BETA_SIDE) is Relation.LESS_EQUAL
        family, ops = canonical()
        bound = curvature_mean_bound(spec, family, ops, side=ALPHA_SIDE)
        # alpha = 2/M^3 = 2/27 on [1, 3]: bound = 1 / (2/3 - (2/27) * 0.5) = 27/17
        assert bound.scalar() == pytest.approx(27.0 / 17.0, abs=1e-5)
        mean_phi = mercer_quasi_mean(identity(), family, ops, BOUNDS_13)
        verdict = compare(bound, mean_phi)
        assert verdict.relation in (Relation.LESS_EQUAL, Relation.EQUAL)

    def test_increasing_inverse_direction_table(self):
        spec = resolve_spec(logarithm(), identity(), BOUNDS_13)
        assert curvature_bound_expected_relation(spec, ALPHA_SIDE) is Relation.LESS_EQUAL
        assert curvature_bound_expected_relation(spec, BETA_SIDE) is Relation.GREATER_EQUAL

    def test_side_validation(self):
        spec = resolve_spec(logarithm(), identity(), BOUNDS_13)
        family, ops = canonical()
        with pytest.raises(ValueError):
            curvature_mean_bound(spec, family, ops, side="gamma")


class TestLogConvexMeanSandwich:
    def test_log_id_tight_left_side(self):
        spec = resolve_spec(logarithm(), identity(), BOUNDS_13)
        family, ops = canonical()
        middle, low, high = sandwich(spec, family, ops)
        assert middle.scalar() == pytest.approx(SQRT3, abs=1e-12)
        assert low.relation is Relation.EQUAL
        assert high.relation in (
            Relation.LESS_EQUAL,
            Relation.EQUAL,
        )

    def test_inv_id_strict_sandwich(self):
        spec = resolve_spec(reciprocal(), identity(), BOUNDS_13)
        family, ops = canonical()
        middle, low, high = sandwich(spec, family, ops)
        # T = 2/3, exponent algebra gives 3^{(3 tau - 1)/2} = sqrt(3)
        assert middle.scalar() == pytest.approx(SQRT3, abs=1e-12)
        assert mercer_quasi_mean(reciprocal(), family, ops, BOUNDS_13).scalar() == pytest.approx(1.5)
        assert low.relation is Relation.LESS_EQUAL
        assert high.relation is Relation.LESS_EQUAL

    def test_geometric_middle_matches_plain_engine_for_identity_phi(self):
        # with phi = id and psi = exp, psi(middle) is the geometric interpolant
        # of the plain log-convex chain for f = exp
        spec = resolve_spec(identity(), exponential(), BOUNDS_13)
        family, ops = random_family_and_ops(51, BOUNDS_13)
        middle, _, _ = sandwich(spec, family, ops)
        lifted = np.linalg.eigvalsh(middle.entries)
        inst = MercerInstance(f=exponential(), family=family, operators=ops, bounds=BOUNDS_13)
        plain = np.linalg.eigvalsh(evaluate_chain(inst, "log_convex", force=True).side("geometric_middle").entries)
        np.testing.assert_allclose(np.exp(lifted), plain, atol=1e-10)

    @staticmethod
    def assert_inapplicable(phi, psi, bounds):
        """The sandwich row asserts no relation for the pair, and a sweep reports it inapplicable."""
        assert MEAN_CHECKS["log_convex_sandwich"].relation(resolve_spec(phi, psi, bounds)) is None
        config = TrialConfig(m=bounds.m, M=bounds.M)
        report, _ = run_sweep(phi.label(), psi.label(), config, 2)
        assert report["checks"]["log_convex_sandwich"] == {"applicable": False}

    def test_hypothesis_gates(self):
        # composite u^2 is log-concave
        self.assert_inapplicable(square_root(), identity(), BOUNDS_13)
        # psi^-1 = inv is operator decreasing
        self.assert_inapplicable(identity(), reciprocal(), BOUNDS_13)
        # equal generators: the identity composite is log-concave, not log-convex
        self.assert_inapplicable(identity(), identity(), BOUNDS_13)

    def test_constant_spectrum_reduces_to_scalars(self):
        # A_i = c I makes every side a multiple of I; ordering is scalar arithmetic
        spec = resolve_spec(reciprocal(), identity(), BOUNDS_13)
        rng = generator(71)
        family = random_unital_family(2, 3, 3, rng)
        c = 1.7
        ops = (c * HermitianOperator.identity(3), c * HermitianOperator.identity(3))
        middle, low, high = sandwich(spec, family, ops)
        lam = np.linalg.eigvalsh(middle.entries)
        assert np.ptp(lam) <= 1e-10
        # h(tau) = 3^{(3 tau - 1)/2} at tau = 1/c
        expected = 3.0 ** ((3.0 / c - 1.0) / 2.0)
        assert lam[0] == pytest.approx(expected, abs=1e-10)
        assert low.relation in (Relation.LESS_EQUAL, Relation.EQUAL)
        assert high.relation in (Relation.LESS_EQUAL, Relation.EQUAL)

    def test_nonpositive_psi_rejected(self):
        # log(0.5) < 0
        self.assert_inapplicable(identity(), logarithm(), SpectralBounds(0.5, 3.0))


class TestApplyInverse:
    def test_a_stack_is_masked_per_matrix(self):
        # log of a stack whose 2nd and 4th matrices reach below 0: those are
        # masked and never passed to log, the others come out as they would
        # alone, and the error is the one of the 2nd alone.
        log = logarithm()
        seen = []
        spy = replace(log, fn=lambda t: seen.append(np.array(t)) or log.fn(t))
        rng = generator(71)
        inside, outside = SpectralBounds(0.5, 2.0), SpectralBounds(-1.0, 2.0)
        kinds = (inside, outside, inside, outside, inside)
        mats = [random_hermitian(3, bounds, rng, force_endpoints=True) for bounds in kinds]
        stack = spectral_decompose(HermitianOperator(np.stack([a.entries for a in mats])))
        image, mask, error = inverse_of_decomposition(spy, stack)
        assert mask.tolist() == [True, False, True, False, True]
        assert seen and all((values >= 0.5 - 1e-12).all() for values in seen)
        for k, j in enumerate(np.flatnonzero(mask)):
            assert image.entries[k].tobytes() == inverse_within_domain(log, mats[j]).entries.tobytes()
        with pytest.raises(InverseDomainError) as alone:
            inverse_within_domain(log, mats[1])
        assert str(error) == str(alone.value)


class TestIncomparabilityProbe:
    def test_canonical_sign_flip(self):
        rows = incomparability_probe(1.0, 3.0, p_values=[-0.2, -1.0], t_grid=[2.0])
        by_p = {row.p: row for row in rows}
        assert by_p[-0.2].gap == pytest.approx(-0.0052909, abs=1e-6)
        assert by_p[-0.2].sign == -1
        assert by_p[-1.0].gap == pytest.approx(0.0522794, abs=1e-6)
        assert by_p[-1.0].sign == 1

    def test_endpoints_vanish_for_every_exponent(self):
        rows = incomparability_probe(1.0, 3.0, p_values=[-0.2, -1.0, -2.5], t_grid=[1.0, 3.0])
        assert all(row.sign == 0 for row in rows)

    def test_invalid_interval(self):
        with pytest.raises(InvalidInterval):
            incomparability_probe(-1.0, 3.0, p_values=[-1.0], t_grid=[1.0])
