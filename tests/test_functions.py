import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mercerlab.errors import (
    DomainMismatch,
    InvalidInterval,
    MissingSecondDerivative,
    NonpositiveFunction,
)
from mercerlab.functions import (
    ScalarFunction,
    curvature_bounds,
    exponential,
    identity,
    inverse_entry,
    is_log_convex_on,
    logarithm,
    parse_function_spec,
    power,
    reciprocal,
    refined_vs_geometric_gap,
    sine,
    square,
    square_root,
    xlogx,
)
from mercerlab.linalg import SpectralBounds
from mercerlab.sampling import generator


def replace(obj, **changes):
    """A copy of ``obj`` built by its constructor, from the fields of its parameters, ``changes`` set."""
    fields = {name: getattr(obj, name) for name in inspect.signature(type(obj)).parameters}
    return type(obj)(**{**fields, **changes})


# name -> (entry, test interval, convex, log_convex, op_monotone, op_decreasing)
CATALOG_TABLE = {
    "id": (identity(), (1.0, 3.0), True, False, True, False),
    "square": (square(), (1.0, 3.0), True, False, False, False),
    "pow(-0.2)": (power(-0.2), (1.0, 3.0), True, True, False, True),
    "pow(2)": (power(2.0), (1.0, 3.0), True, False, False, False),
    "pow(0.5)": (power(0.5), (1.0, 3.0), False, False, True, False),
    "exp": (exponential(), (0.0, 2.0), True, True, False, False),
    "log": (logarithm(), (1.0, 3.0), False, False, True, False),
    "sin": (sine(), (math.pi / 4, math.pi / 2), False, False, False, False),
    "xlogx": (xlogx(), (1.0, 3.0), True, False, False, False),
    "inv": (reciprocal(), (1.0, 3.0), True, True, False, True),
    "sqrt": (square_root(), (1.0, 3.0), False, False, True, False),
}

# name -> (f in mpmath, given the mp context, and a wide interval on which f > 0)
MP_CATALOG = {
    "id": (lambda mp, t: t, (1.0, 1e10)),
    "square": (lambda mp, t: t * t, (1.0, 1e10)),
    "pow(-0.2)": (lambda mp, t: t ** mp.mpf(-0.2), (1.0, 1e10)),
    "pow(2)": (lambda mp, t: t ** 2, (1.0, 1e10)),
    "pow(0.5)": (lambda mp, t: t ** mp.mpf(0.5), (1.0, 1e10)),
    "exp": (lambda mp, t: mp.exp(t), (-700.0, 700.0)),
    "log": (lambda mp, t: mp.log(t), (2.0, 1e10)),
    "sin": (lambda mp, t: mp.sin(t), (1e-3, math.pi - 1e-3)),
    "xlogx": (lambda mp, t: t * mp.log(t), (2.0, 1e10)),
    "inv": (lambda mp, t: 1 / t, (1.0, 1e10)),
    "sqrt": (lambda mp, t: mp.sqrt(t), (1.0, 1e10)),
}


class TestCatalog:
    @pytest.mark.parametrize("name", sorted(CATALOG_TABLE))
    def test_flags(self, name):
        entry, _, convex, log_convex, monotone, decreasing = CATALOG_TABLE[name]
        assert entry.convex_on_domain is convex
        assert entry.log_convex_on_domain is log_convex
        assert entry.operator_monotone is monotone
        assert entry.operator_decreasing is decreasing

    @pytest.mark.parametrize("name", sorted(CATALOG_TABLE))
    def test_second_derivative_matches_finite_differences(self, name):
        entry, (lo, hi), *_ = CATALOG_TABLE[name]
        rng = generator(hash(name) & 0xFFFF)
        ts = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), size=100)
        h = 1e-4 * (1.0 + np.abs(ts))
        fd = (entry(ts + h) - 2.0 * entry(ts) + entry(ts - h)) / np.square(h)
        analytic = np.asarray(entry.second_derivative(ts), dtype=float)
        assert np.max(np.abs(analytic - fd)) <= 1e-4

    @pytest.mark.parametrize("name", sorted(CATALOG_TABLE))
    def test_first_derivative_matches_finite_differences(self, name):
        entry, (lo, hi), *_ = CATALOG_TABLE[name]
        rng = generator(hash(name) & 0xFFF)
        ts = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), size=100)
        h = 1e-6 * (1.0 + np.abs(ts))
        fd = (entry(ts + h) - entry(ts - h)) / (2.0 * h)
        analytic = np.asarray(entry.derivative(ts), dtype=float)
        assert np.max(np.abs(analytic - fd)) <= 1e-5 * (1.0 + np.max(np.abs(analytic)))

    def test_power_rejects_zero_exponent(self):
        with pytest.raises(InvalidInterval):
            power(0.0)

    def test_inverse_entries_roundtrip(self):
        ts = np.linspace(0.3, 2.7, 50)
        for entry in (identity(), exponential(), logarithm(), square_root(), square(),
                      reciprocal(), power(-0.7), power(1.8)):
            inv = inverse_entry(entry)
            assert inv is not None
            np.testing.assert_allclose(inv.fn(entry(ts)), ts, rtol=1e-12)
        assert inverse_entry(sine()) is None
        assert inverse_entry(xlogx()) is None


class TestParseFunctionSpec:
    def test_plain_names(self):
        assert parse_function_spec("sin").name == "sin"
        assert parse_function_spec("exp").name == "exp"

    def test_parametrized_power(self):
        f = parse_function_spec("pow:p=-0.2")
        assert f.name == "pow"
        assert f.parameters == (-0.2,)

    def test_labels_tell_apart_parameters_that_g_would_round(self):
        # :g keeps 6 significant digits, so 0.9999999 and 1.0000001 would both read pow(1);
        # a parameter that :g round-trips keeps its short form.
        near = parse_function_spec("pow:p=0.9999999").label(), parse_function_spec("pow:p=1.0000001").label()
        assert near == ("pow(0.9999999)", "pow(1.0000001)")
        assert parse_function_spec("pow:p=2").label() == "pow(2)"
        assert parse_function_spec("pow:p=-0.2").label() == "pow(-0.2)"

    @pytest.mark.parametrize("bad", ["nope", "pow", "pow:q=1", "sin:p=2", "pow:p="])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_function_spec(bad)


class TestCurvatureBounds:
    def test_sine_on_quarter_interval_is_analytic(self):
        curv = curvature_bounds(sine(), SpectralBounds(math.pi / 4, math.pi / 2))
        assert curv.method == "analytic"
        assert curv.alpha == pytest.approx(-1.0)
        assert curv.beta == pytest.approx(-math.sqrt(2) / 2)

    def test_square_constant_curvature(self):
        curv = curvature_bounds(square(), SpectralBounds(-5.0, 11.0))
        assert (curv.alpha, curv.beta) == (2.0, 2.0)

    def test_reciprocal_endpoints(self):
        curv = curvature_bounds(reciprocal(), SpectralBounds(1.0, 3.0))
        assert curv.alpha == pytest.approx(2.0 / 27.0)
        assert curv.beta == pytest.approx(2.0)

    def test_sine_across_inflection_is_sampled(self):
        curv = curvature_bounds(sine(), SpectralBounds(1.0, 3.0))
        assert curv.method == "sampled"
        # f'' = -sin attains -1 at pi/2 inside [1, 3]
        assert curv.alpha <= -1.0
        assert curv.beta >= -math.sin(3.0)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            curvature_bounds(logarithm(), SpectralBounds(-1.0, 1.0))

    @pytest.mark.parametrize("name, m, M", [("inv", 1e-300, 1.0), ("log", 1e-300, 1.0), ("inv", 709.0, 1e154)])
    def test_overflowing_second_derivative_warns_nothing(self, name, m, M):
        # f'' overflows at an endpoint; the bound is left to its users to refuse, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curvature_bounds(parse_function_spec(name), SpectralBounds(m, M))

    def test_missing_second_derivative(self):
        bare = ScalarFunction(name="bare", fn=np.abs)
        with pytest.raises(MissingSecondDerivative):
            curvature_bounds(bare, SpectralBounds(0.0, 1.0))

    @pytest.mark.parametrize(
        "name", ["sin", "exp", "inv", "xlogx", "pow(-0.2)", "sqrt", "log"]
    )
    def test_bounds_are_conservative(self, name):
        entry, (lo, hi), *_ = CATALOG_TABLE[name]
        bounds = SpectralBounds(lo, hi)
        curv = curvature_bounds(entry, bounds)
        rng = generator(len(name))
        ts = rng.uniform(lo, hi, size=1000)
        values = np.asarray(entry.second_derivative(ts), dtype=float)
        assert np.all(values >= curv.alpha - 1e-9)
        assert np.all(values <= curv.beta + 1e-9)


class TestLogConvexity:
    def test_negative_powers_are_log_convex(self):
        assert is_log_convex_on(power(-0.2), SpectralBounds(1.0, 3.0))
        assert is_log_convex_on(power(-3.0), SpectralBounds(1.0, 3.0))

    def test_exponential_boundary_case(self):
        # log f is linear; convexity holds with equality
        assert is_log_convex_on(exponential(), SpectralBounds(-2.0, 2.0))

    def test_identity_is_not_log_convex(self):
        assert not is_log_convex_on(identity(), SpectralBounds(1.0, 3.0))

    @pytest.mark.parametrize("entry", [exponential(), reciprocal(), power(-0.3)])
    def test_flagged_entries_survive_flagless_check(self, entry):
        flagless = replace(entry, log_convex_on_domain=None)
        assert is_log_convex_on(flagless, SpectralBounds(1.0, 3.0))

    @pytest.mark.parametrize("name", sorted(CATALOG_TABLE))
    def test_flag_matches_high_precision_log_curvature(self, name):
        # (log f)'' in 50 digits at both ends and the middle of a wide interval
        # on which f > 0: nonnegative (exp's is exactly 0) where the flag is
        # True, negative where it is False.  On [1, 1e10] a grid's first
        # interior node is near 1e6, where (log t)'' is about -1e-12, so only
        # the flag decides the False entries there.
        mp = pytest.importorskip("mpmath").mp
        entry = CATALOG_TABLE[name][0]
        f, (lo, hi) = MP_CATALOG[name]
        with mp.workdps(50):
            for t in (lo, (lo + hi) / 2, hi):
                curvature = mp.diff(lambda s: mp.log(f(mp, s)), mp.mpf(t), 2)
                assert (curvature > -mp.mpf("1e-30")) is entry.log_convex_on_domain, (name, t)
        assert is_log_convex_on(entry, SpectralBounds(lo, hi)) is entry.log_convex_on_domain

    def test_nonpositive_function_rejected(self):
        with pytest.raises(NonpositiveFunction):
            is_log_convex_on(sine(), SpectralBounds(3.5, 6.0))

    @pytest.mark.parametrize("with_first", [False, True])
    def test_missing_derivatives(self, with_first):
        # Positive and unflagged, so only the derivatives can decide; f' alone
        # is not enough without f''.
        bare = ScalarFunction(name="bare", fn=np.exp, derivative=np.exp if with_first else None)
        with pytest.raises(MissingSecondDerivative):
            is_log_convex_on(bare, SpectralBounds(1.0, 3.0))


class TestRefinedVsGeometricGap:
    def test_sign_flip_values(self):
        assert refined_vs_geometric_gap(2.0, 1.0, 3.0, -0.2) == pytest.approx(
            -0.0052909, abs=1e-6
        )
        assert refined_vs_geometric_gap(2.0, 1.0, 3.0, -1.0) == pytest.approx(
            0.0522794, abs=1e-6
        )

    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(0.1, 4.0),
        st.floats(0.2, 6.0),
        st.floats(-4.0, -0.05),
        st.booleans(),
    )
    def test_vanishes_at_endpoints(self, m, width, p, at_upper):
        M = m + width
        t = M if at_upper else m
        assert refined_vs_geometric_gap(t, m, M, p) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize(
        "t,m,M,p",
        [(2.0, 3.0, 1.0, -1.0), (2.0, -1.0, 3.0, -1.0), (0.5, 1.0, 3.0, -1.0), (2.0, 1.0, 3.0, 0.5)],
    )
    def test_invalid_arguments(self, t, m, M, p):
        with pytest.raises(InvalidInterval):
            refined_vs_geometric_gap(t, m, M, p)
