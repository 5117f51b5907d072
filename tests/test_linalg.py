import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mercerlab import linalg
from mercerlab.errors import (
    DimensionMismatch,
    FunctionDomainError,
    NonHermitianInput,
    SpectrumOutOfDomain,
)
from mercerlab.functions import exponential, identity, logarithm, sine, square
from mercerlab.linalg import (
    HermitianOperator,
    Relation,
    SpectralBounds,
    apply_to_decomposition,
    loewner_orders,
    spectral_decompose,
    spectral_norms,
)
from mercerlab.sampling import generator, haar_unitary, random_hermitian
from mercerlab.tolerance import PSD_TOLERANCE_FLOOR, tolerance_from_norms


def compare(a, b):
    """The Loewner verdict of A against B at the engine's default tolerance."""
    return loewner_orders([(a, b)], tolerance_from_norms(spectral_norms(a), spectral_norms(b)))[0].verdict()


def random_hermitian_raw(dim, rng, scale=1.0):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator.from_matrix(scale * 0.5 * (z + z.conj().T))


class TestSpectralDecompose:
    def test_diagonal_input(self):
        dec = spectral_decompose(HermitianOperator.diagonal([2.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0])

    def test_identity(self):
        dec = spectral_decompose(HermitianOperator.identity(3))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_offdiagonal_pair(self):
        # characteristic polynomial of [[0,1],[1,0]] is l^2 - 1
        dec = spectral_decompose(HermitianOperator.from_matrix([[0, 1], [1, 0]]))
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            HermitianOperator.from_matrix([[0.0, 1.0], [0.0, 0.0]])

    def test_reconstruction_and_unitarity(self):
        # seeded sweep over dims 2..8; both invariants are norm-relative
        for trial in range(1000):
            rng = generator(900 + trial)
            dim = 2 + trial % 7
            a = random_hermitian_raw(dim, rng, scale=1.0 + (trial % 5))
            dec = spectral_decompose(a)
            err = np.linalg.norm(dec.reconstruct() - a.entries)
            assert err <= 1e-10 * (1.0 + np.linalg.norm(a.entries))
            u = dec.eigenvectors
            assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 1e-10
            assert np.all(np.diff(dec.eigenvalues) >= 0)


class TestApplyScalarFunction:
    def test_identity_function_returns_input(self):
        rng = generator(1)
        a = random_hermitian(4, SpectralBounds(-2.0, 2.0), rng)
        out = apply_to_decomposition(identity(), spectral_decompose(a), SpectralBounds(-2.0, 2.0))
        np.testing.assert_allclose(out.entries, a.entries, atol=1e-12)

    def test_square_on_quarter_pi_diagonal(self):
        a = HermitianOperator.diagonal([math.pi / 4, math.pi / 2])
        out = apply_to_decomposition(square(), spectral_decompose(a), SpectralBounds(math.pi / 4, math.pi / 2))
        np.testing.assert_allclose(
            np.diag(out.entries).real, [math.pi**2 / 16, math.pi**2 / 4], rtol=1e-13
        )

    def test_sine_on_quarter_pi_diagonal(self):
        a = HermitianOperator.diagonal([math.pi / 4, math.pi / 2])
        out = apply_to_decomposition(sine(), spectral_decompose(a), SpectralBounds(math.pi / 4, math.pi / 2))
        np.testing.assert_allclose(np.diag(out.entries).real, [0.7071068, 1.0], atol=1e-7)

    def test_spectral_mapping(self):
        # eigenvalues of f(A) are exactly {f(lambda_i)} up to solver noise
        for trial in range(1000):
            rng = generator(7000 + trial)
            dim = 2 + trial % 7
            bounds = SpectralBounds(0.5, 4.0)
            a = random_hermitian(dim, bounds, rng)
            out = apply_to_decomposition(square(), spectral_decompose(a), bounds)
            got = np.sort(np.linalg.eigvalsh(out.entries))
            want = np.sort(np.square(np.linalg.eigvalsh(a.entries)))
            np.testing.assert_allclose(got, want, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_unitary_covariance(self, seed):
        rng = generator(seed)
        dim = int(rng.integers(2, 7))
        bounds = SpectralBounds(0.25, 3.0)
        a = random_hermitian(dim, bounds, rng)
        v = haar_unitary(dim, rng)
        conjugated = HermitianOperator(v @ a.entries @ v.conj().T)
        lhs = apply_to_decomposition(square(), spectral_decompose(conjugated), bounds)
        rhs = v @ apply_to_decomposition(square(), spectral_decompose(a), bounds).entries @ v.conj().T
        assert np.linalg.norm(lhs.entries - rhs) <= 1e-9 * (1 + np.linalg.norm(rhs))

    def test_quadratic_exactness(self):
        for seed in range(200):
            rng = generator(31 * seed + 5)
            bounds = SpectralBounds(-1.5, 2.5)
            a = random_hermitian(2 + seed % 7, bounds, rng)
            out = apply_to_decomposition(square(), spectral_decompose(a), bounds)
            assert np.max(np.abs(out.entries - a.entries @ a.entries)) <= 1e-10

    def test_out_of_domain_spectrum_rejected(self):
        a = HermitianOperator.diagonal([0.5, 5.0])
        with pytest.raises(SpectrumOutOfDomain):
            apply_to_decomposition(square(), spectral_decompose(a), SpectralBounds(1.0, 3.0))

    def test_clamping_absorbs_float_drift(self):
        eps = 1e-12
        a = HermitianOperator.diagonal([1.0 - eps, 3.0 + eps])
        out = apply_to_decomposition(logarithm(), spectral_decompose(a), SpectralBounds(1.0, 3.0))
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(out.entries)), [0.0, math.log(3.0)], atol=1e-12
        )

    def test_function_undefined_on_interval(self):
        a = HermitianOperator.diagonal([-0.5, 0.5])
        with pytest.raises(FunctionDomainError):
            apply_to_decomposition(logarithm(), spectral_decompose(a), SpectralBounds(-1.0, 1.0))

    def test_nonfinite_values_name_their_cause(self):
        with pytest.raises(FunctionDomainError, match=r"undefined at eigenvalue\(s\) \[-0.5\]"):
            apply_to_decomposition(np.log, spectral_decompose(HermitianOperator.diagonal([-0.5, 0.5])))
        with pytest.raises(FunctionDomainError, match=r"overflows at eigenvalue\(s\) \[800.0\]"):
            a = HermitianOperator.diagonal([1.0, 800.0])
            apply_to_decomposition(exponential(), spectral_decompose(a), SpectralBounds(1.0, 800.0))

    def test_apply_to_decomposition_unclamped(self):
        a = HermitianOperator.diagonal([4.0, 9.0])
        out = apply_to_decomposition(np.sqrt, spectral_decompose(a))
        np.testing.assert_allclose(np.diag(out.entries).real, [2.0, 3.0], rtol=1e-14)


class TestLoewnerCompare:
    def test_equal(self):
        a = HermitianOperator.diagonal([1.0, 2.0])
        assert compare(a, a).relation is Relation.EQUAL

    def test_less_equal_diagonal(self):
        verdict = compare(
            HermitianOperator.diagonal([1.0, 2.0]), HermitianOperator.diagonal([2.0, 3.0])
        )
        assert verdict.relation is Relation.LESS_EQUAL
        assert verdict.gap_min_eigenvalue == pytest.approx(1.0)

    def test_incomparable(self):
        verdict = compare(
            HermitianOperator.diagonal([1.0, 3.0]), HermitianOperator.diagonal([2.0, 2.0])
        )
        assert verdict.relation is Relation.INCOMPARABLE
        assert verdict.gap_min_eigenvalue == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compare(HermitianOperator.identity(2), HermitianOperator.identity(3))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_verdict_symmetry(self, seed):
        rng = generator(seed)
        dim = int(rng.integers(1, 7))
        a = random_hermitian_raw(dim, rng)
        b = random_hermitian_raw(dim, rng)
        forward = compare(a, b).relation
        backward = compare(b, a).relation
        flipped = {
            Relation.LESS_EQUAL: Relation.GREATER_EQUAL,
            Relation.GREATER_EQUAL: Relation.LESS_EQUAL,
            Relation.EQUAL: Relation.EQUAL,
            Relation.INCOMPARABLE: Relation.INCOMPARABLE,
        }
        assert backward is flipped[forward]

    def test_witness_attains_gap(self):
        # The gap is lambda_min(B - A), or lambda_min(A - B) for GreaterEqual.
        for a, b, relation in (
            ([1.0, 3.0], [2.0, 2.0], Relation.INCOMPARABLE),
            ([3.0, 2.5], [2.0, 2.0], Relation.GREATER_EQUAL),
        ):
            a, b = HermitianOperator.diagonal(a), HermitianOperator.diagonal(b)
            verdict = compare(a, b)
            assert verdict.relation is relation
            diff = a.entries - b.entries if relation is Relation.GREATER_EQUAL else b.entries - a.entries
            rayleigh = float((verdict.witness_vector.conj() @ diff @ verdict.witness_vector).real)
            assert rayleigh == pytest.approx(verdict.gap_min_eigenvalue, abs=1e-12)


    def test_stacked_witness_is_the_indexed_matrix(self):
        # Three pairs in one stack, each turned by its own unitary: verdict(j)
        # solves the witness of matrix j alone, and it attains that gap.
        rng = generator(31)
        lefts = [[1.0, 3.0, 2.0], [3.0, 2.5, 4.0], [1.0, 1.5, 0.5]]
        rights = [[2.0, 2.0, 2.0], [2.0, 2.0, 2.0], [2.0, 3.0, 1.0]]
        relations = (Relation.INCOMPARABLE, Relation.GREATER_EQUAL, Relation.LESS_EQUAL)
        u = np.stack([haar_unitary(3, rng) for _ in relations])
        a, b = (HermitianOperator(u * np.array(v)[:, None, :] @ u.conj().swapaxes(-1, -2)) for v in (lefts, rights))
        order = loewner_orders([(a, b)], 1e-12)[0]
        for j, relation in enumerate(relations):
            verdict = order.verdict(j)
            assert verdict.relation is relation
            diff = a.entries[j] - b.entries[j] if relation is Relation.GREATER_EQUAL else b.entries[j] - a.entries[j]
            rayleigh = float((verdict.witness_vector.conj() @ diff @ verdict.witness_vector).real)
            assert rayleigh == pytest.approx(verdict.gap_min_eigenvalue, abs=1e-12)

    def test_greater_equal_slack_is_lambda_min_of_left_minus_right(self):
        # -lambda_max of right - left, read from the comparison's spectra, is
        # bit for bit lambda_min of left - right, the slack the sweep pins;
        # also against a diamond-like side whose T @ T is left unsymmetrised.
        rng = generator(17)

        def stack(dim):
            z = rng.standard_normal((2, 50, dim, dim))
            z = z[0] + 1j * z[1]
            return 0.5 * (z + z.conj().swapaxes(-1, -2))

        for dim in range(1, 9):
            left, t = stack(dim), stack(dim)
            diamond = 4.0 * t - 3.0 * np.eye(dim) - 0.5 * (t @ t + stack(dim))
            for right in (stack(dim), diamond):
                order = loewner_orders([(HermitianOperator(left), HermitianOperator(right))], 0.0)[0]
                slack = order.slack(Relation.GREATER_EQUAL).tolist()
                expected = np.linalg.eigvalsh(left - right)[..., 0].tolist()
                assert [x.hex() for x in slack] == [x.hex() for x in expected]


class TestHolds:
    """``LoewnerOrder.holds``, the one violation rule of verify and the sweep, at its boundary."""

    @staticmethod
    def pairs():
        """Sides of norm about 1000 whose differences are ordered, reverse-ordered, equal and
        incomparable, each to within 5e-7: inside the default tolerance (about 1e-6), not the floor."""
        rng = generator(47)

        def turned(spectrum):
            u = haar_unitary(3, rng)
            mat = (u * np.array(spectrum, dtype=float)) @ u.conj().T
            return 0.5 * (mat + mat.conj().T)

        lefts, rights = [], []
        for gaps in ((-5e-7, 0.5, 1.0), (-2.0, -1.0, 5e-7), (-5e-7, 0.0, 5e-7), (-1.0, 0.0, 1.0)):
            base = turned([1000.0, -700.0, 300.0])
            lefts.append(base)
            rights.append(base + turned(gaps))
        return HermitianOperator(np.array(lefts)), HermitianOperator(np.array(rights))

    @pytest.mark.parametrize("tol", [None, 1e-6, 1e-9, 0.0])
    def test_holds_is_below_above_or_both(self, tol):
        (order,) = loewner_orders([self.pairs()], tol)
        below, above = order.below.tolist(), order.above.tolist()
        assert order.holds(Relation.LESS_EQUAL).tolist() == below
        assert order.holds(Relation.GREATER_EQUAL).tolist() == above
        assert order.holds(Relation.EQUAL).tolist() == [b and a for b, a in zip(below, above)]
        if tol is None:
            assert (below, above) == ([True, False, True, False], [False, True, True, False])
        else:  # at a finite slack, exactly slack(relation) >= -tol
            for relation in (Relation.LESS_EQUAL, Relation.GREATER_EQUAL, Relation.EQUAL):
                assert order.holds(relation).tolist() == (order.slack(relation) >= -tol).tolist()


class TestDeferredTolerance:
    """The default tolerance's norms are solved only where the floor cannot decide.

    Sides of norm about 1000 make tol = 1e-9 (1 + max norm) about 1e-6, a
    thousand times the floor: a gap of -5e-7 or a lambda_max of 5e-7 is
    ordered only by the norms, and -2e-6 or 2e-6 is not ordered.  Pairs with
    a zero side on the left or on the right take their tolerance from the
    other side's norm alone.  Every mask and verdict must equal, by
    ``float.hex``, the eager comparison built from both sides' norms.
    """

    @staticmethod
    def eager(a, b):
        return loewner_orders([(a, b)], tolerance_from_norms(spectral_norms(a), spectral_norms(b)))[0]

    @staticmethod
    def same_verdicts(lazy, eager, indices):
        for j in indices:
            got, want = lazy.verdict(j), eager.verdict(j)
            assert got.relation is want.relation, j
            assert got.gap_min_eigenvalue.hex() == want.gap_min_eigenvalue.hex(), j
            assert got.witness_vector.tobytes() == want.witness_vector.tobytes(), j

    def test_stacked_masks_and_verdicts_equal_the_eager_comparison(self, monkeypatch):
        rng = generator(41)

        def turned(spectrum):
            u = haar_unitary(3, rng)
            mat = (u * np.array(spectrum, dtype=float)) @ u.conj().T
            return 0.5 * (mat + mat.conj().T)

        lefts, rights = [], []
        for gaps in (
            (-1e-10, 0.5, 1.0), (-5e-7, 0.5, 1.0), (-2e-6, 0.5, 1.0), (1e-3, 0.5, 1.0),  # below
            (-2.0, -1.0, 5e-7), (-2.0, -1.0, 2e-6), (-5e-7, 0.0, 5e-7), (-1e-10, 0.0, 1e-10),  # above, equal
        ):
            base = turned([1000.0, -700.0, 300.0])
            lefts.append(base)
            rights.append(base + turned(gaps))
        for zero_left in (True, False):  # one side zero, the other of norm 1000 with gap -5e-7
            other = turned([-5e-7, 1000.0, 500.0])
            lefts.append(np.zeros((3, 3), complex) if zero_left else -other)
            rights.append(other if zero_left else np.zeros((3, 3), complex))
        a, b = HermitianOperator(np.array(lefts)), HermitianOperator(np.array(rights))

        solved = []  # the matrices of every spectral_norms call
        original = linalg.spectral_norms

        def counted(op):
            solved.append(op.entries)
            return original(op)

        monkeypatch.setattr(linalg, "spectral_norms", counted)
        zero = HermitianOperator(np.zeros_like(b.entries))
        lazy, shared = loewner_orders([(a, b), (zero, b)])
        assert solved == []  # nothing is solved before a mask is read
        monkeypatch.setattr(linalg, "spectral_norms", original)
        eager, eager_shared = self.eager(a, b), self.eager(zero, b)
        monkeypatch.setattr(linalg, "spectral_norms", counted)

        def floor_leaves_open(order):
            """Per mask, the matrices the floor alone cannot order."""
            lam = order.eigenvalues
            return {"below": lam[:, 0] < -PSD_TOLERANCE_FLOOR, "above": -lam[:, -1] < -PSD_TOLERANCE_FLOOR}

        for (left, right), order, want in ((a, b), lazy, eager), ((zero, b), shared, eager_shared):
            for mask, open_ in floor_leaves_open(want).items():
                solved.clear()
                assert getattr(order, mask).tolist() == getattr(want, mask).tolist()
                # both sides' norms, once per mask, of the matrices the floor leaves open only
                assert [x.tobytes() for x in solved] == [side.entries[open_].tobytes() for side in (left, right)]
            self.same_verdicts(order, want, range(len(lefts)))
        assert lazy.below.tolist() == [True, True, False, True, False, False] + [True] * 4
        assert lazy.above.tolist() == [False] * 4 + [True, False, True, True, False, False]
        # the floor alone would order matrices of both masks wrongly
        assert all((open_ & getattr(eager, mask)).any() for mask, open_ in floor_leaves_open(eager).items())

    def test_one_trial_above_between_floor_and_tolerance(self):
        # An unstacked pair whose lambda_max of B - A is 5e-7: A >= B up to
        # the tolerance (about 1e-6), though not up to the floor.
        rng = generator(43)
        u = haar_unitary(4, rng)
        base = (u * np.array([1000.0, 10.0, -20.0, 400.0])) @ u.conj().T
        base = 0.5 * (base + base.conj().T)
        v = haar_unitary(4, rng)
        a = HermitianOperator(base)
        b = HermitianOperator(base + (v * np.array([-3.0, -2.0, -1.0, 5e-7])) @ v.conj().T)
        lazy, eager = loewner_orders([(a, b)])[0], self.eager(a, b)
        assert 1e-9 < eager.eigenvalues[-1] < eager.tol
        assert lazy.below.shape == lazy.above.shape == ()
        assert (bool(lazy.below), bool(lazy.above)) == (bool(eager.below), bool(eager.above)) == (False, True)
        self.same_verdicts(lazy, eager, [()])
        assert lazy.verdict().relation is Relation.GREATER_EQUAL


class TestSpectrumRange:
    # the extreme eigenvalues of a decomposition, as the range checks read them

    def test_quarter_pi_diagonal(self):
        lam = spectral_decompose(HermitianOperator.diagonal([math.pi / 4, math.pi / 2])).eigenvalues
        assert (lam[0], lam[-1]) == pytest.approx((math.pi / 4, math.pi / 2))

    def test_identity(self):
        lam = spectral_decompose(HermitianOperator.identity(3)).eigenvalues
        assert (lam[0], lam[-1]) == pytest.approx((1.0, 1.0))

    def test_offdiagonal_pair(self):
        lam = spectral_decompose(HermitianOperator.from_matrix([[0, 1], [1, 0]])).eigenvalues
        assert (lam[0], lam[-1]) == pytest.approx((-1.0, 1.0))


class TestMatrixJson:
    def test_roundtrip(self):
        rng = generator(77)
        a = random_hermitian_raw(4, rng)
        again = HermitianOperator.from_json(a.to_json())
        np.testing.assert_allclose(again.entries, a.entries, atol=1e-15)

    def test_declared_dim_checked(self):
        obj = HermitianOperator.identity(2).to_json()
        obj["dim"] = 3
        with pytest.raises(DimensionMismatch):
            HermitianOperator.from_json(obj)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bounds_clamp_tol_scales_with_endpoints(seed):
    rng = generator(seed)
    m = float(rng.uniform(-50.0, 10.0))
    width = float(rng.uniform(0.5, 20.0))
    bounds = SpectralBounds(m, m + width)
    assert bounds.clamp_tol >= 1e-9
    assert bounds.clamp_tol == pytest.approx(1e-9 * (1 + abs(bounds.m) + abs(bounds.M)))
