import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mercerlab.errors import (
    ArityMismatch,
    DimensionMismatch,
    InvalidInterval,
)
from mercerlab.linalg import HermitianOperator, SpectralBounds, spectral_decompose, spectral_norms
from mercerlab.maps import (
    Compression,
    MapFamily,
    WeightedTrace,
    apply_map,
    family_from_json,
    family_sum,
    family_to_json,
    map_from_json,
    map_to_json,
    unitality_defect,
)
from mercerlab.sampling import generator, haar_unitary, random_hermitian, random_unital_family
from mercerlab.tolerance import UNITALITY_ABS

HALF_TRACE = WeightedTrace(0.5, dim_in=2, dim_out=1)


def defect(family):
    """The unitality defect of a family: how far sum_i Phi_i(I) lies from I."""
    return unitality_defect(family_sum(family, [HermitianOperator.identity(family.dim_in)] * family.size))


def random_psd(dim, rng, scale=1.0):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator(scale * (z @ z.conj().T))


class TestApplyMap:
    def test_half_trace_of_quarter_pi_matrix(self):
        a = HermitianOperator.diagonal([math.pi / 4, math.pi / 2])
        out = apply_map(HALF_TRACE, a)
        assert out.scalar() == pytest.approx(3 * math.pi / 8)

    def test_identity_compression(self):
        rng = generator(3)
        a = random_psd(3, rng)
        out = apply_map(Compression(np.eye(3, dtype=complex)), a)
        np.testing.assert_allclose(out.entries, a.entries, atol=1e-14)

    def test_basis_column_compression_picks_corner(self):
        v = np.array([[1.0], [0.0]], dtype=complex)
        out = apply_map(Compression(v), HermitianOperator.diagonal([1.0, 3.0]))
        assert out.scalar() == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_map(HALF_TRACE, HermitianOperator.identity(3))

    def test_negative_trace_weight_rejected(self):
        with pytest.raises(InvalidInterval):
            WeightedTrace(-0.1, dim_in=2, dim_out=2)

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: Compression((rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))),
            lambda rng: WeightedTrace(float(rng.uniform(0.0, 2.0)), dim_in=3, dim_out=3),
        ],
        ids=["compression", "trace"],
    )
    def test_positivity_on_random_psd_inputs(self, make):
        rng = generator(17)
        phi = make(rng)
        for _ in range(200):
            p = random_psd(phi.dim_in, rng)
            image = apply_map(phi, p)
            floor = -1e-9 * (1.0 + spectral_norms(p))
            assert np.linalg.eigvalsh(image.entries)[0] >= floor

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, seed, x, y):
        rng = generator(seed)
        phi = Compression(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        a = random_psd(3, rng)
        b = random_psd(3, rng)
        combined = apply_map(phi, x * a + y * b)
        separate = x * apply_map(phi, a) + y * apply_map(phi, b)
        assert np.max(np.abs(combined.entries - separate.entries)) <= 1e-10 * (
            1 + spectral_norms(separate)
        )


class TestFamilySum:
    def test_single_half_trace(self):
        fam = MapFamily((HALF_TRACE,))
        a = HermitianOperator.diagonal([math.pi / 4, math.pi / 2])
        assert family_sum(fam, [a]).scalar() == pytest.approx(3 * math.pi / 8)

    def test_convex_combination_of_identity_compressions(self):
        n = 4
        rng = generator(5)
        a = random_psd(3, rng)
        maps = tuple(Compression(np.eye(3, dtype=complex) / math.sqrt(n)) for _ in range(n))
        out = family_sum(MapFamily(maps), [a] * n)
        np.testing.assert_allclose(out.entries, a.entries, atol=1e-12)

    def test_two_block_compressions(self):
        v1 = np.diag([1.0, 0.0]).astype(complex)
        v2 = np.diag([0.0, 1.0]).astype(complex)
        fam = MapFamily((Compression(v1), Compression(v2)))
        out = family_sum(
            fam,
            [HermitianOperator.diagonal([1.0, 2.0]), HermitianOperator.diagonal([3.0, 4.0])],
        )
        np.testing.assert_allclose(np.diag(out.entries).real, [1.0, 4.0])

    def test_arity_mismatch(self):
        fam = MapFamily((HALF_TRACE,))
        with pytest.raises(ArityMismatch):
            family_sum(fam, [HermitianOperator.identity(2)] * 2)

    def test_spectral_containment(self):
        # the precondition of every Mercer expression: images of operators
        # with spectrum in [m, M] under a unital family stay in [m, M]
        bounds = SpectralBounds(-0.5, 2.0)
        for trial in range(500):
            rng = generator(40_000 + trial)
            n = int(rng.integers(1, 5))
            dim_h = int(rng.integers(2, 7))
            dim_k = int(rng.integers(1, dim_h + 1))
            fam = random_unital_family(n, dim_h, dim_k, rng, include_trace=trial % 4 == 0)
            ops = [random_hermitian(dim_h, bounds, rng) for _ in range(n)]
            lam = spectral_decompose(family_sum(fam, ops)).eigenvalues
            assert lam[0] >= bounds.m - 1e-8
            assert lam[-1] <= bounds.M + 1e-8


class TestUnitality:
    def test_half_trace_family_is_unital(self):
        assert defect(MapFamily((HALF_TRACE,))) == pytest.approx(0.0, abs=1e-12)

    def test_scaled_unitary_compressions(self):
        rng = generator(11)
        k = 3
        maps = tuple(Compression(haar_unitary(4, rng) / math.sqrt(k)) for _ in range(k))
        assert defect(MapFamily(maps)) <= 1e-12

    def test_half_identity_compression_defect(self):
        fam = MapFamily((Compression(0.5 * np.eye(2, dtype=complex)),))
        assert defect(fam) == pytest.approx(0.75)

    def test_frobenius_bound_decides_as_the_spectral_norm(self, monkeypatch):
        # I + E, E with spectrum size * (1, -1/2, 1/3), so |E|_F is 1.17 size:
        # the first three clear UNITALITY_ABS / 2, the next two pass
        # UNITALITY_ABS only by their spectral norm, the last three fail it.
        # A defect is never below the spectral norm, is the spectral norm
        # wherever the bound cannot clear it, and passes UNITALITY_ABS exactly
        # where the spectral norm does.  A stack the bound clears solves no spectrum.
        rng = generator(21)
        units = []
        for size in (1e-12, 1e-10, 4e-10, 4.5e-10, 9.9e-10, 1.01e-9, 2e-9, 0.75):
            u = haar_unitary(3, rng)
            units.append(np.eye(3) + (u * (size * np.array([1.0, -0.5, 1 / 3]))) @ u.conj().T)
        units = HermitianOperator(np.array(units))
        spectral = spectral_norms(units - HermitianOperator.identity(3))
        defects = unitality_defect(units)
        unclear = np.linalg.norm(units.entries - np.eye(3), axis=(-2, -1)) > UNITALITY_ABS / 2
        assert unclear.tolist() == [False] * 3 + [True] * 5
        assert np.all(defects >= spectral)
        assert [x.hex() for x in defects[unclear]] == [x.hex() for x in spectral[unclear]]
        assert ((defects <= UNITALITY_ABS) == (spectral <= UNITALITY_ABS)).all()
        assert (spectral <= UNITALITY_ABS).tolist() == [True] * 5 + [False] * 3

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("a cleared stack solved a spectrum")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        assert (unitality_defect(HermitianOperator(units.entries[:3])) <= UNITALITY_ABS / 2).all()


class TestMapJson:
    def test_compression_roundtrip(self):
        rng = generator(9)
        phi = Compression(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        again = map_from_json(map_to_json(phi))
        np.testing.assert_allclose(again.v, phi.v)

    def test_trace_requires_dims(self):
        blob = map_to_json(HALF_TRACE)
        assert blob == {"kind": "trace", "w": 0.5}
        with pytest.raises(DimensionMismatch):
            map_from_json(blob)
        again = map_from_json(blob, dim_in=2, dim_out=1)
        assert again == HALF_TRACE

    def test_family_roundtrip_with_mixed_kinds(self):
        rng = generator(13)
        fam = random_unital_family(3, 3, 2, rng, include_trace=True)
        blobs = family_to_json(fam)
        again = family_from_json(blobs, dim_in=3, dim_out=2)
        assert defect(again) <= 1e-9
        a = [random_psd(3, rng) for _ in range(3)]
        np.testing.assert_allclose(
            family_sum(again, a).entries, family_sum(fam, a).entries, atol=1e-12
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            map_from_json({"kind": "choi"})
