import numpy as np
import pytest

from mercerlab.errors import SingularNormalizer
from mercerlab.linalg import SpectralBounds, spectral_decompose
from mercerlab.maps import WeightedTrace, unitality_defect
from mercerlab.sampling import (
    generator,
    haar_unitary,
    random_hermitian,
    random_unital_family,
    trial_seed,
)

BOUNDS = SpectralBounds(-0.5, 2.5)


class TestSeeding:
    def test_trial_seed_xor(self):
        assert trial_seed(0b1100, 0b1010) == 0b0110
        assert trial_seed(123, 0) == 123
        assert trial_seed(2**64 - 1, 1) == 2**64 - 2

    def test_same_seed_is_bit_identical(self):
        a = random_hermitian(5, BOUNDS, generator(99))
        b = random_hermitian(5, BOUNDS, generator(99))
        assert a.entries.tobytes() == b.entries.tobytes()

    def test_different_seeds_differ(self):
        a = random_hermitian(5, BOUNDS, generator(99))
        b = random_hermitian(5, BOUNDS, generator(100))
        assert a.entries.tobytes() != b.entries.tobytes()

    def test_pcg64_reference_stream(self):
        # pinned raw outputs; documented in the README for cross-validation
        raw = np.random.PCG64(12345).random_raw(4)
        assert list(raw) == [
            4193609425186963869,
            5843160025838961886,
            14708796524633321433,
            12474696839993944336,
        ]


class TestHaarUnitary:
    def test_unitarity(self):
        for seed in range(20):
            u = haar_unitary(6, generator(seed))
            assert np.linalg.norm(u.conj().T @ u - np.eye(6)) <= 1e-12


class TestRandomHermitian:
    def test_scalar_case(self):
        a = random_hermitian(1, BOUNDS, generator(0))
        assert BOUNDS.m <= a.scalar() <= BOUNDS.M

    def test_spectrum_containment_bulk(self):
        rng = generator(2024)
        lo_seen, hi_seen = np.inf, -np.inf
        for _ in range(10_000):
            a = random_hermitian(4, BOUNDS, rng)
            lam = spectral_decompose(a).eigenvalues
            lo, hi = lam[0], lam[-1]
            lo_seen = min(lo_seen, lo)
            hi_seen = max(hi_seen, hi)
            assert lo >= BOUNDS.m - 1e-12
            assert hi <= BOUNDS.M + 1e-12
        # the draws should actually explore the interval
        assert lo_seen < BOUNDS.m + 0.05
        assert hi_seen > BOUNDS.M - 0.05

    def test_forced_endpoints(self):
        a = random_hermitian(4, BOUNDS, generator(3), force_endpoints=True)
        lam = spectral_decompose(a).eigenvalues
        lo, hi = lam[0], lam[-1]
        assert lo == pytest.approx(BOUNDS.m, abs=1e-12)
        assert hi == pytest.approx(BOUNDS.M, abs=1e-12)


class TestRandomUnitalFamily:
    @pytest.mark.parametrize("n,dim_h,dim_k", [(1, 4, 4), (3, 4, 2), (4, 2, 1), (2, 6, 6)])
    def test_defect_below_tolerance(self, n, dim_h, dim_k):
        for seed in range(25):
            fam = random_unital_family(n, dim_h, dim_k, generator(seed))
            assert unitality_defect(fam) <= 1e-9

    def test_mixed_family_contains_trace_map(self):
        fam = random_unital_family(3, 4, 2, generator(8), include_trace=True)
        kinds = [type(m) for m in fam.maps]
        assert WeightedTrace in kinds
        assert unitality_defect(fam) <= 1e-9

    def test_single_trace_family(self):
        fam = random_unital_family(1, 4, 2, generator(8), include_trace=True)
        assert isinstance(fam.maps[0], WeightedTrace)
        assert unitality_defect(fam) <= 1e-12

    def test_singular_normalizer_raised(self):
        # one 1 -> 3 compression can never have full-rank identity image
        with pytest.raises(SingularNormalizer):
            random_unital_family(1, 1, 3, generator(0))

    def test_reproducible(self):
        fam_a = random_unital_family(2, 3, 2, generator(55))
        fam_b = random_unital_family(2, 3, 2, generator(55))
        for left, right in zip(fam_a.maps, fam_b.maps):
            assert left.v.tobytes() == right.v.tobytes()
