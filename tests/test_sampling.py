from functools import partial

import numpy as np
import pytest

from mercerlab import harness, sampling
from mercerlab.errors import SingularNormalizer
from mercerlab.harness import CHUNK_TRIALS, TrialConfig
from mercerlab.linalg import HermitianOperator, SpectralBounds, spectral_decompose
from mercerlab.maps import Compression, WeightedTrace, family_sum, unitality_defect
from mercerlab.sampling import (
    generator,
    haar_unitary,
    random_hermitian,
    random_unital_family,
    trial_seed,
)

BOUNDS = SpectralBounds(-0.5, 2.5)


def defect(family):
    """The unitality defect of a family: how far sum_i Phi_i(I) lies from I."""
    return unitality_defect(family_sum(family, [HermitianOperator.identity(family.dim_in)] * family.size))


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

    def test_batch_states_equal_numpy_seeding(self):
        # 2^32 - 1 / 2^32 is where a seed's entropy gains a word; sha256-derived
        # seeds, as the benchmark's, fill all 64 bits
        rng = np.random.default_rng(20)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        seeds += [trial_seed(2**64 - 1, i) for i in range(300)]
        seeds += [int(s) for s in rng.integers(0, 2**63, 5000, dtype=np.uint64)]
        seeds += [int(s) + 2**63 for s in rng.integers(0, 2**63, 5000, dtype=np.uint64)]
        expected = [np.random.PCG64(s).state["state"] for s in seeds]
        assert [{"state": s, "inc": i} for s, i in sampling._pcg64_states(seeds)] == expected

    def test_restarted_generator_equals_a_fresh_one(self):
        def draws(rng):
            """A vary_dims trial's phase 1 in short: three dims, then normals and uniforms."""
            dims = [rng.integers(2, 9) for _ in range(3)]
            return [np.asarray(d).tobytes() for d in (*dims, rng.standard_normal((2, 3)), rng.uniform(size=4))]

        seeds = [0, 2**32, 2**64 - 1] + [trial_seed(0xD1B54A32D192ED03, i) for i in range(20)]
        bit_generator = np.random.PCG64(0)
        reused = np.random.Generator(bit_generator)
        draws(reused)
        for seed, state in zip(seeds, sampling._pcg64_states(seeds)):
            assert bit_generator.state["has_uint32"] == 1  # the third dims draw left half a word
            sampling._restart(bit_generator, state)
            assert draws(reused) == draws(generator(seed)), seed

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
            assert defect(fam) <= 1e-9

    def test_mixed_family_contains_trace_map(self):
        fam = random_unital_family(3, 4, 2, generator(8), include_trace=True)
        kinds = [type(m) for m in fam.maps]
        assert WeightedTrace in kinds
        assert defect(fam) <= 1e-9

    def test_single_trace_family(self):
        fam = random_unital_family(1, 4, 2, generator(8), include_trace=True)
        assert isinstance(fam.maps[0], WeightedTrace)
        assert defect(fam) <= 1e-12

    def test_singular_normalizer_raised(self):
        # one 1 -> 3 compression can never have full-rank identity image
        with pytest.raises(SingularNormalizer):
            random_unital_family(1, 1, 3, generator(0))

    def test_reproducible(self):
        fam_a = random_unital_family(2, 3, 2, generator(55))
        fam_b = random_unital_family(2, 3, 2, generator(55))
        for left, right in zip(fam_a.maps, fam_b.maps):
            assert left.v.tobytes() == right.v.tobytes()


def one_by_one(config, i):
    """Trial i drawn by the one-family and one-operator samplers: dims, the
    family (with its rejection loop), then each operator, from one stream."""
    rng = generator(trial_seed(config.seed, i))
    dim_h, dim_k, n = harness._draw_dims(config, rng)
    family = random_unital_family(n, dim_h, dim_k, rng, include_trace=config.mixed)
    operators = [random_hermitian(dim_h, config.bounds, rng, force_endpoints=i % 10 == 0) for _ in range(n)]
    return family, operators


def trial_bytes(family, operators):
    """The bytes of every V, trace weight and A_i of a trial."""
    maps = [np.asarray(phi.v if isinstance(phi, Compression) else phi.weight).tobytes() for phi in family.maps]
    return maps + [a.entries.tobytes() for a in operators]


def normalised_by_definition(rng, n, dim_h, dim_k, mixed):
    """The V_i of a family drawn from ``rng`` as ``random_unital_family`` draws it, normalised by the
    definition alone, one family at a time: sqrt(1 - fraction) V_i S^{-1/2} with
    S = 0.0 + V_1* V_1 + ... + V_n* V_n in map order, drawn again while S is singular
    or ill-conditioned."""
    while True:
        normals = rng.standard_normal((n - 1 if mixed else n, 2, dim_h, dim_k))
        fraction = float(rng.uniform(0.1, 0.4)) if mixed else 0.0
        v = (normals[:, 0] + 1j * normals[:, 1]) / np.sqrt(2.0)
        if not len(v):
            return v
        lam, u = np.linalg.eigh(sum((vi.conj().T @ vi for vi in v), 0.0))
        if lam[0] > sampling.NORMALIZER_SINGULARITY_ABS and lam[0] > lam[-1] / sampling.NORMALIZER_CONDITION_MAX:
            return v @ ((u / np.sqrt(lam)) @ u.conj().T) * np.sqrt(1.0 - fraction)


class TestChunkSampler:
    """A chunk of trials, finished in stacked calls, equals its trials drawn one by one, byte for byte."""

    @pytest.mark.parametrize(
        "config, trials",
        [
            (TrialConfig(seed=11), 30),  # one shape; trials 0, 10, 20 pin the endpoints
            (TrialConfig(seed=12, vary_dims=True, mixed=True), 80),
            (TrialConfig(seed=13, dim_h=1, dim_k=1, n_maps=3, mixed=True), 20),  # no Haar step
            (TrialConfig(seed=14, dim_h=3, dim_k=2, n_maps=1, mixed=True), 20),  # a lone trace map
            (TrialConfig(seed=15, m=-2.0, M=0.5), CHUNK_TRIALS + 12),  # crosses a chunk boundary
            # 64-bit master seeds, as the CLI's and the benchmark's, so the high word of every seed counts
            (TrialConfig(seed=2**64 - 1, vary_dims=True, mixed=True), 80),
            (TrialConfig(seed=0xD1B54A32D192ED03, vary_dims=True, mixed=True), CHUNK_TRIALS + 12),
        ],
    )
    def test_chunk_equals_one_by_one(self, config, trials):
        sampled = list(harness._by_chunk(trials, partial(harness._sampled_trials, config)))
        assert len(sampled) == trials
        for i, (seed_i, dims, family, operators) in enumerate(sampled):
            assert seed_i == trial_seed(config.seed, i)
            assert (family.dim_in, family.dim_out, family.size) == dims
            assert trial_bytes(family, operators) == trial_bytes(*one_by_one(config, i)), i
        for i in (0, 1, trials - 1):  # the one-trial form is a chunk of one
            (alone,) = harness._sampled_trials(config, (i,))
            assert trial_bytes(*alone[2:]) == trial_bytes(*one_by_one(config, i))

    @pytest.mark.parametrize("mixed", [False, True], ids=["plain", "mixed"])
    @pytest.mark.parametrize("threshold", [None, 0.1], ids=["default", "redraws"])
    def test_padded_stack_equals_each_family_alone(self, monkeypatch, mixed, threshold):
        # Phase 2 stacks the families of one (dim_h, dim_k), their normals padded
        # with zeros up to the most compressions of the stack.  Among these 60
        # trials, the (2, 2) stack holds families of 1, 2, 3 and 4 compressions,
        # or with --mixed (n - 1 compressions) of 1, 2 and 3, whose lone trace
        # maps form a stack of their own.  At a singularity threshold of 0.1 two
        # families of stacks of mixed widths are rejected and drawn again.
        if threshold is not None:
            monkeypatch.setattr(sampling, "NORMALIZER_SINGULARITY_ABS", threshold)
        redraws = []
        original = sampling._draw_family

        def spy(*args, checked):
            redraws.append(checked)
            return original(*args, checked=checked)

        monkeypatch.setattr(sampling, "_draw_family", spy)
        config = TrialConfig(seed=30, vary_dims=True, mixed=mixed)
        seeds, groups = harness._sample_chunk(config, range(60))
        widths = {group.compressions.shape[0] for group in groups if group.dims[:2] == (2, 2)}
        assert widths == ({0, 1, 2, 3} if mixed else {1, 2, 3, 4})
        assert sum(redraws) == (0 if threshold is None else 2)
        for group in groups:
            for j, pos in enumerate(group.positions):
                family, _ = group.instance(j)
                rng = generator(seeds[pos])
                dim_h, dim_k, n = harness._draw_dims(config, rng)
                alone = random_unital_family(n, dim_h, dim_k, rng, include_trace=mixed)
                assert trial_bytes(family, []) == trial_bytes(alone, []), pos
                # random_unital_family runs _normalise too, on a chunk of one
                rng = generator(seeds[pos])
                harness._draw_dims(config, rng)
                by_definition = normalised_by_definition(rng, n, dim_h, dim_k, mixed)
                assert group.compressions[:, j].tobytes() == by_definition.tobytes(), pos

    def test_pinned_trials_reach_both_endpoints(self):
        config = TrialConfig(seed=16, m=0.5, M=2.0)
        for i, (_, _, _, operators) in enumerate(harness._sampled_trials(config, range(21))):
            for a in operators:
                lam = spectral_decompose(a).eigenvalues
                pinned = lam[0] == pytest.approx(0.5, abs=1e-12) and lam[-1] == pytest.approx(2.0, abs=1e-12)
                assert pinned == (i % 10 == 0), i

    def test_forced_rejection_redraws_from_a_fresh_stream(self, monkeypatch):
        # At this threshold some first draws of S (dim 4, two compressions)
        # are rejected, so those trials' later draws follow the redraw.
        monkeypatch.setattr(sampling, "NORMALIZER_SINGULARITY_ABS", 0.9)
        redraws = []
        original = sampling._draw_family

        def spy(*args, checked):
            redraws.append(checked)
            return original(*args, checked=checked)

        config = TrialConfig(seed=17, mixed=True, n_maps=3)
        monkeypatch.setattr(sampling, "_draw_family", spy)
        sampled = harness._sampled_trials(config, range(60))
        checked = sum(redraws)  # the phase-1 draws are unchecked
        assert 0 < checked < 60
        for i, (_, _, family, operators) in enumerate(sampled):
            assert trial_bytes(family, operators) == trial_bytes(*one_by_one(config, i)), i
            assert defect(family) <= 1e-9

    def test_ill_conditioned_normaliser_is_drawn_again(self):
        # Trial 2 of this vary_dims seed first draws a (3, 3, 1) family whose S
        # has lambda_min 6.5e-8, above the singularity floor, and cond(S) 7.3e7.
        # Normalised, its unitality defect was 9.3e-9, beyond UNITALITY_ABS,
        # so stage 1 refused the family and the sweep raised HypothesisNotMet.
        config = TrialConfig(seed=4867886993087217673, vary_dims=True)
        rng = generator(trial_seed(config.seed, 2))
        dim_h, dim_k, n = harness._draw_dims(config, rng)
        normals = rng.standard_normal((n, 2, dim_h, dim_k))
        v = (normals[:, 0] + 1j * normals[:, 1]) / np.sqrt(2.0)
        lam = np.linalg.eigvalsh(sum((vi.conj().T @ vi for vi in v), 0.0))
        assert (dim_h, dim_k, n) == (3, 3, 1)
        assert lam[0] > sampling.NORMALIZER_SINGULARITY_ABS and lam[-1] / lam[0] > 7e7
        ((_, _, family, _),) = harness._sampled_trials(config, (2,))
        assert defect(family) <= 1e-10
        report, violations = harness.run_sweep("sqrt", "id", config, 40)
        assert violations == 0 and report["checks"]["mean_order"]["evaluated"] == 40

    def test_always_singular_trial_raises_like_one_by_one(self):
        # One 1 -> 3 compression never has a nonsingular normaliser.
        config = TrialConfig(seed=18, dim_h=1, dim_k=3, n_maps=1)
        with pytest.raises(SingularNormalizer) as alone:
            one_by_one(config, 0)
        with pytest.raises(SingularNormalizer) as chunk:
            harness._sampled_trials(config, range(12))
        assert str(chunk.value) == str(alone.value)
        with pytest.raises(SingularNormalizer) as suite:
            harness.run_suite(config, 12)
        assert str(suite.value) == str(alone.value)
