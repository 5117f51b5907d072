from functools import partial

import numpy as np
import pytest

from mercerlab import core, harness, sampling
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

    def test_dims_decode_equals_numpy_bounded_integers(self):
        # 10^5 streams: sequential seeds, and trial seeds of a 64-bit master as the
        # CLI's and the benchmark's.  The decode must give numpy's dims and leave the
        # generator in numpy's state after them, the buffered half word included.
        seeds = list(range(50_000)) + [trial_seed(0xD1B54A32D192ED03, i) for i in range(50_000)]
        reference, decoded = np.random.PCG64(0), np.random.PCG64(0)
        rng = np.random.Generator(reference)
        buffered = 0
        for seed, state in zip(seeds, sampling._pcg64_states(seeds)):
            sampling._restart(reference, state)
            dims, after, half = sampling._vary_dims(*state)
            sampling._restart(decoded, after, half)
            assert dims == draw_dims(TrialConfig(vary_dims=True), rng), seed
            assert decoded.state == reference.state, seed
            buffered += half[0]
        assert buffered == len(seeds)  # three words take two outputs, the last half word buffered

    def test_dims_decode_runs_numpy_rejection_loop(self):
        # Lemire's draw rejects a 32-bit word w when (w * r) mod 2^32 < 2^32 mod r:
        # for dim_h (r = 7) the words 0 and 613566757 (w * 7 = 2^32 + 3), for dim_k
        # at dim_h = 7 the half word 0.  The states below step, by one LCG step
        # inverted, onto an output whose halves are such words, so the decode
        # rejects one or two words before it accepts, as numpy does.
        inverse = pow(sampling._PCG64_MULT, -1, 1 << 128)
        rng = np.random.default_rng(3)
        reference, decoded = np.random.PCG64(0), np.random.PCG64(0)
        generated = np.random.Generator(reference)
        dim_h_7 = 5 * ((1 << 32) // 7) + 100  # w * 7 >> 32 == 5 and no rejection: dim_h = 7
        halves = [(0, 1234), (613566757, 99), (dim_h_7, 0), (0, 0), (613566757, 613566757)]
        rejections = 0
        for low, high in halves:
            for _ in range(20):
                inc = int(rng.integers(0, 2**63)) << 1 | 1
                top = int(rng.integers(0, 2**63)) << 1 | int(rng.integers(0, 2))
                rot = top >> 58
                word = high << 32 | low
                xored = (word << rot | word >> (64 - rot)) & sampling.MASK64  # XSL-RR's rotate, undone
                after = top << 64 | (xored ^ top)
                state = ((after - inc) * inverse) & sampling.MASK128
                assert sampling._step(state, inc) == (after, word)
                sampling._restart(reference, (state, inc))
                dims, next_state, half = sampling._vary_dims(state, inc)
                sampling._restart(decoded, next_state, half)
                rejections += (low * 7) & sampling.MASK32 < 4 or (low * 7 >> 32 == 5 and high == 0)
                assert dims == draw_dims(TrialConfig(vary_dims=True), generated), (low, high)
                assert decoded.state == reference.state, (low, high)
        assert rejections == 20 * len(halves)  # every state rejects its first or second word

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


def draw_dims(config, rng):
    """A trial's dims by definition: with vary_dims, numpy's bounded integers drawn first from its
    stream, which the chunk sampler decodes from the stream's state (``sampling._vary_dims``)."""
    if config.vary_dims:
        dim_h = int(rng.integers(2, 9))
        dim_k = int(rng.integers(1, dim_h + 1))
        n = int(rng.integers(1, 5))
        return dim_h, dim_k, n
    return config.dim_h, config.dim_k, config.n_maps


def one_by_one(config, i):
    """Trial i drawn by the one-family and one-operator samplers: dims, the
    family (with its rejection loop), then each operator, from one stream."""
    rng = generator(trial_seed(config.seed, i))
    dim_h, dim_k, n = draw_dims(config, rng)
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
        # with zeros up to the most maps of the stack.  Among these 60 trials, the
        # (2, 2) stack holds families of 1, 2, 3 and 4 compressions, or with
        # --mixed (n - 1 compressions) of 0, 1, 2 and 3, whose lone trace maps
        # have no normaliser.  At a singularity threshold of 0.1 two families of
        # stacks of mixed widths are rejected and drawn again.
        if threshold is not None:
            monkeypatch.setattr(sampling, "NORMALIZER_SINGULARITY_ABS", threshold)
        redraws = []
        original = sampling._draw_family

        def spy(*args):
            redraws.append(args)
            return original(*args)

        monkeypatch.setattr(sampling, "_draw_family", spy)
        config = TrialConfig(seed=30, vary_dims=True, mixed=mixed)
        seeds, dims, stacks = harness._sample_chunk(config, range(60))
        families = [family for _, group in stacks for family in group]
        widths = {
            int(count)
            for family in families
            if family.compressions.shape[-2:] == (2, 2)
            for count in family.is_compression.sum(axis=1)
        }
        assert widths == ({0, 1, 2, 3} if mixed else {1, 2, 3, 4})
        assert len(redraws) == (0 if threshold is None else 2)
        trials = core.unstack(stacks)
        for family in families:
            for j, pos in enumerate(family.positions.tolist()):
                rng = generator(seeds[pos])
                dim_h, dim_k, n = draw_dims(config, rng)
                assert dims[pos] == (dim_h, dim_k, n)
                alone = random_unital_family(n, dim_h, dim_k, rng, include_trace=mixed)
                assert trial_bytes(trials[pos][0], []) == trial_bytes(alone, []), pos
                # random_unital_family runs _normalise too, on a chunk of one
                rng = generator(seeds[pos])
                draw_dims(config, rng)
                by_definition = normalised_by_definition(rng, n, dim_h, dim_k, mixed)
                assert family.compressions[j, family.is_compression[j]].tobytes() == by_definition.tobytes(), pos

    def test_chunk_equals_each_trial_alone(self):
        # A full chunk of mixed vary_dims trials, over every (dim_h, dim_k) stack and
        # ragged map slots, gives each trial the bytes it gets sampled as a chunk of one.
        config = TrialConfig(seed=0x9E3779B97F4A7C15, vary_dims=True, mixed=True)
        chunk = harness._sampled_trials(config, range(CHUNK_TRIALS))
        assert len({dims for _, dims, _, _ in chunk}) > 100
        for i, (seed_i, dims, family, operators) in enumerate(chunk):
            ((seed_alone, dims_alone, *alone),) = harness._sampled_trials(config, (i,))
            assert (seed_i, dims) == (seed_alone, dims_alone)
            assert trial_bytes(family, operators) == trial_bytes(*alone), i

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

        def spy(*args):
            redraws.append(args)
            return original(*args)

        config = TrialConfig(seed=17, mixed=True, n_maps=3)
        monkeypatch.setattr(sampling, "_draw_family", spy)
        sampled = harness._sampled_trials(config, range(60))
        checked = len(redraws)  # phase 1 draws straight into the stacks, unchecked
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
        dim_h, dim_k, n = draw_dims(config, rng)
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
