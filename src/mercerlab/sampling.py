"""Seeded random instance generation.

The PRNG is numpy's PCG64; a generator seeded with the same 64-bit integer
reproduces the same stream bit for bit, which is what makes every violation
replayable.  Reference raw outputs of the stream are listed in the README so
that other implementations can cross-check their seeding.  ``sample_trials``
hashes a chunk's seeds in one pass (``_pcg64_states``, numpy's SeedSequence
and PCG64 seeding over arrays of seeds) and draws from one reused ``PCG64``,
set to a trial's start state before its phase 1 and before every redraw, so
each trial reads the same stream as ``generator(seed)`` gives it.

Sampling runs in two phases.  Phase 1 draws every random number of a trial
from its own stream, in order: dims, the V_i, the trace fraction, then per
operator its eigenvalues and the normals of its Ginibre matrix.  Phase 2
(``sample_trials``) finishes a chunk in stacked calls: the V_i of the
groups of one (dim_h, dim_k) padded into one stack on the map axis only,
one Gram and one congruence ``@`` per (dim_h, dim_k), the Gram sums, one
normaliser ``eigh`` and S^{-1/2} per codomain dimension dim_k
(``_normalise``), and one Haar ``qr`` and reconstruct per matrix dimension.
These treat each matrix as they would alone, so a trial is bit for bit the
same in any chunk.
``haar_unitary``, ``random_hermitian`` and ``random_unital_family`` are the
same code on one matrix or family, kept as the reference forms the tests
check the chunk sampler against.  A family
with a singular or ill-conditioned normaliser is drawn again, which moves the later draws of
its stream, so a trial whose first family phase 2 rejects is drawn again
from a fresh copy of its stream, with the rejection loop, which normalises
its family alone, as a chunk of one; its V_i and trace weight take the
rejected ones' place in its group's own arrays.  A chunk comes back as one
``SampledGroup`` per shape, a block of ``core.stage_one``.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import Block
from .errors import SingularNormalizer
from .linalg import HermitianOperator, SpectralBounds, SpectralDecomposition
from .maps import Compression, MapFamily, WeightedTrace
from .tolerance import NORMALIZER_CONDITION_MAX, NORMALIZER_SINGULARITY_ABS

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
NORMALIZER_ATTEMPTS = 100

# numpy's SeedSequence (bit_generator.pyx, after O'Neill's seed_seq_fe) hashes a
# 4-word pool.  Its j-th hash xors INIT * MULT^j and multiplies by INIT * MULT^(j+1)
# (mod 2^32): constants that evolve apart from the data.
_HASH_A = tuple(0x43B0D7E5 * pow(0x931E8875, j, 1 << 32) & MASK32 for j in range(17))  # pool, then 12 mixes
_HASH_B = tuple(0x8B51F9DD * pow(0x58F38DED, j, 1 << 32) & MASK32 for j in range(9))  # 8 output words
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed & MASK64))


def _pcg64_states(seeds: Sequence[int]) -> List[Tuple[int, int]]:
    """(state, inc) of ``np.random.PCG64(s)`` for each seed s in [0, 2^64), hashed in one pass.

    A seed fills at most 2 of the pool's 4 words and a missing word hashes
    as a zero one, so all seeds take the same steps, as uint32 array ops
    over the seeds.  The 3 destinations of a source word mix independently,
    so each mixing step is one ``(3, N)`` op.  PCG64 then seeds itself from
    the pool's 64-bit output words (w0, w1, w2, w3) with two 128-bit LCG steps.
    """
    hash_a = np.array(_HASH_A, dtype=np.uint32)[:, None]
    hash_b = np.array(_HASH_B, dtype=np.uint32)[:, None]

    def hashmix(value: np.ndarray, j: int, n: int) -> np.ndarray:
        value = (value ^ hash_a[j : j + n]) * hash_a[j + 1 : j + n + 1]
        return value ^ value >> 16

    words = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(words)), dtype=np.uint32)
    pool[0], pool[1] = words & MASK32, words >> 32
    pool = hashmix(pool, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src], 4 + 3 * src, 3)
        pool[dst] = mixed ^ mixed >> 16
    out = (np.concatenate([pool, pool]) ^ hash_b[:-1]) * hash_b[1:]
    out = (out ^ out >> 16).astype(np.uint64)
    states = []
    for w0, w1, w2, w3 in zip(*(out[0::2] | out[1::2] << 32).tolist()):
        inc = ((w2 << 64 | w3) << 1 | 1) & MASK128
        states.append((((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & MASK128, inc))
    return states


def _restart(bit_generator: np.random.PCG64, state: Tuple[int, int]) -> None:
    """Put ``bit_generator`` at the start of the stream whose (state, inc) is ``state``, as
    a fresh ``PCG64`` has it: with no half word buffered, which 32-bit draws such as
    small ``integers`` leave behind."""
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state[0], "inc": state[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Per-trial seed: master XOR trial index (64-bit)."""
    return (master_seed ^ trial_index) & MASK64


def _ginibre(normals: np.ndarray) -> np.ndarray:
    """Complex Ginibre matrices from normals ``(..., 2, r, c)``: real parts, then
    imaginary parts, over sqrt(2)."""
    return (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / np.sqrt(2.0)


def _haar(normals: np.ndarray) -> np.ndarray:
    """Haar unitaries from the QR of the Ginibre matrices of ``normals``, in one ``qr`` call.

    The R-diagonal phases are folded into Q so the distribution is exactly
    Haar rather than QR-convention dependent (Mezzadri, Notices AMS 2007).
    """
    q, r = np.linalg.qr(_ginibre(normals))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR of a complex Ginibre matrix."""
    return _haar(rng.standard_normal((2, dim, dim)))


def _draw_spectrum(dim: int, bounds: SpectralBounds, pinned: bool, rng: np.random.Generator):
    """Eigenvalues uniform on [m, M], the first two exactly m and M when ``pinned`` (and
    dim >= 2), then, for dim >= 2, the normals of the eigenbasis."""
    lam = rng.uniform(bounds.m, bounds.M, size=dim)
    if pinned and dim >= 2:
        lam[0] = bounds.m
        lam[1] = bounds.M
    return lam, (rng.standard_normal((2, dim, dim)) if dim >= 2 else None)


def _hermitians(lam: np.ndarray, normals: Optional[np.ndarray]) -> np.ndarray:
    """U diag(lambda) U* for stacks ``(..., d)`` of spectra and ``(..., 2, d, d)`` of the
    normals of U; at d = 1 the matrix is lambda itself and no Haar step runs."""
    if lam.shape[-1] == 1:
        return lam[..., None].astype(np.complex128)
    mat = SpectralDecomposition(lam, _haar(normals)).reconstruct()
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2))


def random_hermitian(
    dim: int, bounds: SpectralBounds, rng: np.random.Generator, force_endpoints: bool = False
) -> HermitianOperator:
    """Random Hermitian matrix with eigenvalues uniform on [m, M].

    With ``force_endpoints`` (and dim >= 2) two eigenvalues are pinned to
    exactly m and M; the equality cases of the Mercer bounds live at the
    endpoints and uniform sampling alone never lands on them.
    """
    return HermitianOperator(_hermitians(*_draw_spectrum(dim, bounds, force_endpoints, rng)))


def _normalise(stacks: Sequence[tuple]) -> List[Tuple[np.ndarray, np.ndarray]]:
    """(accepted, V_i) per stack of families: normals ``(width, trials, 2, dim_h, dim_k)``, zero
    normals after a family's own up to the stack's width, and fractions ``(trials,)``.

    Each V_i becomes sqrt(1 - fraction) V_i S^{-1/2}, S = sum_i V_i* V_i.
    The Grams V_i* V_i of a stack are one ``@``.  S is dim_k x dim_k whatever
    dim_h and the number of compressions are, so per codomain dimension
    dim_k every trial's Grams are summed in map order, exactly
    0.0 + G_1 + ... + G_n, then the zero Grams of its padding, which change
    no entry (a partial sum starting at 0.0 + G_1 is never -0.0); S goes
    through one ``eigh`` and S^{-1/2} is one product.  The congruence is one
    ``@`` per stack.  ``accepted`` tells per family that S is nonsingular
    and conditioned well enough for a unital result (``tolerance``'s
    ``NORMALIZER_SINGULARITY_ABS`` and ``NORMALIZER_CONDITION_MAX``); the
    V_i of a rejected family, and those of the padding, mean nothing.
    A stack of width 0, of lone trace maps, has nothing to normalise.
    """
    vss = [_ginibre(normals) for normals, _ in stacks]
    grams = [v.conj().swapaxes(-1, -2) @ v for v in vss]
    normalisers = {}
    for dim in {v.shape[-1] for v in vss if len(v)}:
        ks = [k for k, v in enumerate(vss) if len(v) and v.shape[-1] == dim]
        trials = [grams[k].shape[1] for k in ks]
        slices = [slice(stop - count, stop) for count, stop in zip(trials, accumulate(trials))]
        padded = grams[ks[0]]  # a lone stack's Grams need no copy
        if len(ks) > 1:
            padded = np.zeros((max(len(grams[k]) for k in ks), slices[-1].stop, dim, dim), dtype=np.complex128)
            for k, rows in zip(ks, slices):
                padded[: len(grams[k]), rows] = grams[k]
        lam, u = np.linalg.eigh(sum(padded, 0.0))
        accepted = (lam[:, 0] > NORMALIZER_SINGULARITY_ABS) & (lam[:, 0] > lam[:, -1] / NORMALIZER_CONDITION_MAX)
        lam = np.where(accepted[:, None], lam, 1.0)  # no square root of a rejected spectrum
        inv_sqrt = (u / np.sqrt(lam)[..., None, :]) @ u.conj().swapaxes(-1, -2)
        normalisers.update((k, (accepted[rows], inv_sqrt[rows])) for k, rows in zip(ks, slices))
    out = []
    for k, ((_, fraction), vs) in enumerate(zip(stacks, vss)):
        if k not in normalisers:
            out.append((np.ones(vs.shape[1], dtype=bool), vs))
            continue
        accepted, inv_sqrt = normalisers[k]
        out.append((accepted, vs @ inv_sqrt * np.sqrt(1.0 - fraction)[:, None, None]))
    return out


def _trace_weight(fraction, n_compressions: int, dim_h: int):
    """The weight of a family's trace map: fraction / dim_h, or 1 / dim_h when alone, which makes it unital."""
    return (fraction if n_compressions else np.ones_like(fraction)) / dim_h


def _family(compressions, weights, dim_h: int, dim_k: int) -> MapFamily:
    """The compressions V_i (one per leading index), then a trace map per weight."""
    maps = [Compression(v) for v in compressions]
    maps += [WeightedTrace(w, dim_in=dim_h, dim_out=dim_k) for w in weights]
    return MapFamily(maps=tuple(maps))


def _draw_family(
    n: int, dim_h: int, dim_k: int, include_trace: bool, rng: np.random.Generator, checked: bool
):
    """(normals, fraction, V_i) of a family: normals ``(n_comp, 2, dim_h, dim_k)``, then trace fraction.

    Unchecked (phase 1) the first draw is kept, its V_i None; checked, it is drawn again while
    ``_normalise`` rejects its normaliser, raising ``SingularNormalizer`` after ``NORMALIZER_ATTEMPTS`` draws.
    """
    for _ in range(NORMALIZER_ATTEMPTS if checked else 1):
        normals = rng.standard_normal((n - 1 if include_trace else n, 2, dim_h, dim_k))
        fraction = float(rng.uniform(0.1, 0.4)) if include_trace else 0.0
        if not checked:
            return normals, fraction, None
        ((accepted, vs),) = _normalise([(normals[:, None], np.array([fraction]))])  # a chunk of one
        if accepted[0]:
            return normals, fraction, vs[:, 0]
    raise SingularNormalizer(
        f"no nonsingular normalizer in {NORMALIZER_ATTEMPTS} draws (n={n}, dim_h={dim_h}, dim_k={dim_k})"
    )


def random_unital_family(
    n: int, dim_h: int, dim_k: int, rng: np.random.Generator, include_trace: bool = False
) -> MapFamily:
    """Draw n positive maps and normalize so that sum_i Phi_i(I) = I.

    Compressions are normalized by the congruence with S^{-1/2},
    S = sum_i V_i* V_i, which gives exact unitality without rejection
    sampling.  With ``include_trace`` one map is a weighted trace whose
    weight takes a random fraction of the identity, the compressions
    absorbing the rest.  S is drawn again while it is numerically singular or
    too ill-conditioned for a unital result; raises ``SingularNormalizer``
    after ``NORMALIZER_ATTEMPTS`` draws (e.g. dim_k > n * dim_h).
    """
    _, fraction, vs = _draw_family(n, dim_h, dim_k, include_trace, rng, checked=True)
    return _family(vs, [_trace_weight(fraction, len(vs), dim_h)] if include_trace else [], dim_h, dim_k)


# Phase 1 of a trial: its dims, its family's normals, trace fraction and V_i
# (None unless drawn checked), and per operator the (eigenvalues, normals) of
# ``_draw_spectrum``.
_Draw = namedtuple("_Draw", "dims normals fraction compressions spectra")


class SampledGroup(Block):
    """The trials of one chunk with equal dims, at ``positions`` (ascending), finished together,
    as a ``core.Block``: ``compressions`` ``(n_comp, trials, dim_h, dim_k)``, ``weights``
    ``(n_trace, trials)`` (no row without a trace map, one with) and ``operators``
    ``(trials, n, dim_h, dim_h)``."""

    __slots__ = ()

    def instance(self, j: int) -> Tuple[MapFamily, Tuple[HermitianOperator, ...]]:
        """(family, operators) of the group's j-th trial alone."""
        family = _family(self.compressions[:, j], self.weights[:, j], self.dims[0], self.dims[1])
        return family, tuple(HermitianOperator(a) for a in self.operators[j])


def sample_trials(
    seeds: Sequence[int], pins: Sequence[bool], draw_dims: Callable, bounds: SpectralBounds, mixed: bool
) -> List[SampledGroup]:
    """Sample a chunk of trials, trial k from the stream of ``seeds[k]`` (dims by
    ``draw_dims(rng)``, eigenvalues pinned where ``pins[k]``, a trace map in each
    family when ``mixed``), grouped by dims in order of first appearance.  The seeds
    are hashed in one pass, and one ``PCG64`` is set to a trial's start state before
    each of its draws."""

    states = _pcg64_states(seeds)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)

    def draw(k: int, checked: bool = False) -> _Draw:
        _restart(bit_generator, states[k])
        dim_h, dim_k, n = dims = draw_dims(rng)
        family = _draw_family(n, dim_h, dim_k, mixed, rng, checked=checked)
        spectra = tuple(_draw_spectrum(dim_h, bounds, pins[k], rng) for _ in range(n))
        return _Draw(dims, *family, spectra)

    draws = [draw(k) for k in range(len(seeds))]
    groups: Dict[Tuple[int, int, int], List[int]] = {}
    for k, trial in enumerate(draws):
        groups.setdefault(trial.dims, []).append(k)
    # Phase 2: the groups of one (dim_h, dim_k) are one stack of families, each family's normals
    # followed by zeros up to the most compressions of the stack; the groups of lone trace maps,
    # with no compression, are stacks of their own.
    stacks: Dict[tuple, List[Tuple[int, int, int]]] = {}
    for dims in groups:
        stacks.setdefault(dims[:2] if dims[2] > mixed else dims, []).append(dims)
    normals, fractions = [], []
    for keys in stacks.values():
        ks = [k for dims in keys for k in groups[dims]]
        stack = np.zeros((max(len(draws[k].normals) for k in ks), len(ks), *draws[ks[0]].normals.shape[1:]))
        for j, k in enumerate(ks):
            stack[: len(draws[k].normals), j] = draws[k].normals
        normals.append(stack)
        fractions.append(np.array([draws[k].fraction for k in ks]))
    families = {}
    for keys, (accepted, vs) in zip(stacks.values(), _normalise(list(zip(normals, fractions)))):
        stop = 0
        for dims in keys:
            ks, start = groups[dims], stop
            stop += len(ks)
            compressions = vs[: dims[2] - mixed, start:stop].copy()  # the group's own, for its redraws
            for j in np.flatnonzero(~accepted[start:stop]):  # drawn again, and normalised, from a fresh stream
                draws[ks[j]] = draw(ks[j], checked=True)
                compressions[:, j] = draws[ks[j]].compressions
            weights = np.empty((0, len(ks)))  # no trace map
            if mixed:
                weights = _trace_weight(np.array([draws[k].fraction for k in ks]), len(compressions), dims[0])[None]
            families[dims] = compressions, weights

    operators = {}
    for dim in {dims[0] for dims in groups}:
        keys = [dims for dims in groups if dims[0] == dim]
        spectra = [spectrum for dims in keys for k in groups[dims] for spectrum in draws[k].spectra]
        lam, normals = zip(*spectra)
        mats = _hermitians(np.array(lam), np.array(normals) if dim >= 2 else None)
        for dims in keys:  # each group's operators are the next trials * n matrices
            trials, n = len(groups[dims]), dims[2]
            operators[dims] = mats[: trials * n].reshape(trials, n, dim, dim)
            mats = mats[trials * n :]
    return [
        SampledGroup(tuple(ks), dims, *families[dims], operators[dims]) for dims, ks in groups.items()
    ]
