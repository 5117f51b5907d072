"""Seeded random instance generation.

The PRNG is numpy's PCG64; a generator seeded with the same 64-bit integer
reproduces the same stream bit for bit, which is what makes every violation
replayable.  Reference raw outputs of the stream are listed in the README so
that other implementations can cross-check their seeding.  ``sample_trials``
hashes a chunk's seeds in one pass (``_pcg64_states``, numpy's SeedSequence
and PCG64 seeding over arrays of seeds).  A ``--vary-dims`` trial's dims are
decoded from its state in Python integers (``_vary_dims``: PCG64's XSL-RR
output and numpy's bounded 32-bit Lemire draws), before anything is drawn,
so the chunk's arrays can be allocated first.  One reused ``PCG64`` is then
set to a trial's state after its dims, with the half word numpy buffers,
before its phase 1 and before every redraw, so each trial reads the same
stream as ``generator(seed)`` gives it.

A chunk has one layout from the draw to the family sums (``core``'s
``OperatorStack`` and ``FamilyStack``): per (dim_h, dim_k) its families along
a map axis, slot i for map i, and per dim_h the operators of those families,
one row each, at the row ``FamilyStack.rows`` gives their slot.  Sampling
runs in two phases.  Phase 1 draws every random number of a trial from its
own stream, in order: the V_i, the trace fraction, then per operator its
eigenvalues and the normals of its Ginibre matrix, each written straight
into its row of the chunk's arrays
(``standard_normal(out=...)``, and ``uniform``'s result assigned).  Phase 2
(``sample_trials``) finishes a chunk in stacked calls: one Gram and one
congruence ``@`` per (dim_h, dim_k), whose normals are padded on the map axis
only, the Gram sums, one normaliser ``eigh`` and S^{-1/2} per codomain
dimension dim_k (``_normalise``), and one Haar ``qr`` and reconstruct per
matrix dimension.  These treat each matrix as they would alone, so a trial
is bit for bit the same in any chunk.
``haar_unitary``, ``random_hermitian`` and ``random_unital_family`` are the
same code on one matrix or family, kept as the reference forms the tests
check the chunk sampler against.  A family
with a singular or ill-conditioned normaliser is drawn again, which moves the later draws of
its stream, so a trial whose first family phase 2 rejects is drawn again
from a fresh copy of its stream, with the rejection loop, which normalises
its family alone, as a chunk of one; its V_i, trace weight and operators
take the rejected ones' place in the chunk's arrays.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import FamilyStack, OperatorStack
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


def _step(state: int, inc: int) -> Tuple[int, int]:
    """The next state of the PCG64 stream at (state, inc), and its 64-bit XSL-RR output."""
    state = (state * _PCG64_MULT + inc) & MASK128
    word, rot = ((state >> 64) ^ state) & MASK64, state >> 122
    return state, (word >> rot | word << (64 - rot)) & MASK64


def _vary_dims(state: int, inc: int) -> Tuple[Tuple[int, int, int], Tuple[int, int], Tuple[int, int]]:
    """The dims a ``--vary-dims`` trial draws first from the PCG64 stream at (state, inc), as
    ``integers(2, 9)``, ``integers(1, dim_h + 1)`` and ``integers(1, 5)`` draw them, then the stream's
    (state, inc) after them and its buffered half word (``has_uint32``, ``uinteger``).

    Each draw is numpy's bounded 32-bit Lemire draw (Lemire, ACM TOMACS 2019): the next 32-bit word
    w of the stream times the range r, drawn again while its low 32 bits fall below 2^32 mod r, and
    its high 32 bits are the draw.  A word is the low half of the stream's next output, whose high
    half the generator buffers as the word after it.
    """
    buffered, half, dims = 0, 0, []
    for low, bound in ((2, 7), (1, None), (1, 4)):
        bound = bound or dims[0]
        while True:
            if buffered:  # numpy keeps a used half word, marked used
                buffered, scaled = 0, half * bound
            else:
                state, word = _step(state, inc)
                buffered, half, scaled = 1, word >> 32, (word & MASK32) * bound
            if scaled & MASK32 >= (1 << 32) % bound:
                break
        dims.append(low + (scaled >> 32))
    return tuple(dims), (state, inc), (buffered, half)


def _restart(bit_generator: np.random.PCG64, state: Tuple[int, int], buffered: Tuple[int, int] = (0, 0)) -> None:
    """Put ``bit_generator`` at (state, inc) ``state`` of its stream, with the half word that 32-bit
    draws such as small ``integers`` leave behind, ``buffered`` (``has_uint32``, ``uinteger``); by
    default at the start of a stream, as a fresh ``PCG64`` has it."""
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state[0], "inc": state[1]},
        "has_uint32": buffered[0],
        "uinteger": buffered[1],
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
    """(accepted, V_i) per stack of families: normals ``(trials, width, 2, dim_h, dim_k)``, zero
    normals after a family's own up to the stack's width, and fractions ``(trials,)``.

    Each V_i becomes sqrt(1 - fraction) V_i S^{-1/2}, S = sum_i V_i* V_i.
    The Grams V_i* V_i of a stack are one ``@``, and each family's S is its
    Grams summed in map order, exactly 0.0 + G_1 + ... + G_n, then the zero
    Grams of its padding, which change no entry (a partial sum starting at
    0.0 + G_1 is never -0.0).  S is dim_k x dim_k whatever dim_h and the
    number of compressions are, so per codomain dimension dim_k the S of
    every stack go through one ``eigh`` and S^{-1/2} is one product.  The
    congruence is one ``@`` per stack.  ``accepted`` tells per family that S
    is nonsingular and conditioned well enough for a unital result
    (``tolerance``'s ``NORMALIZER_SINGULARITY_ABS`` and
    ``NORMALIZER_CONDITION_MAX``); the V_i of a rejected family, and those
    of the padding, mean nothing.  A stack of width 0, of lone trace maps,
    has nothing to normalise.
    """
    vss = [_ginibre(normals) for normals, _ in stacks]
    totals = [sum((v.conj().swapaxes(-1, -2) @ v).swapaxes(0, 1), 0.0) for v in vss]
    normalisers = {}
    for dim in {v.shape[-1] for v in vss if v.shape[1]}:
        ks = [k for k, v in enumerate(vss) if v.shape[1] and v.shape[-1] == dim]
        trials = [len(vss[k]) for k in ks]
        slices = [slice(stop - count, stop) for count, stop in zip(trials, accumulate(trials))]
        total = totals[ks[0]] if len(ks) == 1 else np.concatenate([totals[k] for k in ks])
        lam, u = np.linalg.eigh(total)
        accepted = (lam[:, 0] > NORMALIZER_SINGULARITY_ABS) & (lam[:, 0] > lam[:, -1] / NORMALIZER_CONDITION_MAX)
        lam = np.where(accepted[:, None], lam, 1.0)  # no square root of a rejected spectrum
        inv_sqrt = (u / np.sqrt(lam)[..., None, :]) @ u.conj().swapaxes(-1, -2)
        normalisers.update((k, (accepted[rows], inv_sqrt[rows])) for k, rows in zip(ks, slices))
    out = []
    for k, ((_, fraction), vs) in enumerate(zip(stacks, vss)):
        if k not in normalisers:
            out.append((np.ones(len(vs), dtype=bool), vs))
            continue
        accepted, inv_sqrt = normalisers[k]
        out.append((accepted, vs @ inv_sqrt[:, None] * np.sqrt(1.0 - fraction)[:, None, None, None]))
    return out


def _trace_weight(fraction, n_compressions, dim_h):
    """The weight of a family's trace map: fraction / dim_h, or 1 / dim_h when alone, which makes it
    unital; of one family, or elementwise of arrays of them."""
    return np.where(n_compressions > 0, fraction, 1.0) / dim_h


def _draw_family(n: int, dim_h: int, dim_k: int, include_trace: bool, rng: np.random.Generator):
    """(fraction, V_i) of a family of n maps: the normals ``(n_comp, 2, dim_h, dim_k)`` of its V_i,
    then its trace fraction, drawn again while ``_normalise`` rejects its normaliser, and V_i
    normalised alone, as a chunk of one; raises ``SingularNormalizer`` after ``NORMALIZER_ATTEMPTS``
    draws."""
    for _ in range(NORMALIZER_ATTEMPTS):
        normals = rng.standard_normal((n - 1 if include_trace else n, 2, dim_h, dim_k))
        fraction = float(rng.uniform(0.1, 0.4)) if include_trace else 0.0
        ((accepted, vs),) = _normalise([(normals[None], np.array([fraction]))])
        if accepted[0]:
            return fraction, vs[0]
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
    fraction, vs = _draw_family(n, dim_h, dim_k, include_trace, rng)
    maps = [Compression(v) for v in vs]
    if include_trace:
        maps.append(WeightedTrace(_trace_weight(fraction, len(vs), dim_h), dim_in=dim_h, dim_out=dim_k))
    return MapFamily(maps=tuple(maps))


def sample_trials(
    seeds: Sequence[int],
    pins: Sequence[bool],
    dims: Optional[Tuple[int, int, int]],
    bounds: SpectralBounds,
    mixed: bool,
) -> Tuple[List[Tuple[int, int, int]], List[OperatorStack]]:
    """Sample a chunk of trials, trial k from the stream of ``seeds[k]``: with ``dims``
    (dim_h, dim_k, n), or with None dims of its own (:func:`_vary_dims`), eigenvalues pinned where
    ``pins[k]``, and a trace map last in each family when ``mixed``.  Returns each trial's dims and
    the chunk's stacks (``core.stack_trials``' layout: per dim_h, then per dim_k, in order of first
    appearance, trials in chunk order)."""
    states = _pcg64_states(seeds)
    starts = [_vary_dims(*state) for state in states] if dims is None else [(dims, state, (0, 0)) for state in states]
    layout: Dict[int, Dict[int, List[int]]] = {}  # per dim_h, per dim_k: its trials
    for k, (dims_k, _, _) in enumerate(starts):
        layout.setdefault(dims_k[0], {}).setdefault(dims_k[1], []).append(k)
    # The chunk's trials in layout order, per dim_h, then per dim_k, each family stack a run of them
    order = [k for by_dim_k in layout.values() for ks in by_dim_k.values() for k in ks]
    sizes = [starts[k][0][2] for k in order]
    n_comp, slot = np.array(sizes) - mixed, np.arange(max(sizes))
    is_compression, is_trace = slot < n_comp[:, None], (slot == n_comp[:, None]) & mixed  # a trace map last
    fractions, weights = np.zeros(len(order)), np.zeros(is_trace.shape)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    uniform, standard_normal, m, M = rng.uniform, rng.standard_normal, bounds.m, bounds.M

    def draw_operators(k: int, lam: np.ndarray, normals: Optional[np.ndarray], rows: Sequence[int]) -> None:
        """Per operator of trial k, into its row: its eigenvalues, uniform on [m, M] (the first two m
        and M when pinned, at dim_h >= 2), then for dim_h >= 2 the normals of its eigenbasis."""
        dim, pinned = lam.shape[1], pins[k]
        for row in rows:
            lam[row] = uniform(m, M, dim)
            if normals is not None:
                if pinned:
                    lam[row, :2] = m, M
                standard_normal(out=normals[row])

    # Phase 1, straight into the stacks: per (dim_h, dim_k) the V_i normals (trials, maps, 2, dim_h,
    # dim_k), slot i for map i, and the trace fractions; per dim_h the eigenvalues and Ginibre normals
    # of its operators, one row each, at the rows its FamilyStack gives their slots.
    families, spectra = [], {}  # per family stack: dim_h, dim_k, its run of the layout, its stack, its normals
    rows, where = [None] * len(seeds), []  # per trial its operator rows; per layout place its stack and row
    positions, first = np.array(order), 0
    for dim_h, by_dim_k in layout.items():
        count = sum(sizes[first : first + sum(map(len, by_dim_k.values()))])
        lam, normals = np.empty((count, dim_h)), (np.empty((count, 2, dim_h, dim_h)) if dim_h >= 2 else None)
        spectra[dim_h], row = (lam, normals), 0
        for dim_k, ks in by_dim_k.items():
            run = slice(first, first + len(ks))
            width = max(sizes[run])
            masks = is_compression[run, :width], is_trace[run, :width]
            stack = FamilyStack(positions[run], None, weights[run, :width], *masks)
            v_normals = np.zeros((len(ks), width, 2, dim_h, dim_k))
            for j, (k, slot_rows) in enumerate(zip(ks, stack.rows())):
                size = sizes[first + j]
                _restart(bit_generator, *starts[k][1:])
                if size > mixed:
                    standard_normal(out=v_normals[j, : size - mixed])
                if mixed:
                    fractions[first + j] = uniform(0.1, 0.4)
                rows[k] = [row + r for r in slot_rows]
                draw_operators(k, lam, normals, rows[k])
            where += [(len(families), j) for j in range(len(ks))]
            families.append((dim_h, dim_k, run, stack, v_normals))
            first, row = run.stop, row + sum(sizes[run])

    # Phase 2.  A stack of lone trace maps has no normaliser; a family whose normaliser is rejected is
    # drawn again, with its operators, from a fresh copy of its stream and normalised alone.
    todo = [s for s, family in enumerate(families) if max(sizes[family[2]]) > mixed]
    compressions = {}
    accepted = np.ones(len(order), dtype=bool)
    for s, (ok, vs) in zip(todo, _normalise([(families[s][4], fractions[families[s][2]]) for s in todo])):
        accepted[families[s][2]], compressions[s] = ok, vs
    for place in np.flatnonzero(~accepted & (n_comp > 0)):
        (s, j), k = where[place], order[place]
        dim_h, dim_k = families[s][:2]
        _restart(bit_generator, *starts[k][1:])
        fractions[place], v = _draw_family(sizes[place], dim_h, dim_k, mixed, rng)
        compressions[s][j, : len(v)] = v
        draw_operators(k, *spectra[dim_h], rows[k])

    if mixed:
        weights[is_trace] = _trace_weight(fractions, n_comp, np.array([starts[k][0][0] for k in order]))
    stacks = {dim_h: OperatorStack(_hermitians(*spectra[dim_h]), []) for dim_h in layout}
    for s, (dim_h, dim_k, _, stack, v_normals) in enumerate(families):
        vs = compressions.get(s)
        if vs is None:  # lone trace maps
            vs = np.zeros(v_normals.shape[:2] + (dim_h, dim_k), dtype=np.complex128)
        stacks[dim_h].families.append(stack._replace(compressions=vs))
    return [start[0] for start in starts], list(stacks.values())
