"""Seeded random instance generation.

The PRNG is numpy's PCG64; a generator seeded with the same 64-bit integer
reproduces the same stream bit for bit, which is what makes every violation
replayable.  Reference raw outputs of the stream are listed in the README so
that other implementations can cross-check their seeding.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularNormalizer
from .linalg import HermitianOperator, SpectralBounds, SpectralDecomposition
from .maps import Compression, MapFamily, WeightedTrace
from .tolerance import NORMALIZER_SINGULARITY_ABS

MASK64 = (1 << 64) - 1
NORMALIZER_ATTEMPTS = 100


def generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed & MASK64))


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Per-trial seed: master XOR trial index (64-bit)."""
    return (master_seed ^ trial_index) & MASK64


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR of a complex Ginibre matrix.

    The R-diagonal phases are folded into Q so the distribution is exactly
    Haar rather than QR-convention dependent.
    """
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_hermitian(
    dim: int,
    bounds: SpectralBounds,
    rng: np.random.Generator,
    force_endpoints: bool = False,
) -> HermitianOperator:
    """Random Hermitian matrix with eigenvalues uniform on [m, M].

    With ``force_endpoints`` (and dim >= 2) two eigenvalues are pinned to
    exactly m and M; the equality cases of the Mercer bounds live at the
    endpoints and uniform sampling alone never lands on them.
    """
    lam = rng.uniform(bounds.m, bounds.M, size=dim)
    if force_endpoints and dim >= 2:
        lam[0] = bounds.m
        lam[1] = bounds.M
    if dim == 1:
        return HermitianOperator(np.array([[lam[0]]], dtype=np.complex128))
    mat = SpectralDecomposition(lam, haar_unitary(dim, rng)).reconstruct()
    return HermitianOperator(0.5 * (mat + mat.conj().T))


def random_unital_family(
    n: int,
    dim_h: int,
    dim_k: int,
    rng: np.random.Generator,
    include_trace: bool = False,
) -> MapFamily:
    """Draw n positive maps and normalize so that sum_i Phi_i(I) = I.

    Compressions are normalized by the congruence with S^{-1/2},
    S = sum_i V_i* V_i, which gives exact unitality without rejection
    sampling.  With ``include_trace`` one map is a weighted trace whose
    weight takes a random fraction of the identity, the compressions
    absorbing the rest.  Raises ``SingularNormalizer`` when S stays
    numerically singular for ``NORMALIZER_ATTEMPTS`` draws (e.g. dim_k > n * dim_h).
    """
    n_comp = n - 1 if include_trace else n
    for _ in range(NORMALIZER_ATTEMPTS):
        vs = [
            (rng.standard_normal((dim_h, dim_k)) + 1j * rng.standard_normal((dim_h, dim_k)))
            / np.sqrt(2.0)
            for _ in range(n_comp)
        ]
        trace_fraction = float(rng.uniform(0.1, 0.4)) if include_trace else 0.0
        if n_comp == 0:
            # A lone trace map is unital exactly when w = 1 / dim_h.
            return MapFamily(maps=(WeightedTrace(1.0 / dim_h, dim_in=dim_h, dim_out=dim_k),))
        s = sum(v.conj().T @ v for v in vs)
        lam, u = np.linalg.eigh(s)
        if float(lam[0]) <= NORMALIZER_SINGULARITY_ABS:
            continue
        inv_sqrt = (u / np.sqrt(lam)) @ u.conj().T
        scale = np.sqrt(1.0 - trace_fraction)
        maps: list = [Compression(v @ inv_sqrt * scale) for v in vs]
        if include_trace:
            maps.append(WeightedTrace(trace_fraction / dim_h, dim_in=dim_h, dim_out=dim_k))
        return MapFamily(maps=tuple(maps))
    raise SingularNormalizer(
        f"no nonsingular normalizer in {NORMALIZER_ATTEMPTS} draws (n={n}, dim_h={dim_h}, dim_k={dim_k})"
    )
