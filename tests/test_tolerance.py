"""Every value of the tolerance policy equals, bit for bit, the inline
expression each module used before the policy had one owner."""

import functools

import numpy as np
import pytest

from mercerlab import tolerance as tp
from mercerlab.linalg import SpectralBounds
from mercerlab.sampling import generator

SEEDS = range(10)


def magnitudes(seed, size):
    """Signed values over seven decades, so that every operation order shows."""
    rng = generator(seed)
    return rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.integers(-3, 4, size)


def test_thresholds():
    assert tp.HERMITICITY_REL == 1e-12
    assert tp.UNITALITY_ABS == 1e-9
    assert tp.WEIGHT_SUM_ABS == 1e-12
    assert tp.PROBE_SIGN_ABS == 1e-12
    assert tp.LOG_CONVEXITY_SLACK == 1e-10
    assert tp.COSINE_ZERO_MARGIN == 1e-12
    assert tp.NORMALIZER_SINGULARITY_ABS == 1e-12
    assert tp.NORMALIZER_CONDITION_MAX == 1e6


@pytest.mark.parametrize("seed", SEEDS)
def test_interval_scaled_values(seed):
    a, b, c = magnitudes(seed, 3).tolist()
    lo, hi = sorted((a, b))
    assert tp.clamp_tolerance(lo, hi) == 1e-9 * (1.0 + abs(lo) + abs(hi))
    assert SpectralBounds(lo, hi).clamp_tol == 1e-9 * (1.0 + abs(lo) + abs(hi))
    assert tp.sweep_tolerance(a, b, c) == 1e-9 * (1.0 + abs(a) + abs(b) + abs(c))
    assert tp.inverse_domain_slack(a, b) == 1e-12 * (1.0 + abs(a) + abs(b))
    assert tp.curvature_widening(a) == 1e-6 * (1.0 + abs(a))
    assert tp.composite_curvature_margin(a, b) == 1e-5 * max(1.0, abs(a), abs(b))


@pytest.mark.parametrize("seed", SEEDS)
def test_norm_scaled_values(seed):
    mats = magnitudes(seed, (3, 4, 4)) + 1j * magnitudes(seed + 1000, (3, 4, 4))
    expected = 1e-12 * (1.0 + np.abs(mats).max(axis=(-2, -1)))
    assert tp.hermiticity_tolerance(mats).tobytes() == expected.tobytes()

    norms = [np.abs(row) for row in magnitudes(seed, (3, 5))]
    expected = 1e-9 * (1.0 + functools.reduce(np.maximum, norms))
    assert tp.tolerance_from_norms(*norms).tobytes() == expected.tobytes()
    scalars = [float(row[0]) for row in norms]
    assert tp.tolerance_from_norms(*scalars) == 1e-9 * (1.0 + functools.reduce(np.maximum, scalars))
    assert tp.tolerance_from_norms() == 1e-9 * (1.0 + 0.0)

    grid = np.linspace(*sorted(magnitudes(seed, 2).tolist()), 1000)
    assert tp.inverse_roundtrip_tolerance(grid) == 1e-9 * (1.0 + float(np.max(np.abs(grid))))
