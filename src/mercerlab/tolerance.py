"""The tolerance policy: every numerical threshold of the package, each with its reason.

Verdicts at the equality cases of the bounds (the interval endpoints, where
every 10th trial is forced) are decided by a tolerance, not by a clear sign.
A backward-stable symmetric eigensolver returns the exact eigenvalues of a
matrix within O(u ||X||) of X, so by Weyl's inequality each eigenvalue moves
by at most that much (Golub & Van Loan, *Matrix Computations*, section 8.1).
The thresholds on eigenvalues therefore scale with the size of their inputs,
as rel * (1 + |x_1| + ... + |x_k|) or rel * (1 + max |x|), with rel many
orders above u = 1.1e-16.  Each value keeps the float expression and
operation order it has always had, so no verdict or report moves by a bit.

The default PSD tolerance of a compared pair, ``tolerance_from_norms``, is
never below ``PSD_TOLERANCE_FLOOR`` = 1e-9, its value at zero norms: a
least eigenvalue at or above -1e-9 is ordered whatever the sides' norms
are, so they are solved only for a comparison that the floor cannot decide
(``linalg.LoewnerOrder``).
"""

from __future__ import annotations

import functools

import numpy as np

# U diag(v) U* built in floats is self-adjoint to a few ulps of max |X|; this allows 10^4 times that.
HERMITICITY_REL = 1e-12
# The sampler's S^-1/2 normalisation leaves sum_i Phi_i(I) - I at rounding; more is a family that is not unital.
UNITALITY_ABS = 1e-9
# Scalar Mercer weights that sum to 1 exactly sum to 1 in floats within a few ulps per weight.
WEIGHT_SUM_ABS = 1e-12
# The probe gap is a difference of O(1) doubles; a gap this small is rounding and its sign is 0.
PROBE_SIGN_ABS = 1e-12
# (log f)'' = f''/f - (f'/f)^2 cancels only to rounding for log-affine f (exp gives 1 - 1).
LOG_CONVEXITY_SLACK = 1e-10
# A zero of cos within rounding of an interval end (M = pi/2 as a float) lies at the end, not inside.
COSINE_ZERO_MARGIN = 1e-12
# Below this least eigenvalue of S = sum_i V_i* V_i, S^-1/2 would amplify rounding by 10^6: redraw.
NORMALIZER_SINGULARITY_ABS = 1e-12
# The unitality defect of V_i S^-1/2 measured about 0.6 eps cond(S), eps = 2.2e-16, so S is redrawn above
# this condition number too: the defect stays near 1.3e-10, inside UNITALITY_ABS.
NORMALIZER_CONDITION_MAX = 1e6


def _scaled_by_sum(rel: float, *values) -> float:
    """rel * (1 + |x_1| + ... + |x_k|), summed left to right."""
    total = 1.0
    for value in values:
        total = total + abs(value)
    return rel * total


def _scaled_by_max(rel: float, largest):
    """rel * (1 + max |x|), for ``largest`` = max |x| (a float or one per matrix)."""
    return rel * (1.0 + largest)


def hermiticity_tolerance(mat: np.ndarray) -> np.ndarray:
    """Allowed max |X - X*| of each matrix of a stack ``(..., d, d)``; see ``HERMITICITY_REL``."""
    return _scaled_by_max(HERMITICITY_REL, np.abs(mat).max(axis=(-2, -1)))


def clamp_tolerance(m: float, M: float) -> float:
    """Clamp band around [m, M]: eigenvalues of a sum of map images leave it by their rounding (Weyl)."""
    return _scaled_by_sum(1e-9, m, M)


def tolerance_from_norms(*norms):
    """PSD tolerance of a compared pair (one per trial for per-trial norms): the least
    eigenvalue of B - A is exact to O(u (||A|| + ||B||)) (Weyl)."""
    return _scaled_by_max(1e-9, functools.reduce(np.maximum, norms) if norms else 0.0)


# The least value of tolerance_from_norms: 1e-9 * (1 + n) rounds to no less than 1e-9 for any norm n >= 0.
PSD_TOLERANCE_FLOOR = tolerance_from_norms()


def sweep_tolerance(M: float, psi_M: float, psi_m: float) -> float:
    """PSD tolerance of a sweep, one per run: its sides have spectra in [m, M] or near psi's image (Weyl)."""
    return _scaled_by_sum(1e-9, M, psi_M, psi_m)


def inverse_roundtrip_tolerance(grid: np.ndarray) -> float:
    """Allowed max |g^-1(g(t)) - t| on the grid: a catalog inverse is exact to a few ulps of |t|."""
    return _scaled_by_max(1e-9, float(np.max(np.abs(grid))))


def composite_curvature_margin(alpha: float, beta: float) -> float:
    """kappa: convex if alpha >= -kappa, concave if beta <= kappa; over the sampled widening, so affine is both."""
    return 1e-5 * max(1.0, abs(alpha), abs(beta))


def inverse_domain_slack(lo: float, hi: float) -> float:
    """Distance a spectrum [lo, hi] keeps from a finite end of psi^-1's open domain, where log gives -inf."""
    return _scaled_by_sum(1e-12, lo, hi)


def curvature_widening(value: float) -> float:
    """Widening of a sampled bound on f'': its grid min and max miss extremes between the nodes."""
    return _scaled_by_sum(1e-6, value)
