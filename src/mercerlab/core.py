"""The spectral core of one instance: A_1..A_n decomposed once, shared by every chain and mean.

For a unital family Phi_1..Phi_n, operators A_1..A_n and an interval
[m, M], every side of the Mercer chains and of the quasi-arithmetic means is
assembled from a few objects per generator g:

* the images g(A_i), by clamped functional calculus on [m, M];
* the image sum T_g = sum_i Phi_i(g(A_i));
* the pre-mean (g(M) + g(m)) I - T_g;
* the diamond term in g-coordinates,
  (g(M)+g(m)) T_g - g(M)g(m) I - (T_g^2 + sum_i Phi_i(g(A_i)^2)) / 2;

plus, for the plain chains, S = sum_i Phi_i(A_i) and the plain diamond D
built from the raw A_i; the classic chain's right side is the pre-mean of
g = f.  ``SpectralCore`` eigendecomposes the A_i once, as
one stack ``(..., n, d, d)`` through ``spectral_decompose`` with its
Hermiticity check, and builds each of these objects from that basis on first
use.  Every object is the same numpy computation on the same input as a
one-shot evaluation, so reuse never moves a bit.  A core lives for one
instance: one trial, or one group of same-shape trials stacked along a
leading trial axis of the operators and of the family's maps.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .errors import ArityMismatch, HypothesisNotMet, SpectrumOutOfDomain
from .linalg import (
    HermitianOperator,
    SpectralBounds,
    SpectralDecomposition,
    apply_to_decomposition,
    spectral_decompose,
)
from .maps import MapFamily, family_sum, unitality_defect
from .tolerance import UNITALITY_ABS

_MISSING = object()


def per_map(stack: HermitianOperator) -> Tuple[HermitianOperator, ...]:
    """The operators of a stack ``(..., n, d, d)``, one per map, as views."""
    return tuple(HermitianOperator(stack.entries[..., i, :, :]) for i in range(stack.entries.shape[-3]))


def geometric_interpolant(lo: float, hi: float, v_lo: float, v_hi: float) -> Callable:
    """h(s) = v_lo^{(s-lo)/(hi-lo)} v_hi^{(hi-s)/(hi-lo)}, vectorized, for v_lo, v_hi > 0.

    The middle of the log-convex chain (h of S, with f's endpoint values) and
    of the log-convex mean sandwich (h of T_phi, with psi's) are both h of an
    operator, so each is one scalar functional calculus.
    """
    log_lo = math.log(v_lo)
    log_hi = math.log(v_hi)
    width = hi - lo

    def h(s):
        return np.exp(((s - lo) * log_lo + (hi - s) * log_hi) / width)

    return h


def _diamond_term(
    family: MapFamily,
    total: HermitianOperator,
    parts: HermitianOperator,
    lo: float,
    hi: float,
) -> HermitianOperator:
    """(hi + lo) T - hi lo I - (T^2 + sum_i Phi_i(X_i^2)) / 2 for T = sum_i Phi_i(X_i).

    ``parts`` is the stack of the X_i.  PSD whenever every X_i has spectrum
    in [lo, hi]: it averages (hi I - T)(T - lo I) and the images of
    (hi I - X_i)(X_i - lo I).
    """
    sq_total = family_sum(family, per_map(HermitianOperator(parts.entries @ parts.entries)))
    t_squared = HermitianOperator(total.entries @ total.entries)
    eye = HermitianOperator.identity(family.dim_out)
    return (hi + lo) * total - (hi * lo) * eye - 0.5 * (t_squared + sq_total)


class SpectralCore:
    """Memoised spectral objects of one (family, operators, bounds) instance.

    The operators, one per map, are kept as one stack ``(..., n, d, d)``
    and eigendecomposed on first use (``MercerInstance`` does so in its range
    check).  Objects are keyed by generator: two ``ScalarFunction`` values
    that compare equal share their entries.
    """

    def __init__(
        self,
        family: MapFamily,
        operators: Sequence[HermitianOperator],
        bounds: SpectralBounds,
    ):
        self.family = family
        self.operators = HermitianOperator(np.stack([a.entries for a in operators], axis=-3))
        self.bounds = bounds
        self._decomposition: SpectralDecomposition | None = None
        self._memo: Dict[object, object] = {}

    @property
    def decomposition(self) -> SpectralDecomposition:
        """Eigendecomposition of the whole operator stack, one ``eigh`` call."""
        if self._decomposition is None:
            self._decomposition = spectral_decompose(self.operators)
        return self._decomposition

    def cached(self, key, build: Callable[[], object]):
        """The value memoised under ``key``, built by ``build()`` on first use.

        A build that raises stores nothing, so a later call raises again.
        """
        value = self._memo.get(key, _MISSING)
        if value is _MISSING:
            value = self._memo[key] = build()
        return value

    def images(self, g) -> HermitianOperator:
        """The stack of g(A_i), clamp-checked on [m, M]."""
        return self.cached(
            ("images", g), lambda: apply_to_decomposition(g, self.decomposition, self.bounds)
        )

    def total(self, g) -> HermitianOperator:
        """T_g = sum_i Phi_i(g(A_i))."""
        return self.cached(("total", g), lambda: family_sum(self.family, per_map(self.images(g))))

    def pre_mean(self, g) -> HermitianOperator:
        """(g(M) + g(m)) I - T_g, the operand of g^{-1} in the quasi-arithmetic mean."""

        def build():
            total = self.total(g)
            gm = float(g(self.bounds.m))
            gM = float(g(self.bounds.M))
            return (gM + gm) * HermitianOperator.identity(self.family.dim_out) - total

        return self.cached(("pre_mean", g), build)

    def diamond(self, g) -> HermitianOperator:
        """The diamond term in g-coordinates."""

        def build():
            total = self.total(g)
            return _diamond_term(
                self.family, total, self.images(g), float(g(self.bounds.m)), float(g(self.bounds.M))
            )

        return self.cached(("diamond", g), build)

    def image_sum(self) -> HermitianOperator:
        """S = sum_i Phi_i(A_i) of the raw operators."""
        return self.cached("image_sum", lambda: family_sum(self.family, per_map(self.operators)))

    def diamond_plain(self) -> HermitianOperator:
        """The plain diamond D, built from S and the raw A_i (not from id(A_i))."""
        return self.cached(
            "diamond_plain",
            lambda: _diamond_term(
                self.family, self.image_sum(), self.operators, self.bounds.m, self.bounds.M
            ),
        )


def checked_core(
    family: MapFamily,
    operators: Sequence[HermitianOperator],
    bounds: SpectralBounds,
) -> SpectralCore:
    """The core of an instance whose hypotheses hold: one operator per map, a
    unital family, every spectrum in [m, M] up to the clamp band, checked in
    that order and per trial; the range check's decomposition stays in the core."""
    if len(operators) != family.size:
        raise ArityMismatch(f"{family.size} maps but {len(operators)} operators")
    defects = unitality_defect(family)
    non_unital = defects > UNITALITY_ABS
    if non_unital.any():
        raise HypothesisNotMet(f"map family is not unital (defect {defects[non_unital][0]:.3e})")
    core = SpectralCore(family, operators, bounds)
    lam = core.decomposition.eigenvalues
    outside = bounds.outside(lam)
    if outside.any():
        i = int(np.argmax(outside.reshape(-1))) % family.size
        lo, hi = lam[outside][0, [0, -1]]
        raise SpectrumOutOfDomain(
            f"operator {i} has spectrum [{lo:.12g}, {hi:.12g}] outside "
            f"[{bounds.m:.12g}, {bounds.M:.12g}]"
        )
    return core
