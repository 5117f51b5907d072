"""Quasi-arithmetic operator means of Mercer type and their refinements.

For a strictly monotone generator g on [m, M] the mean of a unital family
and operators A_1..A_n is

    QM_g(A, Phi) = g^{-1}( (g(M) + g(m)) I - sum_i Phi_i(g(A_i)) ).

Two generators are compared through the composite psi o phi^{-1} on the
phi-image interval: convexity of the composite (with an operator-monotone
psi^{-1}) orders the means, curvature bounds of the composite tighten the
ordering through the diamond correction term, and log-convexity of the
composite inserts a geometric interpolant between the means.

Every mean and bound is an operand of ``core.FamilySums`` taken through an
inverse from the one resolved ``QuasiArithmeticSpec``: QM_g is ``mean(g,
g^{-1})``, the curvature bound psi^{-1} of ``refined(psi, phi, c)`` and the
sandwich's middle psi^{-1} of ``geometric(phi, psi(m), psi(M))``.
``MEAN_CHECKS`` is the table of the four checks a sweep makes of them (the
mean order, both sides of the curvature bound, the log-convex sandwich), in
report order, rows of ``core.Check`` as a chain's pairs are: per check, the
relation it asserts for a resolved spec, or None, and the pairs of sides it
compares.  ``compare_means`` builds the sides a stack's applicable checks
read, their independent spectra in one ``FamilySums.decompose`` (the
middle's psi^{-1}, of h(T_phi), in its own), and compares every pair in one
``linalg.loewner_orders`` call, as a chain's pairs are compared; the sweep
judges them with ``core.judge``, as verify does.  Every check reads the sums
``core.operand_sums(phi, psi)``, which a sweep's stage 1 builds whichever
checks apply.

``resolve_spec`` evaluates each grid of a sweep's set-up once.

Orientation: when a generator is strictly decreasing, its image interval is
re-ordered before any chord or curvature machinery runs; all displayed
formulas are symmetric under swapping the endpoint images, so only interval
orientation needs care.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import HypothesisNotMet, InvalidInterval, InverseDomainError
from .functions import (
    CURVATURE_GRID_POINTS,
    CurvatureBounds,
    ScalarFunction,
    inverse_entry,
    log_convex_on_grid,
    positive_on_grid,
    require_finite,
    sampled_curvature,
)
from .core import Check, FamilySums, endpoint_values, image_interval, operand_sums, trial_sums
from .linalg import (
    Frozen,
    HermitianOperator,
    LoewnerOrder,
    Relation,
    SpectralBounds,
    SpectralDecomposition,
    apply_to_decomposition,
    loewner_orders,
    spectral_decompose,
)
from .maps import MapFamily
from .tolerance import PROBE_SIGN_ABS, composite_curvature_margin, inverse_domain_slack, inverse_roundtrip_tolerance

MONOTONICITY_GRID_POINTS = 1000
MEAN_GRID_POINTS = 256

ALPHA_SIDE = "alpha_lower_refined"
BETA_SIDE = "beta_reversed"


def _require_strictly_monotone(g: ScalarFunction, bounds: SpectralBounds, n: int) -> np.ndarray:
    """g on an n-point grid of [m, M], validated finite and strictly monotone there."""
    if not g.domain_contains_interval(bounds):
        raise InvalidInterval(
            f"[{bounds.m}, {bounds.M}] not inside the domain of {g.label()}"
        )
    values = require_finite(g, bounds, n)
    steps = np.diff(values)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise InvalidInterval(f"{g.label()} is not strictly monotone on [{bounds.m}, {bounds.M}]")
    return values


def _composite_on_grid(
    psi: ScalarFunction, phi: ScalarFunction, phi_inverse: ScalarFunction, interval: SpectralBounds
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi o phi^{-1}, psi'/phi' and (psi'' phi' - psi' phi'') / phi'^3 at x = phi^{-1}(u) on the
    grid of the phi-image ``interval``, from one evaluation of each; overflow stays in, unwarned."""
    if phi.derivative is None or phi.second_derivative is None:
        raise InverseDomainError(f"{phi.label()} has no usable inverse/derivatives")
    if psi.derivative is None or psi.second_derivative is None:
        raise InverseDomainError(f"{psi.label()} has no usable derivatives")
    with np.errstate(all="ignore"):
        x = phi_inverse.fn(np.linspace(interval.m, interval.M, CURVATURE_GRID_POINTS))
        values = np.asarray(psi.fn(x), dtype=float)
        d_psi = np.asarray(psi.derivative(x), dtype=float)
        dp = np.asarray(phi.derivative(x), dtype=float)
        second = (
            np.asarray(psi.second_derivative(x), dtype=float) * dp
            - d_psi * np.asarray(phi.second_derivative(x), dtype=float)
        ) / dp**3
        return values, d_psi / dp, second


class QuasiArithmeticSpec(Frozen):
    """A resolved generator pair: composite analysis and the catalog inverses of both
    generators, whose flags give the direction of psi^{-1}."""

    __slots__ = (
        "phi", "psi", "bounds", "phi_interval", "composite_curvature", "composite_is_convex",
        "composite_is_concave", "composite_is_log_convex", "phi_inverse", "psi_inverse",
    )

    def __init__(
        self,
        phi: ScalarFunction,
        psi: ScalarFunction,
        bounds: SpectralBounds,
        phi_interval: SpectralBounds,
        composite_curvature: CurvatureBounds,
        composite_is_convex: bool,
        composite_is_concave: bool,
        composite_is_log_convex: bool,
        phi_inverse: ScalarFunction,
        psi_inverse: ScalarFunction,
    ):
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "phi_interval", phi_interval)
        object.__setattr__(self, "composite_curvature", composite_curvature)
        object.__setattr__(self, "composite_is_convex", composite_is_convex)
        object.__setattr__(self, "composite_is_concave", composite_is_concave)
        object.__setattr__(self, "composite_is_log_convex", composite_is_log_convex)
        object.__setattr__(self, "phi_inverse", phi_inverse)
        object.__setattr__(self, "psi_inverse", psi_inverse)


def resolve_spec(phi: ScalarFunction, psi: ScalarFunction, bounds: SpectralBounds) -> QuasiArithmeticSpec:
    """Validate a generator pair on [m, M] and precompute composite metadata.

    Checks strict monotonicity of both generators on a dense grid and the
    inverse round trip g^{-1}(g(t)) = t to ``tolerance.inverse_roundtrip_tolerance``
    from one evaluation of each generator, phi first; classifies the composite
    as convex/concave from its sampled curvature bounds (margin
    ``tolerance.composite_curvature_margin``) and decides its log-convexity
    from one evaluation on its grid (:func:`_composite_on_grid`).
    """
    grid = np.linspace(bounds.m, bounds.M, MONOTONICITY_GRID_POINTS)
    inverses = []
    for g in (phi, psi):
        values = _require_strictly_monotone(g, bounds, MONOTONICITY_GRID_POINTS)
        entry = inverse_entry(g)
        if entry is None:
            raise InverseDomainError(f"{g.label()} has no inverse evaluator")
        with np.errstate(all="ignore"):
            roundtrip = np.asarray(entry.fn(values), dtype=float)
        defect = float(np.max(np.abs(roundtrip - grid)))
        if not np.all(np.isfinite(roundtrip)) or defect > inverse_roundtrip_tolerance(grid):
            raise InverseDomainError(
                f"inverse round trip of {g.label()} fails on [{bounds.m}, {bounds.M}] "
                f"(defect {defect:.3e})"
            )
        inverses.append(entry)

    phi_interval = image_interval(phi, bounds)
    values, first, second = _composite_on_grid(psi, phi, inverses[0], phi_interval)
    curv = sampled_curvature(second)
    if math.isnan(curv.alpha) or math.isnan(curv.beta):
        interval = f"[{bounds.m:.12g}, {bounds.M:.12g}]"
        raise InvalidInterval(f"the curvature of {psi.label()} o {phi.label()}^-1 is NaN on its grid over {interval}")
    kappa = composite_curvature_margin(curv.alpha, curv.beta)
    is_convex = curv.alpha >= -kappa
    is_concave = curv.beta <= kappa

    psi_m, psi_M = endpoint_values(psi, bounds)
    is_log_convex = False
    if psi_m > 0.0 and psi_M > 0.0 and positive_on_grid(values):
        with np.errstate(all="ignore"):
            is_log_convex = log_convex_on_grid(values, first, second)

    phi_inv, psi_inv = inverses
    return QuasiArithmeticSpec(
        phi=phi,
        psi=psi,
        bounds=bounds,
        phi_interval=phi_interval,
        composite_curvature=curv,
        composite_is_convex=is_convex,
        composite_is_concave=is_concave,
        composite_is_log_convex=is_log_convex,
        phi_inverse=phi_inv,
        psi_inverse=psi_inv,
    )


# --------------------------------------------------------------------------
# The mean and its refinements
# --------------------------------------------------------------------------

def inverse_of_decomposition(
    entry: ScalarFunction, dec: SpectralDecomposition
) -> Tuple[HermitianOperator, np.ndarray, Optional[InverseDomainError]]:
    """entry of each matrix of a decomposed stack whose spectrum stays inside entry's domain.

    Returns (the images of those matrices, in order; the mask of them; the
    error of the first matrix outside, in C order, or None).  A matrix
    outside is never passed to entry.  The one decomposition serves both
    the range check and the functional calculus.
    """
    lo, hi = dec.eigenvalues[..., 0], dec.eigenvalues[..., -1]
    dlo, dhi = entry.natural_domain
    slack = inverse_domain_slack(lo, hi)
    outside = np.zeros(lo.shape, dtype=bool)
    if math.isfinite(dlo):
        outside |= lo <= dlo + slack
    if math.isfinite(dhi):
        outside |= hi >= dhi - slack
    inside, error = ~outside, None
    if outside.any():
        lo, hi = lo[outside][0], hi[outside][0]
        error = InverseDomainError(
            f"operand spectrum [{lo:.12g}, {hi:.12g}] leaves the domain of {entry.label()}"
        )
        dec = SpectralDecomposition(dec.eigenvalues[inside], dec.eigenvectors[inside])
    return apply_to_decomposition(entry, dec), inside, error


def inverse_within_domain(entry: ScalarFunction, operand: HermitianOperator) -> HermitianOperator:
    """entry(operand) for an operand (or stack) inside entry's domain; else
    the ``InverseDomainError`` of :func:`inverse_of_decomposition`."""
    image, _, error = inverse_of_decomposition(entry, spectral_decompose(operand))
    if error is not None:
        raise error
    return image


def mercer_quasi_mean(
    phi: ScalarFunction,
    family: MapFamily,
    operators: Sequence[HermitianOperator],
    bounds: SpectralBounds,
) -> HermitianOperator:
    """phi^{-1}((phi(M) + phi(m)) I - sum_i Phi_i(phi(A_i))), the operand ``mean(phi, phi^{-1})``
    of the trial's family sums: phi^{-1} of the pre-mean, whose spectrum lies in phi([m, M]).

    Before the sums, phi must be strictly monotone on a grid of [m, M] (else
    ``InvalidInterval``) and have a catalog inverse (else ``InverseDomainError``).
    """
    _require_strictly_monotone(phi, bounds, MEAN_GRID_POINTS)
    inverse = inverse_entry(phi)
    if inverse is None:
        raise InverseDomainError(f"{phi.label()} has no inverse evaluator")
    return trial_sums(family, operators, bounds, [(phi, False)]).mean(phi, inverse)


def predicted_mean_relation(spec: QuasiArithmeticSpec) -> Relation:
    """Direction of QM_phi vs QM_psi asserted by the convexity case analysis.

    Affinely related generators give Equal; otherwise a convex composite with
    operator-increasing psi^{-1} (or concave with decreasing) gives
    LessEqual, and the two crossed cases give GreaterEqual.  Raises
    ``HypothesisNotMet`` when no case applies.
    """
    if spec.composite_is_convex and spec.composite_is_concave:
        return Relation.EQUAL
    if spec.psi_inverse.operator_monotone:
        if spec.composite_is_convex:
            return Relation.LESS_EQUAL
        if spec.composite_is_concave:
            return Relation.GREATER_EQUAL
    if spec.psi_inverse.operator_decreasing:
        if spec.composite_is_concave:
            return Relation.LESS_EQUAL
        if spec.composite_is_convex:
            return Relation.GREATER_EQUAL
    raise HypothesisNotMet(
        f"no ordering case applies to ({spec.phi.label()}, {spec.psi.label()}): "
        f"composite convex={spec.composite_is_convex} concave={spec.composite_is_concave}, "
        f"psi^-1 increasing={spec.psi_inverse.operator_monotone} decreasing={spec.psi_inverse.operator_decreasing}"
    )


def diamond_phi(
    phi: ScalarFunction,
    family: MapFamily,
    operators: Sequence[HermitianOperator],
    bounds: SpectralBounds,
) -> HermitianOperator:
    """The curvature correction in phi-coordinates:

        (phi(M)+phi(m)) T - phi(M)phi(m) I - (T^2 + sum_i Phi_i(phi(A_i)^2)) / 2

    with T = sum_i Phi_i(phi(A_i)); coincides with the plain correction term
    when phi is the identity, and is PSD for the same reason.
    """
    return trial_sums(family, operators, bounds, [(phi, False), (phi, True)]).diamond(phi)


def curvature_mean_bound(
    spec: QuasiArithmeticSpec,
    family: MapFamily,
    operators: Sequence[HermitianOperator],
    side: str = ALPHA_SIDE,
    curvature: CurvatureBounds | None = None,
) -> HermitianOperator:
    """psi^{-1}( psi(QM_psi) - c * diamond ) with c the composite curvature bound, on spec's interval:
    psi^{-1} of the operand ``refined(psi, phi, c)`` of the trial's family sums.

    ``side`` selects c: the alpha side (curvature floor) bounds QM_phi from
    above when psi^{-1} is operator increasing, the beta side reverses the
    inequality.  With an operator-decreasing psi^{-1} both directions flip;
    see :func:`curvature_bound_expected_relation`.  After the trial's checks,
    raises ``ValueError`` for another side and ``HypothesisNotMet`` unless
    psi^{-1} is flagged operator monotone.
    """
    core = trial_sums(family, operators, spec.bounds, operand_sums(spec.phi, spec.psi))
    if side not in (ALPHA_SIDE, BETA_SIDE):
        raise ValueError(f"side must be {ALPHA_SIDE!r} or {BETA_SIDE!r}, got {side!r}")
    if curvature_bound_expected_relation(spec, side) is None:
        raise HypothesisNotMet(
            f"psi^-1 = {spec.psi_inverse.label()} is not flagged operator monotone"
        )
    c = _side_curvature(curvature or spec.composite_curvature, side)
    return inverse_within_domain(spec.psi_inverse, core.refined(spec.psi, spec.phi, c))


def _side_curvature(curv: CurvatureBounds, side: str) -> float:
    """The c of a curvature side: the floor alpha on the alpha side, the ceiling beta on the beta side."""
    return curv.alpha if side == ALPHA_SIDE else curv.beta


def curvature_bound_expected_relation(spec: QuasiArithmeticSpec, side: str) -> Optional[Relation]:
    """Expected Loewner relation of QM_phi versus the curvature bound, None
    unless psi^{-1} is operator monotone (the bound's hypothesis).

    The alpha side asserts QM_phi <= bound and the beta side the reverse,
    flipped when psi^{-1} is operator decreasing; a sweep report records the
    flip as ``reversal_applied``.
    """
    if not (spec.psi_inverse.operator_monotone or spec.psi_inverse.operator_decreasing):
        return None
    below = side == ALPHA_SIDE
    if spec.psi_inverse.operator_decreasing:
        below = not below
    return Relation.LESS_EQUAL if below else Relation.GREATER_EQUAL


# --------------------------------------------------------------------------
# The mean checks of a sweep
# --------------------------------------------------------------------------

def _mean_order_relation(spec: QuasiArithmeticSpec) -> Optional[Relation]:
    try:
        return predicted_mean_relation(spec)
    except HypothesisNotMet:
        return None


def _sandwich_relation(spec: QuasiArithmeticSpec) -> Optional[Relation]:
    """LessEqual when psi is positive at m and M, psi o phi^-1 log-convex and psi^-1
    operator increasing, the sandwich's hypotheses; else None."""
    psi_m, psi_M = endpoint_values(spec.psi, spec.bounds)
    if psi_m > 0.0 and psi_M > 0.0 and spec.composite_is_log_convex and spec.psi_inverse.operator_monotone:
        return Relation.LESS_EQUAL
    return None


# The sides a mean check compares: both means, the curvature bound of each side
# (labelled by the side) and the sandwich's geometric middle.
QM_PHI, QM_PSI, MIDDLE = "qm_phi", "qm_psi", "middle"

# The rows of a sweep, in report order: per row, the relation its pairs assert for the resolved
# spec, or None when its hypotheses fail.  A trial's gap is the least of its pairs' (``core.judge``).
MEAN_CHECKS: Dict[str, Check] = {
    "mean_order": Check(_mean_order_relation, ((QM_PHI, QM_PSI),)),
    "curvature_bound_alpha": Check(
        partial(curvature_bound_expected_relation, side=ALPHA_SIDE), ((QM_PHI, ALPHA_SIDE),)
    ),
    "curvature_bound_beta": Check(
        partial(curvature_bound_expected_relation, side=BETA_SIDE), ((QM_PHI, BETA_SIDE),)
    ),
    "log_convex_sandwich": Check(_sandwich_relation, ((QM_PHI, MIDDLE), (MIDDLE, QM_PSI))),
}


def compare_means(
    spec: QuasiArithmeticSpec, rows: Sequence[Tuple[Check, Relation]], core: FamilySums, tol: float
) -> Tuple[Dict[Tuple[str, str], LoewnerOrder], Dict[str, np.ndarray]]:
    """The comparison, at tolerance ``tol``, of every pair of ``rows`` (the judged rows of
    ``MEAN_CHECKS`` with their relations) on a stage-1 stack ``core``, and the mask per
    curvature side of the trials whose operand stays inside the domain of psi^{-1}.

    The sides are operands of ``core``, each built once however many rows
    read it: QM_phi and QM_psi, ``mean(g, g^{-1})``, first; the bound of a
    curvature side, psi^{-1} of ``refined(psi, phi, c)``, where QM_phi itself
    stands in (a difference of exactly 0) for a trial whose operand leaves the
    domain of psi^{-1}, a domain skip of every row that reads the bound; the
    sandwich's middle

        psi^{-1}( psi(m)^{(T - phi(m)I)/(phi(M)-phi(m))} psi(M)^{(phi(M)I - T)/(phi(M)-phi(m))} )

    with T = sum_i Phi_i(phi(A_i)), psi^{-1} of one functional calculus of T,
    ``geometric``.  The independent spectra, of both pre-means, of the
    applicable refined operands and of T, are solved in one
    ``FamilySums.decompose``; only the middle's psi^{-1}, of h(T), needs its
    own.  Every pair of every row is compared in one ``loewner_orders`` call.
    """
    pairs = [pair for check, _ in rows for pair in check.pairs]
    labels = list(dict.fromkeys(label for pair in pairs for label in pair))
    refined = {
        label: ("refined", spec.psi, spec.phi, _side_curvature(spec.composite_curvature, label))
        for label in labels if label in (ALPHA_SIDE, BETA_SIDE)
    }
    middle = [("sum", spec.phi)] if MIDDLE in labels else []
    core.decompose(("pre_mean", spec.phi), ("pre_mean", spec.psi), *refined.values(), *middle)
    qm_phi = core.mean(spec.phi, spec.phi_inverse)
    sides = {QM_PHI: qm_phi, QM_PSI: core.mean(spec.psi, spec.psi_inverse)}
    inside: Dict[str, np.ndarray] = {}
    for label in labels:
        if label in refined:
            (dec,) = core.decompose(refined[label])
            bound, inside[label], _ = inverse_of_decomposition(spec.psi_inverse, dec)
            entries = qm_phi.entries.copy()
            entries[inside[label]] = bound.entries
            sides[label] = HermitianOperator(entries)
        elif label == MIDDLE:
            operand = core.geometric(spec.phi, *endpoint_values(spec.psi, spec.bounds))
            sides[label] = inverse_within_domain(spec.psi_inverse, operand)
    orders = loewner_orders([(sides[left], sides[right]) for left, right in pairs], tol) if pairs else []
    return dict(zip(pairs, orders)), inside


# --------------------------------------------------------------------------
# Incomparability of the two refinement routes
# --------------------------------------------------------------------------

class ProbeRow(Frozen):
    """One (t, p) of :func:`incomparability_probe`: the gap and its sign (0 within ``PROBE_SIGN_ABS``)."""

    __slots__ = ("t", "p", "gap", "sign")

    def __init__(self, t: float, p: float, gap: float, sign: int):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "gap", gap)
        object.__setattr__(self, "sign", sign)


def incomparability_probe(
    m: float,
    M: float,
    p_values: Sequence[float],
    t_grid: Sequence[float],
) -> List[ProbeRow]:
    """Sign table of the curvature-refined minus geometric bound gap for t^p.

    A sign change across rows demonstrates that neither refinement route
    dominates the other.
    """
    from .functions import refined_vs_geometric_gap

    rows: List[ProbeRow] = []
    for p in p_values:
        for t in t_grid:
            gap = refined_vs_geometric_gap(float(t), float(m), float(M), float(p))
            sign = 0 if abs(gap) <= PROBE_SIGN_ABS else (1 if gap > 0 else -1)
            rows.append(ProbeRow(t=float(t), p=float(p), gap=gap, sign=sign))
    return rows
