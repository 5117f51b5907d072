"""Operator Jensen-Mercer inequality chains.

Evaluates every side of the Mercer-type chains as a concrete Hermitian
operator and renders PSD-order verdicts:

* classic:      f((M+m)I - S)  <=  (f(M)+f(m))I - sum_i Phi_i(f(A_i))
* chain:        the same with the reflected chord of f at S interpolated
* twice_diff:   curvature-corrected two-sided bounds for alpha <= f'' <= beta
* log_convex:   the geometric interpolant for positive log-convex f

where S = sum_i Phi_i(A_i).  The curvature correction term

    D = (M+m) S - Mm I - (S^2 + sum_i Phi_i(A_i^2)) / 2

is PSD whenever all spectra sit in [m, M], which makes the corrected bounds
genuine refinements for convex f (alpha >= 0).  A chain is the
quasi-arithmetic mean machinery with phi = id: every side but the chord is
an operand of ``core.FamilySums`` with g = None for the raw A_i.  A
chain's hypothesis gate depends on f and [m, M] only: ``evaluate_chain``
and a suite run it once, before any side, and ``evaluate_trials`` takes
its scalars, so it keeps no state between stacks.  Each compared pair of a
chain is a one-pair row of ``core.Check``, as the sweep's checks are, whose
relation the gate's scalars decide: always left <= right, only for
alpha >= 0, or none (compared for the report, never judged).
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import BadWeights, HypothesisNotMet, OutOfInterval
from .core import Check, FamilySums, endpoint_values, operand_sums, trial_sums
from .functions import CurvatureBounds, ScalarFunction, curvature_bounds, is_log_convex_on
from .linalg import Frozen, HermitianOperator, LoewnerOrder, Relation, SpectralBounds, loewner_orders
from .maps import MapFamily
from .tolerance import WEIGHT_SUM_ABS


class MercerInstance(Frozen):
    """One trial of the inequality chains: f, a unital family, operators (one per map), [m, M].

    ``core`` holds the trial's family sums of the objects ``operand_sums(None, f)``,
    built and checked at construction by ``core.trial_sums`` (in ``__post_init__``,
    which ``__init__`` calls), so f is evaluated there, on the spectra clamped
    onto [m, M].  Every side is an operand of ``core`` (see :func:`evaluate_trials`).
    A suite builds the same sums for a whole chunk of trials in ``core.stage_one``.
    """

    __slots__ = ("f", "family", "operators", "bounds", "core")

    def __init__(
        self, f: ScalarFunction, family: MapFamily, operators: Tuple[HermitianOperator, ...], bounds: SpectralBounds
    ):
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "operators", operators)
        object.__setattr__(self, "bounds", bounds)
        self.__post_init__()

    def __post_init__(self):
        core = trial_sums(self.family, self.operators, self.bounds, operand_sums(None, self.f))
        object.__setattr__(self, "core", core)


class InequalityReport(Frozen):
    """Named operator sides, the Loewner comparison of each compared pair, and the gate's scalars.

    ``sides`` are keyed by label in the chain's side order, ``orders`` by
    (left, right) in its pair order; each is a stack with one matrix per
    trial, or one matrix for a report of one trial (:func:`evaluate_chain`).
    """

    __slots__ = ("sides", "orders", "scalars")

    def __init__(
        self,
        sides: Dict[str, HermitianOperator],
        orders: Dict[Tuple[str, str], LoewnerOrder],
        scalars: Dict[str, float],
    ):
        object.__setattr__(self, "sides", sides)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "scalars", scalars)

    def side(self, label: str) -> HermitianOperator:
        return self.sides[label]

    def to_json(self) -> dict:
        """The report of one trial, with the diamond pair's gap among the scalars."""
        verdicts = {pair: order.verdict() for pair, order in self.orders.items()}
        scalars = {**self.scalars, "diamond_min_eigenvalue": verdicts["zero", "diamond"].gap_min_eigenvalue}
        return {
            "sides": [{"label": name, "matrix": op.to_json()} for name, op in self.sides.items()],
            "verdicts": [{"pair": list(pair), **verdict.to_json()} for pair, verdict in verdicts.items()],
            "scalars": {key: scalars[key] for key in sorted(scalars)},
        }


# --------------------------------------------------------------------------
# Scalar Mercer inequality
# --------------------------------------------------------------------------

def scalar_mercer_check(
    f: ScalarFunction,
    weights: Sequence[float],
    xs: Sequence[float],
    bounds: SpectralBounds,
) -> Tuple[float, float]:
    """Both sides of the scalar Mercer inequality
    f(M + m - sum w_i x_i) <= f(M) + f(m) - sum w_i f(x_i)."""
    w = np.asarray(weights, dtype=float)
    x = np.asarray(xs, dtype=float)
    if w.shape != x.shape or w.ndim != 1:
        raise BadWeights(f"weights shape {w.shape} does not match points shape {x.shape}")
    if np.any(w < 0) or abs(float(w.sum()) - 1.0) > WEIGHT_SUM_ABS:
        raise BadWeights(f"weights must be nonnegative and sum to 1, got sum {w.sum()!r}")
    if bounds.outside(np.sort(x)):
        raise OutOfInterval(f"points {x.tolist()} leave [{bounds.m}, {bounds.M}]")
    lhs = float(f(bounds.M + bounds.m - float(w @ x)))
    rhs = float(f(bounds.M)) + float(f(bounds.m)) - float(w @ np.asarray(f(x), dtype=float))
    return lhs, rhs


# --------------------------------------------------------------------------
# Operator sides
# --------------------------------------------------------------------------

# Every side is an operand of the family sums ``operand_sums(None, f)``: the public
# forms below read it from an instance's core, the chains from a stack.

def mercer_lhs(inst: MercerInstance) -> HermitianOperator:
    """f((M+m) I - S) via functional calculus; m I <= (M+m) I - S <= M I."""
    return inst.core.mean(None, inst.f)


def mercer_rhs_classic(inst: MercerInstance) -> HermitianOperator:
    """(f(M) + f(m)) I - sum_i Phi_i(f(A_i)), the pre-mean of the mean with generator f."""
    return inst.core.pre_mean(inst.f)


def _chord(f: ScalarFunction, bounds: SpectralBounds, s: HermitianOperator) -> HermitianOperator:
    """The chain's middle, the reflected chord of f evaluated at S:
    (f(M)+f(m)) I + (S - M I) f(m)/(M-m) + (m I - S) f(M)/(M-m).

    Affine in S, so plain matrix arithmetic is exact; no eigendecomposition.
    """
    eye = HermitianOperator.identity(s.dim)
    fm, fM = endpoint_values(f, bounds)
    width = bounds.width
    return (fM + fm) * eye + (fm / width) * (s - bounds.M * eye) + (fM / width) * (bounds.m * eye - s)


def diamond_plain(inst: MercerInstance) -> HermitianOperator:
    """Curvature correction D = (M+m) S - Mm I - (S^2 + sum_i Phi_i(A_i^2)) / 2.

    PSD whenever every spectrum sits in [m, M]: both (M I - S)(S - m I) and
    the image of (M I - A)(A - m I) are PSD and D is their average.
    """
    return inst.core.diamond(None)


def refined_bounds(
    inst: MercerInstance, curv: CurvatureBounds
) -> Tuple[HermitianOperator, HermitianOperator]:
    """Two-sided curvature-corrected bounds (lower, upper) around the lhs:

        rhs_classic - beta D  <=  f((M+m)I - S)  <=  rhs_classic - alpha D,

    the refined operands of the instance's core, shared with the chain.
    """
    return inst.core.refined(inst.f, None, curv.beta), inst.core.refined(inst.f, None, curv.alpha)


# --------------------------------------------------------------------------
# Chain orchestration
# --------------------------------------------------------------------------

# How an unmet hypothesis gate is overridden, for a CLI user and for a caller.
_FORCE_HINT = "pass --force (force=True from Python) for a counterexample run"


def _convexity_gate(f: ScalarFunction, bounds: SpectralBounds, force: bool) -> Dict[str, float]:
    if not (f.convex_on_domain or force):
        raise HypothesisNotMet(f"{f.label()} is not flagged convex; {_FORCE_HINT}")
    return {}


def _log_convexity_gate(f: ScalarFunction, bounds: SpectralBounds, force: bool) -> Dict[str, float]:
    # is_log_convex_on raises NonpositiveFunction unless f > 0 on [m, M],
    # and returns the catalog's log-convexity flag, either way.
    if not (is_log_convex_on(f, bounds) or force):
        raise HypothesisNotMet(f"{f.label()} is not log-convex; {_FORCE_HINT}")
    return {}


def _curvature_gate(f: ScalarFunction, bounds: SpectralBounds, force: bool) -> Dict[str, float]:
    curv = curvature_bounds(f, bounds)
    return {"alpha": curv.alpha, "beta": curv.beta}


def _pair(left: str, right: str, relation: Callable = lambda gate: Relation.LESS_EQUAL) -> Check:
    """The one-pair row of left and right, so a violation names its pair; ``relation`` of the
    gate's scalars is what the pair asserts, by default left <= right whatever they are."""
    return Check(relation, ((left, right),))


_DIAMOND_PAIR = _pair("zero", "diamond")


class ChainKind(NamedTuple):
    """One chain of the table: ``gate(f, bounds, force)`` checks the kind's
    hypotheses and returns its scalars, the facts its rows are judged on; the
    sides in report order; one ``core.Check`` row per compared pair, in order."""

    gate: Callable[[ScalarFunction, SpectralBounds, bool], Dict[str, float]]
    sides: Tuple[str, ...]
    checks: Tuple[Check, ...]


CHAINS: Dict[str, ChainKind] = {
    "classic": ChainKind(
        _convexity_gate,
        ("lhs", "rhs_classic", "zero", "diamond"),
        (_pair("lhs", "rhs_classic"), _DIAMOND_PAIR),
    ),
    "chain": ChainKind(
        _convexity_gate,
        ("lhs", "chain_middle", "rhs_classic", "zero", "diamond"),
        (
            _pair("lhs", "chain_middle"),
            _pair("chain_middle", "rhs_classic"),
            _pair("lhs", "rhs_classic"),
            _DIAMOND_PAIR,
        ),
    ),
    "twice_diff": ChainKind(
        _curvature_gate,
        ("lower_refined", "lhs", "upper_refined", "rhs_classic", "chain_middle", "zero", "diamond"),
        (
            _pair("lower_refined", "lhs"),
            _pair("lhs", "upper_refined"),
            _pair("upper_refined", "rhs_classic", lambda gate: Relation.LESS_EQUAL if gate["alpha"] >= 0.0 else None),
            _pair("chain_middle", "upper_refined", lambda gate: None),  # compared for the report only
            _DIAMOND_PAIR,
        ),
    ),
    "log_convex": ChainKind(
        _log_convexity_gate,
        ("lhs", "geometric_middle", "rhs_classic", "zero", "diamond"),
        (
            _pair("lhs", "geometric_middle"),
            _pair("geometric_middle", "rhs_classic"),
            _pair("lhs", "rhs_classic"),
            _DIAMOND_PAIR,
        ),
    ),
}
CHAIN_KINDS = tuple(CHAINS)

# The independent operands whose spectra the lhs and the log-convex middle read, solved together.
_SPECTRA = {"lhs": ("pre_mean", None), "geometric_middle": ("sum", None)}


def _chain_kind(which: str) -> ChainKind:
    if which not in CHAINS:
        raise ValueError(f"unknown chain {which!r}; choices: {CHAIN_KINDS}")
    return CHAINS[which]


def evaluate_chain(
    inst: MercerInstance,
    which: str,
    force: bool = False,
    tol_abs: float | None = None,
) -> InequalityReport:
    """The report of :func:`evaluate_trials` on the core of an instance of one trial, after the
    chain's gate: convexity for classic/chain, log-convexity for log_convex, which raise
    ``HypothesisNotMet`` unless ``force`` is set.  Forcing is how counterexample runs are
    expressed, so property suites cannot silently accept hypothesis violations."""
    scalars = _chain_kind(which).gate(inst.f, inst.bounds, force)
    return evaluate_trials(inst.f, which, inst.core, scalars, tol_abs)


def evaluate_trials(
    f: ScalarFunction,
    which: str,
    core: FamilySums,
    scalars: Dict[str, float],
    tol_abs: float | None = None,
) -> InequalityReport:
    """Evaluate the selected inequality chain and compare its pairs of sides.

    ``scalars`` are those the chain's gate returned for f and [m, M]: a
    suite evaluates the gate once, before any trial.  Every report also
    carries the curvature correction term and its PSD comparison, which is
    hypothesis-free.

    ``core`` holds the family sums ``core.operand_sums(None, f)`` of one trial, or of a
    stage-1 stack with one matrix per trial, whatever the trials' instances.
    The sides are its operands: the lhs ``mean(None, f)``, rhs_classic
    ``pre_mean(f)``, D ``diamond(None)``, the refined sides
    ``refined(f, None, beta)`` and ``(f, None, alpha)``, the log-convex middle
    ``geometric(None, f(m), f(M))``, and the chord, affine in S.  Returns one
    report for all trials: each side is built for all of them at once, the
    spectra of the lhs's pre-mean and of the log-convex middle's S in one
    ``FamilySums.decompose``, and every pair is compared in one ``eigvalsh``
    call of the stacked differences right - left (``linalg.loewner_orders``),
    every trial against its own tolerance.  The default tolerance needs the
    sides' norms only for a trial whose gap is below -``PSD_TOLERANCE_FLOOR``;
    they are solved when a mask or verdict is read (``linalg.LoewnerOrder``),
    so a pair that no row judges, whose mask a suite never reads, solves none.
    """
    chain, bounds = _chain_kind(which), core.bounds
    core.decompose(*(_SPECTRA[label] for label in chain.sides if label in _SPECTRA))
    build = {
        "lhs": lambda: core.mean(None, f),
        "rhs_classic": lambda: core.pre_mean(f),
        "diamond": lambda: core.diamond(None),
        "zero": lambda: HermitianOperator(np.zeros_like(core.sum(None).entries)),
        "chain_middle": lambda: _chord(f, bounds, core.sum(None)),
        "lower_refined": lambda: core.refined(f, None, scalars["beta"]),
        "upper_refined": lambda: core.refined(f, None, scalars["alpha"]),
        "geometric_middle": lambda: core.geometric(None, *endpoint_values(f, bounds)),
    }
    sides = {label: build[label]() for label in chain.sides}
    pairs = [pair for check in chain.checks for pair in check.pairs]
    compared = loewner_orders([(sides[left], sides[right]) for left, right in pairs], tol_abs)
    return InequalityReport(sides=sides, orders=dict(zip(pairs, compared)), scalars=scalars)

