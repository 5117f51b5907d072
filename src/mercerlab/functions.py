"""Catalog of scalar functions with the analytic metadata the inequalities need.

Each entry carries evaluator, first and second derivative, and flags:
convexity on the natural domain, log-convexity, and the direction of
operator monotonicity; ``inverse_entry`` gives the entry of the inverse.
Operator monotonicity is a catalog flag, not a decision procedure.  The
grid formulas below also decide the composite of ``quasimeans.resolve_spec``.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import (
    DomainMismatch,
    InvalidInterval,
    MissingSecondDerivative,
    NonpositiveFunction,
)
from .linalg import Frozen, SpectralBounds
from .tolerance import COSINE_ZERO_MARGIN, LOG_CONVEXITY_SLACK, curvature_widening

CURVATURE_GRID_POINTS = 10_001


class ScalarFunction(Frozen):
    """A scalar function together with the analytic facts the engine consumes.

    ``natural_domain`` is an open interval; evaluation outside it produces a
    domain error downstream.  ``second_derivative_monotone`` (when present)
    reports whether f'' is monotone on a given closed interval, which allows
    exact endpoint curvature bounds.  ``log_convex_on_domain`` is True or
    False for every catalog entry, whose (log f)'' keeps one sign wherever
    f > 0; None, for a hand-built function, leaves the decision to the grid
    of :func:`is_log_convex_on`.

    Two functions are equal when all their fields are, so two catalog entries
    built alike from module-level callables are one key of ``core.FamilySums``;
    the hash of the fields is taken once, at construction.
    """

    __slots__ = (
        "name", "fn", "natural_domain", "derivative", "second_derivative", "convex_on_domain",
        "log_convex_on_domain", "operator_monotone", "operator_decreasing", "parameters",
        "second_derivative_monotone", "_key", "_hash",
    )

    def __init__(
        self,
        name: str,
        fn: Callable,
        natural_domain: tuple = (-math.inf, math.inf),
        derivative: Optional[Callable] = None,
        second_derivative: Optional[Callable] = None,
        convex_on_domain: bool = False,
        log_convex_on_domain: Optional[bool] = None,
        operator_monotone: bool = False,
        operator_decreasing: bool = False,
        parameters: tuple = (),
        second_derivative_monotone: Optional[Callable[[float, float], bool]] = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "natural_domain", natural_domain)
        object.__setattr__(self, "derivative", derivative)
        object.__setattr__(self, "second_derivative", second_derivative)
        object.__setattr__(self, "convex_on_domain", convex_on_domain)
        object.__setattr__(self, "log_convex_on_domain", log_convex_on_domain)
        object.__setattr__(self, "operator_monotone", operator_monotone)
        object.__setattr__(self, "operator_decreasing", operator_decreasing)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "second_derivative_monotone", second_derivative_monotone)
        key = (
            name, fn, natural_domain, derivative, second_derivative, convex_on_domain,
            log_convex_on_domain, operator_monotone, operator_decreasing, parameters,
            second_derivative_monotone,
        )
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __call__(self, t):
        return self.fn(t)

    def label(self) -> str:
        """name(p, ...), each parameter in ``:g`` form, or its repr where ``:g`` would round it."""
        if self.parameters:
            params = ",".join(f"{p:g}" if float(f"{p:g}") == p else repr(p) for p in self.parameters)
            return f"{self.name}({params})"
        return self.name

    def domain_contains_interval(self, bounds: SpectralBounds) -> bool:
        lo, hi = self.natural_domain
        left_ok = bounds.m > lo if math.isfinite(lo) else True
        right_ok = bounds.M < hi if math.isfinite(hi) else True
        return left_ok and right_ok


class CurvatureBounds(Frozen):
    """Real numbers alpha <= f'' <= beta on the working interval; ``method`` is
    "analytic" or "sampled"."""

    __slots__ = ("alpha", "beta", "method")

    def __init__(self, alpha: float, beta: float, method: str):
        if alpha > beta:
            raise InvalidInterval(f"alpha={alpha} exceeds beta={beta}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "method", method)


# --------------------------------------------------------------------------
# Catalog entries
# --------------------------------------------------------------------------

def _always(_a: float, _b: float) -> bool:
    return True


def _const(value: float) -> Callable:
    return lambda t: np.full_like(np.asarray(t, dtype=float), value) if np.ndim(t) else value


def identity() -> ScalarFunction:
    return ScalarFunction(
        name="id",
        fn=lambda t: t * 1.0,
        derivative=_const(1.0),
        second_derivative=_const(0.0),
        convex_on_domain=True,
        log_convex_on_domain=False,
        operator_monotone=True,
        second_derivative_monotone=_always,
    )


def square() -> ScalarFunction:
    return ScalarFunction(
        name="square",
        fn=lambda t: np.square(t),
        derivative=lambda t: 2.0 * t,
        second_derivative=_const(2.0),
        convex_on_domain=True,
        log_convex_on_domain=False,
        second_derivative_monotone=_always,
    )


def power(p: float) -> ScalarFunction:
    """t^p on (0, inf); p = 0 is rejected (not strictly monotone)."""
    if p == 0:
        raise InvalidInterval("power exponent must be nonzero")
    return ScalarFunction(
        name="pow",
        fn=lambda t: np.power(t, p),
        natural_domain=(0.0, math.inf),
        derivative=lambda t: p * np.power(t, p - 1.0),
        second_derivative=lambda t: p * (p - 1.0) * np.power(t, p - 2.0),
        convex_on_domain=(p < 0.0 or p >= 1.0),
        log_convex_on_domain=(p < 0.0),
        operator_monotone=(0.0 < p <= 1.0),
        operator_decreasing=(-1.0 <= p < 0.0),
        parameters=(p,),
        second_derivative_monotone=_always,
    )


def exponential() -> ScalarFunction:
    return ScalarFunction(
        name="exp",
        fn=np.exp,
        derivative=np.exp,
        second_derivative=np.exp,
        convex_on_domain=True,
        log_convex_on_domain=True,
        second_derivative_monotone=_always,
    )


def logarithm() -> ScalarFunction:
    return ScalarFunction(
        name="log",
        fn=np.log,
        natural_domain=(0.0, math.inf),
        derivative=lambda t: 1.0 / t,
        second_derivative=lambda t: -1.0 / np.square(t),
        log_convex_on_domain=False,
        operator_monotone=True,
        second_derivative_monotone=_always,
    )


def _cosine_keeps_sign(a: float, b: float) -> bool:
    # cos vanishes at pi/2 + k*pi; -sin is monotone on [a, b] iff no zero
    # of cos lies strictly inside.
    k = math.ceil((a - math.pi / 2) / math.pi)
    z = math.pi / 2 + k * math.pi
    return not (a + COSINE_ZERO_MARGIN < z < b - COSINE_ZERO_MARGIN)


def sine() -> ScalarFunction:
    return ScalarFunction(
        name="sin",
        fn=np.sin,
        derivative=np.cos,
        second_derivative=lambda t: -np.sin(t),
        log_convex_on_domain=False,
        second_derivative_monotone=_cosine_keeps_sign,
    )


def xlogx() -> ScalarFunction:
    """t * log t on (0, inf)."""
    return ScalarFunction(
        name="xlogx",
        fn=lambda t: t * np.log(t),
        natural_domain=(0.0, math.inf),
        derivative=lambda t: np.log(t) + 1.0,
        second_derivative=lambda t: 1.0 / t,
        convex_on_domain=True,
        log_convex_on_domain=False,
        second_derivative_monotone=_always,
    )


def reciprocal() -> ScalarFunction:
    return ScalarFunction(
        name="inv",
        fn=lambda t: 1.0 / t,
        natural_domain=(0.0, math.inf),
        derivative=lambda t: -1.0 / np.square(t),
        second_derivative=lambda t: 2.0 / np.power(t, 3.0),
        convex_on_domain=True,
        log_convex_on_domain=True,
        operator_decreasing=True,
        second_derivative_monotone=_always,
    )


def square_root() -> ScalarFunction:
    return ScalarFunction(
        name="sqrt",
        fn=np.sqrt,
        natural_domain=(0.0, math.inf),
        derivative=lambda t: 0.5 / np.sqrt(t),
        second_derivative=lambda t: -0.25 * np.power(t, -1.5),
        log_convex_on_domain=False,
        operator_monotone=True,
        second_derivative_monotone=_always,
    )


CATALOG_FACTORIES = {
    "id": identity,
    "square": square,
    "pow": power,
    "exp": exponential,
    "log": logarithm,
    "sin": sine,
    "xlogx": xlogx,
    "inv": reciprocal,
    "sqrt": square_root,
}


def parse_function_spec(spec: str) -> ScalarFunction:
    """Parse a function spec string such as "sin", "exp" or "pow:p=-0.2"."""
    name, _, param_part = spec.partition(":")
    name = name.strip()
    if name not in CATALOG_FACTORIES:
        raise ValueError(f"unknown function {name!r}; choices: {sorted(CATALOG_FACTORIES)}")
    params = {}
    if param_part:
        for item in param_part.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if not value:
                raise ValueError(f"malformed parameter {item!r} in spec {spec!r}")
            if key in params:
                raise ValueError(f"parameter {key!r} repeated in spec {spec!r}")
            params[key] = float(value)
            if not math.isfinite(params[key]):
                raise ValueError(f"parameter {key!r} in spec {spec!r} must be finite, got {value}")
    if name == "pow":
        if set(params) != {"p"}:
            raise ValueError("pow requires exactly one parameter, e.g. pow:p=-0.2")
        return power(params["p"])
    if params:
        raise ValueError(f"function {name!r} takes no parameters")
    return CATALOG_FACTORIES[name]()


def inverse_entry(f: ScalarFunction) -> Optional[ScalarFunction]:
    """The catalog entry of f^{ -1 }, carrying its own flags, or None."""
    if f.name == "id":
        return identity()
    if f.name == "exp":
        return logarithm()
    if f.name == "log":
        return exponential()
    if f.name == "sqrt":
        return square()
    if f.name == "square":
        return square_root()
    if f.name == "inv":
        return reciprocal()
    if f.name == "pow":
        return power(1.0 / f.parameters[0])
    return None


# --------------------------------------------------------------------------
# Analytic queries
# --------------------------------------------------------------------------

def require_domain(f: ScalarFunction, bounds: SpectralBounds) -> None:
    """Raise ``DomainMismatch`` unless [m, M] lies inside the natural domain of f."""
    if not f.domain_contains_interval(bounds):
        raise DomainMismatch(
            f"[{bounds.m}, {bounds.M}] not inside the domain of {f.label()} {f.natural_domain}"
        )


def require_finite(f: ScalarFunction, bounds: SpectralBounds, points: int = CURVATURE_GRID_POINTS) -> np.ndarray:
    """f on a ``points``-point grid of [m, M]; raise ``InvalidInterval`` unless every value is finite."""
    with np.errstate(all="ignore"):
        values = np.asarray(f(np.linspace(bounds.m, bounds.M, points)), dtype=float)
    if not np.all(np.isfinite(values)):
        raise InvalidInterval(f"{f.label()} is not finite on [{bounds.m}, {bounds.M}]")
    return values


def curvature_bounds(f: ScalarFunction, bounds: SpectralBounds) -> CurvatureBounds:
    """Bounds alpha <= f'' <= beta on [m, M].

    Exact endpoint evaluation when the entry declares f'' monotone on the
    interval; otherwise :func:`sampled_curvature` of f'' on a dense grid.
    """
    require_domain(f, bounds)
    if f.second_derivative is None:
        raise MissingSecondDerivative(f"{f.label()} has no second derivative in the catalog")
    with np.errstate(all="ignore"):  # an f'' that overflows is refused where it is used, in one line
        if f.second_derivative_monotone is not None and f.second_derivative_monotone(bounds.m, bounds.M):
            ends = np.asarray([float(f.second_derivative(bounds.m)), float(f.second_derivative(bounds.M))])
            return CurvatureBounds(alpha=float(ends.min()), beta=float(ends.max()), method="analytic")
        second = np.asarray(f.second_derivative(np.linspace(bounds.m, bounds.M, CURVATURE_GRID_POINTS)), dtype=float)
    return sampled_curvature(second)


def sampled_curvature(second: np.ndarray) -> CurvatureBounds:
    """The sampled bounds of f'' from its values on a grid: their min and max, each widened by
    ``tolerance.curvature_widening`` so the bounds stay conservative between the nodes."""
    lo = float(second.min())
    hi = float(second.max())
    return CurvatureBounds(
        alpha=lo - curvature_widening(lo),
        beta=hi + curvature_widening(hi),
        method="sampled",
    )


def positive_on_grid(values: np.ndarray) -> bool:
    """Is every value of f on a grid finite and strictly positive?"""
    return bool(np.all(np.isfinite(values))) and float(values.min()) > 0.0


def log_convex_on_grid(values: np.ndarray, first: np.ndarray, second: np.ndarray) -> bool:
    """(log f)'' = f''/f - (f'/f)^2 >= -``LOG_CONVEXITY_SLACK`` on the interior nodes of a grid,
    from f, f' and f'' on the whole grid.

    Interior nodes only: one-sided derivatives misbehave at the endpoints
    of the natural domain.
    """
    vals, d1, d2 = values[1:-1], first[1:-1], second[1:-1]
    return bool(np.min(d2 / vals - np.square(d1 / vals)) >= -LOG_CONVEXITY_SLACK)


def is_log_convex_on(f: ScalarFunction, bounds: SpectralBounds) -> bool:
    """True when log f is convex on [m, M].

    Requires f > 0 on the interval.  A catalog entry's flag decides, either
    way; a function without one (a hand-built function) is decided by
    :func:`log_convex_on_grid`, as ``quasimeans.resolve_spec`` decides a
    composite, which needs f' and f'' (else ``MissingSecondDerivative``).
    """
    grid = np.linspace(bounds.m, bounds.M, CURVATURE_GRID_POINTS)
    with np.errstate(all="ignore"):
        vals = np.asarray(f(grid), dtype=float)
    if not positive_on_grid(vals):
        raise NonpositiveFunction(
            f"{f.label()} is not strictly positive on [{bounds.m}, {bounds.M}]"
        )
    if f.log_convex_on_domain is not None:
        return f.log_convex_on_domain
    if f.derivative is None or f.second_derivative is None:
        raise MissingSecondDerivative(f"{f.label()} has no first and second derivative in the catalog")
    with np.errstate(all="ignore"):
        d1 = np.asarray(f.derivative(grid), dtype=float)
        d2 = np.asarray(f.second_derivative(grid), dtype=float)
        return log_convex_on_grid(vals, d1, d2)


def refined_vs_geometric_gap(t: float, m: float, M: float, p: float) -> float:
    """Gap between the curvature-refined chord bound and the geometric bound
    for the power function t^p with p < 0 on [m, M].

    Positive values mean the geometric bound is tighter at t, negative values
    mean the curvature-refined bound wins; the sign varies with p, so neither
    refinement dominates the other.
    """
    if not (0.0 < m < M):
        raise InvalidInterval(f"need 0 < m < M, got m={m}, M={M}")
    if not (m <= t <= M):
        raise InvalidInterval(f"t={t} outside [{m}, {M}]")
    if not p < 0.0:
        raise InvalidInterval(f"exponent must be negative, got p={p}")
    lam = (t - m) / (M - m)
    chord = (1.0 - lam) * m**p + lam * M**p
    curvature_ceiling = p * (p - 1.0) * M ** (p - 2.0)
    bracket = (M + m) * t - M * m - t * t
    geometric = (m ** (1.0 - lam) * M**lam) ** p
    return chord - 0.5 * curvature_ceiling * bracket - geometric
