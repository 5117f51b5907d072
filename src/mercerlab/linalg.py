"""Dense Hermitian matrix algebra.

Eigendecomposition, scalar functional calculus and Loewner-order comparison
for finite-dimensional self-adjoint matrices.  Every operator expression in
the package is built on the primitives in this module:
``spectral_decompose``, ``apply_to_decomposition``, ``spectral_norms`` and
``loewner_orders``.  Functional calculus is split from decomposition so
that one eigensolve can serve every function applied to the same operator.
The comparisons of any number of pairs, a chain's or a sweep's, are one
``eigvalsh`` of their differences right - left, stacked, whose spectra give
every slack and bit of order per matrix; a ``LoewnerOrder`` solves its two
sides' norms for the default tolerance only for a matrix whose order the
tolerance floor cannot decide, and an ``OrderVerdict`` only for a matrix
that asks.  ``LoewnerOrder.holds`` is the one violation rule of verify and
the sweep.

Every primitive takes a stack of matrices: ``entries`` of shape
``(..., d, d)``, with any leading axes (the trials and maps of a chunk,
the objects stage 1 maps at once).  Each matrix of a stack goes through
the same numpy operation as it would alone (``eigh`` / ``eigvalsh`` over
the stack, ``@`` per matrix, reductions over the last two axes only), so
stacking never moves a bit, and every check (self-adjointness, clamp band,
finiteness) is made per matrix; a failing stack raises for its first
failing matrix in C order.

All values are immutable after construction and all operations are pure, so
everything here is safe to share between threads.  The package's immutable
value classes are plain classes on :class:`Frozen`: ``__init__`` sets each field
once, through ``object.__setattr__``, and assigning or deleting an attribute
afterwards raises ``AttributeError``.  They are written out by hand, so
importing the package generates no code.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    FunctionDomainError,
    InvalidInterval,
    NonHermitianInput,
    SpectrumOutOfDomain,
)
from .tolerance import (
    HERMITICITY_REL,
    PSD_TOLERANCE_FLOOR,
    clamp_tolerance,
    hermiticity_tolerance,
    tolerance_from_norms,
)


class Frozen:
    """Base of the package's immutable values: assigning or deleting an attribute raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SpectralBounds(Frozen):
    """Interval [m, M] that houses the spectra of every operator of an instance."""

    __slots__ = ("m", "M")

    def __init__(self, m: float, M: float):
        if not (math.isfinite(m) and math.isfinite(M)):
            raise InvalidInterval("interval endpoints must be finite")
        if not m < M:
            raise InvalidInterval(f"need m < M, got m={m}, M={M}")
        if not math.isfinite(M - m):
            raise InvalidInterval(f"interval [{m}, {M}] is too wide: M - m overflows")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "M", M)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.M) == (other.m, other.M)

    def __hash__(self):
        return hash((self.m, self.M))

    @property
    def width(self) -> float:
        return self.M - self.m

    @property
    def clamp_tol(self) -> float:
        """Band around [m, M] inside which eigenvalues are clamped, not rejected."""
        return clamp_tolerance(self.m, self.M)

    def outside(self, lam: np.ndarray) -> np.ndarray:
        """Per spectrum of a stack ``(..., d)`` (ascending): does it leave the clamp band?"""
        tol = self.clamp_tol
        return (lam[..., 0] < self.m - tol) | (lam[..., -1] > self.M + tol)


def _hermiticity_failure(mat: np.ndarray):
    """(defect, allowed) of the first matrix of a stack that is not self-adjoint, else None.

    The defect is the largest entry of |X - X*|, allowed ``tolerance.hermiticity_tolerance``.
    """
    if not mat.size:
        return None
    defect = np.abs(mat - mat.conj().swapaxes(-1, -2))
    if defect.max() <= HERMITICITY_REL:  # every allowance is at least this
        return None
    defect = defect.max(axis=(-2, -1))
    allowed = hermiticity_tolerance(mat)
    bad = defect > allowed
    if not bad.any():
        return None
    return float(defect[bad][0]), float(allowed[bad][0])


def _as_complex_matrix(entries) -> np.ndarray:
    mat = np.asarray(entries, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    return mat


class HermitianOperator(Frozen):
    """A dense complex self-adjoint matrix, or a stack of them.

    Construct through :meth:`from_matrix` (validating) or the convenience
    constructors; ``HermitianOperator(entries)`` itself checks nothing and
    keeps ``entries`` as given.  Inside the engine ``entries`` may carry
    leading axes, ``(..., d, d)``; linear arithmetic broadcasts over them,
    and ``dim`` is the matrix dimension.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: np.ndarray):
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_matrix(cls, entries) -> "HermitianOperator":
        mat = _as_complex_matrix(entries)
        failure = _hermiticity_failure(mat)
        if failure is not None:
            defect, allowed = failure
            raise NonHermitianInput(
                f"matrix differs from its adjoint by {defect:.3e} (allowed {allowed:.3e})"
            )
        return cls(0.5 * (mat + mat.conj().T))

    @classmethod
    def identity(cls, dim: int) -> "HermitianOperator":
        return cls(np.eye(dim, dtype=np.complex128))

    @classmethod
    def diagonal(cls, values) -> "HermitianOperator":
        return cls(np.diag(np.asarray(values, dtype=np.complex128)))

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]

    def scalar(self) -> float:
        """The single entry of a 1x1 operator."""
        if self.dim != 1:
            raise DimensionMismatch(f"scalar() needs dim 1, got {self.dim}")
        return float(self.entries[0, 0].real)

    # Operator expressions combine by linear arithmetic; products stay in
    # ndarray-land because they are not Hermitian in general.
    def __add__(self, other):
        if not isinstance(other, HermitianOperator):
            return NotImplemented
        self._check_same_dim(other)
        return HermitianOperator(self.entries + other.entries)

    def __sub__(self, other):
        if not isinstance(other, HermitianOperator):
            return NotImplemented
        self._check_same_dim(other)
        return HermitianOperator(self.entries - other.entries)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return HermitianOperator(float(scalar) * self.entries)

    __rmul__ = __mul__

    def __neg__(self):
        return HermitianOperator(-self.entries)

    def _check_same_dim(self, other: "HermitianOperator") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dims {self.dim} and {other.dim} differ")

    def to_json(self) -> dict:
        """Matrix exchange object: {"dim": n, "re": [[...]], "im": [[...]]}, row-major."""
        return {
            "dim": self.dim,
            "re": self.entries.real.tolist(),
            "im": self.entries.imag.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "HermitianOperator":
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
        if re.shape != im.shape:
            raise DimensionMismatch("re and im parts have different shapes")
        mat = re + 1j * im
        if "dim" in obj and mat.shape != (obj["dim"], obj["dim"]):
            raise DimensionMismatch(f"declared dim {obj['dim']} does not match shape {mat.shape}")
        return cls.from_matrix(mat)


class SpectralDecomposition(Frozen):
    """Eigenvalues (ascending) and a unitary matrix of column eigenvectors."""

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "eigenvectors", eigenvectors)

    def reconstruct(self) -> np.ndarray:
        """U diag(lambda) U* of every matrix of the stack."""
        u = self.eigenvectors
        return (u * self.eigenvalues[..., None, :]) @ u.conj().swapaxes(-1, -2)


class Relation(enum.Enum):
    EQUAL = "Equal"
    LESS_EQUAL = "LessEqual"
    GREATER_EQUAL = "GreaterEqual"
    INCOMPARABLE = "Incomparable"


class OrderVerdict(Frozen):
    """Outcome of a Loewner-order comparison of two operators.

    ``gap_min_eigenvalue`` is the minimum eigenvalue of the difference in the
    direction the relation refers to (B - A for LessEqual and for the failed
    A <= B of Incomparable); ``witness_vector`` is a unit vector attaining it.
    """

    __slots__ = ("relation", "gap_min_eigenvalue", "witness_vector")

    def __init__(self, relation: Relation, gap_min_eigenvalue: float, witness_vector: np.ndarray):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "gap_min_eigenvalue", gap_min_eigenvalue)
        object.__setattr__(self, "witness_vector", witness_vector)

    def to_json(self) -> dict:
        return {
            "relation": self.relation.value,
            "gap_min_eigenvalue": self.gap_min_eigenvalue,
        }


class LoewnerOrder(Frozen):
    """The Loewner comparison of two stacks A and B, matrix by matrix (see :func:`loewner_orders`).

    ``left`` and ``right`` are the entries of A and B, ``difference`` the
    stack B - A, ``eigenvalues`` its spectra (ascending), ``tol`` the
    tolerance of each comparison (an array or float), or None for the
    default ``tolerance.tolerance_from_norms`` of both sides' norms.  The
    masks are made on first read, and kept in the instance ``__dict__``.
    """

    def __init__(
        self,
        left: np.ndarray,
        right: np.ndarray,
        difference: np.ndarray,
        eigenvalues: np.ndarray,
        tol: Optional[np.ndarray],
    ):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "difference", difference)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "tol", tol)

    @functools.cached_property
    def below(self) -> np.ndarray:
        """Per matrix: A <= B up to the tolerance, min eig of B - A >= -tol (Equal counts)."""
        return self._within_tolerance(self.eigenvalues[..., 0])

    @functools.cached_property
    def above(self) -> np.ndarray:
        """Per matrix: A >= B up to the tolerance, min eig of A - B >= -tol (Equal counts)."""
        return self._within_tolerance(-self.eigenvalues[..., -1])

    def _within_tolerance(self, slack: np.ndarray) -> np.ndarray:
        """slack >= -tol per matrix.  By default, a slack at or above
        -``PSD_TOLERANCE_FLOOR``, the least default tolerance, holds whatever the
        norms are; both sides' norms are solved only for the other matrices (a NaN
        slack among them), and give exactly the eager result there."""
        if self.tol is not None:
            return np.asarray(slack >= -self.tol)
        within = np.asarray(slack >= -PSD_TOLERANCE_FLOOR)
        open_ = ~within
        if open_.any():
            norms = [spectral_norms(HermitianOperator(side[open_])) for side in (self.left, self.right)]
            within[open_] = slack[open_] >= -tolerance_from_norms(*norms)
        return within

    def holds(self, relation: Relation) -> np.ndarray:
        """Per matrix: A relation B up to the tolerance, ``below``, ``above`` or, for Equal, both;
        for a finite slack, exactly ``slack(relation) >= -tol``."""
        if relation is Relation.EQUAL:
            return self.below & self.above
        return self.above if relation is Relation.GREATER_EQUAL else self.below

    def slack(self, relation: Relation) -> np.ndarray:
        """Signed slack of ``A relation B`` per matrix; negative means violated.

        lambda_min of B - A for LessEqual, -lambda_max of B - A (lambda_min of
        A - B) for GreaterEqual, -max(|lambda_min|, |lambda_max|) for Equal.
        """
        lam = self.eigenvalues
        if relation is Relation.GREATER_EQUAL:
            return -lam[..., -1]
        if relation is Relation.EQUAL:
            return -np.maximum(np.abs(lam[..., 0]), np.abs(lam[..., -1]))
        return lam[..., 0]

    def verdict(self, index=()) -> OrderVerdict:
        """The verdict of matrix ``index`` of the stack; ``()`` for an unstacked comparison.

        Equal when B - A vanishes to tolerance (both slacks within it bound
        its spectral norm by tol), LessEqual / GreaterEqual when one
        difference is PSD up to the tolerance, Incomparable otherwise.  The
        witness vector comes from one ``eigh`` of that matrix's difference.
        """
        below, above = bool(self.below[index]), bool(self.above[index])
        lam = self.eigenvalues[index]
        vecs = np.linalg.eigh(self.difference[index])[1]
        if above and not below:
            return OrderVerdict(Relation.GREATER_EQUAL, float(-lam[-1]), vecs[:, -1])
        relation = Relation.INCOMPARABLE if not below else Relation.EQUAL if above else Relation.LESS_EQUAL
        return OrderVerdict(relation, float(lam[0]), vecs[:, 0])


def spectral_norms(a: HermitianOperator) -> np.ndarray:
    """Spectral norm of every matrix of a stack: max |eigenvalue|, one ``eigvalsh`` call."""
    return np.abs(np.linalg.eigvalsh(a.entries)).max(axis=-1)


def spectral_decompose(a: HermitianOperator) -> SpectralDecomposition:
    """Eigendecomposition A = U diag(lambda) U* with ascending eigenvalues.

    One ``eigh`` call for the whole stack, after the self-adjointness check
    of every matrix.
    """
    failure = _hermiticity_failure(a.entries)
    if failure is not None:
        raise NonHermitianInput(f"self-adjointness defect {failure[0]:.3e} exceeds tolerance")
    eigenvalues, eigenvectors = np.linalg.eigh(a.entries)
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def _evaluate_scalar(f: Callable[[np.ndarray], np.ndarray], values: np.ndarray) -> np.ndarray:
    """f on a stack of spectra (..., d); a non-finite value raises for the first failing spectrum.

    NaN means f is undefined there; +-inf that its value overflows.
    """
    with np.errstate(all="ignore"):
        out = np.asarray(f(values), dtype=float)
    finite = np.isfinite(out)
    if not finite.all():
        first = np.argmin(finite.all(axis=-1).reshape(-1))
        spectrum = values.reshape(-1, values.shape[-1])[first]
        image = out.reshape(-1, out.shape[-1])[first]
        undefined = np.isnan(image)
        if undefined.any():
            raise FunctionDomainError(f"function undefined at eigenvalue(s) {spectrum[undefined].tolist()}")
        raise FunctionDomainError(
            f"function overflows at eigenvalue(s) {spectrum[np.isinf(image)].tolist()}"
        )
    return out


def apply_to_decomposition(
    f: Callable[[np.ndarray], np.ndarray],
    dec: SpectralDecomposition,
    bounds: SpectralBounds | None = None,
) -> HermitianOperator:
    """Functional calculus f(A) = U diag(f(lambda)) U* from a decomposition of A.

    With ``bounds``, eigenvalues inside the clamp band around [m, M] are
    clamped onto the interval before evaluating f, and eigenvalues farther
    out raise ``SpectrumOutOfDomain``; without, f is evaluated on the
    spectrum as it is.  ``f`` may be any vectorized callable; values at which
    it is undefined raise ``FunctionDomainError``.  One decomposition may
    serve any number of functions.
    """
    lam = dec.eigenvalues
    if bounds is not None:
        outside = bounds.outside(lam)
        if outside.any():
            lo, hi = lam[outside][0, [0, -1]]
            raise SpectrumOutOfDomain(
                f"spectrum [{lo:.12g}, {hi:.12g}] leaves [{bounds.m:.12g}, {bounds.M:.12g}] "
                f"by more than {bounds.clamp_tol:.3e}"
            )
        lam = np.clip(lam, bounds.m, bounds.M)
    mat = SpectralDecomposition(_evaluate_scalar(f, lam), dec.eigenvectors).reconstruct()
    return HermitianOperator(0.5 * (mat + mat.conj().swapaxes(-1, -2)))


def loewner_orders(
    pairs: Sequence[Tuple[HermitianOperator, HermitianOperator]], tol: Union[float, np.ndarray, None] = None
) -> List[LoewnerOrder]:
    """Compare each pair (A, B) in the Loewner order (A <= B iff B - A is PSD), matrix by matrix.

    One ``eigvalsh`` call of every B - A, stacked along a new leading axis,
    so the pairs' differences must share one shape; each ``LoewnerOrder``
    gets its slice.  ``tol`` serves every pair: one tolerance, one per
    matrix of the stack, or None for the engine's default,
    ``tolerance.tolerance_from_norms`` of each pair's two sides, solved only
    where the floor cannot decide and only when a mask or verdict is read.
    """
    for a, b in pairs:
        a._check_same_dim(b)
    diffs = np.array([b.entries - a.entries for a, b in pairs])
    eigenvalues = np.linalg.eigvalsh(diffs)
    tol = None if tol is None else np.asarray(tol, dtype=float)
    return [
        LoewnerOrder(a.entries, b.entries, diff, lam, tol) for (a, b), diff, lam in zip(pairs, diffs, eigenvalues)
    ]
