"""Positive linear maps between matrix algebras and unital families of them.

Maps are realized structurally, never as abstract superoperator matrices:
compressions V* A V and weighted traces w tr(A) I, the two kinds the sampler
draws and a search witness carries.  Positivity then holds by construction.
A family Phi_1..Phi_n is unital when sum_i Phi_i(I) = I on the codomain;
``unitality_defect`` measures how far sum_i Phi_i(I) is from that, and the
sampler (``sampling.sample_trials``) draws unital families.

Maps apply to stacks of matrices ``(..., d, d)``.  A map may carry a
leading axis: ``core.stage_one`` applies the maps of one kind and dims of
a whole chunk, whatever their trial and map index, as one map whose
compressions or trace weights run along it.  Applied to a stack of
operators with the same leading axis, and any axes before it, each map
acts on its own operator, by the same numpy operations as for one matrix:
``(V* @ X) @ V`` or a trace (``apply``), then the Hermitian part
(``apply_map``; stage 1 takes it of a whole codomain dimension's images at once).
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from .errors import ArityMismatch, DimensionMismatch, InvalidInterval
from .linalg import Frozen, HermitianOperator, spectral_norms
from .tolerance import UNITALITY_ABS


class Compression(Frozen):
    """A |-> V* A V with V of shape (dim_in, dim_out), or (trials, dim_in, dim_out) when stacked."""

    __slots__ = ("v",)

    def __init__(self, v: np.ndarray):
        object.__setattr__(self, "v", v)

    @property
    def dim_in(self) -> int:
        return self.v.shape[-2]

    @property
    def dim_out(self) -> int:
        return self.v.shape[-1]

    def apply(self, mat: np.ndarray) -> np.ndarray:
        return self.v.conj().swapaxes(-1, -2) @ mat @ self.v


class WeightedTrace(Frozen):
    """A |-> w tr(A) I on the codomain; w >= 0 (one weight per trial when stacked).

    No 1/dim normalization is built in: the weight is chosen so that
    unitality holds at the family level.
    """

    __slots__ = ("weight", "dim_in", "dim_out")

    def __init__(self, weight: float, dim_in: int, dim_out: int):
        if np.any(np.asarray(weight) < 0):
            raise InvalidInterval(f"trace weight must be nonnegative, got {weight}")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "dim_in", dim_in)
        object.__setattr__(self, "dim_out", dim_out)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.weight, self.dim_in, self.dim_out) == (other.weight, other.dim_in, other.dim_out)

    def __hash__(self):
        return hash((self.weight, self.dim_in, self.dim_out))

    def apply(self, mat: np.ndarray) -> np.ndarray:
        scaled = np.asarray(self.weight * np.trace(mat, axis1=-2, axis2=-1))
        return scaled[..., None, None] * np.eye(self.dim_out, dtype=np.complex128)


PositiveLinearMap = Union[Compression, WeightedTrace]


def apply_map(phi: PositiveLinearMap, a: HermitianOperator) -> HermitianOperator:
    """Image Phi(A); Hermitian-preserving and positive by construction."""
    if a.dim != phi.dim_in:
        raise DimensionMismatch(f"operator dim {a.dim} does not match map dim_in {phi.dim_in}")
    mat = phi.apply(a.entries)
    return HermitianOperator(0.5 * (mat + mat.conj().swapaxes(-1, -2)))


class MapFamily(Frozen):
    """Ordered positive maps Phi_1..Phi_n with common dimensions."""

    __slots__ = ("maps",)

    def __init__(self, maps: Tuple[PositiveLinearMap, ...]):
        if not maps:
            raise ArityMismatch("a family needs at least one map")
        dims = {(phi.dim_in, phi.dim_out) for phi in maps}
        if len(dims) != 1:
            raise DimensionMismatch(f"maps have mixed dimensions {dims}")
        object.__setattr__(self, "maps", maps)

    @property
    def size(self) -> int:
        return len(self.maps)

    @property
    def dim_in(self) -> int:
        return self.maps[0].dim_in

    @property
    def dim_out(self) -> int:
        return self.maps[0].dim_out


def family_sum(family: MapFamily, operators: Sequence[HermitianOperator]) -> HermitianOperator:
    """sum_i Phi_i(A_i) for one operator per map, accumulated in map order."""
    if len(operators) != family.size:
        raise ArityMismatch(f"{family.size} maps but {len(operators)} operators")
    total = 0.0  # broadcasts to the images' shape, like a zero matrix
    for phi, a in zip(family.maps, operators):
        total = total + apply_map(phi, a).entries
    return HermitianOperator(0.5 * (total + total.conj().swapaxes(-1, -2)))


def unitality_defect(unit_image: HermitianOperator) -> np.ndarray:
    """How far each matrix of a stack of sum_i Phi_i(I) lies from the identity, for the
    check against ``tolerance.UNITALITY_ABS``.

    The Frobenius norm of the difference bounds its spectral norm; where it
    is at most UNITALITY_ABS / 2, rounding cannot carry the spectral norm
    past UNITALITY_ABS, and it is the defect.  Every other matrix (NaN
    included) gets its spectral norm, one ``eigvalsh`` call for all of them,
    so a defect above UNITALITY_ABS is always the spectral norm.
    """
    diff = (unit_image - HermitianOperator.identity(unit_image.dim)).entries
    defect = np.asarray(np.linalg.norm(diff, axis=(-2, -1)))
    unclear = ~(defect <= UNITALITY_ABS / 2)
    if unclear.any():
        defect[unclear] = spectral_norms(HermitianOperator(diff[unclear]))
    return defect


# --------------------------------------------------------------------------
# Map spec JSON
# --------------------------------------------------------------------------

def _complex_to_json(mat: np.ndarray) -> dict:
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


def _complex_from_json(obj: dict) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def map_to_json(phi: PositiveLinearMap) -> dict:
    if isinstance(phi, Compression):
        return {"kind": "compression", "V": _complex_to_json(phi.v)}
    if isinstance(phi, WeightedTrace):
        return {"kind": "trace", "w": phi.weight}
    raise TypeError(f"unknown map kind {type(phi)!r}")


def map_from_json(obj: dict, dim_in: int | None = None, dim_out: int | None = None) -> PositiveLinearMap:
    """Build a map from its JSON spec.

    Trace maps carry no dimensions in their spec, so ``dim_in``/``dim_out``
    must be supplied for them (the family context normally provides both).
    """
    kind = obj.get("kind")
    if kind == "compression":
        return Compression(v=_complex_from_json(obj["V"]))
    if kind == "trace":
        if dim_in is None or dim_out is None:
            raise DimensionMismatch("trace map spec needs explicit dim_in and dim_out")
        return WeightedTrace(weight=float(obj["w"]), dim_in=dim_in, dim_out=dim_out)
    raise ValueError(f"unknown map kind {kind!r}")


def family_to_json(family: MapFamily) -> list:
    return [map_to_json(phi) for phi in family.maps]


def family_from_json(objs: Sequence[dict], dim_in: int | None = None, dim_out: int | None = None) -> MapFamily:
    return MapFamily(maps=tuple(map_from_json(obj, dim_in, dim_out) for obj in objs))
