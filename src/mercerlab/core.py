"""Stage 1: the family sums of a chunk of trials, built per matrix dimension, and their operands.

For a unital family Phi_1..Phi_n, operators A_1..A_n and [m, M], every side
of the Mercer chains and of the quasi-arithmetic means is an operand of a
few family sums sum_i Phi_i(X_i): X = g(A_i) (clamped functional calculus on
[m, M]) or g(A_i)^2, with g None for the raw A_i, and X = I, whose distance
from I is the unitality defect.  ``FamilySums`` builds each operand once per
stack from T_g = sum_i Phi_i(g(A_i)) and g(m), g(M) (m, M for g None):
``pre_mean(g)`` = (g(M) + g(m)) I - T_g, ``mean(g, h)`` = h(pre_mean(g)) on
g([m, M]), ``diamond(g)`` =
(g(M)+g(m)) T_g - g(M)g(m) I - (T_g^2 + sum_i Phi_i(g(A_i)^2)) / 2,
``refined(psi, phi, c)`` = pre_mean(psi) - c diamond(phi), and
``geometric(g, v_lo, v_hi)``, the geometric interpolant h(T_g).  The
quasi-arithmetic mean QM_g is mean(g, g^{-1}).  ``FamilySums.decompose``
is the one place a stack's spectra are solved, several independent
operands in one ``eigh``, and kept for ``mean`` and ``geometric``.  A chain is the mean case
phi = id: its lhs is mean(None, f), f of pre_mean(None), its classic right
side pre_mean(f), its refined sides refined(f, None, c) and its log-convex
middle geometric(None, f(m), f(M)).

``stage_one`` builds the sums of a chunk of trials of any shapes: one
eigendecomposition per operator dimension dim_h, the maps once per
(dim_h, dim_k), the sums per codomain dimension dim_k.  Every matrix goes
through the numpy operations it would go through alone, so a sum is bit for
bit the one of ``maps.family_sum`` on that trial, and every chunk is
checked alike.  ``trial_sums`` is one trial, a chunk of one.

Stage 2 of verify and of the sweep ends alike: ``Check`` is the one row
type of both check tables, and ``judge`` turns a stack's comparisons into
each judged row's (gap, holds) per trial.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ArityMismatch, HypothesisNotMet, OperandOverflow, SpectrumOutOfDomain
from .linalg import (
    HermitianOperator,
    LoewnerOrder,
    Relation,
    SpectralBounds,
    SpectralDecomposition,
    apply_to_decomposition,
    spectral_decompose,
)
from .maps import Compression, MapFamily, WeightedTrace, apply_map, unitality_defect
from .tolerance import UNITALITY_ABS

# The key of the identity among the objects; every other object is keyed
# (g, squared), for g(A_i) or g(A_i)^2, with g None for the raw A_i.
UNIT = ("unit", False)


def geometric_interpolant(lo: float, hi: float, v_lo: float, v_hi: float) -> Callable:
    """h(s) = v_lo^{(s-lo)/(hi-lo)} v_hi^{(hi-s)/(hi-lo)}, vectorized, for v_lo, v_hi > 0.

    The log-convex middles of the chain and of the mean sandwich are h of an
    operator, one scalar functional calculus (``FamilySums.geometric``).
    """
    log_lo = math.log(v_lo)
    log_hi = math.log(v_hi)
    width = hi - lo

    def h(s):
        return np.exp(((s - lo) * log_lo + (hi - s) * log_hi) / width)

    return h


class Block(NamedTuple):
    """Trials with one family shape ``dims`` (dim_h, dim_k, n): their chunk ``positions``,
    per compression map a ``(trials, dim_h, dim_k)`` stack of its V (``compressions``), per
    trace map a ``(trials,)`` stack of its weight (``weights``), and ``operators``
    ``(trials, n, dim_h, dim_h)``, operator i for map i.  The compressions and then the
    trace maps are the maps ``order`` (None: 0, 1, ..., n - 1) of each family."""

    positions: Sequence[int]
    dims: Tuple[int, int, int]
    compressions: Sequence[np.ndarray]
    weights: Sequence[np.ndarray]
    operators: np.ndarray
    order: Optional[Sequence[int]] = None


def _per_stack(build: Callable) -> Callable:
    """An operand method of ``FamilySums``, built at most once per stack and arguments."""

    def operand(self, *args) -> HermitianOperator:
        key = (build.__name__, *args)
        value = self.operands.get(key)
        if value is None:
            value = self.operands[key] = build(self, *args)
        return value

    return functools.wraps(build)(operand)


class FamilySums:
    """The family sums of trials with one codomain dimension, keyed by object, each a stack
    with one matrix per trial at chunk ``positions`` (ascending), and the operands built on them.

    An operand's generator g is None for the raw A_i, whose endpoint values
    are m and M; each operand is built, and each spectrum solved
    (:meth:`decompose`), at most once per stack.
    """

    def __init__(self, positions, sums: Dict[tuple, HermitianOperator], bounds: SpectralBounds):
        self.positions, self.sums, self.bounds = positions, sums, bounds
        self.operands: Dict[tuple, HermitianOperator] = {}
        self.spectra: Dict[tuple, SpectralDecomposition] = {}

    def sum(self, g, squared: bool = False) -> HermitianOperator:
        return self.sums[g, squared]

    def decompose(self, *operands: tuple) -> List[SpectralDecomposition]:
        """The decompositions of ``operands``, each a method name and its arguments such as
        ``("pre_mean", g)``: those not kept yet are built, in order, then solved in one
        ``spectral_decompose`` of their stack, with its Hermiticity check, and kept.  numpy's
        ``eigh`` treats each matrix of a stack as it treats it alone, so none moves a bit."""
        new = [key for key in dict.fromkeys(operands) if key not in self.spectra]
        if new:
            built = [getattr(self, name)(*args).entries for name, *args in new]
            stacked = built[0][None] if len(built) == 1 else np.stack(built)  # a lone operand is not copied
            dec = spectral_decompose(HermitianOperator(stacked))
            for key, values, vectors in zip(new, dec.eigenvalues, dec.eigenvectors):
                self.spectra[key] = SpectralDecomposition(values, vectors)
        return [self.spectra[key] for key in operands]

    @_per_stack
    def pre_mean(self, g) -> HermitianOperator:
        """(g(M) + g(m)) I - T_g, the operand of g^{-1} in the quasi-arithmetic mean."""
        lo, hi = endpoint_values(g, self.bounds)
        return (hi + lo) * HermitianOperator.identity(self.sum(g).dim) - self.sum(g)

    @_per_stack
    def mean(self, g, h) -> HermitianOperator:
        """h(pre_mean(g)) by clamped functional calculus on g([m, M]): the Mercer lhs
        f((M+m) I - S) for (g, h) = (None, f), the quasi-arithmetic mean QM_g for (g, g^{-1})."""
        (dec,) = self.decompose(("pre_mean", g))
        return apply_to_decomposition(h, dec, image_interval(g, self.bounds))

    @_per_stack
    def diamond(self, g) -> HermitianOperator:
        """The diamond term in g-coordinates; for g None the plain diamond D."""
        return _diamond_term(self.sum(g), self.sum(g, True), *endpoint_values(g, self.bounds))

    @_per_stack
    def refined(self, psi, phi, c: float) -> HermitianOperator:
        """pre_mean(psi) - c diamond(phi); raises ``OperandOverflow`` unless every entry is finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            operand = self.pre_mean(psi) - c * self.diamond(phi)
        if not np.isfinite(operand.entries).all():
            m, M = self.bounds.m, self.bounds.M
            raise OperandOverflow(f"the refined operand overflows on [{m:.12g}, {M:.12g}] ({c:.6g} times the diamond)")
        return operand

    @_per_stack
    def geometric(self, g, v_lo: float, v_hi: float) -> HermitianOperator:
        """h(T_g) on g([m, M]), for the h of :func:`geometric_interpolant` from g(m), g(M), v_lo and v_hi."""
        h = geometric_interpolant(*endpoint_values(g, self.bounds), v_lo, v_hi)
        (dec,) = self.decompose(("sum", g))
        return apply_to_decomposition(h, dec, image_interval(g, self.bounds))


def endpoint_values(g, bounds: SpectralBounds) -> Tuple[float, float]:
    """(g(m), g(M)), or (m, M) for g None."""
    return (float(bounds.m), float(bounds.M)) if g is None else (float(g(bounds.m)), float(g(bounds.M)))


def image_interval(g, bounds: SpectralBounds) -> SpectralBounds:
    """g([m, M]) for a monotone g, its endpoint values in ascending order; [m, M] for g None."""
    return SpectralBounds(*sorted(endpoint_values(g, bounds)))


def _diamond_term(total: HermitianOperator, squares: HermitianOperator, lo: float, hi: float) -> HermitianOperator:
    """(hi + lo) T - hi lo I - (T^2 + sum_i Phi_i(X_i^2)) / 2 for T = sum_i Phi_i(X_i).

    PSD whenever every X_i has spectrum in [lo, hi]: it averages
    (hi I - T)(T - lo I) and the images of (hi I - X_i)(X_i - lo I).
    """
    t_squared = HermitianOperator(total.entries @ total.entries)
    eye = HermitianOperator.identity(total.dim)
    return (hi + lo) * total - (hi * lo) * eye - 0.5 * (t_squared + squares)


def operand_sums(phi, psi) -> List[tuple]:
    """The keys of the family sums that every operand of a generator pair reads: of phi(A_i),
    psi(A_i) and phi(A_i)^2.  A chain of f is the pair (None, f): A_i, f(A_i) and A_i^2."""
    return [(phi, False), (psi, False), (phi, True)]


def _objects(a: np.ndarray, dec: SpectralDecomposition, keys) -> np.ndarray:
    """The stack ``(len(keys), N, d, d)`` of the objects ``keys`` of the operators ``a`` ``(N, d, d)``:
    per g, the raw A_i (None), the identity (``UNIT``) or g(A_i) from ``dec``, squared when asked."""
    images = {None: a, UNIT[0]: np.broadcast_to(np.eye(a.shape[-1], dtype=a.dtype), a.shape)}
    for g, _ in keys:
        if g not in images:
            images[g] = apply_to_decomposition(g, dec).entries
    return np.stack([images[g] @ images[g] if squared else images[g] for g, squared in keys])


def stage_one(blocks: Sequence, bounds: SpectralBounds, keys) -> List[FamilySums]:
    """The family sums of the objects ``keys`` for the trials of ``blocks`` (each a ``Block``,
    such as a ``sampling.SampledGroup``), one ``FamilySums`` per dim_k, with every check of
    :func:`trial_sums` made per trial.

    An interval on which a squared object could overflow raises
    ``OperandOverflow`` first.  Per dim_h, one ``spectral_decompose`` of
    every A_i, with its Hermiticity check, and the objects built on it,
    generators seeing the spectra clamped onto [m, M]; per (dim_h, dim_k),
    the maps applied to every object at once, all compressions as one
    ``Compression`` and all trace maps as one ``WeightedTrace``; per dim_k,
    each trial's images summed in map order, exactly 0.0 + img_1 + ... +
    img_n.  A trial with fewer maps than the most of its dim_k adds +0.0
    images after its own, which change no entry: a partial sum starting at
    0.0 + img_1 is never -0.0.  After the sums come the unitality of every
    family (the ``UNIT`` object), by ``maps.unitality_defect``, which solves
    no spectrum of a family its Frobenius bound clears, then the range of
    every spectrum.
    """
    keys = list(dict.fromkeys([*keys, UNIT]))
    for g in (g for g, squared in keys if squared):  # 4 max |g|^2 bounds g's squares and diamond
        peak = max(map(abs, endpoint_values(g, bounds)))
        if not math.isfinite(4.0 * peak * peak):
            name = "A_i" if g is None else f"{g.label()}(A_i)"
            raise OperandOverflow(f"the squares of {name} overflow on [{bounds.m:.12g}, {bounds.M:.12g}]")
    # Per dim_h, per (dim_k, kind of map): (V or weight stack, its operators, their positions, map
    # index) of every block's maps of that kind; the A_i of a dim_h are stacked in this order, so
    # each (dim_k, kind) applies its maps to one contiguous slice of the objects.
    slots: Dict[int, Dict[tuple, list]] = {}
    for block in blocks:
        (dim_h, dim_k, n), positions = block.dims, np.asarray(block.positions)
        groups = slots.setdefault(dim_h, {})
        maps = [(Compression, v) for v in block.compressions] + [(WeightedTrace, w) for w in block.weights]
        for i, (kind, data) in zip(block.order or range(n), maps):
            groups.setdefault((dim_k, kind), []).append((data, block.operators[:, i], positions, i))
    by_dim_k: Dict[int, tuple] = {}  # per dim_k: the images, positions and map indices of every map
    ranges = []
    for dim_h, groups in slots.items():
        same = [slot for group in groups.values() for slot in group]
        a = np.concatenate([operators for _, operators, _, _ in same])
        dec = spectral_decompose(HermitianOperator(a))
        ranges.append((dec.eigenvalues, same))  # the range raises after the unitality
        dec = SpectralDecomposition(np.clip(dec.eigenvalues, bounds.m, bounds.M), dec.eigenvectors)
        objects, start = _objects(a, dec, keys), 0
        for (dim_k, kind), group in groups.items():
            data, _, positions, index = zip(*group)
            stop = start + sum(map(len, positions))
            data = np.concatenate(data)
            phi = Compression(data) if kind is Compression else WeightedTrace(data, dim_h, dim_k)
            parts = by_dim_k.setdefault(dim_k, ([], [], []))
            parts[0].append(apply_map(phi, HermitianOperator(objects[:, start:stop])).entries)
            parts[1].extend(positions)
            parts[2].extend(np.full(len(p), i) for p, i in zip(positions, index))
            start = stop
    stacks = []
    for dim_k, (images, positions, index) in by_dim_k.items():
        positions, index = np.concatenate(positions), np.concatenate(index)
        trials = np.sort(positions[index == 0])  # every family has a first map
        padded = np.zeros((index.max() + 1, len(keys), len(trials), dim_k, dim_k), dtype=np.complex128)
        padded[index, :, np.searchsorted(trials, positions)] = np.concatenate(images, axis=1).swapaxes(0, 1)
        total = sum(padded, 0.0)  # 0.0 + img_1 + img_2 + ..., in map order
        total = 0.5 * (total + total.conj().swapaxes(-1, -2))
        stacks.append(FamilySums(trials, dict(zip(keys, map(HermitianOperator, total))), bounds))

    for stack in stacks:
        defects = unitality_defect(stack.sums[UNIT])
        if (defects > UNITALITY_ABS).any():
            raise HypothesisNotMet(f"map family is not unital (defect {defects[defects > UNITALITY_ABS][0]:.3e})")
    for lam, same in ranges:
        outside = np.flatnonzero(bounds.outside(lam))
        if len(outside):  # name the first failing operator, in trial then map order
            position = np.concatenate([p for _, _, p, _ in same])
            index = np.concatenate([np.full(len(p), i) for _, _, p, i in same])
            k = min(outside, key=lambda r: (position[r], index[r]))
            lo, hi = lam[k, [0, -1]]
            raise SpectrumOutOfDomain(
                f"operator {index[k]} has spectrum [{lo:.12g}, {hi:.12g}] outside "
                f"[{bounds.m:.12g}, {bounds.M:.12g}]"
            )
    return stacks


def trial_sums(
    family: MapFamily, operators: Sequence[HermitianOperator], bounds: SpectralBounds, keys
) -> FamilySums:
    """The family sums of the objects ``keys`` of one trial whose hypotheses hold, a chunk of
    one on :func:`stage_one`: one operator per map, then the unitality of the family, then
    every spectrum in [m, M] up to the clamp band, checked in that order."""
    if len(operators) != family.size:
        raise ArityMismatch(f"{family.size} maps but {len(operators)} operators")
    maps = family.maps
    compressions = [i for i, phi in enumerate(maps) if isinstance(phi, Compression)]
    traces = [i for i, phi in enumerate(maps) if not isinstance(phi, Compression)]
    block = Block(  # a trial axis of one
        (0,),
        (family.dim_in, family.dim_out, family.size),
        [maps[i].v[None] for i in compressions],
        [np.full(1, maps[i].weight) for i in traces],
        np.stack([a.entries for a in operators])[None],
        compressions + traces,
    )
    (stack,) = stage_one([block], bounds, keys)
    sums = {key: HermitianOperator(op.entries[0]) for key, op in stack.sums.items()}
    return FamilySums(stack.positions, sums, bounds)


class Check(NamedTuple):
    """One row of a check table, a chain's (``mercer.CHAINS``) or the sweep's (``quasimeans.MEAN_CHECKS``):
    ``relation(facts)`` is the relation each of its ``pairs`` of sides (left, right) asserts, or None
    when the row is not judged; the facts are a chain gate's scalars, or the sweep's resolved spec."""

    relation: Callable[..., Optional[Relation]]
    pairs: Tuple[Tuple[str, str], ...]


def judge(rows: Sequence[tuple], orders: Dict[tuple, LoewnerOrder], trials: int, inside: Optional[dict] = None) -> list:
    """Per trial of a stack of ``trials``, the (gap, holds) of each of ``rows`` (a table's judged rows
    with their relations) from ``orders``, the comparison of each pair: the least of the row's pairs'
    ``slack(relation)``, and whether every pair ``holds``, the one violation rule.  A trial is a
    domain skip, None, of a row one of whose sides ``inside`` (a mask per side label) masks out."""
    columns = []
    for check, relation in rows:
        compared = [orders[pair] for pair in check.pairs]
        gaps = [order.slack(relation).reshape(-1).tolist() for order in compared]
        holds = [order.holds(relation).reshape(-1).tolist() for order in compared]
        if len(compared) > 1:
            gaps, holds = [list(map(min, zip(*gaps)))], [list(map(all, zip(*holds)))]
        column = list(zip(gaps[0], holds[0]))
        for label in {label for pair in check.pairs for label in pair} & (inside or {}).keys():
            column = [entry if ok else None for entry, ok in zip(column, inside[label].tolist())]
        columns.append(column)
    return list(zip(*columns)) if columns else [()] * trials
