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

A chunk of trials of any shapes has one layout, from the sampler's draws
to the sums: per operator dimension dim_h an ``OperatorStack``, its
operators one row each, with a ``FamilyStack`` per codomain dimension dim_k,
its families along a map axis.  ``stage_one`` works on it as it is: one
eigendecomposition per dim_h, the maps once per (dim_h, dim_k), the sums
per dim_k.  Every matrix goes through the numpy operations it would go
through alone, so a sum is bit for bit the one of ``maps.family_sum`` on
that trial, and every chunk is checked alike.  ``stack_trials`` lays out
trials given as families and operators, and ``unstack`` gives them back;
``trial_sums`` is one trial, a chunk of one.

Stage 2 of verify and of the sweep ends alike: ``Check`` is the one row
type of both check tables, and ``judge`` turns a stack's comparisons into
each judged row's (gap, holds) per trial.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ArityMismatch, DimensionMismatch, HypothesisNotMet, OperandOverflow, SpectrumOutOfDomain
from .linalg import (
    HermitianOperator,
    LoewnerOrder,
    Relation,
    SpectralBounds,
    SpectralDecomposition,
    apply_to_decomposition,
    spectral_decompose,
)
from .maps import Compression, MapFamily, WeightedTrace, unitality_defect
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


class FamilyStack(NamedTuple):
    """The families of the trials of a chunk with one (dim_h, dim_k), trial row t at chunk position
    ``positions[t]``, along a map axis: slot (t, i) is map i of the family of row t, a compression
    with V ``compressions[t, i]`` (dim_h x dim_k) where ``is_compression[t, i]``, a weighted trace
    of weight ``weights[t, i]`` where ``is_trace[t, i]``, and no map past the family's last, where
    the arrays' entries mean nothing.  Only the map axis is padded, never dim_h or dim_k."""

    positions: np.ndarray
    compressions: np.ndarray
    weights: np.ndarray
    is_compression: np.ndarray
    is_trace: np.ndarray

    def rows(self) -> List[List[int]]:
        """Per trial row, the row of the operator of each of its maps, in map order, counted from the
        stack's first row in its ``OperatorStack``: the stack's operators are those of its compression
        slots in row-major order, then those of its trace slots."""
        compressions = self.is_compression.tolist()
        row, trace_row, rows = 0, sum(map(sum, compressions)), []
        for flags, traces in zip(compressions, self.is_trace.tolist()):
            rows.append([])
            for compression, trace in zip(flags, traces):
                if compression or trace:
                    rows[-1].append(row if compression else trace_row)
                    row, trace_row = row + compression, trace_row + trace
        return rows


class OperatorStack(NamedTuple):
    """The trials of a chunk with one dim_h: ``operators`` ``(rows, dim_h, dim_h)`` holds the operators
    of each ``FamilyStack`` of ``families`` (one per dim_k) in turn, at the rows its ``rows`` gives."""

    operators: np.ndarray
    families: Sequence[FamilyStack]


def stack_trials(trials: Sequence[tuple]) -> List[OperatorStack]:
    """The stacks of ``trials``, each (position, family, operators) with one operator per map and its
    maps in any order: per dim_h in order of first appearance an ``OperatorStack``, with a
    ``FamilyStack`` per dim_k in order of first appearance, whose rows are the trials in their order."""
    shapes: Dict[int, Dict[int, list]] = {}
    for trial in trials:
        shapes.setdefault(trial[1].dim_in, {}).setdefault(trial[1].dim_out, []).append(trial)
    stacks = []
    for dim_h, by_dim_k in shapes.items():
        families, rows = [], []
        for dim_k, group in by_dim_k.items():
            slots = (len(group), max(family.size for _, family, _ in group))
            compressions = np.zeros(slots + (dim_h, dim_k), dtype=np.complex128)
            weights, is_compression, is_trace = np.zeros(slots), np.zeros(slots, dtype=bool), np.zeros(slots, dtype=bool)
            for t, (_, family, _) in enumerate(group):
                for i, phi in enumerate(family.maps):
                    if isinstance(phi, Compression):
                        compressions[t, i], is_compression[t, i] = phi.v, True
                    else:
                        weights[t, i], is_trace[t, i] = phi.weight, True
            stack = FamilyStack(np.array([trial[0] for trial in group]), compressions, weights, is_compression, is_trace)
            families.append(stack)
            placed = {row: a.entries for (_, _, ops), rows_t in zip(group, stack.rows()) for row, a in zip(rows_t, ops)}
            rows += [placed[row] for row in range(len(placed))]
        stacks.append(OperatorStack(np.stack(rows), families))
    return stacks


def unstack(stacks: Sequence[OperatorStack]) -> Dict[int, Tuple[MapFamily, Tuple[HermitianOperator, ...]]]:
    """The (family, operators) of each trial of ``stacks``, by chunk position, each map a view of its
    stack's arrays: the inverse of :func:`stack_trials`."""
    trials = {}
    for operators, families in stacks:
        start = 0
        for stack in families:
            dim_h, dim_k = stack.compressions.shape[-2:]
            rows = stack.rows()
            for t, (position, rows_t) in enumerate(zip(stack.positions.tolist(), rows)):
                family = [
                    Compression(stack.compressions[t, i])
                    if stack.is_compression[t, i]
                    else WeightedTrace(stack.weights[t, i], dim_in=dim_h, dim_out=dim_k)
                    for i in range(len(rows_t))
                ]
                ops = tuple(HermitianOperator(operators[start + row]) for row in rows_t)
                trials[position] = MapFamily(maps=tuple(family)), ops
            start += sum(map(len, rows))
    return trials


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
    with one matrix per trial at chunk ``positions`` (ascending within each dim_h), and the operands built on them.

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


def stage_one(stacks: Sequence[OperatorStack], bounds: SpectralBounds, keys) -> List[FamilySums]:
    """The family sums of the objects ``keys`` for the trials of a chunk's ``stacks`` (as
    ``sampling.sample_trials`` lays them out), one ``FamilySums`` per dim_k, with every check of
    :func:`trial_sums` made per trial.

    An interval on which a squared object could overflow raises
    ``OperandOverflow`` first.  Per dim_h, one ``spectral_decompose`` of
    the stack's operators, with its Hermiticity check, and the objects built
    on it, generators seeing the spectra clamped onto [m, M]; per
    ``FamilyStack`` (dim_h, dim_k), the maps applied to every object at
    once, all its compressions as one ``Compression`` and all its trace maps
    as one ``WeightedTrace``, each image written to its trial's map slot;
    per dim_k, each trial's images summed in map order, exactly 0.0 + img_1
    + ... + img_n.  A trial with fewer maps than the most of its dim_k adds
    +0.0 images after its own, which change no entry: a partial sum
    starting at 0.0 + img_1 is never -0.0.  After the sums come the
    unitality of every family (the ``UNIT`` object), by
    ``maps.unitality_defect``, which solves no spectrum of a family its
    Frobenius bound clears, then the range of every spectrum.
    """
    keys = list(dict.fromkeys([*keys, UNIT]))
    for g in (g for g, squared in keys if squared):  # 4 max |g|^2 bounds g's squares and diamond
        peak = max(map(abs, endpoint_values(g, bounds)))
        if not math.isfinite(4.0 * peak * peak):
            name = "A_i" if g is None else f"{g.label()}(A_i)"
            raise OperandOverflow(f"the squares of {name} overflow on [{bounds.m:.12g}, {bounds.M:.12g}]")
    # Per dim_k, the images of every map of its trials, (map slot, keys, trials, dim_k, dim_k), each
    # family stack's trials after the previous one's, and their positions.
    images, positions = {}, {}
    every = [family for _, families in stacks for family in families]
    for dim_k in dict.fromkeys(family.compressions.shape[-1] for family in every):
        same = [family for family in every if family.compressions.shape[-1] == dim_k]
        trials, width = sum(len(family.positions) for family in same), max(family.weights.shape[1] for family in same)
        images[dim_k], positions[dim_k] = np.zeros((width, len(keys), trials, dim_k, dim_k), dtype=np.complex128), []
    ranges = []
    for operators, families in stacks:
        dec = spectral_decompose(HermitianOperator(operators))
        ranges.append((dec.eigenvalues, families))  # the range raises after the unitality
        dec = SpectralDecomposition(np.clip(dec.eigenvalues, bounds.m, bounds.M), dec.eigenvectors)
        objects, start = _objects(operators, dec, keys), 0
        for family in families:
            dim_h, dim_k = family.compressions.shape[-2:]
            filled = sum(map(len, positions[dim_k]))
            slots = images[dim_k][: family.weights.shape[1], :, filled : filled + len(family.positions)]
            slots = slots.transpose(1, 2, 0, 3, 4)  # a view (keys, trials, map slot, dim_k, dim_k)
            positions[dim_k].append(family.positions)
            for mask in (family.is_compression, family.is_trace):
                stop = start + np.count_nonzero(mask)
                if stop > start:
                    if mask is family.is_compression:
                        phi = Compression(family.compressions[mask])
                    else:
                        phi = WeightedTrace(family.weights[mask], dim_in=dim_h, dim_out=dim_k)
                    slots[:, mask] = phi.apply(objects[:, start:stop])
                start = stop
    sums = []
    for dim_k, slots in images.items():
        slots = 0.5 * (slots + slots.conj().swapaxes(-1, -2))  # each image's Hermitian part, as apply_map's
        total = sum(slots, 0.0)  # 0.0 + img_1 + img_2 + ..., in map order
        total = 0.5 * (total + total.conj().swapaxes(-1, -2))
        sums.append(FamilySums(np.concatenate(positions[dim_k]), dict(zip(keys, map(HermitianOperator, total))), bounds))

    for stack in sums:
        defects = unitality_defect(stack.sums[UNIT])
        if (defects > UNITALITY_ABS).any():
            raise HypothesisNotMet(f"map family is not unital (defect {defects[defects > UNITALITY_ABS][0]:.3e})")
    for lam, families in ranges:
        outside = set(np.flatnonzero(bounds.outside(lam)).tolist())
        if outside:  # name the first failing operator, in trial then map order
            failing, start = [], 0
            for family in families:
                rows = family.rows()
                for position, rows_t in zip(family.positions.tolist(), rows):
                    failing += [(position, i, start + row) for i, row in enumerate(rows_t) if start + row in outside]
                start += sum(map(len, rows))
            _, index, k = min(failing)
            lo, hi = lam[k, [0, -1]]
            raise SpectrumOutOfDomain(
                f"operator {index} has spectrum [{lo:.12g}, {hi:.12g}] outside "
                f"[{bounds.m:.12g}, {bounds.M:.12g}]"
            )
    return sums


def trial_sums(
    family: MapFamily, operators: Sequence[HermitianOperator], bounds: SpectralBounds, keys
) -> FamilySums:
    """The family sums of the objects ``keys`` of one trial whose hypotheses hold, a chunk of
    one on :func:`stage_one`: one operator per map, then the unitality of the family, then
    every spectrum in [m, M] up to the clamp band, checked in that order."""
    if len(operators) != family.size:
        raise ArityMismatch(f"{family.size} maps but {len(operators)} operators")
    for a in operators:
        if a.dim != family.dim_in:
            raise DimensionMismatch(f"operator dim {a.dim} does not match map dim_in {family.dim_in}")
    (stack,) = stage_one(stack_trials([(0, family, operators)]), bounds, keys)
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
