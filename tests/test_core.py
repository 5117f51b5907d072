"""Stage 1 sums every trial's images in map order, bit for bit as the trial alone.

``core.stage_one`` applies the maps of a chunk once per (dim_h, dim_k) and
sums each trial's images on one stack per codomain dimension, padding a
family with fewer maps than the most of its dim_k with +0.0 images.
``core.stack_trials`` lays trials out as stage 1 reads them, and
``core.unstack`` gives them back.  Every
sum must equal, by ``float.hex``, ``maps.family_sum`` of that trial alone:
0.0 + img_1 + ... + img_n, which turns a -0.0 entry of img_1 into +0.0.
The same holds for ``core.trial_sums``, one trial as a checked chunk of one.
"""

import numpy as np

from mercerlab.core import UNIT, stack_trials, stage_one, trial_sums, unstack
from mercerlab.linalg import HermitianOperator, SpectralBounds
from mercerlab.maps import Compression, MapFamily, WeightedTrace, apply_map, family_sum
from mercerlab.sampling import generator, random_hermitian, random_unital_family

# Negative spectra give trace images -0.0 off-diagonal entries: w tr(A) < 0 times 0.
BOUNDS = SpectralBounds(-3.0, -1.0)


def hexes(mat):
    return [x.hex() for x in np.concatenate([mat.real.ravel(), mat.imag.ravel()]).tolist()]


def has_negative_zero(mat):
    return any(bool(np.any((part == 0) & np.signbit(part))) for part in (mat.real, mat.imag))


def test_map_order_sums_equal_family_sum_trial_by_trial():
    # dim_k = 2: n = 1..4 over two dim_h, with and without a trace map last,
    # so the shorter families are padded, and n = 3, 4 with the trace map
    # first, so a stack's maps are not in map order.  dim_k = 3: lone trace
    # maps only, unpadded, whose -0.0 entries only the leading 0.0 + turns into +0.0.
    rng = generator(17)
    shapes = [(dim_h, 2, n, mixed, False) for dim_h in (2, 3) for n in (1, 2, 3, 4) for mixed in (False, True)]
    shapes += [(dim_h, 2, n, True, True) for dim_h in (2, 3) for n in (3, 4)]
    shapes += [(4, 3, 1, True, False), (3, 3, 1, True, False)]
    order = rng.permutation(3 * len(shapes))  # chunk positions, interleaved across shapes
    chunk, trials = [], {}
    for k, (dim_h, dim_k, n, mixed, trace_first) in enumerate(shapes):
        families = [random_unital_family(n, dim_h, dim_k, rng, include_trace=mixed) for _ in range(3)]
        if trace_first:
            families = [MapFamily(family.maps[-1:] + family.maps[:-1]) for family in families]
        operators = [tuple(random_hermitian(dim_h, BOUNDS, rng) for _ in range(n)) for _ in families]
        positions = order[3 * k : 3 * k + 3].tolist()
        chunk += zip(positions, families, operators)
        trials.update(zip(positions, zip(families, operators)))

    keys = [(None, False), (None, True), UNIT]
    stacks = stage_one(stack_trials(chunk), BOUNDS, keys)
    assert sorted(len(stack.positions) for stack in stacks) == [6, 60]
    assert sorted(p for stack in stacks for p in stack.positions.tolist()) == sorted(trials)
    for stack in stacks:
        negative_zeros = 0
        for row, position in enumerate(stack.positions.tolist()):
            family, operators = trials[position]
            objects = {
                keys[0]: operators,
                keys[1]: [HermitianOperator(a.entries @ a.entries) for a in operators],
                UNIT: [HermitianOperator.identity(family.dim_in)] * family.size,
            }
            for key, xs in objects.items():
                assert hexes(stack.sums[key].entries[row]) == hexes(family_sum(family, xs).entries), (position, key)
            negative_zeros += has_negative_zero(apply_map(family.maps[0], operators[0]).entries)
        assert negative_zeros > 0  # some family's first image holds -0.0 entries
    assert {family.size for family, _ in trials.values()} == {1, 2, 3, 4}

    # unstack is stack_trials' inverse: every map and operator comes back in its trial's map order
    again = unstack(stack_trials(chunk))
    assert sorted(again) == sorted(trials)
    for position, (family, operators) in trials.items():
        family_again, operators_again = again[position]
        assert [type(phi) for phi in family_again.maps] == [type(phi) for phi in family.maps]
        for phi, phi_again in zip(family.maps, family_again.maps):
            if isinstance(phi, Compression):
                assert phi_again.v.tobytes() == phi.v.tobytes()
            else:
                assert phi_again == phi
        assert [a.entries.tobytes() for a in operators_again] == [a.entries.tobytes() for a in operators]


def test_trial_sums_of_a_family_out_of_map_order():
    # One trial is a checked chunk of one, whose block holds the compressions
    # before the trace map: with the trace map first, each map must still
    # meet its own operator and the images be summed in map order.
    rng = generator(5)
    keys = [(None, False), (None, True)]
    for n in (2, 3, 4):
        family = random_unital_family(n, 3, 2, rng, include_trace=True)
        family = MapFamily(family.maps[-1:] + family.maps[:-1])
        assert isinstance(family.maps[0], WeightedTrace)
        operators = tuple(random_hermitian(3, BOUNDS, rng) for _ in range(n))
        sums = trial_sums(family, operators, BOUNDS, keys)
        squares = [HermitianOperator(a.entries @ a.entries) for a in operators]
        for key, xs in zip(keys, (operators, squares)):
            assert hexes(sums.sum(*key).entries) == hexes(family_sum(family, xs).entries), (n, key)
