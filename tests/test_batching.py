"""Grouping a suite's trials by shape changes nothing a trial reports.

A verify suite evaluates each shape group of a chunk as one stacked
instance.  Every trial's contract gaps must equal, bit for bit, those of
``replay_trial``, which samples and evaluates the trial alone, and
a failing suite must raise the error of its lowest failing trial, as
evaluating trial after trial would.
"""

import math

import numpy as np
import pytest

from mercerlab import harness
from mercerlab.errors import HypothesisNotMet, SpectrumOutOfDomain
from mercerlab.functions import parse_function_spec
from mercerlab.harness import TrialConfig, normalize_chain, replay_trial, suite_outcomes
from mercerlab.linalg import HermitianOperator, Relation
from mercerlab.sampling import generator

PI4, PI2 = math.pi / 4, math.pi / 2

SUITES = [
    # (function, chain, m, M, force, mixed, vary_dims, trials)
    ("exp", "classic", 1.0, 3.0, False, False, False, 12),
    ("exp", "chain", 1.0, 3.0, False, False, False, 12),
    ("exp", "twice-diff", 1.0, 3.0, False, False, False, 12),
    ("exp", "log-convex", 1.0, 3.0, False, False, False, 12),
    ("sin", "classic", PI4, PI2, True, False, False, 12),
    ("exp", "chain", 1.0, 3.0, False, True, True, 60),
    ("exp", "twice-diff", 1.0, 3.0, False, True, True, 60),
]


@pytest.fixture
def group_sizes(monkeypatch):
    """The trial count of every instance a suite evaluates."""
    sizes = []
    original = harness.evaluate_trials

    def spy(inst, *args, **kwargs):
        sizes.append(inst.trials)
        return original(inst, *args, **kwargs)

    monkeypatch.setattr(harness, "evaluate_trials", spy)
    return sizes


@pytest.mark.parametrize("fn, chain, m, M, force, mixed, vary, trials", SUITES)
def test_every_trial_matches_its_replay(group_sizes, fn, chain, m, M, force, mixed, vary, trials):
    config = TrialConfig(
        seed=21, function_spec=fn, chain=chain, m=m, M=M, force=force, mixed=mixed, vary_dims=vary
    )
    outcomes = list(
        suite_outcomes(config, trials, parse_function_spec(fn), normalize_chain(chain))
    )
    assert [o.trial for o in outcomes] == list(range(trials))
    if vary:
        assert max(group_sizes) >= 2  # some shapes hold several trials
    else:
        assert group_sizes == [trials]  # one shape, one stacked group
    for outcome in outcomes:
        stacked = {f"{left}<={right}": gap.hex() for left, right, gap, _ in outcome.pairs}
        alone = {key: gap.hex() for key, gap in replay_trial(config, outcome.trial).items()}
        assert stacked == alone, outcome.trial


def test_failing_suite_raises_the_lowest_failing_trial(monkeypatch):
    # Trial 3 has an operator outside [m, M]; trial 7 a non-unital family.
    # Stacked, the family check runs before the range check, so only the
    # trial-by-trial re-run finds trial 3's error first.  The chunk sampler
    # serves the suite and the one-trial replay alike.
    original = harness._sample_chunk

    def broken(config, indices):
        seeds, groups = original(config, indices)
        for group in groups:
            for j, pos in enumerate(group.positions):
                if indices[pos] == 3:
                    group.operators[j, 0] *= 10.0
                if indices[pos] == 7:
                    group.compressions[:, j] *= 1.5
        return seeds, groups

    monkeypatch.setattr(harness, "_sample_chunk", broken)
    config = TrialConfig(seed=4, function_spec="exp", chain="chain")
    with pytest.raises(SpectrumOutOfDomain) as expected:
        replay_trial(config, 3)
    with pytest.raises(HypothesisNotMet):
        replay_trial(config, 7)
    with pytest.raises(SpectrumOutOfDomain) as raised:
        harness.run_suite(config, 12)
    assert str(raised.value) == str(expected.value)


def test_signed_slack_of_a_stack_is_per_matrix():
    rng = generator(5)
    for dim in (1, 3, 5):
        raw = rng.standard_normal((2, 7, dim, dim)) + 1j * rng.standard_normal((2, 7, dim, dim))
        lefts, rights = (HermitianOperator(0.5 * (z + z.conj().swapaxes(-1, -2))) for z in raw)
        for relation in (Relation.LESS_EQUAL, Relation.GREATER_EQUAL, Relation.EQUAL):
            stacked = harness._signed_slack(lefts, rights, relation)
            single = [
                harness._signed_slack(HermitianOperator(left), HermitianOperator(right), relation)
                for left, right in zip(lefts.entries, rights.entries)
            ]
            assert stacked.tobytes() == np.array(single).tobytes()
