"""Grouping a suite's trials by shape changes nothing a trial reports.

A verify suite and a sweep both build the operands of a chunk in
``core.stage_one``, per matrix dimension whatever the trials' shapes, then
run the rest once per codomain dimension, on the operands of every trial
of that dimension.  Every verify trial's
contract gaps must equal, bit for bit, those of ``replay_trial``, which
samples and evaluates the trial alone, and those of ``evaluate_chain`` on
the trial's ``MercerInstance``, and a verify or sweep report must
equal, byte for byte, the one of chunks of one trial.  A failing suite or
sweep must raise the error of its lowest failing trial, as evaluating
trial after trial would.
"""

import json
import math

import numpy as np
import pytest

from mercerlab import core, harness, mercer
from mercerlab.errors import HypothesisNotMet, InverseDomainError, SpectrumOutOfDomain
from mercerlab.functions import parse_function_spec
from mercerlab.harness import (
    TrialConfig,
    build_instance,
    normalize_chain,
    replay_trial,
    run_suite,
    run_sweep,
    suite_outcomes,
)
from mercerlab.linalg import (
    HermitianOperator,
    Relation,
    apply_to_decomposition,
    loewner_orders,
    spectral_decompose,
)
from mercerlab.core import judge
from mercerlab.mercer import evaluate_chain
from mercerlab.quasimeans import (
    ALPHA_SIDE,
    BETA_SIDE,
    MEAN_CHECKS,
    MIDDLE,
    QM_PHI,
    QM_PSI,
    compare_means,
    curvature_bound_expected_relation,
    curvature_mean_bound,
    inverse_of_decomposition,
    inverse_within_domain,
    mercer_quasi_mean,
    resolve_spec,
)
from mercerlab.sampling import generator

PI4, PI2 = math.pi / 4, math.pi / 2


def mean_gaps(spec, rows, stack):
    """Per trial of a stack, the gap of each of a sweep's judged ``rows``, None for a domain skip."""
    orders, inside = compare_means(spec, rows, stack, 0.0)
    judged = judge(rows, orders, len(stack.positions), inside)
    return [[None if entry is None else entry[0] for entry in trial] for trial in judged]


SUITES = [
    # (function, chain, m, M, force, mixed, vary_dims, trials)
    ("exp", "classic", 1.0, 3.0, False, False, False, 12),
    ("exp", "chain", 1.0, 3.0, False, False, False, 12),
    ("exp", "twice-diff", 1.0, 3.0, False, False, False, 12),
    ("exp", "log-convex", 1.0, 3.0, False, False, False, 12),
    ("sin", "classic", PI4, PI2, True, False, False, 12),
    ("exp", "chain", 1.0, 3.0, False, True, True, 60),
    ("exp", "twice-diff", 1.0, 3.0, False, True, True, 60),
    ("sin", "classic", PI4, PI2, True, True, True, 60),
]


@pytest.fixture
def group_sizes(monkeypatch):
    """The trial count of every stack a suite evaluates."""
    sizes = []
    original = mercer.evaluate_trials

    def spy(f, which, core, *args):
        sizes.append(len(core.positions))
        return original(f, which, core, *args)

    monkeypatch.setattr(mercer, "evaluate_trials", spy)
    return sizes


@pytest.mark.parametrize("fn, chain, m, M, force, mixed, vary, trials", SUITES)
def test_every_trial_matches_its_replay(group_sizes, fn, chain, m, M, force, mixed, vary, trials):
    config = TrialConfig(
        seed=21, function_spec=fn, chain=chain, m=m, M=M, force=force, mixed=mixed, vary_dims=vary
    )
    f, which = parse_function_spec(fn), normalize_chain(chain)
    rows, outcomes = suite_outcomes(config, trials, f, which)
    pairs = [check.pairs[0] for check, _ in rows]  # each row of a chain is one compared pair
    outcomes = list(outcomes)
    assert len(outcomes) == trials
    if vary:
        assert max(group_sizes) >= 2  # some shapes hold several trials
    else:
        assert group_sizes == [trials]  # one shape, one stacked group
    for trial, (_, _, judged) in enumerate(outcomes):
        stacked = {f"{left}<={right}": gap.hex() for (left, right), (gap, _) in zip(pairs, judged)}
        alone = {key: gap.hex() for key, gap in replay_trial(config, trial).items()}
        assert stacked == alone, trial
        report = evaluate_chain(build_instance(config, trial, f)[0], which, force=force)
        instance = {f"{left}<={right}": float(report.orders[left, right].eigenvalues[0]).hex() for left, right in pairs}
        assert stacked == instance, trial


VERIFY_SUITES = [
    # (function, chain, m, M, force, mixed, tol_abs), all vary_dims
    *[("exp", chain, 1.0, 3.0, False, mixed, None)
      for chain in ("classic", "chain", "twice-diff", "log-convex") for mixed in (False, True)],
    ("sin", "classic", PI4, PI2, True, False, None),
    ("exp", "twice-diff", 1.0, 3.0, False, True, 1e-9),
]


@pytest.mark.parametrize("fn, chain, m, M, force, mixed, tol_abs", VERIFY_SUITES)
def test_stacked_verify_equals_trial_by_trial(monkeypatch, fn, chain, m, M, force, mixed, tol_abs):
    config = TrialConfig(
        seed=8, function_spec=fn, chain=chain, m=m, M=M, force=force, mixed=mixed, tol_abs=tol_abs,
        vary_dims=True,
    )
    chunks = []  # per chunk: its dim_k values, its shape count, (dim_k, trials) per evaluated stack
    outcomes = []  # per trial: index, seed, dims and its judged rows, every gap as float.hex
    sample, evaluate, grouped = harness._sample_chunk, mercer.evaluate_trials, harness._grouped_outcomes

    def sampled(*args):
        seeds, dims, stacks = sample(*args)
        chunks.append(({d[1] for d in dims}, len(set(dims)), []))
        return seeds, dims, stacks

    def evaluated(f, which, core, *args):
        chunks[-1][2].append((core.sum(None).dim, len(core.positions)))
        return evaluate(f, which, core, *args)

    def recorded(*args):
        results = grouped(*args)
        for trial, (seed, dims, judged) in zip(args[-1], results):
            outcomes.append((trial, seed, dims, [(gap.hex(), holds) for gap, holds in judged]))
        return results

    for module, name, spy in (
        (harness, "_sample_chunk", sampled), (mercer, "evaluate_trials", evaluated), (harness, "_grouped_outcomes", recorded)
    ):
        monkeypatch.setattr(module, name, spy)

    def run():
        chunks.clear()
        outcomes.clear()
        report, summary = harness.verify_report(config, 64)
        return json.dumps(report, indent=2), repr(summary.rows), list(outcomes)

    monkeypatch.setattr(harness, "CHUNK_TRIALS", 40)  # two chunks, of 40 and 24 trials
    stacked = run()
    assert len(chunks) == 2
    for dims_k, n_groups, stacks in chunks:
        assert sorted(dim for dim, _ in stacks) == sorted(dims_k)  # one evaluation per dim_k
        assert len(stacks) < n_groups
    assert sum(trials for *_, stacks in chunks for _, trials in stacks) == 64
    monkeypatch.setattr(harness, "CHUNK_TRIALS", 1)
    alone = run()
    assert stacked == alone

    # The comparison tells the trials of one stack apart: folding a stack's
    # outcomes back in reverse order must fail it.
    stage_one = harness.stage_one

    def permuted(*args, **kwargs):
        stacks = stage_one(*args, **kwargs)
        for stack in stacks:
            stack.positions = stack.positions[::-1]
        return stacks

    monkeypatch.setattr(harness, "CHUNK_TRIALS", 40)
    monkeypatch.setattr(harness, "stage_one", permuted)
    assert run() != alone


# The generator pairs of scripts/run_property_suites.py, in its order.
SWEEP_PAIRS = [("sqrt", "id"), ("log", "id"), ("square", "id"), ("id", "inv"),
               ("inv", "id"), ("id", "exp"), ("log", "square"), ("sqrt", "sqrt")]


@pytest.mark.parametrize(
    "shape",
    [dict(vary_dims=True), dict(vary_dims=True, mixed=True), dict(dim_h=3, dim_k=2, n_maps=3)],
    ids=["vary_dims", "vary_dims-mixed", "fixed-3-2-3"],
)
def test_stacked_sweep_equals_trial_by_trial(monkeypatch, shape):
    # A report holds counts, minima and violations only, so every trial's
    # gaps are compared too, as _chunk returns the stage-2 rows of
    # core.judge: per trial, its seed, dims and the (signed slack, holds) of
    # each applicable check of MEAN_CHECKS.
    trials = []
    original = harness._chunk

    def recorded(*args):
        results = original(*args)
        trials.extend(results)
        return results

    def sweeps():
        trials.clear()
        reports = [
            run_sweep(phi, psi, TrialConfig(seed=index, **shape), 60)[0]
            for index, (phi, psi) in enumerate(SWEEP_PAIRS)
        ]
        return reports, repr(trials)  # repr tells every double apart

    monkeypatch.setattr(harness, "_chunk", recorded)
    stacked, stacked_trials = sweeps()
    monkeypatch.setattr(harness, "CHUNK_TRIALS", 1)
    alone, alone_trials = sweeps()
    assert stacked_trials == alone_trials
    for pair, report, one_by_one in zip(SWEEP_PAIRS, stacked, alone):
        assert json.dumps(report, indent=2) == json.dumps(one_by_one, indent=2), pair
    if shape == dict(vary_dims=True):
        # psi^-1 = inv or log: the beta operand of most trials leaves its
        # domain, so the dim_k stacks mix skipped and evaluated trials.
        for pair in (("id", "inv"), ("id", "exp"), ("log", "square")):
            beta = stacked[SWEEP_PAIRS.index(pair)]["checks"]["curvature_bound_beta"]
            assert beta["evaluated"] > 0 and beta["domain_skips"] > 0, pair


@pytest.mark.parametrize("mixed", [False, True], ids=["plain", "mixed"])
def test_sweep_stage_two_is_the_one_trial_forms(mixed):
    # The sweep's stage 2 reads both means and each applicable curvature side
    # from the operands of a dim_k stack.  Per trial, each must be, bit for
    # bit, the public one-trial form on the trial's own family and operators,
    # and a curvature side is masked, and its row's gap a domain skip, exactly
    # where curvature_mean_bound raises.
    skips = 0
    for index, (phi, psi) in enumerate(SWEEP_PAIRS):
        config = TrialConfig(seed=index, vary_dims=True, mixed=mixed)
        spec = resolve_spec(parse_function_spec(phi), parse_function_spec(psi), config.bounds)
        names = [name for name, row in MEAN_CHECKS.items() if row.relation(spec) is not None]
        rows = [(MEAN_CHECKS[name], MEAN_CHECKS[name].relation(spec)) for name in names]
        curvature = {ALPHA_SIDE: spec.composite_curvature.alpha, BETA_SIDE: spec.composite_curvature.beta}
        sides = [side for side in curvature if curvature_bound_expected_relation(spec, side) is not None]

        def stage_two(stack):  # per trial of the stack: QM_phi, QM_psi and each side's bound or None
            gaps = mean_gaps(spec, rows, stack)
            columns = [stack.mean(spec.phi, spec.phi_inverse).entries, stack.mean(spec.psi, spec.psi_inverse).entries]
            for side in sides:
                operand = spectral_decompose(stack.refined(spec.psi, spec.phi, curvature[side]))
                image, inside, _ = inverse_of_decomposition(spec.psi_inverse, operand)
                column = names.index("curvature_bound_alpha" if side == ALPHA_SIDE else "curvature_bound_beta")
                assert [trial[column] is None for trial in gaps] == (~inside).tolist()
                bounds = iter(image.entries)
                columns.append([next(bounds) if ok else None for ok in inside.tolist()])
            return list(zip(*columns))

        stacked = harness._chunk(config, core.operand_sums(spec.phi, spec.psi), stage_two, range(60))
        for (_, _, family, ops), (_, _, row) in zip(harness._sampled_trials(config, range(60)), stacked):
            for g, mean in zip((spec.phi, spec.psi), row):
                assert mean.tobytes() == mercer_quasi_mean(g, family, ops, config.bounds).entries.tobytes()
            for side, bound in zip(sides, row[2:]):
                if bound is None:
                    skips += 1
                    with pytest.raises(InverseDomainError):
                        curvature_mean_bound(spec, family, ops, side)
                else:
                    assert bound.tobytes() == curvature_mean_bound(spec, family, ops, side).entries.tobytes()
    assert skips > 0  # the masked path is exercised


@pytest.mark.parametrize("mixed", [False, True], ids=["plain", "mixed"])
def test_sweep_rows_equal_each_pair_alone(mixed):
    # compare_means compares every pair of every applicable row of a dim_k
    # stack in one eigvalsh.  Per trial, each row's slack must be, by
    # float.hex, the least of its pairs' slacks, each pair compared alone in
    # its own loewner_orders call on the trials its sides hold, and each None
    # must sit exactly where inverse_of_decomposition masks the trial's curvature operand.
    beta_split = []  # the stacks where curvature_bound_beta both skips and evaluates trials
    for index, (phi, psi) in enumerate(SWEEP_PAIRS):
        config = TrialConfig(seed=index, vary_dims=True, mixed=mixed)
        spec = resolve_spec(parse_function_spec(phi), parse_function_spec(psi), config.bounds)
        rows = [(row, row.relation(spec)) for row in MEAN_CHECKS.values() if row.relation(spec) is not None]
        labels = {label for row, _ in rows for pair in row.pairs for label in pair}
        psi_ends = (float(spec.psi(config.bounds.m)), float(spec.psi(config.bounds.M)))

        def stage_two(stack):  # per trial: the gaps of mean_gaps and the ones built pair by pair
            n = len(stack.positions)
            sides = {QM_PHI: stack.mean(spec.phi, spec.phi_inverse), QM_PSI: stack.mean(spec.psi, spec.psi_inverse)}
            inside = {QM_PHI: np.ones(n, dtype=bool), QM_PSI: np.ones(n, dtype=bool), MIDDLE: np.ones(n, dtype=bool)}
            for side, c in ((ALPHA_SIDE, spec.composite_curvature.alpha), (BETA_SIDE, spec.composite_curvature.beta)):
                if side in labels:  # the bound of the trials inside the domain of psi^-1 only
                    operand = spectral_decompose(stack.refined(spec.psi, spec.phi, c))
                    sides[side], inside[side], _ = inverse_of_decomposition(spec.psi_inverse, operand)
            if MIDDLE in labels:
                sides[MIDDLE] = inverse_within_domain(spec.psi_inverse, stack.geometric(spec.phi, *psi_ends))
            expected = []
            for row, relation in rows:
                kept = np.logical_and.reduce([inside[label] for pair in row.pairs for label in pair])
                slacks = []
                for left, right in row.pairs if kept.any() else ():
                    a, b = (HermitianOperator(sides[label].entries[kept[inside[label]]]) for label in (left, right))
                    (order,) = loewner_orders([(a, b)], 0.0)
                    slacks.append(iter(order.slack(relation).tolist()))
                expected.append([min(next(slack) for slack in slacks) if ok else None for ok in kept.tolist()])
                if row is MEAN_CHECKS["curvature_bound_beta"] and 0 < kept.sum() < n:
                    beta_split.append((phi, psi))
            return zip(mean_gaps(spec, rows, stack), zip(*expected))

        for _, _, (got, want) in harness._chunk(config, core.operand_sums(spec.phi, spec.psi), stage_two, range(60)):
            assert [None if x is None else x.hex() for x in got] == [None if x is None else x.hex() for x in want]
    assert beta_split


def test_sweep_spectra_equal_each_operand_alone():
    # compare_means solves the spectra of a dim_k stack's independent operands
    # (both pre-means, the applicable refined operands and T_phi) in one
    # eigh of their concatenation.  On mixed vary_dims stacks of every pair,
    # each kept decomposition and every side built from it must be, by
    # tobytes, the one of its operand decomposed alone.
    batches = []  # the operand keys of every stack, in decomposition order
    for index, (phi, psi) in enumerate(SWEEP_PAIRS):
        config = TrialConfig(seed=index, vary_dims=True, mixed=True)
        spec = resolve_spec(parse_function_spec(phi), parse_function_spec(psi), config.bounds)
        rows = [(row, row.relation(spec)) for row in MEAN_CHECKS.values() if row.relation(spec) is not None]
        psi_ends = (float(spec.psi(config.bounds.m)), float(spec.psi(config.bounds.M)))

        def stage_two(stack):
            gaps = mean_gaps(spec, rows, stack)
            batches.append(list(stack.spectra))
            for (name, *args), dec in stack.spectra.items():
                alone = spectral_decompose(getattr(stack, name)(*args))
                assert dec.eigenvalues.tobytes() == alone.eigenvalues.tobytes(), (phi, psi, name)
                assert dec.eigenvectors.tobytes() == alone.eigenvectors.tobytes(), (phi, psi, name)
                if name == "pre_mean":
                    g = args[0]
                    h = spec.phi_inverse if g is spec.phi else spec.psi_inverse
                    interval = core.image_interval(g, config.bounds)
                    mean = apply_to_decomposition(h, spectral_decompose(stack.pre_mean(g)), interval)
                    assert stack.mean(g, h).entries.tobytes() == mean.entries.tobytes()
                elif name == "refined":
                    image, inside, _ = inverse_of_decomposition(spec.psi_inverse, dec)
                    operand = spectral_decompose(stack.refined(*args))
                    bound, mask, _ = inverse_of_decomposition(spec.psi_inverse, operand)
                    assert inside.tolist() == mask.tolist()
                    assert image.entries.tobytes() == bound.entries.tobytes()
                else:
                    h = core.geometric_interpolant(*core.endpoint_values(spec.phi, config.bounds), *psi_ends)
                    interval = core.image_interval(spec.phi, config.bounds)
                    middle = apply_to_decomposition(h, spectral_decompose(stack.sum(spec.phi)), interval)
                    assert stack.geometric(spec.phi, *psi_ends).entries.tobytes() == middle.entries.tobytes()
            return gaps

        harness._chunk(config, core.operand_sums(spec.phi, spec.psi), stage_two, range(60))
    # (log, id) applies all four checks: five operands in one batch
    assert max(map(len, batches)) == 5 and min(map(len, batches)) >= 2
    assert {name for batch in batches for name, *_ in batch} == {"pre_mean", "refined", "sum"}


def break_trials(monkeypatch, out_of_range, non_unital):
    """Sample trial ``out_of_range`` with an operator outside [m, M] and trial
    ``non_unital`` with a non-unital family, in any chunk, the one-trial
    replay included."""
    original = harness._sample_chunk

    def broken(config, indices):
        seeds, dims, stacks = original(config, indices)
        for operators, families in stacks:
            start = 0
            for family in families:
                rows = family.rows()
                for t, rows_t in enumerate(rows):
                    if indices[family.positions[t]] == out_of_range:
                        operators[start + rows_t[0]] *= 10.0
                start += sum(map(len, rows))
                for t, pos in enumerate(family.positions):
                    if indices[pos] == non_unital:
                        family.compressions[t, family.is_compression[t]] *= 1.5
        return seeds, dims, stacks

    monkeypatch.setattr(harness, "_sample_chunk", broken)


def test_failing_suite_raises_the_lowest_failing_trial(monkeypatch):
    # Stacked, the family check runs before the range check, so only the
    # trial-by-trial re-run finds trial 3's error first.
    break_trials(monkeypatch, out_of_range=3, non_unital=7)
    config = TrialConfig(seed=4, function_spec="exp", chain="chain")
    with pytest.raises(SpectrumOutOfDomain) as expected:
        replay_trial(config, 3)
    with pytest.raises(HypothesisNotMet):
        replay_trial(config, 7)
    with pytest.raises(SpectrumOutOfDomain) as raised:
        harness.run_suite(config, 12)
    assert str(raised.value) == str(expected.value)


def test_trial_both_non_unital_and_out_of_range_fails_its_unitality(monkeypatch):
    # The family check comes before the range check in a trial alone, and so
    # in the chunk fallback: trial 5 raises HypothesisNotMet either way.
    break_trials(monkeypatch, out_of_range=5, non_unital=5)
    config = TrialConfig(seed=4, function_spec="exp", chain="twice-diff", vary_dims=True, mixed=True)
    with pytest.raises(HypothesisNotMet) as expected:
        replay_trial(config, 5)
    with pytest.raises(HypothesisNotMet) as raised:
        harness.run_suite(config, 12)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize(
    "out_of_range, non_unital, error",
    [(3, 7, SpectrumOutOfDomain), (7, 3, HypothesisNotMet)],
    ids=["3-7", "7-3"],
)
def test_failing_sweep_raises_the_lowest_failing_trial(monkeypatch, out_of_range, non_unital, error):
    # The sweep's stage 1 checks what verify's does, the family before the
    # range, so stacked, a non-unital trial raises before an out-of-range
    # one whatever their order; the trial-by-trial re-run finds trial 3's.
    break_trials(monkeypatch, out_of_range, non_unital)
    config = TrialConfig(seed=4)
    with pytest.raises(error) as expected:
        run_sweep("log", "id", config, 4)  # trial 3 is the only failing trial
    with pytest.raises(error) as raised:
        run_sweep("log", "id", config, 12)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_diamond_is_built_once_per_stack(monkeypatch, command):
    # A twice-diff chain reads D as a side and in both refined sides; a (log, id)
    # sweep reads the phi diamond in both curvature rows.  Each dim_k stack
    # builds it once, however many sides or rows read it.
    built, stacks = [], []
    diamond, stage_one = core._diamond_term, harness.stage_one

    def counted(total, *args):
        built.append(len(total.entries))
        return diamond(total, *args)

    def staged(*args, **kwargs):
        result = stage_one(*args, **kwargs)
        stacks.extend(result)
        return result

    monkeypatch.setattr(core, "_diamond_term", counted)
    monkeypatch.setattr(harness, "stage_one", staged)
    config = TrialConfig(seed=5, chain="twice-diff", mixed=True, vary_dims=True)
    if command == "verify":
        harness.verify_report(config, 64)
    else:
        checks = run_sweep("log", "id", config, 64)[0]["checks"]
        assert checks["curvature_bound_alpha"]["applicable"] and checks["curvature_bound_beta"]["applicable"]
    assert len(stacks) > 1
    assert built == [len(stack.positions) for stack in stacks]


def test_signed_slack_of_a_stack_is_per_matrix():
    rng = generator(5)
    for dim in (1, 3, 5):
        raw = rng.standard_normal((2, 7, dim, dim)) + 1j * rng.standard_normal((2, 7, dim, dim))
        lefts, rights = (HermitianOperator(0.5 * (z + z.conj().swapaxes(-1, -2))) for z in raw)
        for relation in (Relation.LESS_EQUAL, Relation.GREATER_EQUAL, Relation.EQUAL):
            stacked = loewner_orders([(lefts, rights)], 0.0)[0].slack(relation)
            single = [
                loewner_orders([(HermitianOperator(left), HermitianOperator(right))], 0.0)[0].slack(relation)
                for left, right in zip(lefts.entries, rights.entries)
            ]
            assert stacked.tobytes() == np.array(single).tobytes()


@pytest.mark.parametrize(
    "fn, chain, m, M, force",
    [*[("exp", chain, 1.0, 3.0, False) for chain in ("classic", "chain", "twice-diff", "log-convex")],
     ("sin", "classic", PI4, PI2, True)],  # every trial GreaterEqual: its below mask reads the side norms
)
def test_stacked_pairs_equal_each_pair_alone(monkeypatch, fn, chain, m, M, force):
    # evaluate_trials compares all pairs of a chain in one eigvalsh of their
    # stacked differences.  In each dim_k stack of a mixed vary_dims chunk,
    # every pair's spectra must be, bit for bit, those of loewner_orders on
    # that pair alone, and so must its below mask under the default tolerance.
    reports = []
    original = mercer.evaluate_trials

    def spy(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(mercer, "evaluate_trials", spy)
    config = TrialConfig(seed=9, function_spec=fn, chain=chain, m=m, M=M, force=force, mixed=True, vary_dims=True)
    run_suite(config, 60)
    assert len(reports) > 1
    for report in reports:
        for (left, right), order in report.orders.items():
            sides = report.sides[left], report.sides[right]
            alone = loewner_orders([sides])[0]
            assert order.eigenvalues.tobytes() == alone.eigenvalues.tobytes(), (left, right)
            assert order.below.tolist() == alone.below.tolist(), (left, right)
    if force:
        assert not all(order.below.all() for report in reports for order in report.orders.values())
