"""Pinned eigensolver and QR call counts for seeded suites of each kind.

The counts are numpy calls: one call solves a whole stack of matrices.  A
trial at the default sizes (dim 4, n = 2 maps) pays, in ``eigh``: 1 for the
unitality normaliser of the sampled family, 1 for the stack of its
operators A_i (decomposed once, shared by every side), then 1 for the
spectra of every assembled operand that a function is applied to and that
depends on no other such image, stacked (``FamilySums.decompose``), and 1
more for each operand that does: the sweep's psi^-1 of its log-convex
middle h(T_phi).  In ``eigvalsh`` a verify
trial pays 1 for the comparisons of all its chain's pairs, and a sweep
trial 1 for every pair of all its applicable checks, the spectra of every
right - left stacked in one call; the spectra give the ordering and the
signed slack of either direction, so a GreaterEqual verdict needs no second
solve.  A compared side's spectral norms, for the default tolerance, are
solved only for the trials of a pair whose least eigenvalue is below -1e-9,
the tolerance floor, when its mask is read; a unital family's defect is
cleared by its Frobenius bound, and a spectral norm is solved only where
the bound cannot clear it.  The one ``qr`` is the Haar step of the sampler,
for every operator of one dimension.
A verify suite or a sweep of one shape samples and evaluates all its trials
as one stack, so no count grows with the trial count.  A chunk of many
shapes pays one A_i ``eigh`` per operator dimension dim_h, and everything
else once per codomain dimension dim_k of the chunk, whatever its shapes:
the sampler's normaliser, and every side, the comparisons of all pairs and
every needed norm of a verify suite or every mean and slack of a sweep.
A count above these pins means a redundant solve came back; a count below
means a check was dropped.
"""

import math

import numpy as np
import pytest

from mercerlab import harness
from mercerlab.harness import TrialConfig, normalize_chain, run_suite, run_sweep
from mercerlab.mercer import CHAINS


@pytest.fixture
def solver_calls(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0, "qr": 0}

    def counted(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


def test_sweep_trial_budget(solver_calls):
    # eigh: normaliser 1 + A_i stack 1 + one for the independent operands,
    # stacked: the pre-means of QM_phi and QM_psi, both refined operands of
    # the curvature bounds and T_phi of the geometric middle h(T_phi) + the
    # middle's inverse psi^-1(h(T_phi)) 1.  It was 8 with one eigh per
    # operand: QM_phi, QM_psi 2 + both curvature bounds 2 + h(T_phi) and its
    # inverse 2.
    # eigvalsh: one for the five compared pairs, stacked: the mean order,
    # both curvature sides and the two sandwich halves; the Frobenius bound
    # clears the unitality defect.  It was 5, one call per pair.
    # qr: the Haar step of both A_i.
    report, _ = run_sweep("log", "id", TrialConfig(seed=5), 1)
    assert report["checks"]["log_convex_sandwich"]["evaluated"] == 1
    assert solver_calls == {"eigh": 4, "eigvalsh": 1, "qr": 1}


@pytest.mark.parametrize(
    "chain, eigh, pairs",
    [
        # eigh: normaliser 1 + A_i stack 1 + lhs 1, whose pre-mean the
        # log-convex chain decomposes with S, of its middle h(S), in one call
        # (it was 4 with the middle's own eigh).
        # eigvalsh: one for all the chain's compared pairs (incl. zero <=
        # diamond), stacked; every gap clears the tolerance floor, so no side
        # norm is solved, and the Frobenius bound clears the unitality defect.
        # qr: the Haar step of both A_i, 1.
        # Each pair was an eigh of its Hermitian part: eigh / eigvalsh were
        # 5 / 4, 7 / 5, 8 / 7 and 8 / 5; with every side norm and the
        # defect solved they were 3 / 6, 3 / 9, 3 / 12 and 4 / 9; with one
        # eigvalsh per pair, eigh / pairs.
        ("classic", 3, 2),
        ("chain", 3, 4),
        ("twice-diff", 3, 5),
        ("log-convex", 3, 4),
    ],
)
def test_chain_trial_budget(solver_calls, chain, eigh, pairs):
    assert len(CHAINS[normalize_chain(chain)].checks) == pairs
    summary = run_suite(TrialConfig(seed=1, function_spec="exp", chain=chain), 1)
    assert summary.violations == []
    assert solver_calls == {"eigh": eigh, "eigvalsh": 1, "qr": 1}


def test_one_shape_suite_is_one_stack(solver_calls):
    # 50 trials of one shape: every solve, the sampler's normaliser and Haar
    # step included, is one call for the whole group, and no trial's gap
    # needs a side norm.  Per trial this was 6 eigh and 5 eigvalsh, then 1
    # eigh and 2 qr of sampling per trial; with one eigh per compared pair it
    # was 1 + 4 eigh and 4 eigvalsh; with every side norm and the unitality
    # defect solved, 3 eigh and 4 + 2 eigvalsh; with one eigvalsh per
    # compared pair, 3 eigh and 2 eigvalsh.
    summary = run_suite(TrialConfig(seed=3, function_spec="exp", chain="classic"), 50)
    assert summary.violations == []
    assert solver_calls == {"eigh": 1 + 2, "eigvalsh": 1, "qr": 1}


def test_varied_verify_chunk_is_one_stack_per_matrix_dimension(solver_calls):
    # 40 vary_dims trials of twice-diff land in 35 shape groups over 7 dim_h
    # and 7 dim_k values.  eigh: 7 A_i stacks + 7 normalisers + 7 lhs; it was
    # 35 + 7 + 35 x 6 = 252 when each group was evaluated alone (lhs and the
    # 5 compared pairs), 35 + 7 + 7 x 6 = 84 with one A_i stack per group,
    # and 7 + 7 + 7 x 6 = 56 while each pair was an eigh.  eigvalsh: 7, the
    # 5 compared pairs of each dim_k stack in one call, as no gap is below
    # the tolerance floor and the Frobenius bound clears every unitality
    # defect (35 + 7 x 6 = 77 with one defect per group, 7 + 7 x 6 = 49 with
    # the pairs in eigh, 7 + 7 x 6 + 7 x 5 = 84 with every side norm and
    # defect solved, and 7 x 5 with one call per pair).
    config = TrialConfig(seed=5, function_spec="exp", chain="twice-diff", vary_dims=True)
    _, dims, _ = harness._sample_chunk(config, range(40))
    assert len(set(dims)) == 35
    assert (len({d[0] for d in dims}), len({d[1] for d in dims})) == (7, 7)
    solver_calls.update(eigh=0, eigvalsh=0, qr=0)
    summary = run_suite(config, 40)
    assert summary.violations == []
    assert solver_calls == {"eigh": 7 + 7 + 7, "eigvalsh": 7, "qr": 7}


def test_forced_sine_chunk_solves_each_pair_once(solver_calls):
    # The 20 trials of test_golden's forced sine suite (classic, sin on
    # [pi/4, pi/2], forced, vary_dims, mixed) land in 18 shape groups over 7
    # dim_h and 7 dim_k: every trial's lhs <= rhs_classic is GreaterEqual.
    # eigh: 7 A_i stacks + 7 normalisers + 7 lhs.  eigvalsh: 7, the 2
    # compared pairs of each dim_k stack in one call, whose spectra also
    # give the GreaterEqual slacks, + 7 x 2 norms of lhs and rhs_classic,
    # which the violated pair needs in every dim_k stack; D >= 0 clears the
    # floor, so D's norm is never solved, and the Frobenius bound clears
    # every unitality defect.  It was eigh 35 / eigvalsh 35 while the pairs
    # were 14 eigh and their GreaterEqual trials 7 eigvalsh re-solves,
    # eigvalsh 7 + 7 x 3 + 7 x 2 = 42 with every side norm and defect
    # solved, and 7 x 2 + 7 x 2 with one call per pair.
    config = TrialConfig(
        seed=12, function_spec="sin", chain="classic", m=math.pi / 4, M=math.pi / 2,
        force=True, mixed=True, vary_dims=True,
    )
    _, dims, _ = harness._sample_chunk(config, range(20))
    dims_h, dims_k = ({d[axis] for d in dims} for axis in (0, 1))
    assert (len(set(dims)), len(dims_h), len(dims_k)) == (18, 7, 7)
    solver_calls.update(eigh=0, eigvalsh=0, qr=0)
    summary = run_suite(config, 20)
    assert len(summary.violations) == 20
    assert solver_calls == {"eigh": 7 + 7 + 7, "eigvalsh": 7 + 7 * 2, "qr": 7}


def test_varied_sweep_chunk_is_one_stack_per_matrix_dimension(solver_calls):
    # 40 vary_dims trials of log / id land in 35 shape groups over 7 dim_h and
    # 7 dim_k values.  eigh: 7 A_i stacks + 7 normalisers + 7 x (the
    # stacked pre-means of QM_phi and QM_psi, refined operands of both
    # curvature bounds and T_phi, then the inverse of h(T_phi)); it was
    # 35 + 7 + 7 x 6 = 84 with one A_i stack per group, and 7 + 7 + 7 x 6 = 56
    # with one eigh per operand (QM_phi, QM_psi, both curvature bounds,
    # h(T_phi) and its inverse).  eigvalsh: 7, the 5
    # compared pairs of each dim_k stack in one call; it was 7 x 5 = 35 with
    # one call per pair.  The Frobenius bound clears every sampled family's
    # unitality defect without an eigensolve.  qr: 7, as before.
    config = TrialConfig(seed=5, vary_dims=True)
    _, dims, _ = harness._sample_chunk(config, range(40))
    dims_h, dims_k = ({d[axis] for d in dims} for axis in (0, 1))
    assert (len(set(dims)), len(dims_h), len(dims_k)) == (35, 7, 7)
    solver_calls.update(eigh=0, eigvalsh=0, qr=0)
    report, _ = run_sweep("log", "id", config, 40)
    assert all(check["evaluated"] == 40 for check in report["checks"].values())
    assert solver_calls == {"eigh": 7 + 7 + 7 * 2, "eigvalsh": 7, "qr": 7}


def test_one_shape_sweep_is_one_stack(solver_calls):
    # 50 trials of one shape pay the one-trial counts of test_sweep_trial_budget:
    # stage 1 builds the operands on one core, stage 2 runs each step once
    # on the one dim_k stack.  Per trial this was 7 eigh and 5 eigvalsh, then
    # 8 eigh and 5 eigvalsh per stack, one eigvalsh per compared pair, then
    # 8 eigh and 1 eigvalsh, one eigh per operand.
    report, _ = run_sweep("log", "id", TrialConfig(seed=5), 50)
    assert report["checks"]["log_convex_sandwich"]["evaluated"] == 50
    assert solver_calls == {"eigh": 4, "eigvalsh": 1, "qr": 1}


def test_normaliser_is_one_eigh_per_codomain_dimension(solver_calls):
    # A vary_dims chunk spreads over many (dim_h, dim_k, n) groups, but every
    # normaliser S = sum_i V_i* V_i is dim_k x dim_k.  Groups of lone trace
    # maps (mixed, n = 1) have no compressions and no normaliser.
    _, dims, _ = harness._sample_chunk(TrialConfig(seed=5, vary_dims=True, mixed=True), range(40))
    dims_k = {d[1] for d in dims if d[2] > 1}  # with --mixed, n - 1 compressions
    assert len(set(dims)) > 2 * len(dims_k)
    assert solver_calls["eigh"] == len(dims_k)
