"""High-precision oracle for verdicts near the tolerance boundary.

Every side of a chain is rebuilt from the trial's sampled operators and maps
in 50-digit arithmetic (mpmath), and the least eigenvalue of right - left is
recomputed.  Judged against the same policy tolerance, the high-precision
verdict must equal the float verdict, and the float slack must be within one
tolerance of the high-precision slack.
"""

import math

import numpy as np
import pytest

mp = pytest.importorskip("mpmath").mp

from mercerlab.functions import parse_function_spec
from mercerlab.harness import TrialConfig, build_instance, suite_outcomes
from mercerlab.linalg import spectral_norms
from mercerlab.maps import Compression, WeightedTrace
from mercerlab.mercer import evaluate_chain
from mercerlab.tolerance import tolerance_from_norms

DIGITS = 50
MP_FUNCTIONS = {"id": None, "sin": mp.sin}  # None: the identity, f(X) = X exactly


def to_mp(mat):
    return mp.matrix([[mp.mpc(complex(z)) for z in row] for row in np.asarray(mat)])


def mp_apply(f, x):
    """f(X) = Q diag(f(lambda)) Q* for a Hermitian mp matrix X."""
    if f is None:
        return x
    lam, q = mp.eighe(x)
    return q * mp.diag([f(t) for t in lam]) * q.H


def mp_map(phi, a):
    if isinstance(phi, Compression):
        v = to_mp(phi.v)
        return v.H * a * v
    assert isinstance(phi, WeightedTrace)
    return mp.mpf(phi.weight) * sum(a[i, i] for i in range(a.rows)) * mp.eye(phi.dim_out)


def mp_sides(inst, f):
    """Every side a classic or chain report holds, in 50-digit arithmetic."""
    m, M = mp.mpf(inst.bounds.m), mp.mpf(inst.bounds.M)
    fm, fM = (m, M) if f is None else (f(m), f(M))
    ops = [to_mp(a.entries) for a in inst.operators]
    eye = mp.eye(inst.family.dim_out)

    def family_sum(parts):
        total = mp.zeros(inst.family.dim_out)
        for phi, part in zip(inst.family.maps, parts):
            total += mp_map(phi, part)
        return total

    s = family_sum(ops)
    return {
        "lhs": mp_apply(f, (M + m) * eye - s),
        "rhs_classic": (fM + fm) * eye - family_sum([mp_apply(f, a) for a in ops]),
        "chain_middle": (fM + fm) * eye + (fm / (M - m)) * (s - M * eye) + (fM / (M - m)) * (m * eye - s),
        "diamond": (M + m) * s - M * m * eye - (s * s + family_sum([a * a for a in ops])) / 2,
        "zero": mp.zeros(inst.family.dim_out),
    }


def rejudge(config, trials, select):
    """(float gap, float ordered, mp gap, tol) of every contract pair that ``select(gap, ordered, tol)`` keeps."""
    f = parse_function_spec(config.function_spec)
    mp_f = MP_FUNCTIONS[config.function_spec]
    judged = []
    rows, outcomes = suite_outcomes(config, trials, f, config.chain)
    for trial, (_, _, entries) in enumerate(outcomes):
        inst, _, _ = build_instance(config, trial, f)
        report = evaluate_chain(inst, config.chain, force=config.force)
        sides = None
        for ((left, right),), (gap, ordered) in zip((check.pairs for check, _ in rows), entries):
            tol = float(tolerance_from_norms(spectral_norms(report.side(left)), spectral_norms(report.side(right))))
            if not select(gap, ordered, tol):
                continue
            with mp.workdps(DIGITS):
                sides = sides or mp_sides(inst, mp_f)
                slack = min(mp.eighe(sides[right] - sides[left], eigvals_only=True))
            judged.append((gap, ordered, slack, tol))
    return judged


def assert_same_verdicts(judged):
    for gap, ordered, slack, tol in judged:
        assert (slack >= -tol) == ordered
        assert abs(float(slack) - gap) <= tol


def test_near_zero_pairs_of_an_equality_chain():
    # For f = id every side of the chain but the diamond is (M + m) I - S
    # exactly, so three pairs per trial sit at a zero gap.
    config = TrialConfig(seed=0, function_spec="id", chain="chain", vary_dims=True)
    judged = rejudge(config, 30, lambda gap, ordered, tol: abs(gap) <= 100 * tol)
    assert len(judged) >= 90
    assert_same_verdicts(judged)


def test_violations_of_the_forced_sine_suite():
    config = TrialConfig(
        seed=12, function_spec="sin", chain="classic", m=math.pi / 4, M=math.pi / 2,
        force=True, mixed=True, vary_dims=True,
    )
    judged = rejudge(config, 20, lambda gap, ordered, tol: not ordered)
    assert len(judged) == 20
    assert_same_verdicts(judged)
