"""Pinned eigensolver call counts for one seeded trial of each suite kind.

A trial at the default sizes (dim 4, n = 2 maps) pays, in ``eigh``:
1 for the unitality normaliser of the sampled family, 1 per operator A_i
(decomposed once, shared by every side), then 1 per operator function
evaluated on an assembled operator and 1 per Loewner comparison.  Each
``eigvalsh`` is a spectral norm for a tolerance (once per compared side),
the unitality defect, or a signed slack.  A count above these pins means a
redundant solve came back; a count below means a check was dropped.
"""

import numpy as np
import pytest

from mercerlab.harness import TrialConfig, run_suite, run_sweep


@pytest.fixture
def solver_calls(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0}

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
    # eigh: normaliser 1 + A_i 2 + QM_phi, QM_psi 2 + both curvature bounds 2
    # + geometric middle h(T_phi) and its inverse 2.
    # eigvalsh: signed slack of the mean order, both curvature sides and the
    # two sandwich halves.
    report, _ = run_sweep("log", "id", TrialConfig(seed=5), 1)
    assert report["checks"]["log_convex_sandwich"]["evaluated"] == 1
    assert solver_calls == {"eigh": 9, "eigvalsh": 5}


@pytest.mark.parametrize(
    "chain, eigh, eigvalsh",
    [
        # eigh: normaliser 1 + A_i 2 + lhs 1 + one per compared pair (incl.
        # zero <= diamond) [+ log-convex middle 1].
        # eigvalsh: unitality defect 1 + one norm per compared side.
        ("classic", 6, 5),
        ("chain", 8, 6),
        ("twice-diff", 9, 8),
        ("log-convex", 9, 6),
    ],
)
def test_chain_trial_budget(solver_calls, chain, eigh, eigvalsh):
    summary = run_suite(TrialConfig(seed=1, function_spec="exp", chain=chain), 1)
    assert summary.violations == []
    assert solver_calls == {"eigh": eigh, "eigvalsh": eigvalsh}
