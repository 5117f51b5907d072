#!/usr/bin/env python3
"""Run the full inequality property sweep outside of pytest.

Covers every catalog function through its applicable chains plus the
quasi-arithmetic generator-pair sweeps, the last of them a same-generator pair
whose one check, mean_order, asserts Equal, printing one line per suite and a
final tally on stdout, which is the same for the same seed, and the wall time
on stderr.  Exit code 2 when any suite records a violation.

Usage: python scripts/run_property_suites.py [--trials N] [--seed S]
"""

import argparse
import math
import sys
import time

from mercerlab.harness import TrialConfig, run_suite, run_sweep

PI4, PI2 = math.pi / 4, math.pi / 2

CHAIN_SUITES = [
    # (function spec, chain, m, M, force)
    ("id", "chain", 1.0, 3.0, False),
    ("square", "chain", 1.0, 3.0, False),
    ("exp", "chain", 1.0, 3.0, False),
    ("xlogx", "chain", 1.0, 3.0, False),
    ("inv", "chain", 1.0, 3.0, False),
    ("pow:p=2", "chain", 1.0, 3.0, False),
    ("pow:p=-0.5", "chain", 1.0, 3.0, False),
    ("sin", "twice-diff", PI4, PI2, False),
    ("exp", "twice-diff", 1.0, 3.0, False),
    ("log", "twice-diff", 1.0, 3.0, False),
    ("xlogx", "twice-diff", 1.0, 3.0, False),
    ("pow:p=-0.2", "twice-diff", 1.0, 3.0, False),
    ("square", "twice-diff", 1.0, 3.0, False),
    ("exp", "log-convex", 1.0, 3.0, False),
    ("inv", "log-convex", 1.0, 3.0, False),
    ("pow:p=-0.2", "log-convex", 1.0, 3.0, False),
    # deliberate counterexample run: expect violations here
    ("sin", "classic", PI4, PI2, True),
]

SWEEP_PAIRS = [("sqrt", "id"), ("log", "id"), ("square", "id"), ("id", "inv"),
               ("inv", "id"), ("id", "exp"), ("log", "square"), ("sqrt", "sqrt")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    unexpected = 0
    for idx, (fn, chain, m, M, force) in enumerate(CHAIN_SUITES):
        config = TrialConfig(
            seed=args.seed + idx, function_spec=fn, chain=chain, m=m, M=M,
            force=force, vary_dims=True,
        )
        summary = run_suite(config, args.trials)
        tag = "expected-violations" if force else ("VIOLATIONS" if summary.violations else "ok")
        if summary.violations and not force:
            unexpected += len(summary.violations)
        print(
            f"{fn:12s} {chain:12s} trials={summary.trials} "
            f"violations={len(summary.violations):4d} min_gap={summary.min_gap_overall:+.3e} [{tag}]"
        )

    for idx, (phi, psi) in enumerate(SWEEP_PAIRS):
        config = TrialConfig(seed=args.seed + 100 + idx, vary_dims=True)
        report, n_violations = run_sweep(phi, psi, config, args.trials)
        unexpected += n_violations
        applicable = [k for k, v in report["checks"].items() if v["applicable"]]
        print(
            f"phi={phi:6s} psi={psi:6s} trials={args.trials} "
            f"violations={n_violations:4d} checks={','.join(applicable)}"
        )

    print(f"unexpected violations: {unexpected}")
    print(f"done in {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return 2 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
