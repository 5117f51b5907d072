"""Workload definitions: the configs each workload hands to mercerlab.

Pure data plus the seed derivation, so that the fresh-interpreter set-up
probe can import it without paying for anything but ``import mercerlab``.
Every input of a run is derived from the run's ``--seed``; the program only
ever receives the resulting configs and command lines.
"""

from __future__ import annotations

import hashlib
import math

PI4, PI2 = math.pi / 4, math.pi / 2
MASK64 = (1 << 64) - 1

CHAINS = ("classic", "chain", "twice-diff", "log-convex")

# Verify suites are (function spec, chain, m, M, force, mixed).
VERIFY_FIXED = tuple(("exp", chain, 1.0, 3.0, False, False) for chain in CHAINS)


def _alternate_mixed(suites):
    return tuple(s + (i % 2 == 1,) for i, s in enumerate(suites))


# The acceptance criterion-3 traffic (7 convex functions on `chain`, the 5
# twice-differentiable cases, the 3 log-convex cases), every other suite with
# a trace map in the family, plus the forced sine counterexample suite.
VERIFY_VARIED = _alternate_mixed(
    tuple((fn, "chain", 1.0, 3.0, False) for fn in
          ("id", "square", "exp", "xlogx", "inv", "pow:p=2", "pow:p=-0.5"))
    + (
        ("sin", "twice-diff", PI4, PI2, False),
        ("exp", "twice-diff", 1.0, 3.0, False),
        ("pow:p=-0.2", "twice-diff", 1.0, 3.0, False),
        ("xlogx", "twice-diff", 1.0, 3.0, False),
        ("log", "twice-diff", 1.0, 3.0, False),
    )
    + tuple((fn, "log-convex", 1.0, 3.0, False) for fn in ("exp", "inv", "pow:p=-0.2"))
) + (("sin", "classic", PI4, PI2, True, False),)

# The generator pairs of scripts/run_property_suites.py.
SWEEP_PAIRS = (("sqrt", "id"), ("log", "id"), ("square", "id"), ("id", "inv"),
               ("inv", "id"), ("id", "exp"), ("log", "square"))

# Trials per suite per round.  A round runs every suite of its workload once;
# the rounds are the samples whose median gives trials_per_s.
TRIALS_PER_SUITE = {"verify-fixed": 50, "verify-varied": 25, "sweep-varied": 40}
# Trials in each CLI process of a trial workload.
CLI_TRIALS = 5

# The fixed showcase and search commands of cli-short, with the exit code the
# README documents for each (0 clean / nothing found, 2 violations / found).
CLI_SHORT = (
    (("reproduce", "example-2.2"), 0),
    (("reproduce", "example-3.5"), 0),
    (("verify", "--trials", "1"), 0),
    (("sweep", "--phi", "log", "--psi", "id", "--trials", "1"), 0),
    (("search", "classic-nonconvex", "--function", "sin", "--m", repr(PI4), "--M", repr(PI2),
      "--budget", "10"), 2),
    (("search", "th3-th4-order", "--budget", "5"), 2),
)
SEEDED_COMMANDS = ("verify", "sweep", "search")

WORKLOADS = ("verify-fixed", "verify-varied", "sweep-varied", "cli-short")


def derive_seed(*parts) -> int:
    """A 64-bit seed determined by ``parts`` (the run seed, round, suite, ...)."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") & MASK64


def suites(workload: str):
    """The suites of one round: ("verify", suite) or ("sweep", pair) tuples."""
    if workload == "verify-fixed":
        return tuple(("verify", s) for s in VERIFY_FIXED)
    if workload == "verify-varied":
        return tuple(("verify", s) for s in VERIFY_VARIED)
    if workload == "sweep-varied":
        return tuple(("sweep", p) for p in SWEEP_PAIRS)
    raise ValueError(f"{workload} has no in-process suites")


def cli_command(workload: str, seed: int, index: int):
    """The index-th CLI process of a workload: (argv after `-m mercerlab`, expected exit)."""
    s = str(derive_seed(seed, "cli", index))
    if workload == "cli-short":
        argv, code = CLI_SHORT[index % len(CLI_SHORT)]
        return (argv + ("--seed", s) if argv[0] in SEEDED_COMMANDS else argv), code
    kind, suite = suites(workload)[index % len(suites(workload))]
    trials = ("--trials", str(CLI_TRIALS), "--seed", s)
    if kind == "sweep":
        return ("sweep", "--phi", suite[0], "--psi", suite[1], "--vary-dims") + trials, 0
    fn, chain, m, M, force, mixed = suite
    argv = ("verify", "--function", fn, "--chain", chain, "--m", repr(m), "--M", repr(M))
    if workload == "verify-fixed":
        argv += ("--dim", "4", "--maps", "2")
    else:
        argv += ("--vary-dims",)
    argv += ("--force",) * force + ("--mixed",) * mixed + trials
    return argv, 2 if force else 0
