"""Seeded trial execution, reproduction cases, and counterexample search.

Everything here is deterministic: trial i of a run with master seed s uses
the PCG64 stream seeded with s XOR i, trials are sampled in index order, and
the JSON report of a run is byte-identical across repetitions.  Wall time is
reported on stderr only, never inside the JSON.

Suites sample ``CHUNK_TRIALS`` trials at a time, drawn straight into the
chunk's stacks, per dim_h and per (dim_h, dim_k), and finished in stacked
calls (``sampling.sample_trials``), then run in two stages, verify and
sweep alike (``_chunk``).  Stage 1, ``core.stage_one``, builds and checks
the family sums of the whole chunk on those stacks as they are, whatever
its shapes.  Stage 2 runs everything after them once per codomain
dimension dim_k, on the operands of its ``core.FamilySums``: verify every
side of its chain (``mercer.evaluate_trials``), sweep both means and the
sides of every applicable check of ``quasimeans.MEAN_CHECKS``
(``quasimeans.compare_means``), every compared pair of a stack in one
``eigvalsh``.  Both tables are rows of one type, ``core.Check``, and both
commands judge their rows with ``core.judge``, through the one violation
rule ``LoewnerOrder.holds``, and fold each row into a :class:`Tally`.
A verify suite evaluates its chain gate once, before any trial, as a sweep
resolves its hypotheses before the first chunk.
Stacking never moves a bit and results are folded back in trial order, so
a report is the same as trial after trial; a failing chunk of several
trials is re-run trial by trial, so the error raised is the one of the
lowest failing trial.  A replay is a chunk of one trial, and the
``classic-nonconvex`` search scores every candidate on one forced
``classic`` suite, each trial sampled once, so both run on verify's
sampler and evaluation.

``mercer``, ``quasimeans`` and ``sampling`` are imported inside the
functions that use them, once per suite, chunk, search or case and never
inside a loop over trials, so importing this module (as ``cli`` does)
compiles none of them, and a process compiles only those its command runs:
a ``sweep`` loads no ``mercer``, a ``verify`` no ``quasimeans``, a
``reproduce`` no ``sampling``.  The functions look the names up in their
defining modules at each call, so a patch of ``mercer.evaluate_trials`` or
``sampling.trial_seed`` reaches every call site.
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import Check, FamilySums, OperatorStack, judge, operand_sums, stage_one, unstack
from .errors import BudgetExhausted, InvalidConfig
from .functions import ScalarFunction, curvature_bounds, parse_function_spec, require_domain, require_finite
from .linalg import Frozen, HermitianOperator, Relation, SpectralBounds
from .maps import MapFamily, WeightedTrace, family_to_json
from .tolerance import sweep_tolerance

if TYPE_CHECKING:
    from .mercer import MercerInstance

# Trials sampled and evaluated together by a verify suite or a sweep.  It bounds
# the memory a suite holds, and at 256 a benchmark or test suite is one chunk.
# At 1024, a 4096-trial vary_dims suite runs 17-36 % faster but peaks about 22 %
# higher in resident memory (43 -> 52 MB for verify), so the bound stays at 256.
CHUNK_TRIALS = 256

REPRODUCE_CASES = ("example-2.2", "example-3.5")
SEARCH_TARGETS = ("classic-nonconvex", "th3-th4-order")

# The columns of a verify suite's per-trial rows, in order.
ROW_FIELDS = ("seed", "trial", "function", "chain", "dim_h", "dim_k", "n_maps", "min_gap")


class TrialConfig(Frozen):
    """One verify run: function, chain, dimensions, interval, seed, tolerances."""

    __slots__ = (
        "seed", "dim_h", "dim_k", "n_maps", "m", "M", "function_spec", "chain", "tol_abs", "force", "mixed",
        "vary_dims",
    )

    def __init__(
        self,
        seed: int = 0,
        dim_h: int = 4,
        dim_k: int = 4,
        n_maps: int = 2,
        m: float = 1.0,
        M: float = 3.0,
        function_spec: str = "exp",
        chain: str = "classic",
        tol_abs: Optional[float] = None,
        force: bool = False,
        mixed: bool = False,
        vary_dims: bool = False,
    ):
        for name, value in (("dim_h", dim_h), ("dim_k", dim_k), ("n_maps", n_maps)):
            if value < 1:
                raise InvalidConfig(f"{name} must be >= 1, got {value}")
        check_seed(seed)
        check_tolerance(tol_abs)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "dim_h", dim_h)
        object.__setattr__(self, "dim_k", dim_k)
        object.__setattr__(self, "n_maps", n_maps)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "function_spec", function_spec)
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "tol_abs", tol_abs)
        object.__setattr__(self, "force", force)
        object.__setattr__(self, "mixed", mixed)
        object.__setattr__(self, "vary_dims", vary_dims)

    @property
    def bounds(self) -> SpectralBounds:
        return SpectralBounds(self.m, self.M)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "dim_h": self.dim_h,
            "dim_k": self.dim_k,
            "n_maps": self.n_maps,
            "m": self.m,
            "M": self.M,
            "function": self.function_spec,
            "chain": self.chain,
            "tol_abs": self.tol_abs,
            "force": self.force,
            "mixed": self.mixed,
            "vary_dims": self.vary_dims,
        }


class Tally:
    """One check row over a run, folded in trial order: the trials it judged (``evaluated``),
    its ``domain_skips``, its least gap and the (trial, seed, gap) of each trial where it does
    not hold.  A verify summary and a sweep's checks are written from their rows' tallies."""

    __slots__ = ("evaluated", "domain_skips", "min_gap", "violations")

    def __init__(
        self,
        evaluated: int = 0,
        domain_skips: int = 0,
        min_gap: float = math.inf,
        violations: Optional[List[Tuple[int, int, float]]] = None,
    ):
        self.evaluated = evaluated
        self.domain_skips = domain_skips
        self.min_gap = min_gap
        self.violations = [] if violations is None else violations

    def record(self, trial: int, seed: int, judged: Optional[Tuple[float, bool]]) -> None:
        """Fold in one trial's (gap, holds) of the row (``core.judge``), None for a domain skip."""
        if judged is None:
            self.domain_skips += 1
            return
        gap, holds = judged
        self.evaluated += 1
        if gap < self.min_gap:
            self.min_gap = gap
        if not holds:
            self.violations.append((trial, seed, gap))

    def to_json(self) -> dict:
        """The row's entries of a sweep report."""
        return {
            "evaluated": self.evaluated,
            "domain_skips": self.domain_skips,
            "min_gap": None if math.isinf(self.min_gap) else self.min_gap,
            "violations": [{"trial": trial, "seed": seed, "gap": gap} for trial, seed, gap in self.violations],
        }


class RunSummary:
    """Outcome of a verify run; each violation is its report entry, and ``rows`` feed the CSV summary."""

    __slots__ = ("trials", "violations", "min_gap_overall", "rows")

    def __init__(
        self, trials: int, violations: List[dict], min_gap_overall: float, rows: Optional[List[dict]] = None
    ):
        self.trials = trials
        self.violations = violations
        self.min_gap_overall = min_gap_overall
        self.rows = [] if rows is None else rows

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "violations": self.violations,
            "min_gap_overall": None if math.isinf(self.min_gap_overall) else self.min_gap_overall,
        }


def check_tolerance(tol_abs: Optional[float]) -> None:
    """An absolute PSD tolerance override must be finite and nonnegative.

    A negative one turns every ordering the theory asserts into a violation.
    """
    if tol_abs is not None and not (math.isfinite(tol_abs) and tol_abs >= 0.0):
        raise InvalidConfig(f"tolerance must be finite and >= 0, got {tol_abs}")


def check_seed(seed: int) -> None:
    """A master seed must be in [0, 2^64): out of it, the trials would read another seed's streams."""
    if not 0 <= seed < 1 << 64:
        raise InvalidConfig(f"seed must be in [0, 2^64), got {seed}")


def check_trials(n_trials: int) -> None:
    if n_trials < 0:
        raise InvalidConfig(f"trials must be >= 0, got {n_trials}")


def normalize_chain(token: str) -> str:
    """The chain kind of a token, in either spelling: ``twice_diff`` or the CLI's ``twice-diff``."""
    from .mercer import CHAIN_KINDS

    kind = token.replace("-", "_")
    if kind not in CHAIN_KINDS:
        raise ValueError(f"unknown chain {token!r}; choices: {CHAIN_KINDS}")
    return kind


def _sample_chunk(config: TrialConfig, indices: Sequence[int]) -> Tuple[List[int], list, List[OperatorStack]]:
    """Seeds, dims and stacks (``sampling.sample_trials``) of the trials ``indices``, sampled as one chunk.

    Each trial is drawn from its own stream; every 10th trial forces two
    eigenvalues of each operator onto the interval endpoints, where the
    equality cases of the bounds live.
    """
    from .sampling import sample_trials, trial_seed

    seeds = [trial_seed(config.seed, i) for i in indices]
    pins = [i % 10 == 0 for i in indices]
    dims = None if config.vary_dims else (config.dim_h, config.dim_k, config.n_maps)
    return (seeds, *sample_trials(seeds, pins, dims, config.bounds, config.mixed))


def _sampled_trials(config: TrialConfig, indices: Sequence[int]) -> List[tuple]:
    """(seed, dims, family, operators) of each of the trials ``indices``, in order, sampled as one chunk."""
    seeds, dims, stacks = _sample_chunk(config, indices)
    trials = unstack(stacks)
    return [(seeds[pos], dims[pos], *trials[pos]) for pos in range(len(indices))]


def build_instance(
    config: TrialConfig, trial_index: int, f: ScalarFunction
) -> Tuple[MercerInstance, int, Tuple[int, int, int]]:
    """Deterministic instance for one trial; see :func:`_sample_chunk`."""
    from .mercer import MercerInstance

    ((seed_i, dims, family, operators),) = _sampled_trials(config, (trial_index,))
    inst = MercerInstance(f=f, family=family, operators=operators, bounds=config.bounds)
    return inst, seed_i, dims


def _chunk(config: TrialConfig, keys, rows_of: Callable[[FamilySums], list], indices: Sequence[int]) -> List[tuple]:
    """(seed, dims, row) of each of the trials ``indices``, in order, sampled as one chunk.

    Stage 1 (``core.stage_one``) builds the family sums ``keys`` of every
    trial of the chunk, with every check of ``core.trial_sums``, per
    codomain dimension dim_k.  Stage 2, ``rows_of(stack)``, gives the row of
    each trial of a dim_k stack, in the stack's order, from its operands.
    """
    seeds, dims, stacks = _sample_chunk(config, indices)
    rows: List[Optional[tuple]] = [None] * len(indices)
    for stack in stage_one(stacks, config.bounds, keys):
        for pos, row in zip(stack.positions.tolist(), rows_of(stack)):
            rows[pos] = seeds[pos], dims[pos], row
    return rows


def _grouped_outcomes(
    config: TrialConfig, f: ScalarFunction, which: str, scalars: Dict[str, float], rows, indices: Sequence[int]
) -> List[tuple]:
    """(seed, dims, judged) of each of the trials ``indices``, in order, run as one :func:`_chunk` of the
    sums ``core.operand_sums(None, f)``: stage 2 evaluates the chain once per dim_k stack, with the gate's
    ``scalars``, into one report, on which ``core.judge`` judges the chain's ``rows``."""
    from .mercer import evaluate_trials

    def rows_of(stack: FamilySums) -> list:
        report = evaluate_trials(f, which, stack, scalars, config.tol_abs)
        return judge(rows, report.orders, len(stack.positions))

    return _chunk(config, operand_sums(None, f), rows_of, indices)


def _by_chunk(trials: int | range, run: Callable[[Sequence[int]], list]) -> Iterator:
    """The results of ``run(indices)`` for the trials ``trials`` (a range of
    indices, or a count n for 0..n-1), ``CHUNK_TRIALS`` at a time, in index order.

    If a chunk of several trials fails, it is re-run trial by trial in index order, each result
    used before the next trial runs, which raises the error of the lowest failing trial, as
    running trial after trial would.  Nothing is swallowed.
    """
    if isinstance(trials, int):
        trials = range(trials)
    for start in range(0, len(trials), CHUNK_TRIALS):
        indices = trials[start : start + CHUNK_TRIALS]
        try:
            results = run(indices)
        except Exception as error:
            if len(indices) == 1:
                raise
            for i in indices:
                yield from run((i,))
            raise error
        yield from results


def suite_outcomes(
    config: TrialConfig, trials: int | range, f: ScalarFunction, which: str
) -> Tuple[List[Tuple[Check, Relation]], Iterator[tuple]]:
    """The judged rows of a verify suite's chain, each one compared pair, and the (seed, dims,
    judged) of the trials ``trials`` (see :func:`_by_chunk`), in index order, each chunk evaluated
    by :func:`_grouped_outcomes`.  The chain's gate runs first, before any trial is sampled, and
    raises ``HypothesisNotMet`` for an unforced f that fails its hypotheses."""
    from .mercer import CHAINS

    chain = CHAINS[which]
    scalars = chain.gate(f, config.bounds, config.force)
    rows = [(check, relation) for check in chain.checks if (relation := check.relation(scalars)) is not None]
    return rows, _by_chunk(trials, partial(_grouped_outcomes, config, f, which, scalars, rows))


def run_suite(config: TrialConfig, n_trials: int) -> RunSummary:
    """Execute n seeded trials of one chain and collect ordering violations.

    Violations are data, not errors: each carries its replay seed and the
    offending pair so the exact instance can be rebuilt.  A function whose
    natural domain does not contain [m, M], or that is not finite on it, is
    rejected before any trial.  Violations are the rows' tallies merged trial by trial, in row order.
    """
    check_trials(n_trials)
    f = parse_function_spec(config.function_spec)
    which = normalize_chain(config.chain)
    require_domain(f, config.bounds)
    require_finite(f, config.bounds)
    rows, outcomes = suite_outcomes(config, n_trials, f, which)
    tallies = [Tally() for _ in rows]
    csv_rows: List[dict] = []
    for i, (seed_i, dims, judged) in enumerate(outcomes):
        for tally, entry in zip(tallies, judged):
            tally.record(i, seed_i, entry)
        trial_min = min(gap for gap, _ in judged)
        csv_rows.append(dict(zip(ROW_FIELDS, (seed_i, i, f.label(), which, *dims, trial_min))))
    merged = sorted((trial, k, seed, gap) for k, tally in enumerate(tallies) for trial, seed, gap in tally.violations)
    violations = [{"trial": t, "seed": s, "pair": list(rows[k][0].pairs[0]), "gap": g} for t, k, s, g in merged]
    min_gap = min((row["min_gap"] for row in csv_rows), default=math.inf)
    return RunSummary(trials=n_trials, violations=violations, min_gap_overall=min_gap, rows=csv_rows)


def replay_trial(config: TrialConfig, trial_index: int) -> Dict[str, float]:
    """Re-execute one trial, as a suite chunk of one, and return its judged pairs' gaps keyed 'left<=right'."""
    f = parse_function_spec(config.function_spec)
    rows, outcomes = suite_outcomes(config, range(trial_index, trial_index + 1), f, normalize_chain(config.chain))
    ((_, _, judged),) = outcomes
    return {"{}<={}".format(*check.pairs[0]): gap for (check, _), (gap, _) in zip(rows, judged)}


def verify_report(config: TrialConfig, n_trials: int) -> Tuple[dict, RunSummary]:
    summary = run_suite(config, n_trials)
    report = {
        "command": "verify",
        "config": config.to_json(),
        "trials": n_trials,
        "summary": summary.to_json(),
    }
    return report, summary


# --------------------------------------------------------------------------
# Reproduction cases
# --------------------------------------------------------------------------

def _extremal_instance(f: ScalarFunction, bounds: SpectralBounds) -> MercerInstance:
    """A = diag(m, M) under the half-trace map, so S = (m + M) / 2: the
    example-2.2 instance, and the first probe of the classic-nonconvex search."""
    from .mercer import MercerInstance

    family = MapFamily(maps=(WeightedTrace(0.5, dim_in=2, dim_out=1),))
    a = HermitianOperator.diagonal([bounds.m, bounds.M])
    return MercerInstance(f=f, family=family, operators=(a,), bounds=bounds)


def reproduce(case: str, function_override: Optional[str] = None) -> dict:
    """Fixed showcase computations with no randomness.

    ``example-2.2``: the 2x2 sine instance on [pi/4, pi/2] with the
    half-trace map, where the classic bound fails but the curvature-corrected
    upper bound holds.  ``example-3.5``: the sign flip of the gap between the
    curvature-refined and geometric bounds for t^p at t=2 on [1, 3]; its
    function is fixed, so an override is rejected.
    """
    if case == "example-2.2":
        from .mercer import mercer_lhs, mercer_rhs_classic, refined_bounds

        f = parse_function_spec(function_override or "sin")
        inst = _extremal_instance(f, SpectralBounds(math.pi / 4, math.pi / 2))
        curv = curvature_bounds(inst.f, inst.bounds)
        lhs = mercer_lhs(inst).scalar()
        rhs = mercer_rhs_classic(inst).scalar()
        lower, upper = refined_bounds(inst, curv)
        return {
            "case": case,
            "function": inst.f.label(),
            "m": inst.bounds.m,
            "M": inst.bounds.M,
            "alpha": curv.alpha,
            "beta": curv.beta,
            "values": {
                "lhs": lhs,
                "rhs_classic": rhs,
                "refined_lower": lower.scalar(),
                "refined_upper": upper.scalar(),
            },
            "classic_gap": rhs - lhs,
        }
    if case == "example-3.5":
        if function_override is not None:
            raise InvalidConfig("example-3.5 probes t^p and takes no function override")
        from .quasimeans import incomparability_probe

        m, M, t = 1.0, 3.0, 2.0
        rows = incomparability_probe(m, M, p_values=[-0.2, -1.0], t_grid=[t])
        return {
            "case": case,
            "m": m,
            "M": M,
            "t": t,
            "gaps": {f"{row.p:g}": row.gap for row in rows},
            "signs": {f"{row.p:g}": row.sign for row in rows},
        }
    raise ValueError(f"unknown case {case!r}; choices: {REPRODUCE_CASES}")


# --------------------------------------------------------------------------
# Counterexample search
# --------------------------------------------------------------------------

NONCONVEX_CANDIDATES = ("sin", "sqrt", "log", "pow:p=0.5")


def search_counterexample(
    target: str,
    budget: int,
    function_spec: Optional[str] = None,
    m: float = 1.0,
    M: float = 3.0,
    seed: int = 0,
    tol_abs: Optional[float] = None,
) -> dict:
    """Directed search for the two failure modes the engine can exhibit.

    ``classic-nonconvex`` hunts for instances where the classic bound fails
    for a non-convex function.  Trial 0 probes the extremal configuration
    (A = diag(m, M) with the scalar half-trace map); trial t > 0 is trial t
    of a forced ``classic`` verify suite with ``vary_dims`` and the search's
    seed, as ``replay_trial`` rebuilds it.  All candidate functions share
    each trial's instance, sampled once: one suite, whose stage 1 builds
    every candidate's sums and whose stage 2 scores each candidate on each
    stack.  The witness is the least gap, ties going to the earliest trial,
    then candidate, and is sampled again alone to serialise it.
    ``th3-th4-order`` hunts for both signs of the refined-vs-geometric gap
    of t^p over (t, p); it compares scalars, so a function or a tolerance is
    rejected.  Raises ``BudgetExhausted`` with the best candidate when no
    witness exists within budget.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    check_seed(seed)
    check_tolerance(tol_abs)
    bounds = SpectralBounds(m, M)

    if target == "classic-nonconvex":
        from .mercer import CHAINS, evaluate_chain, evaluate_trials
        from .sampling import trial_seed

        candidates = (function_spec,) if function_spec else NONCONVEX_CANDIDATES
        functions = [parse_function_spec(spec_str) for spec_str in candidates]
        for f in functions:
            require_domain(f, bounds)
            require_finite(f, bounds)
        config = TrialConfig(seed, m=m, M=M, vary_dims=True)  # the trials' sampling; f plays no part

        scored = [(CHAINS["classic"].checks[0], Relation.LESS_EQUAL)]  # the row lhs <= rhs_classic

        def judged(reports: list, trials: int) -> list:  # per trial, each candidate's (gap, holds) of the row
            return list(zip(*([entry for (entry,) in judge(scored, report.orders, trials)] for report in reports)))

        def stack_scores(stack: FamilySums) -> list:  # the forced classic gate's scalars are {}
            reports = [evaluate_trials(f, "classic", stack, {}, tol_abs) for f in functions]
            return judged(reports, len(stack.positions))

        probes = [_extremal_instance(f, bounds) for f in functions]
        scores = judged([evaluate_chain(probe, "classic", force=True, tol_abs=tol_abs) for probe in probes], 1)
        keys = [key for f in functions for key in operand_sums(None, f)]
        suite = _by_chunk(range(1, budget), partial(_chunk, config, keys, stack_scores))  # the probe is trial 0
        scores += [row for _, _, row in suite]  # per trial, per candidate
        gap, trial, c = min((scores[t][c][0], t, c) for t in range(budget) for c in range(len(candidates)))
        if trial == 0:
            family, operators = probes[c].family, probes[c].operators
        else:
            ((_, _, family, operators),) = _sampled_trials(config, (trial,))
        best = {
            "target": target,
            "function": candidates[c],
            "trial": trial,
            "seed": trial_seed(seed, trial),
            "gap": gap,
            "m": m,
            "M": M,
            "dim_h": family.dim_in,
            "dim_k": family.dim_out,
            "n_maps": family.size,
            "operators": [a.to_json() for a in operators],
            "maps": family_to_json(family),
        }
        if not scores[trial][c][1]:
            return {"target": target, "status": "found", "witness": best}
        raise BudgetExhausted(
            f"no classic violation found in {budget} trials (best gap {best['gap']:.3e})",
            best=best,
        )

    if target == "th3-th4-order":
        for name, value in (("function", function_spec), ("tolerance", tol_abs)):
            if value is not None:
                raise InvalidConfig(f"th3-th4-order probes the scalar gap of t^p and takes no {name}")
        from .quasimeans import incomparability_probe

        def probes() -> Iterator[tuple]:  # (p values, t grid) of each trial: a fixed grid, then seeded draws
            yield [-0.2, -1.0], np.linspace(bounds.m, bounds.M, 21)
            from .sampling import generator, trial_seed  # a search that trial 0 settles draws nothing

            for trial in range(1, budget):
                rng = generator(trial_seed(seed, trial))
                yield list(rng.uniform(-3.0, -0.05, size=3)), rng.uniform(bounds.m, bounds.M, size=7)

        rows = []
        negative = None
        positive = None
        for p_values, t_grid in probes():
            batch = incomparability_probe(bounds.m, bounds.M, p_values, t_grid)
            rows.extend(batch)
            for row in batch:
                if row.sign < 0 and (negative is None or row.gap < negative["gap"]):
                    negative = {"t": row.t, "p": row.p, "gap": row.gap}
                if row.sign > 0 and (positive is None or row.gap > positive["gap"]):
                    positive = {"t": row.t, "p": row.p, "gap": row.gap}
            if negative and positive:
                break
        table = [
            {"t": row.t, "p": row.p, "gap": row.gap, "sign": row.sign} for row in rows
        ]
        if negative and positive:
            return {
                "target": target,
                "status": "found",
                "negative": negative,
                "positive": positive,
                "rows": table,
            }
        raise BudgetExhausted(
            f"only one sign of the gap found in {budget} trials",
            best={"target": target, "negative": negative, "positive": positive, "rows": table},
        )

    raise ValueError(f"unknown search target {target!r}; choices: {SEARCH_TARGETS}")


# --------------------------------------------------------------------------
# Quasi-arithmetic sweep
# --------------------------------------------------------------------------

def run_sweep(
    phi_spec: str,
    psi_spec: str,
    config: TrialConfig,
    n_trials: int,
) -> Tuple[dict, int]:
    """Exercise the quasi-arithmetic mean checks of ``MEAN_CHECKS`` for one generator pair.

    Each check applies when its hypotheses hold for the pair; per trial, an
    applicable check gets a signed slack or, where its operand leaves the
    domain of psi^{-1}, a domain skip.  Trials run a chunk at a time, as
    verify's do, with every check of ``core.trial_sums`` (see :func:`_chunk`
    and ``quasimeans.compare_means``), judged by ``core.judge`` as verify's
    rows are, and folded into each check's :class:`Tally` in index order,
    so the report is the same as trial after trial; a failing chunk is re-run
    trial by trial, so the error raised is the lowest failing trial's.
    Returns (json_report, violation_count).
    """
    from .quasimeans import MEAN_CHECKS, compare_means, resolve_spec

    check_trials(n_trials)
    phi = parse_function_spec(phi_spec)
    # A catalog entry parsed twice is two unequal objects (its lambdas differ), so a same-spec
    # pair shares one: stage 1 then builds one family sum per distinct generator.
    psi = phi if psi_spec == phi_spec else parse_function_spec(psi_spec)
    bounds = config.bounds
    spec = resolve_spec(phi, psi, bounds)
    tol = config.tol_abs
    tol = sweep_tolerance(bounds.M, float(psi(bounds.M)), float(psi(bounds.m))) if tol is None else tol

    relations = {name: check.relation(spec) for name, check in MEAN_CHECKS.items()}
    tallies = {name: Tally() for name, relation in relations.items() if relation is not None}
    rows = [(MEAN_CHECKS[name], relations[name]) for name in tallies]

    def rows_of(stack: FamilySums) -> list:
        orders, inside = compare_means(spec, rows, stack, tol)
        return judge(rows, orders, len(stack.positions), inside)

    chunk = partial(_chunk, config, operand_sums(phi, psi), rows_of)
    for i, (seed_i, _, judged) in enumerate(_by_chunk(n_trials, chunk)):
        for tally, entry in zip(tallies.values(), judged):
            tally.record(i, seed_i, entry)

    checks = {
        name: {"applicable": True, "expected": relations[name].value, **tallies[name].to_json()}
        if name in tallies else {"applicable": False}
        for name in MEAN_CHECKS
    }
    n_violations = sum(len(tally.violations) for tally in tallies.values())
    report = {
        "command": "sweep",
        "phi": phi_spec,
        "psi": psi_spec,
        "config": config.to_json(),
        "trials": n_trials,
        "composite": {
            "alpha": spec.composite_curvature.alpha,
            "beta": spec.composite_curvature.beta,
            "convex": spec.composite_is_convex,
            "concave": spec.composite_is_concave,
            "log_convex": spec.composite_is_log_convex,
        },
        "reversal_applied": spec.psi_inverse.operator_decreasing,
        "checks": checks,
        "violations_total": n_violations,
    }
    return report, n_violations
