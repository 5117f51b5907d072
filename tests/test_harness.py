import inspect
import json
import math
import time

import numpy as np
import pytest

from mercerlab import harness, sampling
from mercerlab.cli import CHAIN_CLI_CHOICES
from mercerlab.errors import BudgetExhausted
from mercerlab.harness import (
    NONCONVEX_CANDIDATES,
    TrialConfig,
    build_instance,
    normalize_chain,
    replay_trial,
    reproduce,
    run_suite,
    run_sweep,
    search_counterexample,
    verify_report,
)
from mercerlab.functions import exponential, parse_function_spec
from mercerlab.mercer import CHAIN_KINDS


def replace(obj, **changes):
    """A copy of ``obj`` built by its constructor, from the fields of its parameters, ``changes`` set."""
    fields = {name: getattr(obj, name) for name in inspect.signature(type(obj)).parameters}
    return type(obj)(**{**fields, **changes})


PI4, PI2 = math.pi / 4, math.pi / 2


class TestRunSuite:
    def test_clean_convex_run(self):
        config = TrialConfig(seed=5, function_spec="exp", chain="classic", vary_dims=True)
        summary = run_suite(config, 100)
        assert summary.trials == 100
        assert summary.violations == []
        assert summary.min_gap_overall > -1e-9

    def test_forced_sine_run_finds_violations(self):
        config = TrialConfig(
            seed=5, function_spec="sin", chain="classic", m=PI4, M=PI2,
            force=True, vary_dims=True,
        )
        summary = run_suite(config, 60)
        assert summary.violations
        worst = min(v["gap"] for v in summary.violations)
        assert worst < -1e-3

    def test_gate_blocks_unforced_nonconvex(self):
        from mercerlab.errors import HypothesisNotMet

        config = TrialConfig(seed=5, function_spec="sin", chain="classic", m=PI4, M=PI2)
        with pytest.raises(HypothesisNotMet):
            run_suite(config, 1)

    def test_gate_runs_before_any_trial_is_sampled(self, monkeypatch):
        # The chain gate depends on f, [m, M] and force only: an unforced
        # non-convex suite is refused before its first chunk is sampled, and
        # a forced one samples every chunk as before.
        from mercerlab.errors import HypothesisNotMet

        sampled = []
        original = harness._sample_chunk

        def spy(config, indices):
            sampled.append(list(indices))
            return original(config, indices)

        monkeypatch.setattr(harness, "_sample_chunk", spy)
        config = TrialConfig(seed=5, function_spec="sin", chain="classic", m=PI4, M=PI2)
        with pytest.raises(HypothesisNotMet, match="not flagged convex"):
            run_suite(config, 3)
        assert sampled == []
        forced = run_suite(replace(config, force=True), 3)
        assert sampled == [[0, 1, 2]] and forced.trials == 3

    def test_report_is_deterministic(self):
        config = TrialConfig(seed=11, function_spec="xlogx", chain="chain", vary_dims=True)
        report_a, _ = verify_report(config, 40)
        report_b, _ = verify_report(config, 40)
        assert json.dumps(report_a) == json.dumps(report_b)

    def test_rows_carry_replay_data(self):
        config = TrialConfig(seed=2, function_spec="inv", chain="log-convex", vary_dims=True)
        summary = run_suite(config, 10)
        assert len(summary.rows) == 10
        row = summary.rows[3]
        assert row["seed"] == 2 ^ 3
        assert {"function", "chain", "dim_h", "dim_k", "n_maps", "min_gap"} <= set(row)

    def test_violation_replay_matches(self):
        config = TrialConfig(
            seed=17, function_spec="sin", chain="classic", m=PI4, M=PI2,
            force=True, vary_dims=True,
        )
        summary = run_suite(config, 30)
        assert summary.violations
        violation = summary.violations[0]
        gaps = replay_trial(config, violation["trial"])
        key = "{}<={}".format(*violation["pair"])
        assert gaps[key] == pytest.approx(violation["gap"], abs=1e-12)

    def test_violation_rule_is_strict_at_the_tolerance(self):
        # The default id chain's least gap is rounding (-4.98e-15): a tolerance of exactly
        # its magnitude holds every pair, one ulp less flags that pair.
        config = TrialConfig(function_spec="id", chain="chain")
        least = run_suite(config, 20).min_gap_overall
        assert -1e-14 < least < 0.0
        assert run_suite(replace(config, tol_abs=-least), 20).violations == []
        flagged = run_suite(replace(config, tol_abs=float(np.nextafter(-least, 0.0))), 20).violations
        assert flagged and min(v["gap"] for v in flagged) == least

    def test_failed_chunk_of_one_trial_runs_once(self, monkeypatch):
        # exp(700) times the diamond overflows the refined operand: the chunk of
        # one trial raises, and is not run again trial by trial.
        from mercerlab.errors import OperandOverflow

        chunks = []
        original = harness._grouped_outcomes

        def spy(*args):
            chunks.append(list(args[-1]))
            return original(*args)

        monkeypatch.setattr(harness, "_grouped_outcomes", spy)
        with pytest.raises(OperandOverflow):
            run_suite(TrialConfig(function_spec="exp", m=1, M=700, chain="twice-diff"), 1)
        assert chunks == [[0]]

    def test_chain_token_normalization(self):
        assert normalize_chain("twice-diff") == "twice_diff"
        assert normalize_chain("log_convex") == "log_convex"
        # the CLI offers every kind of the chain table, spelled with hyphens
        assert CHAIN_CLI_CHOICES == tuple(kind.replace("_", "-") for kind in CHAIN_KINDS)
        assert CHAIN_CLI_CHOICES == ("classic", "chain", "twice-diff", "log-convex")
        for kind in CHAIN_KINDS:
            assert normalize_chain(kind) == kind
            assert normalize_chain(kind.replace("_", "-")) == kind
        with pytest.raises(ValueError):
            normalize_chain("sideways")

    def test_mixed_families_are_used(self):
        from mercerlab.maps import WeightedTrace

        config = TrialConfig(seed=3, function_spec="exp", chain="classic", n_maps=3, mixed=True)
        inst, _, _ = build_instance(config, 0, exponential())
        assert any(isinstance(m, WeightedTrace) for m in inst.family.maps)

    def test_throughput_smoke(self):
        config = TrialConfig(seed=0, function_spec="exp", chain="classic", dim_h=8, dim_k=8, n_maps=4)
        started = time.perf_counter()
        summary = run_suite(config, 100)
        elapsed = time.perf_counter() - started
        assert summary.violations == []
        # 1000 trials must fit in 60 s; 100 trials in 6 s leaves ample margin
        assert elapsed < 6.0


class TestReproduce:
    def test_sine_case_values(self):
        out = reproduce("example-2.2")
        assert out["alpha"] == pytest.approx(-1.0)
        assert out["values"]["lhs"] == pytest.approx(0.9238795325112867, abs=1e-12)
        assert out["values"]["rhs_classic"] == pytest.approx(0.8535533905932737, abs=1e-12)
        assert out["values"]["refined_upper"] == pytest.approx(
            0.8535533905932737 + math.pi**2 / 128, abs=1e-12
        )
        assert out["classic_gap"] < -0.07

    def test_power_gap_case_values(self):
        out = reproduce("example-3.5")
        assert out["gaps"]["-0.2"] == pytest.approx(-0.0052909, abs=1e-6)
        assert out["gaps"]["-1"] == pytest.approx(0.0522794, abs=1e-6)
        assert out["signs"] == {"-0.2": -1, "-1": 1}

    def test_quadratic_override_gives_equality_triple(self):
        out = reproduce("example-2.2", function_override="pow:p=2")
        values = out["values"]
        assert values["refined_lower"] == pytest.approx(values["lhs"], abs=1e-9)
        assert values["refined_upper"] == pytest.approx(values["lhs"], abs=1e-9)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            reproduce("example-9.9")


class TestSearch:
    def test_sine_witness_found_immediately(self):
        findings = search_counterexample(
            "classic-nonconvex", budget=1, function_spec="sin", m=PI4, M=PI2
        )
        assert findings["status"] == "found"
        assert findings["witness"]["gap"] == pytest.approx(-0.0703261419, abs=1e-9)

    def test_search_returns_worst_instance(self):
        findings = search_counterexample(
            "classic-nonconvex", budget=10, function_spec="sin", m=PI4, M=PI2
        )
        assert findings["witness"]["gap"] <= -0.0703

    def test_convex_function_exhausts_budget(self):
        with pytest.raises(BudgetExhausted) as excinfo:
            search_counterexample("classic-nonconvex", budget=3, function_spec="exp")
        best = excinfo.value.best
        assert best["gap"] >= -1e-9

    def test_sign_flip_witnesses(self):
        findings = search_counterexample("th3-th4-order", budget=5)
        assert findings["status"] == "found"
        assert findings["negative"]["gap"] < 0 < findings["positive"]["gap"]
        assert findings["negative"]["p"] == pytest.approx(-0.2)
        assert findings["positive"]["p"] == pytest.approx(-1.0)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            search_counterexample("classic-nonconvex", budget=0)

    def test_sampled_witness_gap_is_its_replayed_suite_gap(self):
        findings = search_counterexample(
            "classic-nonconvex", budget=10, function_spec="sin", m=PI4, M=PI2
        )
        w = findings["witness"]
        assert w["trial"] > 0
        config = TrialConfig(
            seed=0, m=PI4, M=PI2, function_spec="sin", force=True, vary_dims=True
        )
        assert w["gap"].hex() == replay_trial(config, w["trial"])["lhs<=rhs_classic"].hex()

    def test_all_candidates_give_the_least_single_candidate_witness(self):
        def witness(**kwargs):
            try:
                return search_counterexample(
                    "classic-nonconvex", budget=12, m=0.25, M=1.5, seed=3, **kwargs
                )["witness"]
            except BudgetExhausted as exhausted:
                return exhausted.best

        singles = [witness(function_spec=spec) for spec in NONCONVEX_CANDIDATES]
        # ties go to the earliest trial, then to the earliest candidate
        least = min(singles, key=lambda w: (w["gap"], w["trial"]))
        assert least["function"] != NONCONVEX_CANDIDATES[0]  # not just the first candidate's search
        assert witness() == least

    def test_suite_trial_zero_is_never_sampled(self, monkeypatch):
        # The extremal probe is trial 0, so the suite starts at trial 1.
        sampled = []
        original = harness._sample_chunk

        def spy(config, indices):
            sampled.extend(indices)
            return original(config, indices)

        monkeypatch.setattr(harness, "_sample_chunk", spy)
        findings = search_counterexample("classic-nonconvex", budget=6, m=0.25, M=1.5)
        assert findings["witness"]["trial"] == 5  # rebuilt alone from its suite trial
        assert sampled == [1, 2, 3, 4, 5, 5]  # the candidates' one suite, then the witness alone

    def test_each_trial_is_sampled_once(self, monkeypatch):
        # One suite serves every candidate: one sample_trials call per chunk,
        # then the witness's chunk of one.
        calls = []
        original = sampling.sample_trials

        def spy(seeds, *args):
            calls.append(len(seeds))
            return original(seeds, *args)

        monkeypatch.setattr(sampling, "sample_trials", spy)
        monkeypatch.setattr(harness, "CHUNK_TRIALS", 8)
        findings = search_counterexample("classic-nonconvex", budget=20)
        assert findings["witness"]["trial"] > 0
        assert calls == [8, 8, 3, 1]

    def test_witness_is_replayable(self):
        from mercerlab.linalg import HermitianOperator, SpectralBounds
        from mercerlab.maps import family_from_json
        from mercerlab.mercer import MercerInstance, mercer_lhs, mercer_rhs_classic
        from mercerlab.functions import parse_function_spec
        import numpy as np

        findings = search_counterexample(
            "classic-nonconvex", budget=4, function_spec="sin", m=PI4, M=PI2, seed=9
        )
        w = findings["witness"]
        family = family_from_json(w["maps"], dim_in=w["dim_h"], dim_out=w["dim_k"])
        ops = tuple(HermitianOperator.from_json(o) for o in w["operators"])
        inst = MercerInstance(
            f=parse_function_spec(w["function"]),
            family=family,
            operators=ops,
            bounds=SpectralBounds(w["m"], w["M"]),
        )
        diff = mercer_rhs_classic(inst) - mercer_lhs(inst)
        assert np.linalg.eigvalsh(diff.entries)[0] == pytest.approx(w["gap"], abs=1e-10)


class TestSweep:
    def test_log_id_clean(self):
        report, violations = run_sweep(
            "log", "id", TrialConfig(seed=1, vary_dims=True), 100
        )
        assert violations == 0
        checks = report["checks"]
        assert checks["mean_order"]["expected"] == "LessEqual"
        assert checks["log_convex_sandwich"]["applicable"]
        assert not report["reversal_applied"]

    def test_id_inv_reversal_recorded(self):
        report, violations = run_sweep(
            "id", "inv", TrialConfig(seed=2, vary_dims=True), 100
        )
        assert violations == 0
        assert report["reversal_applied"]
        assert report["checks"]["mean_order"]["expected"] == "GreaterEqual"
        assert report["checks"]["curvature_bound_alpha"]["expected"] == "GreaterEqual"
        # the geometric sandwich needs an operator-increasing inverse
        assert not report["checks"]["log_convex_sandwich"]["applicable"]

    def test_beta_side_domain_skips_counted(self):
        report, violations = run_sweep(
            "id", "inv", TrialConfig(seed=3, vary_dims=True), 50
        )
        assert violations == 0
        beta = report["checks"]["curvature_bound_beta"]
        assert beta["evaluated"] + beta["domain_skips"] == 50

    def test_violation_rule_is_strict_at_the_tolerance(self):
        # The default (log, id) sweep's two-pair sandwich row has least gap -5.83e-15, rounding:
        # at a tolerance of exactly its magnitude the row holds, one ulp less flags it.
        config = TrialConfig()
        least = run_sweep("log", "id", config, 20)[0]["checks"]["log_convex_sandwich"]["min_gap"]
        assert -1e-14 < least < 0.0

        def sandwich(tol):
            return run_sweep("log", "id", replace(config, tol_abs=tol), 20)[0]["checks"]["log_convex_sandwich"]

        assert sandwich(-least)["violations"] == []
        flagged = sandwich(float(np.nextafter(-least, 0.0)))["violations"]
        assert flagged and min(v["gap"] for v in flagged) == least

    def test_deterministic(self):
        cfg = TrialConfig(seed=4, vary_dims=True)
        a, _ = run_sweep("sqrt", "id", cfg, 30)
        b, _ = run_sweep("sqrt", "id", cfg, 30)
        assert json.dumps(a) == json.dumps(b)

    def test_generators_validated_once_per_sweep(self, monkeypatch):
        from mercerlab import quasimeans

        calls = []
        original = quasimeans._require_strictly_monotone

        def spy(g, bounds, n):
            calls.append((g.name, n))
            return original(g, bounds, n)

        monkeypatch.setattr(quasimeans, "_require_strictly_monotone", spy)
        run_sweep("log", "id", TrialConfig(seed=5), 12)
        # resolve_spec's grid, once per generator: the means take their inverses from its spec
        assert sorted(calls) == [("id", 1000), ("log", 1000)]

    @pytest.mark.parametrize("spec", ["sqrt", "pow:p=2", "exp"])
    def test_same_spec_sweep_builds_one_sum_per_generator(self, monkeypatch, spec):
        # A catalog entry holding a lambda is unequal to the same entry parsed again,
        # so the two generators of a same-spec pair must be one object, one key.
        from mercerlab.core import UNIT

        keys = []
        original = harness.stage_one

        def spy(blocks, bounds, objects):
            keys.append(list(dict.fromkeys([*objects, UNIT])))
            return original(blocks, bounds, objects)

        monkeypatch.setattr(harness, "stage_one", spy)
        run_sweep(spec, spec, TrialConfig(seed=5), 3)
        label = parse_function_spec(spec).label()
        assert [[("unit" if key == UNIT else key[0].label(), key[1]) for key in chunk] for chunk in keys] == [
            [(label, False), (label, True), ("unit", False)]
        ]
