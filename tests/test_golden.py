"""Byte identity of seeded reports against recorded digests.

Each digest is the sha256 of a report serialised exactly as the CLI prints it
(``json.dumps(report, indent=2)``).  The sweep and fixed-shape verify
digests were recorded from the implementation that rebuilt every spectral
object at each use, before the per-trial spectral core reused
eigendecompositions; the varied, forced-sine and CSV digests were recorded
from the trial-by-trial evaluator, before trials were evaluated in stacked
shape groups; the digests of the sweeps whose checks do not all apply were
recorded before the sweep's checks were read from one table; the one-trial
chain reports were recorded while a suite still built one report per trial,
before the report held one stack per side and per comparison.  Neither
reuse, stacking, the table nor the stacked report may move a single bit, so these
digests must never be regenerated to make this test pass: a mismatch means
a report changed.
"""

import hashlib
import json
import math

import pytest

from mercerlab.cli import _write_csv
from mercerlab.functions import parse_function_spec
from mercerlab.harness import TrialConfig, build_instance, run_suite, run_sweep, verify_report
from mercerlab.mercer import evaluate_chain

TRIALS = 20

# The generator pairs of scripts/run_property_suites.py, in its order, then two
# pairs whose checks do not apply: none for (id, log), and for (sqrt, sqrt) only
# mean_order, as Equal.
SWEEP_DIGESTS = {
    ("sqrt", "id"): "a88cd69e88e830eeae4f72cdb3d2cab5c3a4935e9f214872aa60145e73b959f6",
    ("log", "id"): "760e47d1c302da331599854217cbd7f2164671af25dfc3dd47f5a47874275629",
    ("square", "id"): "7b135bfd1a25b588e2e4d80090daa4f903a539663f9fdb35aece932be53b0e56",
    ("id", "inv"): "c8a71b80a7ffcab6059ee920745a8cb7f2b97418536cb4f7098fc29ca3c19024",
    ("inv", "id"): "8b313c4650a4720a879f8439c083f1e0149262e32c52fa4d65f76c3d4361e983",
    ("id", "exp"): "ec1e31ae2bed6985fe1adeb2e56747bf09fce56ab8a92f196ebf86aeb1764701",
    ("log", "square"): "21b04535291a6d03510354af7b719ca64e491e417b302c6078eab9017916abbb",
    ("id", "log"): "27e7a6da543f2d13449f459a66bcec29895e53db499c5d64a3340ae2ac0dd992",
    ("sqrt", "sqrt"): "f5f2b98362ebbb5a420e7996b850f9f9775b804b7e3651119fce3ba956d25d46",
}

VERIFY_DIGESTS = {
    "classic": "be37f59c3ef3fb3810435d5f466f0eeffb451dbe5a789be69f90dbefe723ffdd",
    "chain": "c5c5041b5dcf0c4bbbceb0d2acb976234a15adfc62f89fcb21859ff7b6d13541",
    "twice-diff": "dd0b48b73ce598be1c8e339c825472109418d036063cbaa5d68eaf9aa46df7c8",
    "log-convex": "74b2050441035e108664a512d5d01661b8dbfa9f2037f9a5e6ca36bbcf25b6eb",
}


# Suites over many shapes: vary_dims and a trace map in every family, so the
# WeightedTrace path and many small shape groups are pinned.
VARIED_VERIFY_DIGESTS = {
    "chain": "c5dd3652f41119b47072ebf8410e2f88e2ef3746875ed3d162922bdf71a131b7",
    "twice-diff": "833dd14321fc07f5b1ab202ac8a7f36d7160de4c10fbfaf6b911c699e52077d2",
}

# The forced sine suite on [pi/4, pi/2]: every trial violates the classic
# bound with a GreaterEqual verdict, so the violation records and the signed
# slack recomputed for GreaterEqual pairs are pinned.
FORCED_SINE_DIGEST = "dcb5fbd4e49e374ac3b5e169c1488b71bd6d52cb24aad78dd027d03d9f24a563"

# sha256 of ``json.dumps(evaluate_chain(inst, chain, force=True).to_json())``
# for trial 3 of the forced sine suite's config (dims (8, 6, 3)): every side,
# every verdict (GreaterEqual ones among them) and the scalars, with the
# diamond pair's min eigenvalue, of the report a one-trial replay prints.
ONE_TRIAL_REPORT_DIGESTS = {
    "classic": "06db642c234e27887e6f873712f4a32f67a9ac0cf862a8e21ea9f306c7cd988d",
    "chain": "03f4208a9791828d1904570ac5ea2bbd967381725ce32ea44bc84d2c0a2855bd",
    "twice_diff": "a8345adbc2b794df7e41608c3c9ba8bb6c9fe7a9f1c4c45335e6305d251c65af",
    "log_convex": "947b3f55601a4b02f9c8418afae386d3295da0ec5b71c5b9d6697f80a2bf1126",
}

# sha256 of the per-trial CSV rows of one fixed-shape suite, as `--csv` writes them.
ROWS_CSV_DIGEST = "d3e199aef436b16fe399eea1722a0a94e417a7190d1f06942c6f44d9a12f8a01"


def digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()


@pytest.mark.parametrize("index, pair", list(enumerate(SWEEP_DIGESTS)))
def test_sweep_report_digest(index, pair):
    phi, psi = pair
    report, _ = run_sweep(phi, psi, TrialConfig(seed=100 + index, vary_dims=True), TRIALS)
    assert digest(report) == SWEEP_DIGESTS[pair]


@pytest.mark.parametrize("index, chain", list(enumerate(VERIFY_DIGESTS)))
def test_verify_report_digest(index, chain):
    config = TrialConfig(
        seed=index, function_spec="exp", chain=chain, dim_h=4, dim_k=4, n_maps=2
    )
    report, _ = verify_report(config, TRIALS)
    assert digest(report) == VERIFY_DIGESTS[chain]


@pytest.mark.parametrize("index, chain", list(enumerate(VARIED_VERIFY_DIGESTS)))
def test_varied_mixed_verify_report_digest(index, chain):
    config = TrialConfig(
        seed=10 + index, function_spec="exp", chain=chain, mixed=True, vary_dims=True
    )
    report, _ = verify_report(config, TRIALS)
    assert digest(report) == VARIED_VERIFY_DIGESTS[chain]


FORCED_SINE_CONFIG = TrialConfig(
    seed=12, function_spec="sin", chain="classic", m=math.pi / 4, M=math.pi / 2,
    force=True, mixed=True, vary_dims=True,
)


def test_forced_sine_verify_report_digest():
    report, summary = verify_report(FORCED_SINE_CONFIG, TRIALS)
    assert len(summary.violations) == TRIALS
    assert digest(report) == FORCED_SINE_DIGEST


def test_rows_csv_digest(tmp_path):
    summary = run_suite(TrialConfig(seed=13, function_spec="exp", chain="chain"), TRIALS)
    path = tmp_path / "rows.csv"
    _write_csv(str(path), summary.rows)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ROWS_CSV_DIGEST


@pytest.mark.parametrize("chain", list(ONE_TRIAL_REPORT_DIGESTS))
def test_one_trial_report_digest(chain):
    inst, _, dims = build_instance(FORCED_SINE_CONFIG, 3, parse_function_spec("sin"))
    assert dims == (8, 6, 3)
    blob = json.dumps(evaluate_chain(inst, chain, force=True).to_json())
    assert hashlib.sha256(blob.encode()).hexdigest() == ONE_TRIAL_REPORT_DIGESTS[chain]
