"""Byte identity of seeded reports against recorded digests.

Each digest is the sha256 of a report serialised exactly as the CLI prints it
(``json.dumps(report, indent=2)``).  The sweep digests were recorded from the
implementation that rebuilt every spectral object at each use, before the
per-trial spectral core reused eigendecompositions; the forced-sine digest
from the trial-by-trial evaluator, before trials were evaluated in stacked
shape groups; the digests of the sweeps whose checks do not all apply
before the sweep's checks were read from one table.  Neither reuse,
stacking, the table nor the stacked report moved a single bit of them.

The fixed-shape and varied verify digests, the CSV rows and the one-trial
chain reports were re-recorded once, when a Loewner comparison became one
``eigvalsh`` of right - left instead of an ``eigh`` of its Hermitian part:
the two LAPACK drivers round differently, so a verify gap not already read
from an ``eigvalsh`` could move in its last bits.  The GreaterEqual gaps
were (a re-solve), so the forced-sine digest, which reports only those,
held; the others moved by at most 2.8e-16 in ``min_gap_overall``, and no
violation, verdict or exit code changed.  The stdout digests of the
one-trial CLI commands were recorded before an instance's family sums were
built in one checked stage-1 call.  No refactor may move a digest,
so these must never be regenerated to make this test pass: a mismatch
means a report changed.
"""

import hashlib
import json
import math

import pytest

from mercerlab.cli import _write_csv, main
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
    "classic": "c8c372af97fc6757665de9de326df73e6fb7355e6f989437186a682d7546a7ff",
    "chain": "a013e9fb8e0ca1fa26b3c91e3a5945442522346f37b1c29b5656e395a244b3a7",
    "twice-diff": "91cc7d279f9df94b4e28dc7826b08a78e54b4bb0896db477b92b64bcc0e03685",
    "log-convex": "cd15dc13204b346e4ffd4409fba298e361df8500b976ceb4b702675d6283c9d0",
}


# Suites over many shapes: vary_dims and a trace map in every family, so the
# WeightedTrace path and many small shape groups are pinned.
VARIED_VERIFY_DIGESTS = {
    "chain": "c99d0eff5cb59da16ee41cf8e186fd5d43b70d49505eac5c364e20c396e9a5e4",
    "twice-diff": "d02022bdd87935cb1615688875f0f5306d8e34409127b9deafda2fa0db1da9b7",
    "classic": "4a97a17210e51cb8993ee3190f241e2ea214d7fa5fa97a7657cf2133c6011294",
    "log-convex": "6249087134be4db1212b2933a848bc6e3ad621f38335f20e4044c07052a7c931",
}

# The forced sine suite on [pi/4, pi/2]: every trial violates the classic
# bound with a GreaterEqual verdict, so the violation records and the signed
# slack of GreaterEqual pairs, lambda_min of right - left, are pinned.
FORCED_SINE_DIGEST = "dcb5fbd4e49e374ac3b5e169c1488b71bd6d52cb24aad78dd027d03d9f24a563"

# sha256 of ``json.dumps(evaluate_chain(inst, chain, force=True).to_json())``
# for trial 3 of the forced sine suite's config (dims (8, 6, 3)): every side,
# every verdict (GreaterEqual ones among them) and the scalars, with the
# diamond pair's min eigenvalue, of the report a one-trial replay prints.
ONE_TRIAL_REPORT_DIGESTS = {
    "classic": "314bbb515e6cd4e221fecd2ff4f60142e0a84c3525dad6ea13912289b15d1d28",
    "chain": "e5f604a5b90ba03dbe74c591796b1d56a78782e94a6089a97753b21bc7f74812",
    "twice_diff": "0fdc094354e610c3b746116720b0f1e4d64941f48f0d3fe55465f8de66435a60",
    "log_convex": "8298fab5d83487c28754ba4e474b72a120d3478021593d680e18b97b0b1d63f1",
}

# sha256 of the stdout, and the exit code, of the CLI commands that evaluate one
# trial's ``MercerInstance``: the reproduce case, and the search's probe and
# witness; and of the all-candidate searches, recorded when every candidate ran
# its own suite on the same trials.  Stdout holds the JSON report only; wall
# time goes to stderr.
CLI_STDOUT_DIGESTS = {
    ("reproduce", "example-2.2"): (0, "7193559cbc6793457531dad613c4c7ce0e42aa41667c2fab7851f045eea9db4d"),
    ("reproduce", "example-2.2", "--function", "pow:p=2"): (
        0,
        "64d96bec5651af4b24677d28ae2bde09e5b56b491021e442a87c2d407043bfbe",
    ),
    (
        "search", "classic-nonconvex", "--function", "sin", "--m", repr(math.pi / 4), "--M", repr(math.pi / 2),
        "--budget", "10",
    ): (2, "9ba3170754267fbc6a6e30a50f2e5ddeca6acbea7078e3fd3f255a0c90f9df4a"),
    ("search", "classic-nonconvex", "--budget", "20"): (
        2,
        "207ff361f8f040d387084f39e64184c71f993b587577f0cfe0a5a9640361cfcf",
    ),
    ("search", "classic-nonconvex", "--budget", "2"): (
        2,
        "a5ee4d01a426afaef6018789b97f62137fdfc315adfe6f60d6eb98b8754d1145",
    ),
}

# sha256 of the per-trial CSV rows of one fixed-shape suite, as `--csv` writes them.
ROWS_CSV_DIGEST = "6d7e3e4ba67723d2e5b8854f0cad3976d98ffb3c93926c09afd89cef46f64c82"


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


@pytest.mark.parametrize("argv", list(CLI_STDOUT_DIGESTS), ids=" ".join)
def test_one_trial_cli_stdout_digest(capsys, argv):
    code = main(list(argv))
    stdout = capsys.readouterr().out
    assert (code, hashlib.sha256(stdout.encode()).hexdigest()) == CLI_STDOUT_DIGESTS[argv]
