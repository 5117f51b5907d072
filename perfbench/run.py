#!/usr/bin/env python3
"""mercerlab benchmark: one workload, one closed loop, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-fixed --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each one is there):

* ``verify-fixed``   ``run_suite`` at dim_h = dim_k = 4, n = 2, the four chains
* ``verify-varied``  the acceptance criterion-3 suites with ``vary_dims``
* ``sweep-varied``   ``run_sweep`` over the seven generator pairs, ``vary_dims``
* ``cli-short``      fresh ``python -m mercerlab`` processes, one at a time

Everything runs in this process or in one child process at a time, with the
BLAS pinned to one thread, and the next operation starts when the last one
finished.  With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` a separate traced run wraps the package's layers from outside
(``tracer.py``) and the result holds the per-layer metrics.  Every output is
checked; a miss counts as a failed operation and the exit code is then 1.
The last line of stdout is the JSON result; details go to ``.bench_out/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5        # minimum set-up probes per run (their median is setup_s)
IMPORT_REPEATS = 5       # minimum import probes per traced run
MIN_CLI_SAMPLES = 20     # CLI processes, so that the tail has >= 10 samples beyond it
TAIL_BEYOND = 10
WARMUP_TRIALS = 3
CLI_SHARE = 0.5          # share of the window a trial workload spends on CLI processes
SETUP_SHARE = 0.1        # share of the window spent on set-up probes
REFERENCE_SHARE = 0.25   # in-process reference time after each suite, as a share of the suite

# The references' speed on the nominal box (shared 2-vCPU x86-64 VM, Python
# 3.11, numpy 2.4 with OpenBLAS 0.3.31 on one thread).  Timed metrics are
# scaled by the measured speed relative to these, so that they read in
# nominal-box units.
REFERENCE_NOMINAL_RATE = 360.0   # Reference units per second
FLOOR_NOMINAL_S = 0.15           # bare interpreter + import numpy, spawn to exit

REPRODUCE_ORACLES = {
    "example-2.2": {"lhs": math.sin(3 * math.pi / 8), "rhs_classic": 0.5 + math.sqrt(2) / 4},
    "example-3.5": {"-0.2": -0.0052909, "-1": 0.0522794},
}
REPRODUCE_TOL = {"example-2.2": 1e-12, "example-3.5": 1e-6}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_bytes(report: dict) -> bytes:
    """The report exactly as the CLI prints it."""
    return (json.dumps(report, indent=2) + "\n").encode()


def tail(samples):
    """(value, percentile, n): the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    k = n - TAIL_BEYOND
    if k < 1:
        raise ValueError(f"{n} samples leave no tail with {TAIL_BEYOND} beyond it")
    return ordered[k - 1], math.floor(100 * k / n), n


class Ledger:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, weight: int, problem):
        self.attempted += weight
        if problem:
            self.failed += weight
            if len(self.messages) < 10:
                self.messages.append(problem)
                print(f"FAILED: {problem}", file=sys.stderr)


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------

def check_verify(report: dict, trials: int, force: bool):
    violations = report["summary"]["violations"]
    if report["trials"] != trials:
        return f"verify ran {report['trials']} trials, asked {trials}"
    if force and not violations:
        return "forced counterexample suite reported no violation"
    if not force and violations:
        return f"clean suite reported {len(violations)} violations"
    return None


def check_sweep(report: dict, trials: int):
    if report["trials"] != trials:
        return f"sweep ran {report['trials']} trials, asked {trials}"
    if report["violations_total"]:
        return f"sweep reported {report['violations_total']} violations"
    for name, check in report["checks"].items():
        if check["applicable"] and check["evaluated"] + check["domain_skips"] != trials:
            return f"sweep check {name} covered {check['evaluated']}+{check['domain_skips']} of {trials}"
    return None


def check_cli(argv, code: int, expected_code: int, stdout: bytes):
    if code != expected_code:
        return f"{' '.join(argv)}: exit {code}, expected {expected_code}"
    try:
        return _check_cli_report(argv, json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"{' '.join(argv)}: malformed report ({exc!r})"


def _check_cli_report(argv, report: dict):
    command = argv[0]
    if command == "reproduce":
        case = argv[1]
        values = report["values"] if case == "example-2.2" else report["gaps"]
        for key, want in REPRODUCE_ORACLES[case].items():
            if abs(values[key] - want) > REPRODUCE_TOL[case]:
                return f"reproduce {case}: {key} = {values[key]!r}, oracle {want!r}"
        return None
    if command == "search":
        return None if report.get("status") == "found" else f"search {argv[1]} found nothing"
    trials = int(argv[argv.index("--trials") + 1])
    if command == "sweep":
        return check_sweep(report, trials)
    return check_verify(report, trials, "--force" in argv)


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(argv):
    """Run one child to completion: (exit code, stdout, stderr, wall s, peak RSS MB)."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, out, err.read(), wall, usage.ru_maxrss / 1024.0


class Floor:
    """The process-speed reference: a bare interpreter that imports numpy.

    Nothing in it comes from mercerlab, so a change to the package cannot move
    it; only the machine can.  Each timed child runs right after a floor
    process and its wall time is scaled by FLOOR_NOMINAL_S over that floor's
    wall time.  The noise of adjacent processes is strongly correlated, so
    this pairwise scaling cancels most of it.
    """

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.walls = []

    def scale(self) -> float:
        """Run one floor process; returns the factor for the next child's wall time."""
        code, _, _, wall, _ = run_child([sys.executable, "-c", "import numpy"])
        self.ledger.record(1, f"numpy import exit {code}" if code else None)
        self.walls.append(wall)
        return FLOOR_NOMINAL_S / wall


@dataclass(frozen=True)
class _ReferenceOperator:
    entries: object

    def __add__(self, other):
        return _ReferenceOperator(self.entries + other.entries)

    def __sub__(self, other):
        return _ReferenceOperator(self.entries - other.entries)

    def scaled(self, c: float):
        return _ReferenceOperator(c * self.entries)


class Reference:
    """The in-process speed reference: fixed work shaped like a trial.

    Frozen-dataclass operator arithmetic around ``eigh`` / ``eigvalsh`` calls
    on 48 Hermitian matrices of dims 2..8 mixes interpreter work with small
    LAPACK calls the way a trial does, and touches no mercerlab code.  Its
    speed tracks the program's better than pure-numpy or pure-Python loops do
    when the box's speed drifts.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(1)
        self.mats = []
        for i in range(48):
            z = rng.standard_normal((2, 2 + i % 7, 2 + i % 7))
            self.mats.append(z[0] + z[0].T + 1j * (z[1] - z[1].T))

    def unit(self):
        np = self.np
        gaps = {}
        for i, a in enumerate(self.mats):
            w, v = np.linalg.eigh(a)
            image = _ReferenceOperator((v * np.exp(np.clip(w, -1.0, 1.0))) @ v.conj().T)
            diff = image + _ReferenceOperator(a).scaled(0.1) - _ReferenceOperator(np.eye(len(a)))
            lam = np.linalg.eigvalsh(diff.entries)
            gaps[len(a), i % 5] = max(abs(lam[0]), abs(lam[-1]))

    def speed(self, seconds: float) -> float:
        """Run the reference for ``seconds``; returns the speed relative to the nominal box."""
        units = 0
        started = time.perf_counter()
        while True:
            self.unit()
            units += 1
            elapsed = time.perf_counter() - started
            if elapsed >= seconds:
                return units / elapsed / REFERENCE_NOMINAL_RATE


class ProbeLoop:
    """Fresh interpreters that only set up: ``setup_s`` samples (spawn to exit)."""

    def __init__(self, workload: str, ledger: Ledger, floor: Floor):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), workload]
        self.ledger, self.floor = ledger, floor
        self.walls, self.scaled = [], []

    def step(self):
        scale = self.floor.scale()
        code, _, err, wall, _ = run_child(self.argv)
        self.ledger.record(1, f"setup probe exit {code}: {err.decode()[-300:]}" if code else None)
        self.walls.append(wall)
        self.scaled.append(wall * scale)


class ImportLoop:
    """``import mercerlab.cli`` on top of numpy, timed inside a fresh interpreter."""

    TIMED_IMPORT = ("import time, numpy; t = time.perf_counter(); import mercerlab.cli; "
                    "print(time.perf_counter() - t)")

    def __init__(self, ledger: Ledger, floor: Floor):
        self.ledger, self.floor = ledger, floor
        self.scaled_ms = []

    def step(self):
        scale = self.floor.scale()
        code, out, err, _, _ = run_child([sys.executable, "-c", self.TIMED_IMPORT])
        self.ledger.record(1, f"mercerlab import exit {code}: {err.decode()[-300:]}" if code else None)
        if not code:
            self.scaled_ms.append(float(out) * 1e3 * scale)


class CliLoop:
    """Fresh ``python -m mercerlab`` processes of a workload, one at a time."""

    def __init__(self, workload: str, seed: int, ledger: Ledger, floor: Floor):
        self.workload, self.seed, self.ledger, self.floor = workload, seed, ledger, floor
        self.walls, self.scaled, self.digests = [], [], []
        self.peak_rss_mb = 0.0

    def step(self):
        scale = self.floor.scale()
        argv, expected = wl.cli_command(self.workload, self.seed, len(self.walls))
        code, out, err, wall, peak = run_child([sys.executable, "-m", "mercerlab", *argv])
        problem = check_cli(argv, code, expected, out)
        self.ledger.record(1, problem and f"{problem}; stderr: {err.decode()[-300:]}")
        self.walls.append(wall)
        self.scaled.append(wall * scale)
        self.digests.append(sha256(out))
        self.peak_rss_mb = max(self.peak_rss_mb, peak)


def interleave(seconds: float, activities) -> None:
    """Closed loop over ``activities``, (share, minimum count, step) triples.

    Each step runs one operation.  The next step goes to the activity furthest
    below its share of the elapsed time, so every metric's samples spread over
    the whole window and a slow spell of the machine lands on all of them
    alike.  Past the deadline only activities short of their minimum run.
    """
    spent = [0.0] * len(activities)
    counts = [0] * len(activities)
    started = time.perf_counter()
    while True:
        now = time.perf_counter()
        choices = range(len(activities))
        if now - started >= seconds:
            choices = [i for i in choices if counts[i] < activities[i][1]]
            if not choices:
                return
        i = max(choices, key=lambda i: activities[i][0] * (now - started) - spent[i])
        activities[i][2]()
        spent[i] += time.perf_counter() - now
        counts[i] += 1


# --------------------------------------------------------------------------
# In-process suites
# --------------------------------------------------------------------------

class Suites:
    """Runs the rounds of a trial workload against the imported package."""

    def __init__(self, workload: str, seed: int, ledger: Ledger):
        from mercerlab import harness

        self.harness = harness
        self.workload = workload
        self.seed = seed
        self.ledger = ledger
        self.suites = wl.suites(workload)
        self.labels = [" ".join(str(part) for part in suite) for _, suite in self.suites]
        self.trials = wl.TRIALS_PER_SUITE[workload]

    def run_suite(self, index: int, seed: int, trials: int, tracer=None):
        """Run one suite; returns its report digest (None on failure)."""
        kind, suite = self.suites[index]
        if tracer is not None:
            tracer.begin_suite()
        try:
            if kind == "sweep":
                config = self.harness.TrialConfig(seed=seed, vary_dims=True)
                report, _ = self.harness.run_sweep(suite[0], suite[1], config, trials)
                problem = check_sweep(report, trials)
            else:
                fn, chain, m, M, force, mixed = suite
                config = self.harness.TrialConfig(
                    seed=seed, function_spec=fn, chain=chain, m=m, M=M, force=force, mixed=mixed,
                    vary_dims=self.workload == "verify-varied",
                )
                report, _ = self.harness.verify_report(config, trials)
                problem = check_verify(report, trials, force)
        except Exception:  # a raising suite is a failed operation, not a crash
            problem = f"suite {suite}: {traceback.format_exc(limit=3)}"
            report = None
        self.ledger.record(trials, problem and f"{problem} (seed {seed})")
        return None if problem else sha256(report_bytes(report))

    def run(self, index: int, r: int, tracer=None):
        """Suite ``index`` of round ``r``."""
        return self.run_suite(index, wl.derive_seed(self.seed, "round", r, index), self.trials, tracer)

    def warm_up(self):
        for i in range(len(self.suites)):
            self.run_suite(i, wl.derive_seed(self.seed, "warmup", i), WARMUP_TRIALS)


class CliInProcess:
    """The cli-short commands called through ``mercerlab.cli.main`` in this process."""

    def __init__(self, seed: int, ledger: Ledger):
        from mercerlab import cli

        self.cli = cli
        self.seed = seed
        self.ledger = ledger
        self.suites = wl.CLI_SHORT
        self.labels = [" ".join(argv) for argv, _ in self.suites]
        self.trials = 1

    def run(self, index: int, r: int, tracer=None):
        """Command ``index`` of round ``r``; returns its stdout digest (None on failure)."""
        argv, expected = wl.cli_command("cli-short", wl.derive_seed(self.seed, "round", r), index)
        if tracer is not None:
            tracer.begin_suite()
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(list(argv))
        except Exception:  # a raising command is a failed operation, not a crash
            problem = f"{' '.join(argv)}: {traceback.format_exc(limit=3)}"
        else:
            problem = check_cli(argv, code, expected, out.getvalue().encode())
        self.ledger.record(1, problem)
        return None if problem else sha256(out.getvalue().encode())

    def warm_up(self):
        for i in range(len(self.suites)):
            self.run(i, -1)


class RoundLoop:
    """Rounds of a runner numbered from 0, each suite under the tracer if one is given.

    Each suite is followed, untraced, by the in-process reference for a
    quarter of the suite's wall time; the suite's wall time times that speed
    is its time in nominal-box units.
    """

    def __init__(self, runner, reference: Reference, tracer=None, after_round0_suite=None):
        self.runner, self.reference = runner, reference
        self.tracer, self.after_round0_suite = tracer, after_round0_suite
        self.trials, self.wall, self.scaled_wall, self.digests = 0, 0.0, 0.0, []
        self.walls, self.speeds = [], []

    def step(self):
        r = len(self.digests)
        digests = []
        for i in range(len(self.runner.suites)):
            started = time.perf_counter()
            with self.tracer.installed() if self.tracer else contextlib.nullcontext():
                digests.append(self.runner.run(i, r, self.tracer))
            wall = time.perf_counter() - started
            if r == 0 and self.after_round0_suite:
                self.after_round0_suite(i)
            speed = self.reference.speed(REFERENCE_SHARE * wall)
            self.walls.append(wall)
            self.speeds.append(speed)
            self.wall += wall
            self.scaled_wall += wall * speed
        self.trials += len(self.runner.suites) * self.runner.trials
        self.digests.append(digests)

    @property
    def speed(self) -> float:
        """Wall-time-weighted reference speed over the suites."""
        return self.scaled_wall / self.wall


# --------------------------------------------------------------------------
# Workload runs
# --------------------------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float, ledger: Ledger):
    floor = Floor(ledger)
    probes = ProbeLoop(workload, ledger, floor)
    cli = CliLoop(workload, seed, ledger, floor)
    probes.step()  # warms the file cache; not a sample
    probes.walls.clear()
    probes.scaled.clear()
    extra = {}
    if workload == "cli-short":
        interleave(seconds, [(0.9, MIN_CLI_SAMPLES, cli.step), (0.1, SETUP_REPEATS, probes.step)])
        raw_rate, rate = len(cli.walls) / sum(cli.walls), len(cli.scaled) / sum(cli.scaled)
        rss = cli.peak_rss_mb
    else:
        runner = Suites(workload, seed, ledger)
        runner.warm_up()
        rounds = RoundLoop(runner, Reference())
        interleave(seconds, [(1 - CLI_SHARE - SETUP_SHARE, 1, rounds.step),
                             (CLI_SHARE, MIN_CLI_SAMPLES, cli.step),
                             (SETUP_SHARE, SETUP_REPEATS, probes.step)])
        again = runner.run_suite(0, wl.derive_seed(seed, "round", 0, 0), runner.trials)
        ledger.record(1, None if again == rounds.digests[0][0] else "re-run of round 0 suite 0 changed its report")
        raw_rate, rate = rounds.trials / rounds.wall, rounds.trials / rounds.scaled_wall
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        extra.update(rounds=len(rounds.digests), trials=rounds.trials, round0_digests=rounds.digests[0],
                     reference_speed=rounds.speed, suite_walls=rounds.walls, suite_speeds=rounds.speeds)
    tail_value, tail_pct, n = tail(cli.scaled)
    metrics = {
        "trials_per_s": (rate, "trials/s"),
        "cli_ms_p50": (statistics.median(cli.scaled) * 1e3, "ms"),
        "cli_ms_tail": (tail_value * 1e3, "ms"),
        "setup_s": (statistics.median(probes.scaled), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    raw = {
        "trials_per_s": raw_rate,
        "cli_ms_p50": statistics.median(cli.walls) * 1e3,
        "cli_ms_tail": tail(cli.walls)[0] * 1e3,
        "setup_s": statistics.median(probes.walls),
    }
    extra.update(raw_wall_clock=raw, floor_speed=FLOOR_NOMINAL_S / statistics.median(floor.walls),
                 cli_tail_percentile=tail_pct, cli_samples=n, setup_samples=len(probes.walls),
                 cli_walls=cli.walls, floor_walls=floor.walls, cli_digests=cli.digests)
    return metrics, extra


def traced(workload: str, seed: int, seconds: float, ledger: Ledger):
    from tracer import LAYERS, SOLVERS, Tracer

    runner = CliInProcess(seed, ledger) if workload == "cli-short" else Suites(workload, seed, ledger)
    runner.warm_up()
    tracer = Tracer()
    per_suite = []  # cumulative solver totals after each suite of traced round 0
    round0 = {}

    def after_round0_suite(i):
        per_suite.append(dict(tracer.totals))
        if i == len(runner.suites) - 1:
            round0.update(totals=dict(tracer.totals), calls={k: v.calls for k, v in tracer.layers.items()},
                          solvers={k: dict(v.solvers) for k, v in tracer.layers.items()},
                          problems=tracer.check_attribution())

    floor = Floor(ledger)
    reference = Reference()
    imports = ImportLoop(ledger, floor)
    plain = RoundLoop(runner, reference)
    with_trace = RoundLoop(runner, reference, tracer, after_round0_suite)
    interleave(seconds, [(0.3, 1, plain.step), (0.6, 1, with_trace.step), (0.1, IMPORT_REPEATS, imports.step)])
    for r, (untraced_digests, traced_digests) in enumerate(zip(plain.digests, with_trace.digests)):
        ledger.record(1, None if untraced_digests == traced_digests else f"traced round {r} reports differ")
    problems = round0["problems"] + tracer.check_attribution()
    ledger.record(1, problems and f"solver attribution: {problems}")

    # Times are scaled to the nominal box like the end-to-end metrics; counts are not.
    per_trial_us = with_trace.speed / 1e3 / with_trace.trials
    round0_trials = len(runner.suites) * runner.trials
    metrics = {}
    for layer in LAYERS:
        solves = round0["solvers"][layer]
        metrics[f"{layer}.self_us_per_trial"] = (tracer.layers[layer].self_ns * per_trial_us, "us")
        metrics[f"{layer}.calls_per_trial"] = (round0["calls"][layer] / round0_trials, "count")
        metrics[f"{layer}.eigensolves_per_trial"] = ((solves["eigh"] + solves["eigvalsh"]) / round0_trials, "count")
    metrics["mercer.instance_us_per_trial"] = (tracer.instance_ns * per_trial_us, "us")
    metrics["functions.setup_ms"] = (
        tracer.setup_functions_ns * with_trace.speed / 1e6 / (tracer.suite_index + 1), "ms")
    metrics["cli.import_ms"] = (statistics.median(imports.scaled_ms) if imports.scaled_ms else math.nan, "ms")
    metrics["cli.python_numpy_ms"] = (statistics.median(floor.walls) * 1e3, "ms")
    for kind in SOLVERS:
        metrics[f"{kind}_per_trial"] = (round0["totals"][kind] / round0_trials, "count")
    metrics["trace_overhead_ratio"] = (with_trace.scaled_wall / with_trace.trials * plain.trials / plain.scaled_wall,
                                       "ratio")

    previous = dict.fromkeys(SOLVERS, 0)
    anchors = {}
    for label, totals in zip(runner.labels, per_suite):
        anchors[label] = {k: (totals[k] - previous[k]) / runner.trials for k in SOLVERS}
        previous = totals
    extra = dict(traced_rounds=len(with_trace.digests), traced_trials=with_trace.trials,
                 reference_speed=with_trace.speed,
                 solver_calls_per_trial_round0=anchors, round0_digests=with_trace.digests[0])
    tracer.write(OUT / f"trace-{workload}.jsonl.gz")
    return metrics, extra


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def import_program() -> None:
    """Put the checkout's ``src`` first on sys.path; refuse any other mercerlab."""
    if not (SRC / "mercerlab" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no mercerlab package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mercerlab

    if Path(mercerlab.__file__).resolve().parent != (SRC / "mercerlab").resolve():
        raise SystemExit(f"run.py: imported mercerlab from {mercerlab.__file__}, not {SRC}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    OUT.mkdir(exist_ok=True)
    ledger = Ledger()
    run = traced if args.trace else end_to_end
    metrics, extra = run(args.workload, args.seed, args.seconds, ledger)
    env = environment(args.seed)

    print(f"workload={args.workload} trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    share = ledger.failed / ledger.attempted
    print(f"  {'failed_share':36s} {share:14.6g} ratio ({ledger.failed} of {ledger.attempted} operations)")
    if "cli_tail_percentile" in extra:
        print(f"  cli_ms_tail is p{extra['cli_tail_percentile']} of {extra['cli_samples']} CLI processes")
    print(f"  round-0 report digest {sha256(''.join(str(d) for d in extra['round0_digests']).encode())}"
          if "round0_digests" in extra else f"  CLI report digest {sha256(''.join(extra['cli_digests']).encode())}")

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = dict(result, workload=args.workload, trace=args.trace, seconds=args.seconds, environment=env,
                   failed_share=share, failures=ledger.messages, **extra)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
