import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import threading

import pytest

PI4 = repr(math.pi / 4)
PI2 = repr(math.pi / 2)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "mercerlab", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestVerify:
    def test_clean_run_exit_zero(self):
        proc = run_cli(
            "verify", "--function", "exp", "--chain", "classic",
            "--trials", "20", "--seed", "7",
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["summary"]["violations"] == []
        assert report["config"]["function"] == "exp"

    def test_violations_exit_two(self):
        proc = run_cli(
            "verify", "--function", "sin", "--chain", "classic", "--force",
            "--m", PI4, "--M", PI2, "--trials", "20", "--seed", "7",
        )
        assert proc.returncode == 2, proc.stderr
        report = json.loads(proc.stdout)
        assert report["summary"]["violations"]

    def test_unforced_nonconvex_is_config_error(self):
        proc = run_cli(
            "verify", "--function", "sin", "--chain", "classic",
            "--m", PI4, "--M", PI2, "--trials", "5",
        )
        assert proc.returncode == 1
        assert "--force" in proc.stderr  # the CLI flag, not the Python keyword alone
        proc = run_cli(
            "verify", "--function", "log", "--chain", "log-convex",
            "--m", "2", "--M", "1e10", "--trials", "5",
        )
        assert proc.returncode == 1
        assert "--force" in proc.stderr

    def test_unknown_function_is_usage_error(self):
        proc = run_cli("verify", "--function", "sinh", "--trials", "1")
        assert proc.returncode == 1

    def test_bad_flag_is_usage_error(self):
        proc = run_cli("verify", "--chain", "diagonal")
        assert proc.returncode == 1

    def test_csv_summary_written(self, tmp_path):
        path = tmp_path / "rows.csv"
        proc = run_cli(
            "verify", "--function", "exp", "--chain", "twice-diff",
            "--trials", "10", "--seed", "3", "--csv", str(path),
        )
        assert proc.returncode == 0, proc.stderr
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 10
        assert {"seed", "trial", "function", "chain", "min_gap"} <= set(rows[0])

    def test_stdout_is_pure_json_and_timing_on_stderr(self):
        proc = run_cli("verify", "--function", "exp", "--trials", "5")
        json.loads(proc.stdout)  # must parse as a single document
        assert "wall_time_s=" in proc.stderr


class TestReproduce:
    def test_sine_case(self):
        proc = run_cli("reproduce", "example-2.2")
        assert proc.returncode == 0
        values = json.loads(proc.stdout)["values"]
        assert values["lhs"] == pytest.approx(0.923880, abs=1e-6)
        assert values["rhs_classic"] == pytest.approx(0.853553, abs=1e-6)

    def test_power_gap_case(self):
        proc = run_cli("reproduce", "example-3.5")
        assert proc.returncode == 0
        gaps = json.loads(proc.stdout)["gaps"]
        assert gaps["-0.2"] == pytest.approx(-0.0052909, abs=1e-6)

    def test_function_override(self):
        proc = run_cli("reproduce", "example-2.2", "--function", "pow:p=2")
        values = json.loads(proc.stdout)["values"]
        assert values["refined_upper"] == pytest.approx(values["lhs"], abs=1e-9)

    def test_unknown_case_is_usage_error(self):
        proc = run_cli("reproduce", "example-7.1")
        assert proc.returncode == 1


class TestSearch:
    def test_sine_witness_exit_two(self):
        proc = run_cli(
            "search", "classic-nonconvex", "--function", "sin",
            "--m", PI4, "--M", PI2, "--budget", "2",
        )
        assert proc.returncode == 2
        findings = json.loads(proc.stdout)
        assert findings["status"] == "found"
        assert findings["witness"]["gap"] < -0.07

    def test_exhausted_budget_exit_zero(self):
        proc = run_cli("search", "classic-nonconvex", "--function", "exp", "--budget", "2")
        assert proc.returncode == 0
        findings = json.loads(proc.stdout)
        assert findings["status"] == "budget-exhausted"
        assert "best" in findings

    def test_probe_table_csv(self, tmp_path):
        path = tmp_path / "probe.csv"
        proc = run_cli("search", "th3-th4-order", "--budget", "2", "--csv", str(path))
        assert proc.returncode == 2
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert {"t", "p", "gap", "sign"} <= set(rows[0])
        signs = {row["sign"] for row in rows}
        assert {"-1", "1"} <= signs


class TestSweep:
    def test_log_id_sweep(self):
        proc = run_cli("sweep", "--phi", "log", "--psi", "id", "--trials", "20", "--seed", "5")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["checks"]["mean_order"]["violations"] == []

    def test_missing_psi_is_usage_error(self):
        proc = run_cli("sweep", "--phi", "log")
        assert proc.returncode == 1


class TestDeterminism:
    def test_verify_byte_identical(self):
        args = (
            "verify", "--function", "exp", "--chain", "chain",
            "--trials", "25", "--seed", "123", "--vary-dims",
        )
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout.encode() == second.stdout.encode()


class TestBoundaryValidation:
    """Out-of-range run sizes and tolerances exit 1 with one line, no traceback."""

    @pytest.mark.parametrize(
        "args, field",
        [
            (("verify", "--trials", "-3"), "trials"),
            (("verify", "--dim", "0"), "dim_h"),
            (("verify", "--dim", "4", "--dim-k", "0"), "dim_k"),
            (("verify", "--maps", "0"), "n_maps"),
            (("sweep", "--phi", "log", "--psi", "id", "--maps", "0"), "n_maps"),
            (("sweep", "--phi", "log", "--psi", "id", "--trials", "-1"), "trials"),
            (("sweep", "--phi", "log", "--psi", "id", "--trials", "2", "--tol", "-1"), "tolerance"),
            (("verify", "--trials", "2", "--tol", "nan"), "tolerance"),
            (("verify", "--trials", "2", "--tol", "inf"), "tolerance"),
            (("verify", "--function", "log", "--m", "-1", "--M", "2"), "domain"),
            (("search", "classic-nonconvex", "--function", "log", "--m", "-1", "--M", "2"), "domain"),
            # flags that the command would ignore
            (("reproduce", "example-3.5", "--function", "sin"), "function"),
            (("search", "th3-th4-order", "--budget", "2", "--function", "sin", "--tol", "5"), "function"),
            (("search", "th3-th4-order", "--budget", "2", "--tol", "5"), "tolerance"),
            # non-finite spec parameters, refused before any trial
            (("verify", "--function", "pow:p=nan", "--force", "--trials", "0"), "parameter 'p'"),
            (("verify", "--function", "pow:p=inf"), "parameter 'p'"),
            (("reproduce", "example-2.2", "--function", "pow:p=inf"), "parameter 'p'"),
            (("sweep", "--phi", "pow:p=1e400", "--psi", "id", "--trials", "1"), "parameter 'p'"),
            # a repeated key, refused rather than the last one kept
            (("verify", "--function", "pow:p=2,p=3", "--trials", "1"), "parameter 'p' repeated"),
            # f not finite on [m, M] (exp overflows at 800), refused before any trial
            (("verify", "--function", "exp", "--m", "1", "--M", "800", "--trials", "0"), "not finite"),
            (("verify", "--function", "exp", "--m", "1", "--M", "800", "--trials", "1"), "not finite"),
            (("search", "classic-nonconvex", "--function", "exp", "--m", "1", "--M", "800"), "not finite"),
            (("sweep", "--phi", "exp", "--psi", "id", "--m", "1", "--M", "800", "--trials", "1"), "not finite"),
            # f finite on [m, M], but beta * D of a refined operand is not (beta = exp(700))
            (("verify", "--function", "exp", "--m", "1", "--M", "700", "--chain", "twice-diff", "--trials", "3"),
             "overflow"),
            (("sweep", "--phi", "id", "--psi", "exp", "--m", "1", "--M", "700", "--trials", "3"), "overflow"),
            # the squares of A_i or phi(A_i) overflow (4 * (1e160)^2 is not finite), refused before any product
            (("verify", "--function", "id", "--m", "1", "--M", "1e160", "--chain", "classic", "--trials", "2"),
             "overflow"),
            (("sweep", "--phi", "id", "--psi", "id", "--m", "1", "--M", "1e160", "--trials", "2"), "overflow"),
            # log-concave catalog functions on an interval so wide that a grid's first interior
            # node misses their negative (log f)'', refused by the catalog's flag
            (("verify", "--chain", "log-convex", "--trials", "5", "--function", "id", "--m", "1", "--M", "1e10"),
             "not log-convex"),
            (("verify", "--chain", "log-convex", "--trials", "5", "--function", "sqrt", "--m", "1", "--M", "1e10"),
             "not log-convex"),
            (("verify", "--chain", "log-convex", "--trials", "5", "--function", "log", "--m", "2", "--M", "1e10"),
             "not log-convex"),
            # master seeds outside [0, 2^64), which would sample the streams of another seed
            (("verify", "--seed", "18446744073709551616", "--trials", "3"), "seed"),
            (("verify", "--seed", "-1", "--trials", "3"), "seed"),
            (("sweep", "--phi", "log", "--psi", "id", "--seed", "18446744073709551616", "--trials", "3"), "seed"),
            (("search", "classic-nonconvex", "--budget", "3", "--seed", "-1"), "seed"),
            (("search", "th3-th4-order", "--budget", "2", "--seed", "18446744073709551616"), "seed"),
            # psi o phi^-1 and its derivatives overflow on the set-up's grid (psi = exp up to 700):
            # the grid is evaluated without numpy warnings, and the refined operand's overflow is the one line
            (("sweep", "--phi", "log", "--psi", "exp", "--m", "1", "--M", "700", "--trials", "3"), "overflow"),
            (("sweep", "--phi", "inv", "--psi", "exp", "--m", "0.001", "--M", "700", "--trials", "3"), "overflow"),
            (("sweep", "--phi", "pow:p=0.01", "--psi", "exp", "--m", "1", "--M", "700", "--trials", "3"), "overflow"),
            # a chain's hypothesis gate, refused before any trial, so with no trial too
            (("verify", "--function", "sin", "--trials", "0"), "not flagged convex"),
            (("verify", "--chain", "log-convex", "--function", "log", "--m", "2", "--M", "1e10", "--trials", "0"),
             "not log-convex"),
            (("verify", "--chain", "log-convex", "--function", "log", "--m", "0.5", "--M", "3", "--trials", "0"),
             "not strictly positive"),
            # a composite psi o phi^-1 whose sampled curvature is NaN, which no JSON report can hold
            (("sweep", "--phi", "pow:p=-0.2", "--psi", "pow:p=0.999999", "--m", "2", "--M", "1e154", "--trials", "1"),
             "NaN on its grid"),
            # f'' overflows at an endpoint: no numpy warning before the one error line
            (("verify", "--function", "inv", "--chain", "twice-diff", "--m", "1e-300", "--M", "1", "--trials", "2"),
             "overflow"),
            (("verify", "--function", "log", "--chain", "twice-diff", "--m", "1e-300", "--M", "1", "--trials", "2"),
             "overflow"),
            (("verify", "--function", "inv", "--chain", "twice-diff", "--m", "709", "--M", "1e154", "--trials", "2"),
             "overflow"),
            # An interval whose width M - m overflows is refused where it is built, before any
            # grid (numpy warned twice from linspace) and before f is checked on it.
            (("sweep", "--phi", "id", "--psi", "id", "--m=-1e308", "--M", "1e308", "--trials", "1"),
             "interval [-1e+308, 1e+308] is too wide: M - m overflows"),
            (("search", "th3-th4-order", "--m=-1e308", "--M", "1e308", "--budget", "2"),
             "interval [-1e+308, 1e+308] is too wide: M - m overflows"),
            (("verify", "--function", "id", "--m=-1e308", "--M", "1e308", "--trials", "1"),
             "interval [-1e+308, 1e+308] is too wide: M - m overflows"),
        ],
    )
    def test_rejected_with_one_line(self, args, field):
        proc = run_cli(*args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("mercerlab: error: ")
        assert field in lines[0]

    def test_largest_seed_is_accepted(self):
        proc = run_cli("verify", "--seed", "18446744073709551615", "--trials", "3")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["config"]["seed"] == 2**64 - 1

    def test_zero_trials_is_an_empty_clean_run(self):
        proc = run_cli("verify", "--trials", "0")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["summary"]["violations"] == []

    def test_csv_of_zero_trials_is_the_header(self, tmp_path):
        path = tmp_path / "rows.csv"
        proc = run_cli("verify", "--trials", "0", "--csv", str(path))
        assert proc.returncode == 0, proc.stderr
        assert path.read_text().splitlines() == ["seed,trial,function,chain,dim_h,dim_k,n_maps,min_gap"]

    def test_csv_of_an_exhausted_probe_search(self, tmp_path):
        path = tmp_path / "probe.csv"
        proc = run_cli("search", "th3-th4-order", "--budget", "1", "--m", "1", "--M", "1.05", "--csv", str(path))
        assert proc.returncode == 0, proc.stderr
        best = json.loads(proc.stdout)["best"]
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [float(row["gap"]) for row in rows] == [row["gap"] for row in best["rows"]]

    def test_csv_of_a_search_without_a_table_is_refused(self, tmp_path):
        path = tmp_path / "witness.csv"
        proc = run_cli("search", "classic-nonconvex", "--budget", "2", "--csv", str(path))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.strip().splitlines() == ["mercerlab: error: classic-nonconvex has no table for --csv to write"]
        assert not path.exists()

    def test_csv_path_that_cannot_be_written(self, tmp_path):
        proc = run_cli("verify", "--trials", "1", "--csv", str(tmp_path / "missing" / "rows.csv"))
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("mercerlab: error: ") and "rows.csv" in lines[0]


def imported_modules(*args, code: int = 0) -> set:
    """The modules a fresh ``python -X importtime`` process of ``args`` imports, with no bytecode cache;
    the process must exit with ``code``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == code, proc.stderr
    return {line.split("|")[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}


class TestImportFootprint:
    """A fresh process loads neither ``dataclasses`` nor ``csv``: the value classes are
    written out by hand, and the CLI imports ``csv`` only to write a ``--csv`` file.  Nor
    does it load a module its command does not run: the package resolves its names on
    first access, and ``harness`` imports ``mercer``, ``quasimeans`` and ``sampling`` in
    the functions that use them."""

    @pytest.mark.parametrize(
        "args",
        [("-c", "import mercerlab.cli"), ("-m", "mercerlab", "reproduce", "example-2.2")],
        ids=["import", "reproduce"],
    )
    def test_loads_neither_dataclasses_nor_csv(self, args):
        imported = imported_modules(*args)
        assert "mercerlab.cli" in imported
        assert not imported & {"dataclasses", "csv"}

    def test_package_import_loads_no_submodule(self):
        imported = imported_modules("-c", "import mercerlab")
        assert "mercerlab" in imported
        assert not {name for name in imported if name.startswith("mercerlab.")}

    @pytest.mark.parametrize(
        "args, absent, code",
        [
            (("-c", "import mercerlab.cli"), {"mercer", "quasimeans", "sampling"}, 0),
            (("reproduce", "example-2.2"), {"sampling", "quasimeans", "numpy.random"}, 0),
            (("reproduce", "example-3.5"), {"sampling", "mercer", "numpy.random"}, 0),
            (("verify", "--trials", "1"), {"quasimeans"}, 0),
            (("sweep", "--phi", "log", "--psi", "id", "--trials", "1"), {"mercer"}, 0),
            (
                ("search", "classic-nonconvex", "--function", "sin", "--m", PI4, "--M", PI2, "--budget", "10"),
                {"quasimeans"},
                2,
            ),
            (("search", "th3-th4-order", "--budget", "5"), {"mercer", "sampling", "numpy.random"}, 2),
        ],
        ids=["import-cli", "example-2.2", "example-3.5", "verify", "sweep", "classic-nonconvex", "th3-th4-order"],
    )
    def test_command_loads_only_what_it_runs(self, args, absent, code):
        if args[0] != "-c":
            args = ("-m", "mercerlab", *args)
        imported = imported_modules(*args, code=code)
        assert "mercerlab.harness" in imported
        absent = {name if name.startswith("numpy") else f"mercerlab.{name}" for name in absent}
        assert not imported & absent


def without_wall_time(stderr: str) -> list:
    return [line for line in stderr.splitlines() if not line.startswith("wall_time_s=")]


def in_process(args, stdout=None) -> tuple:
    """``cli.main(args)`` in this process: (exit code, stdout, stderr).  ``stdout``, when given,
    replaces the captured one, whose text is then reported as empty."""
    from mercerlab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout or out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


def read_one_byte_then_close(stream) -> bytes:
    first = stream.read(1)
    stream.close()
    return first


def in_process_closed_after_one_byte(args) -> tuple:
    """``cli.main(args)`` writing to a pipe whose reader closes it after one byte."""
    read_fd, write_fd = os.pipe()
    read_end = open(read_fd, "rb", buffering=0)
    first = []
    reader = threading.Thread(target=lambda: first.append(read_one_byte_then_close(read_end)))
    reader.start()
    with open(write_fd, "w") as pipe:
        code, _, err = in_process(args, stdout=pipe)
    reader.join(timeout=300)
    assert not reader.is_alive()
    return code, first[0].decode(), err


# Its 166 kB report overflows a pipe's 64 KiB buffer, so a write fails whenever the reader closes.
LARGE_REPORT = ("verify", "--function", "sin", "--chain", "classic", "--force",
                "--m", PI4, "--M", PI2, "--trials", "1000", "--seed", "7")


class TestProcessEntry:
    """``python -m mercerlab`` freezes the collector's view of its imports and again before
    exit; that loses no output and no error handling: it gives what ``cli.main`` gives in-process."""

    @pytest.mark.parametrize(
        "args, code",
        [
            (("verify", "--trials", "20", "--seed", "7"), 0),
            (("verify", "--function", "sin", "--chain", "classic", "--force",
              "--m", PI4, "--M", PI2, "--trials", "20", "--seed", "7"), 2),
            (("verify", "--seed", "18446744073709551616", "--trials", "3"), 1),
        ],
        ids=["clean", "forced-sine", "rejected"],
    )
    def test_same_as_in_process(self, args, code):
        proc = run_cli(*args)
        expected_code, expected_out, expected_err = in_process(args)
        assert proc.returncode == expected_code == code
        assert proc.stdout.encode() == expected_out.encode()
        assert without_wall_time(proc.stderr) == without_wall_time(expected_err)
        if code == 1:
            assert len(proc.stderr.splitlines()) == 1

    def test_csv_file_is_complete(self, tmp_path):
        args = ("verify", "--function", "exp", "--chain", "twice-diff", "--trials", "10", "--seed", "3", "--csv")
        proc = run_cli(*args, str(tmp_path / "process.csv"))
        expected_code, expected_out, expected_err = in_process((*args, str(tmp_path / "in-process.csv")))
        assert proc.returncode == expected_code == 0
        assert proc.stdout.encode() == expected_out.encode()
        assert without_wall_time(proc.stderr) == without_wall_time(expected_err) == []
        written = (tmp_path / "process.csv").read_bytes()
        assert written == (tmp_path / "in-process.csv").read_bytes()
        assert len(written.splitlines()) == 11

    def test_reader_closing_stdout_after_one_byte(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "mercerlab", *LARGE_REPORT], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        first = read_one_byte_then_close(proc.stdout)
        err = proc.stderr.read().decode()
        proc.stderr.close()
        code = proc.wait(timeout=300)
        expected_code, expected_first, expected_err = in_process_closed_after_one_byte(LARGE_REPORT)
        assert code == expected_code == 1
        assert first.decode() == expected_first == "{"
        assert err.splitlines() == without_wall_time(expected_err) == ["mercerlab: error: [Errno 32] Broken pipe"]


def run_fresh(source: str) -> dict:
    """Run ``source`` in a fresh interpreter; it must exit 0, print nothing to stderr and print
    one JSON object as its last stdout line."""
    proc = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestProcessEntryCollector:
    """What ``mercerlab.__main__.main`` does to the collector, each check in a fresh process."""

    def test_import_runs_nothing(self):
        seen = run_fresh(
            "import json, sys, mercerlab.__main__\n"
            "print(json.dumps(sorted(name for name in sys.modules if name.startswith('mercerlab'))))"
        )
        assert seen == ["mercerlab", "mercerlab.__main__"]

    def test_cli_is_imported_with_the_collector_off(self):
        seen = run_fresh(
            "import contextlib, gc, io, json, sys\n"
            "seen = []\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'mercerlab.cli':\n"
            "            seen.append(gc.isenabled())\n"
            "sys.meta_path.insert(0, Spy())\n"
            "sys.argv = ['mercerlab', 'reproduce', 'example-2.2']\n"
            "from mercerlab.__main__ import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = main()\n"
            "print(json.dumps({'code': code, 'enabled_at_import': seen, 'enabled_after': gc.isenabled()}))"
        )
        assert seen == {"code": 0, "enabled_at_import": [False], "enabled_after": True}

    def test_command_runs_collected_and_both_freezes_happen(self):
        seen = run_fresh(
            "import gc, json\n"
            "from mercerlab import cli\n"
            "from mercerlab.__main__ import main\n"
            "during, kept = [], []\n"
            "def command():\n"
            "    during.append({'enabled': gc.isenabled(), 'frozen': gc.get_freeze_count()})\n"
            "    kept.extend([] for _ in range(1000))\n"
            "    return 7\n"
            "cli.main = command\n"
            "before = gc.get_freeze_count()\n"
            "code = main()\n"
            "print(json.dumps({'before': before, 'code': code, 'during': during, 'after': gc.get_freeze_count()}))"
        )
        (during,) = seen["during"]
        assert seen["before"] == 0 and seen["code"] == 7
        assert during["enabled"] and during["frozen"] > 0
        assert seen["after"] >= during["frozen"] + 1000  # the command's kept objects, frozen before exit

    def test_installed_script_runs_the_process_entry(self):
        with open(os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")) as handle:
            scripts = handle.read().split("[project.scripts]")[1].split("[")[0]
        assert scripts.strip() == 'mercerlab = "mercerlab.__main__:main"'


def choices_of(parser, dest: str) -> tuple:
    (action,) = [action for action in parser._actions if action.dest == dest]
    return tuple(action.choices)


class TestParserChoices:
    """The parser's choices, written out so that building it loads no ``mercer``, are the library's."""

    def test_choices_match_the_tables(self):
        from mercerlab.cli import build_parser
        from mercerlab.harness import REPRODUCE_CASES, SEARCH_TARGETS
        from mercerlab.mercer import CHAINS

        parser = build_parser()
        commands = parser._subparsers._group_actions[0].choices
        assert tuple(commands) == ("verify", "reproduce", "search", "sweep")
        assert choices_of(commands["verify"], "chain") == tuple(kind.replace("_", "-") for kind in CHAINS)
        assert choices_of(commands["reproduce"], "case") == REPRODUCE_CASES
        assert choices_of(commands["search"], "target") == SEARCH_TARGETS
