"""Command line entry point.

Subcommands:

* ``verify``     seeded property trials of one inequality chain
* ``reproduce``  fixed showcase cases (no randomness)
* ``search``     directed counterexample search
* ``sweep``      quasi-arithmetic mean checks for a generator pair

Reports go to stdout as JSON (byte-identical for identical seed and config);
wall time goes to stderr.  Exit codes: 0 suite clean / nothing found,
2 violations or witnesses found, 1 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from .errors import BudgetExhausted, InvalidConfig, MercerLabError
from .harness import (
    REPRODUCE_CASES,
    ROW_FIELDS,
    SEARCH_TARGETS,
    TrialConfig,
    reproduce,
    run_sweep,
    search_counterexample,
    verify_report,
)

# The keys of ``mercer.CHAINS`` as the CLI spells them, written out so that building the parser
# loads no ``mercer``; harness.normalize_chain maps them back, and tests/test_cli.py keeps them equal.
CHAIN_CLI_CHOICES = ("classic", "chain", "twice-diff", "log-convex")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; this tool reserves 2
    # for "violations found".
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, indent=2))
    sys.stdout.write("\n")


def _write_csv(path: str, rows: Sequence[dict], fields: Sequence[str] = ()) -> None:
    """Write the rows, under a header of ``fields`` (default: the first row's keys).

    ``csv`` is imported here: no command without ``--csv`` needs it."""
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(fields or rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _add_instance_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=int, default=4, help="operator dimension (domain side)")
    parser.add_argument("--dim-k", type=int, default=None, help="codomain dimension (default: --dim)")
    parser.add_argument("--maps", type=int, default=2, help="number of maps in the family")
    parser.add_argument("--m", type=float, default=1.0, help="lower spectral bound")
    parser.add_argument("--M", type=float, default=3.0, help="upper spectral bound")
    parser.add_argument("--trials", type=int, default=100, help="number of seeded trials")
    parser.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    parser.add_argument("--tol", type=float, default=None, help="absolute PSD tolerance override")
    parser.add_argument("--mixed", action="store_true", help="include one trace-type map per family")
    parser.add_argument(
        "--vary-dims",
        action="store_true",
        help="draw dims 2..8 and 1..4 maps per trial instead of fixed sizes",
    )
    parser.add_argument("--csv", default=None, help="write per-trial summary rows to this path")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every command.

    Building it, like importing this module, loads none of ``mercer``, ``quasimeans`` and
    ``sampling``: the chain choices are written out above, the seed bound is ``harness.check_seed``'s
    own, and ``harness`` imports those modules in the functions that run them, so a process compiles
    only the modules its command runs."""
    parser = _Parser(prog="mercerlab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run seeded trials of one inequality chain")
    p_verify.add_argument("--function", default="exp", help='function spec, e.g. "exp", "pow:p=-0.2"')
    p_verify.add_argument("--chain", choices=CHAIN_CLI_CHOICES, default="classic")
    p_verify.add_argument("--force", action="store_true", help="run despite failed hypothesis gates")
    _add_instance_arguments(p_verify)

    p_repro = sub.add_parser("reproduce", help="run a fixed showcase case")
    p_repro.add_argument("case", choices=REPRODUCE_CASES)
    p_repro.add_argument("--function", default=None, help="override the case's function")

    p_search = sub.add_parser("search", help="directed counterexample search")
    p_search.add_argument("target", choices=SEARCH_TARGETS)
    p_search.add_argument("--budget", type=int, default=10)
    p_search.add_argument("--function", default=None, help="restrict classic-nonconvex to one function")
    p_search.add_argument("--m", type=float, default=1.0)
    p_search.add_argument("--M", type=float, default=3.0)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--tol", type=float, default=None)
    p_search.add_argument("--csv", default=None, help="write the probe table (t, p, gap) to this path")

    p_sweep = sub.add_parser("sweep", help="quasi-arithmetic mean checks for a generator pair")
    p_sweep.add_argument("--phi", required=True, help='generator spec, e.g. "log"')
    p_sweep.add_argument("--psi", required=True, help='generator spec, e.g. "id"')
    _add_instance_arguments(p_sweep)

    return parser


def _config_from_args(args, function_spec: str = "exp", chain: str = "classic", force: bool = False) -> TrialConfig:
    return TrialConfig(
        seed=args.seed,
        dim_h=args.dim,
        dim_k=args.dim_k if args.dim_k is not None else args.dim,
        n_maps=args.maps,
        m=args.m,
        M=args.M,
        function_spec=function_spec,
        chain=chain,
        tol_abs=args.tol,
        force=force,
        mixed=args.mixed,
        vary_dims=args.vary_dims,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "verify":
            config = _config_from_args(args, args.function, args.chain, args.force)
            report, summary = verify_report(config, args.trials)
            if args.csv is not None:
                _write_csv(args.csv, summary.rows, ROW_FIELDS)
            _emit(report)
            code = 2 if summary.violations else 0

        elif args.command == "reproduce":
            _emit(reproduce(args.case, function_override=args.function))
            code = 0

        elif args.command == "search":
            if args.csv is not None and args.target != "th3-th4-order":
                raise InvalidConfig(f"{args.target} has no table for --csv to write")
            try:
                findings = search_counterexample(
                    args.target,
                    args.budget,
                    function_spec=args.function,
                    m=args.m,
                    M=args.M,
                    seed=args.seed,
                    tol_abs=args.tol,
                )
                table, code = findings, 2
            except BudgetExhausted as exhausted:
                findings = {"status": "budget-exhausted", "best": exhausted.best}
                table, code = exhausted.best, 0
            if args.csv is not None:
                _write_csv(args.csv, table["rows"])
            _emit(findings)

        else:  # sweep
            config = _config_from_args(args)
            report, n_violations = run_sweep(args.phi, args.psi, config, args.trials)
            if args.csv is not None:
                rows = [
                    {
                        "check": name,
                        "applicable": body["applicable"],
                        "expected": body.get("expected"),
                        "evaluated": body.get("evaluated", 0),
                        "domain_skips": body.get("domain_skips", 0),
                        "min_gap": body.get("min_gap"),
                        "violations": len(body.get("violations", [])),
                    }
                    for name, body in report["checks"].items()
                ]
                _write_csv(args.csv, rows)
            _emit(report)
            code = 2 if n_violations else 0

    except (MercerLabError, ValueError, OSError) as exc:
        print(f"mercerlab: error: {exc}", file=sys.stderr)
        return 1
    print(f"wall_time_s={time.perf_counter() - started:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
