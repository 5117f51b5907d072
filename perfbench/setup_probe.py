"""Set-up probe: one fresh interpreter, brought to ready-for-trial-0.

The parent times this process from spawn to exit; that wall time is one
sample of ``setup_s``.  Run as ``python3 perfbench/setup_probe.py WORKLOAD``
with the package's ``src`` directory on ``PYTHONPATH``.
"""

import sys

from workloads import suites


def main(workload: str) -> None:
    from mercerlab import SpectralBounds, curvature_bounds, parse_function_spec, resolve_spec
    from mercerlab.harness import TrialConfig

    if workload == "cli-short":
        from mercerlab.cli import build_parser

        build_parser()
        return
    for kind, suite in suites(workload):
        if kind == "sweep":
            phi, psi = (parse_function_spec(spec) for spec in suite)
            resolve_spec(phi, psi, SpectralBounds(1.0, 3.0))
            TrialConfig(vary_dims=True)
            continue
        fn, chain, m, M, force, mixed = suite
        f = parse_function_spec(fn)
        if chain == "twice-diff":
            curvature_bounds(f, SpectralBounds(m, M))
        TrialConfig(function_spec=fn, chain=chain, m=m, M=M, force=force, mixed=mixed)


if __name__ == "__main__":
    main(sys.argv[1])
