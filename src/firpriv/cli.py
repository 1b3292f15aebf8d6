"""Command-line interface.

Exit codes: 0 on success, 1 on usage, parameter, conditioning, config and
file errors, 2 when a reproduction run finishes but at least one tolerance
check fails.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import experiments
from .config import parse_config
from .errors import ConfigError, FirprivError
from .experiments import _write_csv, attack_simulation, reproduce, rows_to_csv

_DESIGN_COMMANDS = {
    "design-output": "output_capped",
    "design-weighted": "output_weighted",
    "design-input": "input_capped",
    "design-random": "output_random",
    "dp-laplace": "dp_laplace",
    "dp-gaussian": "dp_gaussian",
}


def _add_common(parser: argparse.ArgumentParser, with_config: bool = True):
    if with_config:
        parser.add_argument("--config", required=True, help="experiment configuration file")
    parser.add_argument("--seed", type=int, default=None if with_config else 0,
                        help="stream seed (overrides the config's seed; default 0 without one)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads for Monte Carlo chunks "
                        "(default: the CPUs this process may run on)")
    parser.add_argument("--out-dir", default=None, help="directory for CSV reports")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firpriv",
        description="Design masking-noise filters against FIR model identification, "
        "calibrate privacy mechanisms, and run attack simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DESIGN_COMMANDS:
        p = sub.add_parser(name, help=f"run a {name.replace('-', ' ')} from a config file")
        _add_common(p)
    p = sub.add_parser("simulate", help="full attack simulation for a config file")
    _add_common(p)
    p = sub.add_parser("reproduce", help="rerun the bundled reference scenarios")
    _add_common(p, with_config=False)
    p.add_argument("--which", default="all", choices=[*experiments.REFERENCE_CONFIGS, "all"])
    p.add_argument("--replicates", type=int, default=100_000)
    p.add_argument("--realizations", type=int, default=50)
    return parser


def _resolve_threads(args) -> int:
    if args.threads is not None:
        return args.threads
    if hasattr(os, "sched_getaffinity"):  # the affinity mask, as under taskset
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _report_pairs(report: experiments.ExperimentReport):
    pairs = []
    if report.design is not None:
        for k, v in enumerate(report.design.l_star):
            pairs.append((f"l_star_{k}", f"{v:.12g}"))
        pairs.append(("lambda_y", f"{report.design.lambda_y:.12g}"))
        pairs.append(("rho", f"{report.design.rho:.12g}"))
        if report.design.weighted_cost is not None:
            pairs.append(("weighted_cost", f"{report.design.weighted_cost:.12g}"))
        if report.design.predicted_ratio is not None:
            pairs.append(("predicted_ratio", f"{report.design.predicted_ratio:.12g}"))
    if report.mechanism is not None:
        mech = report.mechanism
        pairs += [
            ("mechanism", mech.kind),
            ("scale", f"{mech.scale:.12g}"),
            ("epsilon", f"{mech.epsilon:.12g}"),
            ("delta", f"{mech.delta:.12g}"),
            ("sensitivity", f"{mech.sensitivity:.12g}"),
            ("lambda_y", f"{mech.lambda_y:.12g}"),
        ]
    pairs += [
        ("predicted_trace", f"{report.predicted_trace:.12g}"),
        ("baseline_trace", f"{report.baseline_trace:.12g}"),
        ("ratio", f"{report.ratio:.12g}"),
    ]
    return pairs


def _cmd_run(args) -> int:
    """A design command or ``simulate``: one attack simulation from a config file."""
    config = parse_config(args.config)
    simulate = args.command == "simulate"
    if not simulate:
        expected = _DESIGN_COMMANDS[args.command]
        if config.design_type != expected:
            raise ConfigError(
                f"{args.command} requires design_type = {expected}, "
                f"config has {config.design_type!r}"
            )
        # A single replicate keeps the design exact while skipping heavy simulation.
        config = replace(config, replicates=1)
    report = attack_simulation(config, threads=_resolve_threads(args), seed=args.seed)
    pairs = _report_pairs(report)
    if simulate:
        pairs += [
            ("empirical_trace", f"{report.empirical_trace:.12g}"),
            ("empirical_se", f"{report.empirical_se:.12g}"),
            ("replicates", str(report.replicates)),
            ("failures", str(report.failures)),
        ]
    for key, value in pairs:
        print(f"{key} = {value}")
    if simulate:
        print(f"runtime_s = {report.runtime_s:.3f}")
    if args.out_dir:
        text = "name,value\n" + "".join(f"{key},{value}\n" for key, value in pairs)
        path = _write_csv(args.out_dir, args.command.replace("-", "_"), text)
        print(f"report written to {path}")
    return 0


def _cmd_reproduce(args) -> int:
    rows = reproduce(
        which=args.which,
        seed=args.seed,
        out_dir=args.out_dir,
        replicates=args.replicates,
        realizations=args.realizations,
        threads=_resolve_threads(args),
    )
    width = max(len(row.name) for row in rows)
    for row in rows:
        status = "pass" if row.passed else "FAIL"
        expected = f" expected={row.expected}" if row.expected else ""
        print(f"[{status}] {row.name:<{width}} computed={row.computed}{expected} ({row.tolerance})")
    failed = sum(1 for row in rows if not row.passed)
    print(f"{len(rows) - failed}/{len(rows)} checks passed (seed={args.seed})")
    if args.out_dir:
        print(f"reports written to {args.out_dir}")
    else:
        sys.stdout.write(rows_to_csv(rows))
    return 2 if failed else 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 2 means a failed check here
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "reproduce":
            return _cmd_reproduce(args)
        return _cmd_run(args)
    except FirprivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
