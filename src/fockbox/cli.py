"""Command line scenario runner.

Subcommands:
    run       execute a scenario config, write CSV/JSON artifacts
    list      show the bundled scenario catalog (or emit one default config)
    validate  schema and feasibility checks without running anything

Exit codes: 0 success; 2 configuration/schema problem (the offending key
path is printed), including a number that is not finite anywhere in the
config, a FOCKBOX_DIM_CAP that is not a positive integer and a problem a run
measures, such as a step longer than twice the decay horizon; 3 numerical
failure (the failing operation's diagnostic is printed), including running
out of memory and a NaN or unmet invariant.  A run that fails writes
nothing.  The Fock dimension cap honors the FOCKBOX_DIM_CAP environment
variable.

``list`` and ``validate`` import only the numpy-free ``config`` module; the
linear algebra loads for ``run`` alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fockbox",
        description="truncated-Fock-space laboratory: scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario configuration")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p_list = sub.add_parser("list", help="list bundled scenarios")
    p_list.add_argument("--emit", default=None, metavar="NAME",
                        help="print the default config of one scenario")

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("--config", required=True, help="path to the JSON config")
    return parser


def _load_config(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return None


def cmd_list(args):
    from .config import list_scenarios, scenario_defaults

    if args.emit is not None:
        try:
            cfg = scenario_defaults(args.emit)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return EXIT_CONFIG
        print(json.dumps(cfg, sort_keys=True, indent=1))
        return EXIT_OK
    for name, desc in sorted(list_scenarios().items()):
        print(f"{name:20s} {desc}")
    return EXIT_OK


def _invalid(findings):
    for f in findings:
        print(f"invalid: {f}", file=sys.stderr)
    return EXIT_CONFIG


def cmd_validate(args):
    from .config import validate_config

    config = _load_config(args.config)
    if config is None:
        return EXIT_CONFIG
    findings = validate_config(config)
    if findings:
        return _invalid(findings)
    print("ok: configuration is valid")
    return EXIT_OK


def cmd_run(args):
    import numpy as np

    from .events import InactiveSourceError, SupportViolationError
    from .fock import DimensionCapError
    from .lattice import UnsupportedFamilyError
    from .maxent import MatchFailure
    from .neqso import GramConditionError
    from .scenarios import ConfigError, run_scenario

    config = _load_config(args.config)
    if config is None:
        return EXIT_CONFIG
    if args.seed is not None and isinstance(config, dict):
        config["seed"] = args.seed
    numerical_errors = (MatchFailure, GramConditionError, DimensionCapError,
                        UnsupportedFamilyError, InactiveSourceError,
                        SupportViolationError, FloatingPointError,
                        np.linalg.LinAlgError, ValueError)
    try:
        result = run_scenario(config, args.out)
    except ConfigError as exc:  # before numerical_errors, whose ValueError it is
        return _invalid(exc.findings)
    except MemoryError:
        print("numerical failure: out of memory", file=sys.stderr)
        return EXIT_NUMERICAL
    except numerical_errors as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for check in result.invariants:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: value {check.value:.6e} "
              f"{check.comparison} {check.tolerance:.6e}")
    print(f"artifacts: {', '.join(sorted(result.artifacts))} (in {args.out})")
    if not result.passed:
        failed = ", ".join(c.name for c in result.invariants if not c.passed)
        print(f"numerical failure: invariants not met: {failed}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "list":
        return cmd_list(args)
    return cmd_validate(args)


if __name__ == "__main__":
    sys.exit(main())
