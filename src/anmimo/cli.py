"""Command-line front end.

Subcommands: rate (single operating point), sweep (one-axis parameter
sweep from a sweep file), mc (Monte Carlo estimate only), design
(largest tolerable eavesdropper sizes), oracle (brute-force log-det
mean, for test tooling). Output is CSV by default, JSON with --json,
to stdout or --out. Exit codes: 0 success, 1 bad config or domain, 2
numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .errors import ConfigError, NumericError, SweepError
from .harness import (
    design_report,
    parse_config,
    parse_design_text,
    parse_sweep_text,
    point_row,
    rows_to_csv,
    rows_to_json,
    run_point,
    run_sweep,
)

_DEFAULT_OUTPUTS = "exact,lower,upper,asymptotic"


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _add_common(p: _Parser, *, config=True, mc=True):
    if config:
        p.add_argument("--config", required=True, help="path to a key=value config file")
    p.add_argument("--out", default=None, help="write output here instead of stdout")
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    if mc:
        p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
        p.add_argument("--trials", type=int, default=None, help="Monte Carlo trials")
        p.add_argument("--units", choices=("nats", "bits"), default=None)
        p.add_argument(
            "--clamp",
            choices=("true", "false"),
            default=None,
            help="floor per-realization rates at zero before averaging",
        )


def _build_parser() -> _Parser:
    parser = _Parser(prog="anmimo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_rate = sub.add_parser("rate", help="evaluate one operating point")
    _add_common(p_rate)
    p_rate.add_argument(
        "--outputs",
        default=_DEFAULT_OUTPUTS,
        help=f"comma list of quantities (default: {_DEFAULT_OUTPUTS})",
    )

    p_sweep = sub.add_parser("sweep", help="run a one-axis sweep from a sweep file")
    _add_common(p_sweep)

    p_mc = sub.add_parser("mc", help="Monte Carlo average secrecy rate")
    _add_common(p_mc)
    p_mc.set_defaults(outputs="mc")

    p_design = sub.add_parser("design", help="critical eavesdropper antenna counts")
    _add_common(p_design, mc=False)
    p_design.add_argument(
        "--max-ne", type=int, default=4096, help="scan cutoff for the thresholds"
    )

    p_oracle = sub.add_parser("oracle", help="brute-force log-det mean (test tooling)")
    _add_common(p_oracle, config=False, mc=False)
    p_oracle.add_argument("--rows", type=int, required=True)
    p_oracle.add_argument("--cols", type=int, required=True)
    group = p_oracle.add_mutually_exclusive_group(required=True)
    group.add_argument("--scale", type=float, help="uniform column scale")
    group.add_argument("--profile", help="comma list of per-column scales")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--trials", type=int, default=10000)

    return parser


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def _emit(rows, args) -> None:
    text = rows_to_json(rows) if args.json else rows_to_csv(rows)
    if args.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {args.out!r}: {exc}") from exc


def _mc_kwargs(args) -> dict:
    """The MC settings a flag gave; run_point and SweepSpec default the rest."""
    given = {
        "mc_trials": args.trials,
        "seed": args.seed,
        "units": args.units,
        "clamp": None if args.clamp is None else args.clamp == "true",
    }
    return {k: v for k, v in given.items() if v is not None}


def _cmd_rate(args) -> List[dict]:
    cfg = parse_config(_read_text(args.config))
    outputs = [s.strip() for s in args.outputs.split(",") if s.strip()]
    return [point_row(cfg, run_point(cfg, outputs, **_mc_kwargs(args)))]


def _cmd_sweep(args) -> List[dict]:
    return run_sweep(parse_sweep_text(_read_text(args.config), **_mc_kwargs(args)))


def _cmd_design(args) -> List[dict]:
    kwargs = parse_design_text(_read_text(args.config))
    return [design_report(max_eve_antennas=args.max_ne, **kwargs)]


def _cmd_oracle(args) -> List[dict]:
    from .monte_carlo import mc_logdet_oracle  # numpy only when MC runs

    if args.profile is not None:
        try:
            profile = [float(s) for s in args.profile.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --profile: {exc}") from None
    else:
        profile = args.scale
    est = mc_logdet_oracle(args.rows, args.cols, profile, args.trials, seed=args.seed)
    row = {
        "rows": args.rows,
        "cols": args.cols,
        "trials": est.trials,
        "seed": est.seed,
        "mean": est.mean,
        "stderr": est.stderr,
    }
    return [row]


_COMMANDS = {
    "rate": _cmd_rate,
    "sweep": _cmd_sweep,
    "mc": _cmd_rate,
    "design": _cmd_design,
    "oracle": _cmd_oracle,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        rows = _COMMANDS[args.command](args)
        _emit(rows, args)
    except SweepError as exc:
        done = len(exc.partial_rows)
        print(f"sweep aborted after {done} completed row(s): {exc}", file=sys.stderr)
        return 2 if isinstance(exc.__cause__, NumericError) else 1
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    return 0
