"""Batch command-line front end.

Subcommands: ``qfi``, ``sensitivity``, ``sweep``, ``gw-compare``, ``validate``.
The config commands report through two helpers.  A point (``qfi``,
``sensitivity``, an unswept ``gw-compare``, or a one-row grid whose row fails)
prints its error with exit 2, or writes ``--out`` and only then its quantities;
any other grid is written to ``--out``, or printed to stdout.  A written file
is reported as ``wrote <path> (<n> rows)``.
Exit codes: 0 success (also for ``--help``), 1 configuration or command-line
usage error, or a file that cannot be read or written (one ``error: <path>:
<reason>`` line), 2 numerical failure in a non-sweep command (sweeps record
per-row failures in the table instead).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from .metrology import _REGIMES, QUANTITY_COLUMNS
from .sweep import GW_COLUMNS, ConfigError, emit, parse_config, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
# cutoffs of the validate suite's three-mode checks: from the smallest at which
# its states stay within the leakage guard (at 13 the truncation leakage is
# 1.9e-6) up to the largest whose cube fits fock.MAX_DIMENSION (fock loads
# scipy, so it is imported only when validate runs)
VALIDATE_CUTOFFS = (14, 40)


def _out_arg(text):
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got ''")
    return text


def _add_common(parser):
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--out", default=None, type=_out_arg, help="output file path")
    parser.add_argument("--format", default="csv", choices=("csv", "json"),
                        help="output format (default csv)")


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the command line.

    Each call builds a fresh parser; :func:`main` builds one on its first call
    and reuses it, since parsing leaves the parser unchanged.
    """
    parser = argparse.ArgumentParser(
        prog="pumpedsu11",
        description="Pumped-up SU(1,1) interferometry with Gaussian channels")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("qfi", "quantum Fisher information at one configuration"),
                       ("sensitivity", "number-sum sensitivity at one configuration"),
                       ("sweep", "evaluate a parameter grid"),
                       ("gw-compare", "original vs pumped-up detector QFI")):
        _add_common(sub.add_parser(name, help=text))
    p = sub.add_parser("validate", help="run the Fock-oracle cross-check suite")
    p.add_argument("--cutoff", type=int, default=25,
                   help="per-mode Fock cutoff of the three-mode checks, %d to %d (default 25); "
                        "the two-mode checks use cutoff 30" % VALIDATE_CUTOFFS)
    return parser


def _out_path(args):
    if args.out is None:
        return None
    override = os.environ.get("PUMPEDSU11_OUTDIR")
    if override:
        return os.path.join(override, os.path.basename(args.out))
    return args.out


def _write_table(args, table, point="") -> int:
    """Write the table to ``--out``, print ``point`` and a ``wrote`` line; or print the table."""
    path = _out_path(args)
    text = emit(table, args.format, path)
    sys.stdout.write(point if path else text)
    if path:
        print(f"wrote {path} ({table.size} rows)")
    return EXIT_OK


def _print_point(args, table, columns) -> int:
    """Print ``columns`` of the first row after writing ``--out``, or the row's error (exit 2)."""
    row = table.rows()[0]
    if row["error"]:
        print(f"error: {row['error']}", file=sys.stderr)
        return EXIT_NUMERICAL
    point = "".join(f"{key} = {row[key]:.12e}\n" for key in columns)
    if _out_path(args):
        return _write_table(args, table, point)
    sys.stdout.write(point)
    return EXIT_OK


def _single_point(args, quantities) -> int:
    spec = parse_config(args.config)
    if spec.kind != "interferometer":
        raise ConfigError(f"{args.config}: this command needs an interferometer config")
    if spec.sweeps:
        raise ConfigError(f"{args.config}: single-point command, but [sweep] is present; "
                          "use the sweep subcommand")
    if (spec.base["channel"], "QFI") not in _REGIMES:  # a kind without a closed form
        quantities = tuple(q for q in quantities if q != "H_closed")
    table = run_sweep(dataclasses.replace(spec, quantities=quantities), table=True)
    return _print_point(args, table, [c for q in quantities for c in QUANTITY_COLUMNS[q]])


def _cmd_gw_compare(args) -> int:
    spec = parse_config(args.config)
    if spec.kind != "gw":
        raise ConfigError(f"{args.config}: gw-compare needs a [gw] section")
    table = run_sweep(spec, table=True)
    if not spec.sweeps or (table.size == 1 and table.rows()[0]["error"]):
        return _print_point(args, table, GW_COLUMNS[:-1])
    return _write_table(args, table)


def _cmd_validate(args) -> int:
    lo, hi = VALIDATE_CUTOFFS
    if not lo <= args.cutoff <= hi:
        raise ConfigError(f"--cutoff must be between {lo} and {hi}, got {args.cutoff}")
    # the Fock oracle needs scipy.sparse and scipy.special; no other command loads them
    from .validation import oracle_checks
    checks = oracle_checks(cutoff=args.cutoff)
    failed = 0
    for name, passed, detail in checks:
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] {name}: {detail}")
        failed += not passed
    print(f"{len(checks) - failed}/{len(checks)} oracle checks passed")
    return EXIT_OK if failed == 0 else EXIT_NUMERICAL


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error, or the help
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    handlers = {
        "qfi": functools.partial(_single_point, quantities=("H_numeric", "H_closed")),
        "sensitivity": functools.partial(_single_point, quantities=("F0", "moments", "H_numeric")),
        "sweep": lambda args: _write_table(args, run_sweep(parse_config(args.config), table=True)),
        "gw-compare": _cmd_gw_compare,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FloatingPointError, ArithmeticError, RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # reading --config or writing --out; a failed write names no file
        print(f"error: {exc.filename or _out_path(args)}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
