"""Command-line entry point: coupling sweeps, method comparisons, resonance
reports.

Only this module writes output files; :mod:`sweep` computes and formats them.

Exit status: 0 on success, 1 if any (g, method) point failed (the sweep
still writes every successful row), 2 on configuration errors, an output
file that cannot be opened included, found before any method runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .sweep import SweepConfig, compare_methods, errors_to_csv, parse_config, resonance_report
from .sweep import _read_config_file, run_sweep, table_to_csv

_CONFIG_KEYS = {field.name for field in fields(SweepConfig)}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat key=value config file")
    parser.add_argument("--omega", type=float, help="field frequency")
    parser.add_argument("--omega0", type=float, help="atomic transition frequency")
    parser.add_argument("--g-min", dest="g_min", type=float, help="lowest coupling")
    parser.add_argument("--g-max", dest="g_max", type=float, help="highest coupling")
    parser.add_argument("--g-steps", dest="g_steps", type=int, help="grid point count")
    parser.add_argument("--n-max", dest="n_max", type=int, help="photon truncation")
    parser.add_argument("--levels", dest="n_levels", metavar="LEVELS", type=int,
                        help="levels per (g, method)")
    parser.add_argument("--methods", help="comma-separated method list")
    parser.add_argument("--out", dest="output_path", metavar="OUT", help="output CSV path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resonancekit",
        description="Spectrum of a two-level atom coupled to one quantized "
        "field mode: exact diagonalization, averaged effective models, and "
        "resonant-transformation chains over a coupling sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("sweep", "run the configured methods over the g-grid and write a CSV"),
        ("compare", "sweep, then write per-method error statistics vs exact"),
        ("resonances", "report resonance loci and measured avoided crossings"),
    ):
        _add_common_flags(sub.add_parser(name, help=text, description=text))
    return parser


def _config_from_args(args: argparse.Namespace) -> tuple[SweepConfig, bool]:
    """The configuration (flags over file over defaults), and whether the
    file or a flag names an output path."""
    values = _read_config_file(args.config) if args.config is not None else {}
    values.update(
        (key, value) for key, value in vars(args).items()
        if key in _CONFIG_KEYS and value is not None
    )
    return parse_config(None, values), "output_path" in values


def _errors_path(output_path: str) -> str:
    """The error table's path next to the sweep CSV ``output_path``: its file
    extension replaced by ``_errors.csv``."""
    return os.path.splitext(output_path)[0] + "_errors.csv"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _report_failures(failures) -> None:
    for g, method, message in failures:
        print(f"failed: g={g:.6g} method={method}: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config, output_named = _config_from_args(args)
        if args.command == "compare" and "exact" not in config.methods:
            raise ValueError("compare needs the exact baseline in methods")
        if config.output_path and (output_named or args.command != "resonances"):
            paths = [config.output_path]
            if args.command == "compare":
                paths.insert(0, _errors_path(config.output_path))
            for path in paths:
                open(path, "ab").close()  # fails here, before any method runs
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    if args.command == "resonances":
        text, _, failures = resonance_report(config)
        if output_named and config.output_path:
            _write(config.output_path, text)
        _report_failures(failures)
        print(text, end="")
        return 1 if failures else 0

    table = run_sweep(config)
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            table_to_csv(table, fh)
    if args.command == "sweep":
        _report_failures(table.failures)
        written = f"wrote {config.output_path}" if config.output_path else "wrote no file"
        print(f"{written}: {table.row_count} rows, {len(table.failures)} failed points")
    else:
        stats = compare_methods(table)
        if config.output_path:
            _write(_errors_path(config.output_path), errors_to_csv(stats))
        _report_failures(table.failures)
        for method, (mx, mean, pairs) in stats.items():
            print(f"{method}: max |dE| = {mx:.6g}, mean |dE| = {mean:.6g} over {pairs} pairs")
    return 1 if table.failures else 0


if __name__ == "__main__":
    sys.exit(main())
