"""Command-line front end.

One subcommand per analysis surface: validate, adf, ols, cusum, recursive,
sspace, pipeline, subsample, simulate. Results go to standard output or to
files under --out; diagnostics go to standard error. Exit codes: 0 success,
1 data/validation error, 2 estimation failure, 64 usage error.

Configuration precedence for the pipeline subcommands is built-in defaults,
then a JSON --config file, then explicit command-line flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__, pipeline, regress, simlab, sspace, unitroot
from .errors import DataError, EstimationError, StageError, TvelastError
from .series import MonthDate, json_text, parse_csv, row_csv

EXIT_OK = 0
EXIT_DATA = 1
EXIT_ESTIMATION = 2
EXIT_USAGE = 64

_GROWTH_MODES = {"logdiff": "log-diff", "pct": "pct-change"}

# simulate study -> (default sample size, DGP for a sample size); the DGP's
# type picks the estimator from simlab.STUDIES
_STUDIES = {
    "mle": (543, lambda t: simlab.TvpDgp(T=t, sigma2_meas=0.016, sigma2_state=0.359)),
    "adf-size": (500, lambda t: simlab.UnitRootDgp(T=t)),
    "adf-power": (500, lambda t: simlab.Ar1Dgp(T=t, phi=0.5)),
    "cusum-size": (200, lambda t: simlab.BreakRegressionDgp(T=t)),
    "cusum-power": (200, lambda t: simlab.BreakRegressionDgp(T=t, beta2=4.0)),
}


class _Parser(argparse.ArgumentParser):
    """argparse with the conventional 64 exit code for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tvelast",
        description="Money-growth/inflation elasticity toolkit: OLS stability "
                    "diagnostics, ADF pretests, and a time-varying-coefficient "
                    "state-space model.",
    )
    parser.add_argument("--version", action="version", version=f"tvelast {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    def add_format(p, default="json"):
        p.add_argument("--format", choices=["json", "csv", "text"], default=default,
                       help="output format (default json)")

    def add_io(p, with_format=True):
        p.add_argument("--input", required=True, help="CSV of monthly levels (date,y,x)")
        if with_format:
            add_format(p)
        p.add_argument("--date-col", default="date", help="name of the date column")
        p.add_argument("--y-col", default=None, help="price-index column (default: first value column)")
        p.add_argument("--x-col", default=None, help="money-stock column (default: second value column)")

    def add_growth(p):
        p.add_argument("--growth-mode", choices=sorted(_GROWTH_MODES), default=None,
                       help="12-month growth definition (default logdiff)")

    p = sub.add_parser("validate", help="parse and validate a CSV, print a summary")
    add_io(p)

    p = sub.add_parser("adf", help="ADF tests on growth levels and first differences")
    add_io(p)
    add_growth(p)
    p.add_argument("--max-lags", type=int, default=None, help="largest augmentation lag")
    p.add_argument("--deterministic-levels", choices=unitroot.DETERMINISTIC_CASES,
                   default=None, help="deterministic terms for the level tests")
    p.add_argument("--deterministic-diffs", choices=unitroot.DETERMINISTIC_CASES,
                   default=None, help="deterministic terms for the difference tests")

    p = sub.add_parser("ols", help="no-intercept OLS on the demeaned growth series")
    add_io(p)
    add_growth(p)

    p = sub.add_parser("cusum", help="CUSUM parameter-stability test")
    add_io(p)
    add_growth(p)
    p.add_argument("--cusum-sig", type=float, default=None,
                   help="significance level: 0.01, 0.05 or 0.10 (default 0.05)")

    p = sub.add_parser("recursive", help="recursive coefficient path")
    add_io(p)
    add_growth(p)

    p = sub.add_parser("sspace", help="ML fit of the time-varying-coefficient model")
    add_io(p)
    add_growth(p)

    p = sub.add_parser("pipeline", help="run the full battery and write all outputs")
    add_io(p, with_format=False)
    add_growth(p)
    p.add_argument("--out", default=None, help="output directory (default: report JSON to stdout)")
    p.add_argument("--config", default=None, help="JSON file with PipelineConfig overrides")
    p.add_argument("--cusum-sig", type=float, default=None)
    p.add_argument("--max-lags", type=int, default=None)
    p.add_argument("--subsample-ends", default=None,
                   help="comma-separated end months, e.g. 2000-12,2005-12")

    p = sub.add_parser("subsample", help="expanding-window final-state table")
    add_io(p, with_format=False)
    add_growth(p)
    p.add_argument("--subsample-ends", required=True,
                   help="comma-separated end months, e.g. 2000-12,2005-12")
    out = p.add_mutually_exclusive_group()
    add_format(out, default=None)  # None, so that an explicit --format json conflicts
    out.add_argument("--out", default=None, help="write appendixA1_subsamples.csv here")

    p = sub.add_parser("simulate", help="Monte Carlo studies of the estimators")
    p.add_argument("study", choices=list(_STUDIES))
    p.add_argument("--reps", type=int, default=200, help="number of replications")
    p.add_argument("--seed", type=int, default=0, help="master seed; replication r uses seed XOR r")
    p.add_argument("--t", type=int, default=None, help="sample size per replication")
    p.add_argument("--dump", default=None, help="write per-replication records to this CSV")
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")

    return parser


# main's parser, built on the first call and reused: a parse leaves no state
# in it, and building it costs more than most parses
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"tvelast: no such file: {exc.filename or exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"tvelast: {exc.filename}: {exc.strerror}" if exc.filename and exc.strerror
              else f"tvelast: {exc}", file=sys.stderr)
        return EXIT_DATA
    except StageError as exc:
        print(f"tvelast: {exc}", file=sys.stderr)
        cause = exc.__cause__
        return EXIT_DATA if isinstance(cause, DataError) else EXIT_ESTIMATION
    except DataError as exc:
        print(f"tvelast: {exc}", file=sys.stderr)
        return EXIT_DATA
    except EstimationError as exc:
        print(f"tvelast: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except TvelastError as exc:
        print(f"tvelast: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"tvelast: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _load(args):
    with open(args.input, "rb") as fh:
        return parse_csv(fh, date=args.date_col, y=args.y_col, x=args.x_col)


def _cmd_validate(args) -> int:
    data = _load(args)
    payload = {
        "rows": len(data),
        "start": str(data.start),
        "end": str(data.end),
        "y_column": data.y_raw.name,
        "x_column": data.x_raw.name,
        "valid": True,
    }
    if args.format == "json":
        print(json_text(payload, indent=2))
    elif args.format == "csv":
        print(row_csv(payload), end="")
    else:
        print(f"{args.input}: {len(data)} months {data.start}..{data.end} "
              f"({data.y_raw.name}, {data.x_raw.name}); all checks passed")
    return EXIT_OK


def _cmd_section(args) -> int:
    """Run one pipeline stage and print its Report section: JSON, figure CSV or text."""
    stage, section, which, render = _SECTIONS[args.command]
    cfg = _pipeline_config(args)  # a usage error goes before a data error
    report = pipeline.run_pipeline(_load(args), cfg, stage)
    if getattr(args, "out", None):
        print(pipeline.write_figure(report, which, args.out), file=sys.stderr)
    elif args.format in ("json", None):  # subsample's --format defaults to None
        print(json_text(report.to_dict()[section], indent=2))
    elif args.format == "csv":
        print(pipeline.emit_figure_data(report, which), end="")
    else:
        text = render(getattr(report, section))
        if text:  # an empty sub-sample table has no lines to print
            print(text)
    return EXIT_OK


# single-stage subcommand -> (the pipeline stage it runs, its Report section,
# the figure --format csv prints, its text renderer)
_SECTIONS = {
    "adf": ("adf", "adf_table", "table1", pipeline.adf_table_text),
    "ols": ("ols", "ols", "table2", regress.OlsResult.to_text),
    "cusum": ("stability", "cusum", "fig3", regress.CusumResult.to_text),
    "recursive": ("stability", "recursive", "fig4", regress.RecursivePath.to_text),
    "sspace": ("sspace", "mle", "table3", sspace.MleResult.to_text),
    "subsample": ("subsample", "subsample_table", "appendixA1", pipeline.subsample_table_text),
}


def _pipeline_config(args) -> pipeline.PipelineConfig:
    settings = pipeline.PipelineConfig().to_dict()
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:  # every error of the file names it: decoding, shape, keys, values
                overrides = json.load(fh)
                if not isinstance(overrides, dict):
                    raise ValueError("config file must hold a JSON object")
                unknown = set(overrides) - set(settings)
                if unknown:
                    raise ValueError(f"unknown config keys: {sorted(unknown)}")
                settings.update(overrides)
                _config(settings)
            except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
                raise ValueError(f"config file {args.config!r}: {exc}") from None
    if args.growth_mode is not None:
        settings["growth_mode"] = _GROWTH_MODES[args.growth_mode]
    if getattr(args, "cusum_sig", None) is not None:
        settings["cusum_significance"] = args.cusum_sig
    if getattr(args, "max_lags", None) is not None:
        settings["adf_max_lags"] = args.max_lags
    if getattr(args, "deterministic_levels", None) is not None:
        settings["adf_levels_deterministic"] = args.deterministic_levels
    if getattr(args, "deterministic_diffs", None) is not None:
        settings["adf_diff_deterministic"] = args.deterministic_diffs
    if getattr(args, "subsample_ends", None) is not None:
        settings["subsample_end_dates"] = [
            part for part in args.subsample_ends.split(",") if part.strip()]
        if not settings["subsample_end_dates"]:
            raise ValueError("--subsample-ends names no month")
    return _config(settings)


def _config(settings: dict) -> pipeline.PipelineConfig:
    """The PipelineConfig of to_dict()-shaped settings; ValueError on a bad value."""
    ends = settings["subsample_end_dates"]
    if not isinstance(ends, list) or not all(isinstance(e, str) for e in ends):
        raise ValueError(f"subsample_end_dates must be a list of 'YYYY-MM' months, got {ends!r}")
    return pipeline.PipelineConfig(**dict(
        settings, subsample_end_dates=tuple(MonthDate.parse(e) for e in ends)))


def _cmd_pipeline(args) -> int:
    cfg = _pipeline_config(args)  # a usage error goes before a data error
    report = pipeline.run_pipeline(_load(args), cfg)
    if args.out:
        written = pipeline.write_report(report, args.out)
        for path in written:
            print(path, file=sys.stderr)
    else:
        print(report.to_json())
    return EXIT_OK


def _cmd_simulate(args) -> int:
    default_t, make_dgp = _STUDIES[args.study]
    dgp = make_dgp(default_t if args.t is None else args.t)
    summary = simlab.monte_carlo(simlab.STUDIES[type(dgp)].estimator, dgp, args.reps,
                                 args.seed, dump_path=args.dump)
    if args.format == "text":
        print(f"{summary.estimator}: {summary.n_reps} reps, {summary.n_failed} failed")
        if summary.rejection_rate is not None:
            print(f"rejection rate: {summary.rejection_rate:.4f}")
        for name in summary.bias:
            print(f"{name}: bias={summary.bias[name]:+.4f} rmse={summary.rmse[name]:.4f} "
                  f"median={summary.median[name]:.4f} "
                  f"coverage95={summary.coverage95.get(name, float('nan')):.3f}")
    elif args.format == "json":
        print(summary.to_json())
    else:
        d = summary.to_dict()
        flat = {k: d[k] for k in ("estimator", "n_reps", "n_failed", "rejection_rate")}
        for group in ("bias", "rmse", "median", "coverage95"):
            for k, v in d[group].items():
                flat[f"{group}_{k}"] = v
        print(row_csv(flat), end="")
    return EXIT_OK


_COMMANDS = {"validate": _cmd_validate, "pipeline": _cmd_pipeline, "simulate": _cmd_simulate,
             **dict.fromkeys(_SECTIONS, _cmd_section)}


def render_all_help(width: int = 100) -> str:
    """Deterministic help text for the parser and every subcommand."""
    old = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = str(width)
    try:
        parser = build_parser()
        chunks = [parser.format_help()]
        subparsers = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        for name, sp in subparsers.choices.items():
            chunks.append(f"===== tvelast {name} =====\n{sp.format_help()}")
        return "\n".join(chunks)
    finally:
        if old is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = old


if __name__ == "__main__":
    sys.exit(main())
