"""End-to-end workflow: transforms, pretests, stability, state-space fit.

run_pipeline executes, in order: twelve-month growth transform, ADF tests on
the growth series and their first differences, demeaning, the no-intercept
OLS with CUSUM and recursive-coefficient diagnostics, the ML state-space
fit, the state paths / decade averages / shock series derived from the
fit's own filter pass, and the expanding sub-sample table on the same
growth series. Each stage is one entry of _STAGES, and a single-stage CLI
subcommand runs its stage and the stages it needs. Every failure is
re-raised annotated with the stage that produced it. The Report serializes
to one JSON document plus fixed-name CSV files per table and figure. This
module writes every report.json key: Report.to_dict, beside SCHEMA_VERSION,
turns each section's result dataclass into its entry, and the result types
of the other modules have no serializer of their own.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

from . import __version__, regress, sspace, unitroot
from .errors import NoConvergence, OutOfRange, SectionMissing, StageError, TooShort, TvelastError
from .series import (
    GROWTH_MODES,
    Dataset,
    DecadeAverage,
    MonthDate,
    MonthlySeries,
    csv_text,
    decade_averages,
    demean,
    float_texts,
    json_text,
    month_labels,
    row_csv,
    shared_float_texts,
    window,
    write_csv,
    yoy_growth,
)

MIN_MONTHS_FOR_ADF = 60  # five years of monthly data before unit-root pretests
SCHEMA_VERSION = 3  # report.json's provenance.schema_version; the unversioned layout is 1


@dataclass(frozen=True)
class PipelineConfig:
    growth_mode: str = "log-diff"  # or "pct-change"
    adf_levels_deterministic: str = "constant+trend"
    adf_diff_deterministic: str = "constant"
    adf_max_lags: int | None = None
    cusum_significance: float = 0.05
    subsample_end_dates: tuple[MonthDate, ...] = ()

    def __post_init__(self):
        """Reject a bad setting, naming its key, before any stage runs."""
        dates = tuple(self.subsample_end_dates)
        _require("growth_mode", self.growth_mode in GROWTH_MODES,
                 f"one of {GROWTH_MODES}", self.growth_mode)
        for key in ("adf_levels_deterministic", "adf_diff_deterministic"):
            _require(key, getattr(self, key) in unitroot.DETERMINISTIC_CASES,
                     f"one of {unitroot.DETERMINISTIC_CASES}", getattr(self, key))
        # type() rather than isinstance(): a bool is not a count
        _require("adf_max_lags", self.adf_max_lags is None
                 or (type(self.adf_max_lags) is int and self.adf_max_lags >= 0),
                 "a non-negative integer or null", self.adf_max_lags)
        _require("cusum_significance", isinstance(self.cusum_significance, float)
                 and self.cusum_significance in regress.CUSUM_BAND_CONSTANTS,
                 f"one of {sorted(regress.CUSUM_BAND_CONSTANTS)}", self.cusum_significance)
        _require("subsample_end_dates", all(isinstance(d, MonthDate) for d in dates)
                 and all(a < b for a, b in zip(dates, dates[1:])),
                 "strictly increasing months", [str(d) for d in dates])
        object.__setattr__(self, "subsample_end_dates", dates)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["subsample_end_dates"] = [str(e) for e in self.subsample_end_dates]
        return d


def _require(key: str, ok: bool, expected: str, value) -> None:
    if not ok:
        raise ValueError(f"{key} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class AdfTableRow:
    variable: str
    form: str  # "level" or "first_difference"
    result: unitroot.AdfResult


@dataclass(frozen=True)
class SubSampleRow:
    sample_start: MonthDate
    sample_end: MonthDate
    final_state: float
    final_rmse: float
    z: float
    p_value: float
    converged: bool


@dataclass(frozen=True)
class StatePaths:
    start: MonthDate
    filtered: tuple[float, ...]
    smoothed: tuple[float, ...]


@dataclass
class Report:
    """All pipeline outputs; a section is None only when its stage did not run."""

    growth_y: MonthlySeries | None = None
    growth_x: MonthlySeries | None = None
    demeaned_y: MonthlySeries | None = None
    demeaned_x: MonthlySeries | None = None
    y_mean: float | None = None
    x_mean: float | None = None
    adf_table: list[AdfTableRow] | None = None
    ols: regress.OlsResult | None = None
    cusum: regress.CusumResult | None = None
    recursive: regress.RecursivePath | None = None
    mle: sspace.MleResult | None = None
    state_paths: StatePaths | None = None
    decades: list[DecadeAverage] | None = None
    shocks: MonthlySeries | None = None
    subsample_table: list[SubSampleRow] | None = None
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The report.json document; each section's drop list sits beside it."""
        return {
            "transform": _maybe(self.growth_y, lambda _: {
                "y_mean": self.y_mean,
                "x_mean": self.x_mean,
                "growth_y": _entry(self.growth_y),
                "growth_x": _entry(self.growth_x),
            }),
            "adf_table": _maybe(self.adf_table, lambda rows: [
                {"variable": r.variable, "form": r.form, **_entry(r.result)} for r in rows
            ]),
            "ols": _maybe(self.ols, _entry),
            # the significance and the statistic's length fix the bands
            "cusum": _maybe(self.cusum, lambda c: _entry(c, drop=("band_lo", "band_hi"))),
            "recursive": _maybe(self.recursive, _entry),
            "mle": _maybe(self.mle, lambda m: {
                **_entry(m, drop=("filter_output",)), "params": _entry(m.params)}),
            "state_paths": _maybe(self.state_paths, _entry),
            "decades": _maybe(self.decades, lambda ds: list(map(_entry, ds))),
            "shocks": _maybe(self.shocks, _entry),
            "subsample_table": _maybe(self.subsample_table, lambda rows: list(map(_entry, rows))),
            "provenance": dict(self.provenance),
        }

    def to_json(self) -> str:
        return json_text(self.to_dict(), indent=2)


def _maybe(section, render):
    return None if section is None else render(section)


def _entry(section, drop: tuple[str, ...] = ()) -> dict:
    """A result dataclass's report.json entry: its fields by name, less those
    in drop, with a MonthDate written as its text. A float tuple goes out as
    the section's own object, not a copy, so that write_report's figure CSVs
    reuse the texts report.json made for it (series.shared_float_texts)."""
    return {f.name: str(v) if isinstance(v := getattr(section, f.name), MonthDate) else v
            for f in fields(section) if f.name not in drop}


def run_pipeline(data: Dataset, cfg: PipelineConfig = PipelineConfig(),
                 stage: str | None = None) -> Report:
    """Run every stage in order, or only `stage` and the chain of stages it needs."""
    import hashlib  # here, the only hashing, so that simulate and validate never load OpenSSL

    report = Report()
    report.provenance = {
        "data_sha256": hashlib.sha256(write_csv(data).encode()).hexdigest(),
        "config_sha256": hashlib.sha256(json_text(cfg.to_dict()).encode()).hexdigest(),
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
    }
    for name in list(_STAGES) if stage is None else _chain(stage):
        try:
            _STAGES[name][1](report, data, cfg)
        except TvelastError as exc:
            raise StageError(name, str(exc)) from exc
    return report


def growth_pair(data: Dataset, cfg: PipelineConfig) -> tuple[MonthlySeries, MonthlySeries]:
    """Twelve-month growth of the price index and of the money stock (cfg.growth_mode)."""
    return yoy_growth(data.y_raw, cfg.growth_mode), yoy_growth(data.x_raw, cfg.growth_mode)


def _chain(stage: str) -> list[str]:
    """The stage, preceded by the stages it needs, in run order."""
    need = _STAGES[stage][0]
    return ([] if need is None else _chain(need)) + [stage]


def _transform(report: Report, data: Dataset, cfg: PipelineConfig) -> None:
    report.growth_y, report.growth_x = growth_pair(data, cfg)


def _adf(report: Report, data: Dataset, cfg: PipelineConfig) -> None:
    if len(data) < MIN_MONTHS_FOR_ADF:
        raise TooShort(f"dataset has {len(data)} months; unit-root pretesting "
                       f"requires at least {MIN_MONTHS_FOR_ADF}")
    report.adf_table = adf_battery(report.growth_y, report.growth_x, cfg)


def _demean(report: Report, data: Dataset, cfg: PipelineConfig) -> None:
    report.demeaned_y, report.y_mean = demean(report.growth_y)
    report.demeaned_x, report.x_mean = demean(report.growth_x)


def _ols(report: Report, data: Dataset, cfg: PipelineConfig) -> None:
    report.ols = regress.ols_no_intercept(report.demeaned_y, report.demeaned_x)


def _stability(report: Report, data: Dataset, cfg: PipelineConfig) -> None:
    report.cusum = regress.cusum(report.demeaned_y, report.demeaned_x, cfg.cusum_significance)
    report.recursive = regress.recursive_coefficients(report.demeaned_y, report.demeaned_x)


def _sspace(report: Report, data: Dataset, cfg: PipelineConfig) -> None:
    dm_y = report.demeaned_y
    report.mle = sspace.fit_mle(sspace.TvpModel(dm_y, report.demeaned_x))
    out = report.mle.filter_output
    smoothed, _ = sspace.kalman_smoother(out)
    report.state_paths = StatePaths(dm_y.start, out.filt_mean, smoothed)
    report.decades = decade_averages(
        MonthlySeries(dm_y.start, out.filt_mean, name="elasticity_filtered"))
    report.shocks = sspace.innovation_shocks(out)


def _subsample(report: Report, data: Dataset, cfg: PipelineConfig) -> None:
    report.subsample_table = subsample_final_states(
        data, (report.growth_y, report.growth_x), list(cfg.subsample_end_dates))


# stage -> (the stage it needs, a runner (report, data, cfg) that fills its
# Report fields), in the order run_pipeline runs them
_STAGES = {
    "transform": (None, _transform),
    "adf": ("transform", _adf),
    "demean": ("transform", _demean),
    "ols": ("demean", _ols),
    "stability": ("demean", _stability),
    "sspace": ("demean", _sspace),
    "subsample": ("transform", _subsample),
}


def adf_battery(growth_y: MonthlySeries, growth_x: MonthlySeries,
                 cfg: PipelineConfig) -> list[AdfTableRow]:
    level_spec = unitroot.AdfSpec(cfg.adf_levels_deterministic, cfg.adf_max_lags)
    diff_spec = unitroot.AdfSpec(cfg.adf_diff_deterministic, cfg.adf_max_lags)
    rows = []
    for s in (growth_x, growth_y):
        rows.append(AdfTableRow(s.name, "level", unitroot.adf(s, level_spec)))
        diffs = MonthlySeries(
            s.start.plus(1),
            tuple(b - a for a, b in zip(s.values, s.values[1:])),
            name=f"d({s.name})",
        )
        rows.append(AdfTableRow(s.name, "first_difference", unitroot.adf(diffs, diff_spec)))
    return rows


def subsample_final_states(data: Dataset, growth: tuple[MonthlySeries, MonthlySeries],
                           end_dates: list[MonthDate]) -> list[SubSampleRow]:
    """Expanding-window final states: one ML fit per end date.

    growth is growth_pair(data, cfg). Each window spans the dataset start
    through the end date, and the growth series is re-demeaned inside the
    window. A failed fit is recorded in its row with converged=False and
    never aborts the table: a NoConvergence keeps its best point, and a fit
    that raised anything else leaves every number of its row nan.
    """
    for e in end_dates:
        if data.start.months_until(e) < 24:
            raise OutOfRange(f"end date {e} is less than 24 months after {data.start}")
        if e > data.end:
            raise OutOfRange(f"end date {e} is beyond the data span ({data.end})")
    growth_y, growth_x = growth
    rows = []
    for e in sorted(end_dates):
        dm_y, _ = demean(window(growth_y, growth_y.start, e))
        dm_x, _ = demean(window(growth_x, growth_x.start, e))
        try:
            fit = sspace.fit_mle(sspace.TvpModel(dm_y, dm_x))
        except NoConvergence as exc:
            fit = exc.result
        except TvelastError:  # no best point to keep
            rows.append(SubSampleRow(
                sample_start=data.start, sample_end=e, final_state=math.nan,
                final_rmse=math.nan, z=math.nan, p_value=math.nan, converged=False))
            continue
        rows.append(SubSampleRow(
            sample_start=data.start, sample_end=e,
            final_state=fit.final_state, final_rmse=fit.final_rmse,
            z=fit.final_z, p_value=fit.final_p, converged=fit.converged,
        ))
    return rows


# --- tabular output -------------------------------------------------------------


def emit_figure_data(report: Report, which: str) -> str:
    """Plot-ready CSV text for one figure or table id (see FIGURE_FILES)."""
    if which not in _FIGURES:
        raise ValueError(f"unknown figure id {which!r}; know {sorted(_FIGURES)}")
    return _FIGURES[which][1](report)


def write_report(report: Report, outdir) -> list[str]:
    """Write report.json plus every table/figure CSV; returns their paths.

    The report is a full run's: a section that a single-stage run left
    unset raises SectionMissing. A float column that report.json and a
    figure CSV both hold is formatted once, and the texts are dropped when
    the call ends.
    """
    from pathlib import Path

    out = Path(outdir)
    with shared_float_texts():
        out.mkdir(parents=True, exist_ok=True)
        path = out / "report.json"
        path.write_text(report.to_json(), encoding="utf-8")
        written = [str(path)]
        written += [write_figure(report, which, out) for which in _FIGURES]
    return written


def write_figure(report: Report, which: str, outdir) -> str:
    """Write one figure or table CSV under its FIGURE_FILES name; returns its path."""
    from pathlib import Path

    text = emit_figure_data(report, which)
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / _FIGURES[which][0]
    path.write_text(text, encoding="utf-8")
    return str(path)


def _need(section, name: str):
    if section is None:
        raise SectionMissing(f"section {name!r} unavailable: stage did not run")
    return section


def _emit_table1(report: Report) -> str:
    rows = _need(report.adf_table, "adf_table")
    return csv_text(
        ["variable", "form", "statistic", "p_value", "chosen_lags",
         "crit_1", "crit_5", "crit_10", "reject_at", "n_used"],
        [[r.variable, r.form, r.result.statistic, r.result.p_value_approx,
          r.result.chosen_lags, r.result.crit_1, r.result.crit_5, r.result.crit_10,
          r.result.reject_at, r.result.n_used]
         for r in rows],
    )


def _emit_table2(report: Report) -> str:
    return row_csv(_entry(_need(report.ols, "ols")))


def _emit_table3(report: Report) -> str:
    m = _need(report.mle, "mle")

    def coef(i: int, name: str, value: float) -> dict:
        return {name: value, f"{name}_se": m.robust_se[i], f"{name}_z": m.z_stats[i],
                f"{name}_p": m.p_values[i]}

    row = {
        **coef(0, "log_var_meas", m.params.log_var_meas),
        **coef(1, "log_var_state", m.params.log_var_state),
        "var_meas": m.var_meas,
        "var_state": m.var_state,
        "final_state": m.final_state,
        "final_rmse": m.final_rmse,
        "final_z": m.final_z,
        "final_p": m.final_p,
        "log_lik": m.log_lik,
        "aic": m.aic,
        "sic": m.sic,
        "hq": m.hq,
        "n_obs": m.n_obs,
        "n_iter": m.n_iter,
        "converged": m.converged,
    }
    keys = list(row)
    return csv_text(keys, [[row[k] for k in keys]])


def _emit_fig3(report: Report) -> str:
    c = _need(report.cusum, "cusum")
    y = _need(report.demeaned_y, "transform")
    # statistic index i sits at observation k + i (1-based)
    dates = month_labels(y.start.plus(regress.N_REGRESSORS - 1), len(c.statistic))
    # report.json holds the statistic but not the bands, so only it is shared
    return csv_text(["date", "cusum", "band_lo", "band_hi"],
                    zip(dates, float_texts(c.statistic), c.band_lo, c.band_hi))


def _emit_fig4(report: Report) -> str:
    r = _need(report.recursive, "recursive")
    y = _need(report.demeaned_y, "transform")
    dates = month_labels(y.start.plus(r.start_index - 1), len(r.coefs))
    return csv_text(["date", "coef", "band_lo", "band_hi"],
                    zip(dates, *map(float_texts, (r.coefs, r.bands_lo, r.bands_hi))))


def _emit_fig5(report: Report) -> str:
    p = _need(report.state_paths, "state_paths")
    filtered = float_texts(p.filtered)
    # a random walk's one-step mean is last month's filtered mean; nothing
    # predicts the diffuse month, whose one-step mean is written 0.0
    onestep = ("0.0", *filtered[:-1])
    return csv_text(["date", "sv1_onestep", "sv1_filtered", "sv1_smoothed"],
                    zip(month_labels(p.start, len(filtered)), onestep, filtered,
                        float_texts(p.smoothed)))


def _emit_fig6(report: Report) -> str:
    ds = _need(report.decades, "decades")
    rows = [[d.label, str(d.first), str(d.last), d.mean] for d in ds]
    return csv_text(["decade", "first", "last", "mean"], rows)


def _emit_fig7(report: Report) -> str:
    rows = _need(report.subsample_table, "subsample_table")
    return csv_text(
        ["sample_end", "final_state"],
        [[str(r.sample_end), r.final_state] for r in rows],
    )


def _emit_fig8(report: Report) -> str:
    s = _need(report.shocks, "shocks")
    n = len(s.values)
    return csv_text(["date", "shock", "in_burn_in"],
                    zip(month_labels(s.start, n), float_texts(s.values),
                        (int(i < sspace.DIFFUSE_MONTHS) for i in range(n))))


def _emit_appendix(report: Report) -> str:
    rows = _need(report.subsample_table, "subsample_table")
    return csv_text(
        ["sample_start", "sample_end", "final_state", "final_rmse", "z", "p_value", "converged"],
        [[str(r.sample_start), str(r.sample_end), r.final_state, r.final_rmse,
          r.z, r.p_value, 1 if r.converged else 0] for r in rows],
    )


# figure/table id -> (file name, CSV builder), in the order files are written
_FIGURES = {
    "table1": ("table1_adf.csv", _emit_table1),
    "table2": ("table2_ols.csv", _emit_table2),
    "table3": ("table3_sspace.csv", _emit_table3),
    "fig3": ("fig3_cusum.csv", _emit_fig3),
    "fig4": ("fig4_recursive.csv", _emit_fig4),
    "fig5": ("fig5_state_path.csv", _emit_fig5),
    "fig6": ("fig6_decades.csv", _emit_fig6),
    "fig7": ("fig7_subsample.csv", _emit_fig7),
    "fig8": ("fig8_shocks.csv", _emit_fig8),
    "appendixA1": ("appendixA1_subsamples.csv", _emit_appendix),
}
FIGURE_FILES = {which: fname for which, (fname, _) in _FIGURES.items()}


def adf_table_text(rows: list[AdfTableRow]) -> str:
    """Aligned text block in the shape of a levels/first-difference table:
    rows are adf_battery's, a level row then its first difference's."""
    lines = [f"{'Variable':24}{'Levels':>12}{'p-value':>10}{'First Diff.':>14}{'p-value':>10}"]
    for level, diff in zip(rows[0::2], rows[1::2]):
        lev, dif = level.result, diff.result
        lines.append(
            f"{level.variable:24}"
            f"{lev.statistic:>12.5f}{lev.p_value_approx:>10.4f}"
            f"{dif.statistic:>14.5f}{dif.p_value_approx:>9.4f}{dif.stars():<3}"
        )
    crit = rows[0].result
    lines.append(
        f"Critical values (levels, n={crit.n_used}): "
        f"1% {crit.crit_1:.4f}; 5% {crit.crit_5:.4f}; 10% {crit.crit_10:.4f}"
    )
    return "\n".join(lines)


def subsample_table_text(rows: list[SubSampleRow]) -> str:
    """One line per sub-sample; empty for an empty table."""
    return "\n".join(
        f"{r.sample_start}..{r.sample_end}  final_state={r.final_state:.4f} "
        f"rmse={r.final_rmse:.4f} p={r.p_value:.4f}{'' if r.converged else '  [no convergence]'}"
        for r in rows)
