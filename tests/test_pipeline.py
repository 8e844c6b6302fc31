import csv
import hashlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps  # oracle only

from tvelast import pipeline, regress, series, sspace
from tvelast.errors import OutOfRange, SectionMissing, StageError
from tvelast.pipeline import (
    FIGURE_FILES,
    PipelineConfig,
    Report,
    emit_figure_data,
    growth_pair,
    run_pipeline,
    subsample_final_states,
    write_report,
)
from tvelast.series import Dataset, MonthDate, MonthlySeries, parse_csv
from tvelast.simlab import TvpDgp, gen_tvp

from conftest import make_dataset


# every MleResult field but filter_output, the pass behind state_paths and shocks
_MLE_KEYS = {
    "params", "robust_se", "z_stats", "p_values", "var_meas", "var_state", "final_state",
    "final_rmse", "final_z", "final_p", "forecast_rmse", "log_lik", "aic", "sic", "hq",
    "n_obs", "n_iter", "n_filter_passes", "hessian_cond", "converged", "loglik_path"}


@pytest.fixture(scope="module")
def report_and_inputs():
    data = make_dataset(n_months=240, seed=42)
    cfg = PipelineConfig(
        subsample_end_dates=(MonthDate(1983, 12), MonthDate(1987, 12), data.end),
    )
    return run_pipeline(data, cfg), data, cfg


class TestRunPipeline:
    def test_all_sections_populated(self, report_and_inputs):
        report, _, _ = report_and_inputs
        d = report.to_dict()
        for key in ("transform", "adf_table", "ols", "cusum", "recursive", "mle",
                    "state_paths", "decades", "shocks", "subsample_table"):
            assert d[key] is not None, key

    def test_no_end_dates_gives_an_empty_subsample_table(self, dataset):
        report = run_pipeline(dataset, PipelineConfig())
        assert report.subsample_table == []
        assert report.to_dict()["subsample_table"] == []

    def test_determinism(self, report_and_inputs):
        report, data, cfg = report_and_inputs
        again = run_pipeline(data, cfg)
        assert report.to_json() == again.to_json()

    def test_short_dataset_fails_at_adf_stage(self):
        data = make_dataset(n_months=59)
        with pytest.raises(StageError) as exc_info:
            run_pipeline(data, PipelineConfig())
        assert exc_info.value.stage == "adf"
        assert "adf" in str(exc_info.value)

    def test_ols_consistent_with_reports_own_series(self, report_and_inputs):
        report, _, _ = report_and_inputs
        redo = regress.ols_no_intercept(report.demeaned_y, report.demeaned_x)
        assert redo.coef == report.ols.coef

    def test_shocks_equal_headline_innovations(self, report_and_inputs):
        report, _, _ = report_and_inputs
        model = sspace.TvpModel(report.demeaned_y, report.demeaned_x)
        out = sspace.kalman_filter(model, report.mle.params)
        redo = sspace.innovation_shocks(out)
        assert redo.values == report.shocks.values

    def test_decades_computed_from_filtered_path(self, report_and_inputs):
        report, _, _ = report_and_inputs
        from tvelast.series import decade_averages
        path = MonthlySeries(report.state_paths.start, report.state_paths.filtered, "p")
        assert [d.mean for d in decade_averages(path)] == [d.mean for d in report.decades]

    def test_provenance_hashes_present(self, report_and_inputs):
        report, _, _ = report_and_inputs
        assert len(report.provenance["data_sha256"]) == 64
        assert len(report.provenance["config_sha256"]) == 64
        assert "created_at" not in report.provenance

    def test_growth_mode_flag_respected(self, dataset):
        cfg = PipelineConfig(growth_mode="pct-change")
        report = run_pipeline(dataset, cfg)
        from tvelast.series import yoy_growth
        expect = yoy_growth(dataset.y_raw, "pct-change")
        assert report.growth_y.values == expect.values


class TestEachIntermediateComputedOnce:
    """A report filters once per fit and takes the growth transform once per series."""

    @pytest.fixture(scope="class")
    def counted(self):
        calls = {"kalman_filter": 0, "yoy_growth": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sspace, "kalman_filter", counting("kalman_filter", sspace.kalman_filter))
            mp.setattr(pipeline, "yoy_growth", counting("yoy_growth", pipeline.yoy_growth))
            ends = tuple(MonthDate.parse(e) for e in ("1990-12", "2000-12", "2005-12", "2010-12"))
            report = run_pipeline(make_dataset(555, seed=42),
                                  PipelineConfig(subsample_end_dates=ends))
        return report, calls

    def test_one_filter_pass_per_fit(self, counted):
        report, calls = counted
        assert len(report.subsample_table) == 4
        assert calls["kalman_filter"] == 5

    def test_one_growth_transform_per_series(self, counted):
        _, calls = counted
        assert calls["yoy_growth"] == 2

    def test_state_paths_are_the_fits_own_pass(self, counted):
        report, _ = counted
        out = report.mle.filter_output
        assert report.state_paths.filtered == out.filt_mean
        assert report.state_paths.smoothed == sspace.kalman_smoother(out)[0]
        assert report.shocks == sspace.innovation_shocks(out)

    def test_mle_serialization_leaves_out_the_pass(self, counted):
        report, _ = counted
        assert set(report.to_dict()["mle"]) == _MLE_KEYS


class TestSlimReport:
    """report.json writes no entry that its other entries fix."""

    def test_every_section_holds_exactly_these_keys(self, report_and_inputs):
        # report.json is written from the sections' fields, so a new field of a
        # result type would enter schema 3 unless this test names it
        report, _, _ = report_and_inputs
        d = json.loads(report.to_json())
        assert set(d) == {"transform", "adf_table", "ols", "cusum", "recursive", "mle",
                          "state_paths", "decades", "shocks", "subsample_table", "provenance"}
        assert set(d["transform"]) == {"y_mean", "x_mean", "growth_y", "growth_x"}
        for var in ("growth_y", "growth_x"):
            assert set(d["transform"][var]) == {"start", "name", "values"}
        assert len(d["adf_table"]) == 4
        for row in d["adf_table"]:
            assert set(row) == {
                "variable", "form", "statistic", "chosen_lags", "crit_1", "crit_5", "crit_10",
                "p_value_approx", "reject_at", "n_used", "deterministic"}
        assert set(d["ols"]) == {
            "coef", "std_err", "t_stat", "p_value", "r2", "adj_r2", "se_regression", "ssr",
            "log_lik", "aic", "sic", "hq", "dw", "n_obs"}
        assert set(d["cusum"]) == {
            "statistic", "significance", "first_crossing", "stable", "sigma_w"}
        assert set(d["recursive"]) == {"start_index", "coefs", "bands_lo", "bands_hi"}
        assert set(d["mle"]) == _MLE_KEYS
        assert set(d["mle"]["params"]) == {"log_var_meas", "log_var_state"}
        assert set(d["state_paths"]) == {"start", "filtered", "smoothed"}
        assert d["decades"]
        for row in d["decades"]:
            assert set(row) == {"label", "first", "last", "mean"}
        assert len(d["subsample_table"]) == 3
        for row in d["subsample_table"]:
            assert set(row) == {
                "sample_start", "sample_end", "final_state", "final_rmse", "z", "p_value",
                "converged"}
        assert set(d["shocks"]) == {"start", "name", "values"}
        assert set(d["provenance"]) == {
            "data_sha256", "config_sha256", "schema_version", "version"}
        assert d["provenance"]["schema_version"] == pipeline.SCHEMA_VERSION == 3

    def test_dropped_entries_rebuild_bit_for_bit(self, report_and_inputs, tmp_path):
        report, _, _ = report_and_inputs
        write_report(report, tmp_path)
        d = json.loads((tmp_path / "report.json").read_text())

        def column(name: str, i: int) -> list[str]:
            with open(tmp_path / name, newline="") as fh:
                return [row[i] for row in list(csv.reader(fh))[1:]]

        # transform.demeaned_y and demeaned_x: the growth series minus its mean
        t = d["transform"]
        for var, demeaned in (("y", report.demeaned_y), ("x", report.demeaned_x)):
            mean = t[f"{var}_mean"]
            assert tuple(v - mean for v in t[f"growth_{var}"]["values"]) == demeaned.values
        # cusum.band_lo and band_hi: +/- a (sqrt n + 2 i / sqrt n), fig3's columns
        n = len(d["cusum"]["statistic"]) - 1
        a = regress.CUSUM_BAND_CONSTANTS[d["cusum"]["significance"]]
        hi = [a * (math.sqrt(n) + 2.0 * i / math.sqrt(n)) for i in range(n + 1)]
        assert column("fig3_cusum.csv", 3) == [repr(b) for b in hi]
        assert column("fig3_cusum.csv", 2) == [repr(-b) for b in hi]
        # state_paths.onestep: fig5 writes 0.0 for the diffuse month, then the
        # filtered means shifted one month
        filtered = [repr(v) for v in d["state_paths"]["filtered"]]
        assert column("fig5_state_path.csv", 2) == filtered
        assert column("fig5_state_path.csv", 1) == ["0.0", *filtered[:-1]]
        # mle.forecast_state: a random walk's one-step forecast is its final state
        assert d["mle"]["final_state"] == d["state_paths"]["filtered"][-1]
        # mle.gamma is 1 by the model; shocks.n_burn_in is fig8's flag count
        assert sum(map(int, column("fig8_shocks.csv", 2))) == sspace.DIFFUSE_MONTHS


class TestPipelineConfig:
    def test_data_hash_is_pinned(self):
        # provenance's data_sha256 hashes write_csv's text of the input
        assert hashlib.sha256(pipeline.write_csv(make_dataset()).encode()).hexdigest() == (
            "e940b31ad17bfd6e69709df6e9c695b0286d317b5eccb95970e402a45a6520da")

    def test_default_config_hash_is_pinned(self):
        text = json.dumps(PipelineConfig().to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8aff5e5bd3935991acd349a2b586dd1f84b311931f022774835faa54535844e8")

    def test_non_default_config_hash_is_pinned(self):
        cfg = PipelineConfig(
            growth_mode="pct-change", adf_max_lags=3,
            subsample_end_dates=(MonthDate(1990, 12), MonthDate(2000, 12)),
        )
        text = json.dumps(cfg.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e2dce980d3eca59c2c7be98b7e97d89735133e40cdf6aa86c9ad9455c88a9efe")


class TestSubsampleFinalStates:
    def test_full_span_row_equals_headline(self, report_and_inputs):
        report, data, cfg = report_and_inputs
        last = report.subsample_table[-1]
        assert last.sample_end == data.end
        assert last.final_state == report.mle.final_state
        assert last.final_rmse == report.mle.final_rmse
        assert last.z == report.mle.final_z
        assert last.p_value == report.mle.final_p

    def test_row_p_value_is_the_two_sided_normal_tail(self, report_and_inputs):
        report, data, _ = report_and_inputs
        rows = [r for r in report.subsample_table if r.sample_end != data.end]
        assert rows and all(r.converged for r in rows)
        for r in rows:
            assert r.p_value == pytest.approx(2.0 * sps.norm.sf(abs(r.z)), rel=1e-12)

    def test_rows_ordered_and_prefix_extending(self, report_and_inputs):
        report, data, _ = report_and_inputs
        ends = [r.sample_end for r in report.subsample_table]
        assert ends == sorted(ends)
        assert all(r.sample_start == data.start for r in report.subsample_table)

    def test_end_date_too_early_rejected(self, dataset):
        with pytest.raises(OutOfRange):
            subsample_final_states(dataset, growth_pair(dataset, PipelineConfig()),
                                   [dataset.start.plus(23)])

    def test_end_date_beyond_span_rejected(self, dataset):
        with pytest.raises(OutOfRange):
            subsample_final_states(dataset, growth_pair(dataset, PipelineConfig()),
                                   [dataset.end.plus(1)])

    def test_constant_coefficient_dgp_recovers_truth(self):
        # y growth = alpha * x growth + small noise in logs: the final state
        # should sit within 2 RMSE of the constant elasticity at every end date
        gen = np.random.default_rng(5)
        n = 240
        alpha = 0.8
        gx = gen.normal(0.0, 0.02, n)  # log money-growth innovations
        logm = np.cumsum(gx)
        logp = alpha * logm + gen.normal(0.0, 0.005, n)
        data = Dataset(
            MonthlySeries(MonthDate(1971, 1), tuple(float(v) for v in 100 * np.exp(logp)), "cpi"),
            MonthlySeries(MonthDate(1971, 1), tuple(float(v) for v in 50 * np.exp(logm)), "m2"),
        )
        ends = [MonthDate(1980, 12), MonthDate(1985, 12), MonthDate(1990, 12)]
        rows = subsample_final_states(data, growth_pair(data, PipelineConfig()), ends)
        for row in rows:
            assert row.converged
            assert abs(row.final_state - alpha) <= 2.0 * row.final_rmse

    def test_failed_fit_recorded_not_fatal(self, monkeypatch):
        data = make_dataset(n_months=120, seed=3)

        def boom(model):
            raise sspace.NonFiniteObjective("forced failure")

        monkeypatch.setattr(sspace, "fit_mle", boom)
        report = run_pipeline(data, PipelineConfig(subsample_end_dates=(MonthDate(1975, 12),)),
                              "subsample")
        (row,) = report.subsample_table
        assert not row.converged
        # a row with no state has no p-value either: null in JSON, nan in CSV
        assert all(math.isnan(v) for v in (row.final_state, row.final_rmse, row.z, row.p_value))
        assert json.loads(report.to_json())["subsample_table"][0]["p_value"] is None
        cells = emit_figure_data(report, "appendixA1").splitlines()[1].split(",")
        assert cells[2:] == ["nan", "nan", "nan", "nan", "0"]

    def test_fit_that_does_not_converge_keeps_its_best_point(self, monkeypatch):
        # report-555 pool item 3; one iteration stops every fit short
        monkeypatch.setattr(sspace, "_MAX_ITER", 1)
        spec = importlib.util.spec_from_file_location(
            "plan", Path(__file__).resolve().parents[1] / "benchmark" / "plan.py")
        plan = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(plan)
        data = parse_csv(plan.dataset_csv(3))
        ends = [MonthDate.parse(e) for e in plan.SUBSAMPLE_ENDS.split(",")]
        cfg = PipelineConfig(subsample_end_dates=tuple(ends))
        rows = subsample_final_states(data, growth_pair(data, cfg), ends)
        assert [r.sample_end for r in rows] == ends
        for r in rows:
            assert not r.converged
            assert math.isfinite(r.final_state) and math.isfinite(r.final_rmse)
            assert r.final_rmse > 0
        report = run_pipeline(data, cfg, "subsample")
        assert report.subsample_table == rows
        lines = emit_figure_data(report, "appendixA1").splitlines()
        assert lines[0].endswith(",converged")
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["0"] * len(ends)


class TestEmitFigureData:
    def test_fig5_schema(self, report_and_inputs):
        report, _, _ = report_and_inputs
        text = emit_figure_data(report, "fig5")
        assert text.splitlines()[0] == "date,sv1_onestep,sv1_filtered,sv1_smoothed"
        assert len(text.splitlines()) == len(report.state_paths.filtered) + 1

    def test_fig3_band_symmetry(self, report_and_inputs):
        report, _, _ = report_and_inputs
        lines = emit_figure_data(report, "fig3").splitlines()
        assert lines[0] == "date,cusum,band_lo,band_hi"
        for line in lines[1:]:
            _, _, lo, hi = line.split(",")
            assert float(lo) == -float(hi)

    def test_fig6_matches_decades_section(self, report_and_inputs):
        report, _, _ = report_and_inputs
        lines = emit_figure_data(report, "fig6").splitlines()[1:]
        assert len(lines) == len(report.decades)
        for line, d in zip(lines, report.decades):
            label, first, last, mean = line.split(",")
            assert label == d.label
            assert float(mean) == d.mean

    def test_fig7_matches_subsample_column(self, report_and_inputs):
        report, _, _ = report_and_inputs
        lines = emit_figure_data(report, "fig7").splitlines()[1:]
        states = [float(line.split(",")[1]) for line in lines]
        assert states == [r.final_state for r in report.subsample_table]

    def test_fig8_burn_in_flag(self, report_and_inputs):
        report, _, _ = report_and_inputs
        lines = emit_figure_data(report, "fig8").splitlines()[1:]
        flags = [int(line.split(",")[2]) for line in lines]
        assert sum(flags) == sspace.DIFFUSE_MONTHS
        assert flags[0] == 1

    def test_table3_columns(self):
        model, _ = gen_tvp(TvpDgp(T=200, sigma2_meas=0.05, sigma2_state=0.3, seed=16))
        fit = sspace.fit_mle(model)
        header, row = emit_figure_data(Report(mle=fit), "table3").splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        coefs = ["log_var_meas", "log_var_state"]
        assert list(cells) == [
            *(f"{c}{s}" for c in coefs for s in ("", "_se", "_z", "_p")),
            "var_meas", "var_state", "final_state", "final_rmse", "final_z", "final_p",
            "log_lik", "aic", "sic", "hq", "n_obs", "n_iter", "converged"]
        for i, c in enumerate(coefs):
            assert [float(cells[f"{c}{s}"]) for s in ("", "_se", "_z", "_p")] == [
                Report(mle=fit).to_dict()["mle"]["params"][c], fit.robust_se[i],
                fit.z_stats[i], fit.p_values[i]]

    def test_section_missing(self, dataset):
        report = run_pipeline(dataset, PipelineConfig(), "ols")
        with pytest.raises(SectionMissing, match="section 'state_paths' unavailable: "
                                                 "stage did not run"):
            emit_figure_data(report, "fig5")

    def test_unknown_figure_id(self, report_and_inputs):
        report, _, _ = report_and_inputs
        with pytest.raises(ValueError):
            emit_figure_data(report, "fig99")


class TestWriteReport:
    def test_writes_all_fixed_names(self, report_and_inputs, tmp_path):
        report, _, _ = report_and_inputs
        written = write_report(report, tmp_path)
        names = {p.split("/")[-1] for p in written}
        assert names == {"report.json", *FIGURE_FILES.values()}
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["ols"]["coef"] == report.ols.coef

    def test_csv_cells_are_plain_numbers(self, report_and_inputs, tmp_path):
        # a numpy scalar slipping into a cell would render as np.float64(...)
        report, _, _ = report_and_inputs
        for path in write_report(report, tmp_path):
            name = path.split("/")[-1]
            text = (tmp_path / name).read_text()
            assert "np.float" not in text, name
            if name.endswith(".csv"):
                assert "(" not in text, name

    def test_no_end_dates_writes_every_name_with_header_only_subsample_files(
            self, dataset, tmp_path):
        report = run_pipeline(dataset, PipelineConfig())
        written = write_report(report, tmp_path)
        names = {p.split("/")[-1] for p in written}
        assert names == {"report.json", *FIGURE_FILES.values()}
        assert len(written) == 11
        assert (tmp_path / "fig7_subsample.csv").read_text() == "sample_end,final_state\n"
        assert (tmp_path / "appendixA1_subsamples.csv").read_text() == (
            "sample_start,sample_end,final_state,final_rmse,z,p_value,converged\n")


class TestWriteReportFloatTexts:
    def test_figures_reuse_the_json_texts_and_the_memo_is_dropped(
            self, report_and_inputs, tmp_path, monkeypatch):
        report, _, _ = report_and_inputs
        memo_sizes = {}
        write_figure = pipeline.write_figure

        def spy(report, which, outdir):
            path = write_figure(report, which, outdir)
            memo_sizes[which] = len(series._float_memo)
            return path

        monkeypatch.setattr(pipeline, "write_figure", spy)
        written = write_report(report, tmp_path)
        assert series._float_memo is None
        # report.json filled the memo; fig3, fig4, fig5 and fig8 added nothing to it
        assert min(memo_sizes.values()) > 0
        assert len(set(memo_sizes.values())) == 1, memo_sizes
        # and the shared texts change no byte
        assert (tmp_path / "report.json").read_text() == report.to_json()
        for which, name in FIGURE_FILES.items():
            assert (tmp_path / name).read_text() == emit_figure_data(report, which), which
        assert len(written) == 1 + len(FIGURE_FILES)

    def test_memo_is_dropped_when_writing_raises(self, report_and_inputs, tmp_path, monkeypatch):
        report, _, _ = report_and_inputs
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory")
        with pytest.raises(FileExistsError):
            write_report(report, taken)
        assert series._float_memo is None

        def fail_at_fig5(report, which, outdir):
            assert series._float_memo  # raised after report.json filled the memo
            if which == "fig5":
                raise OSError("disk full")
            return str(outdir)

        monkeypatch.setattr(pipeline, "write_figure", fail_at_fig5)
        with pytest.raises(OSError, match="disk full"):
            write_report(report, tmp_path / "out")
        assert series._float_memo is None
