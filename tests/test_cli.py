import contextlib
import hashlib
import io
import json
import math
import warnings
from pathlib import Path

import pytest

from tvelast import cli, simlab, sspace
from tvelast.cli import EXIT_DATA, EXIT_ESTIMATION, EXIT_OK, EXIT_USAGE, main, render_all_help
from tvelast.errors import NonFiniteObjective
from tvelast.pipeline import FIGURE_FILES, PipelineConfig, emit_figure_data, run_pipeline
from tvelast.series import (Dataset, MonthDate, MonthlySeries, json_text, parse_csv,
                            write_csv)

from conftest import make_dataset


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse paths
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# one bad value per setting, with the key the error must name
_BAD_CONFIGS = [
    ({"adf_max_lags": "x"}, "adf_max_lags"),
    ({"adf_max_lags": True}, "adf_max_lags"),
    ({"adf_max_lags": -1}, "adf_max_lags"),
    ({"adf_levels_deterministic": "bogus"}, "adf_levels_deterministic"),
    ({"adf_diff_deterministic": 1}, "adf_diff_deterministic"),
    ({"growth_mode": "ratio"}, "growth_mode"),
    ({"cusum_significance": 0.2}, "cusum_significance"),
    ({"cusum_significance": [0.05]}, "cusum_significance"),
    ({"subsample_end_dates": "1990-12"}, "subsample_end_dates"),
    ({"subsample_end_dates": [1990]}, "subsample_end_dates"),
    ({"subsample_end_dates": ["2000-12", "1990-12"]}, "subsample_end_dates"),
    # settings that older configs carry: the seed and the fit's whole mle block
    ({"seed": 1.5}, "seed"),
    ({"mle": {"max_iter": "5"}}, "mle"),
    ({"mle": {"max_iter": 0}}, "mle"),
    ({"mle": {"max_iter": False}}, "mle"),
    ({"mle": {"estimate_gamma": "no"}}, "mle"),
]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "levels.csv"
    path.write_text(write_csv(make_dataset(n_months=200, seed=42)))
    return str(path)


class TestExitCodes:
    def test_happy_path_pipeline(self, csv_path, tmp_path):
        out_dir = tmp_path / "results"
        code, _, err = run_cli(["pipeline", "--input", csv_path, "--out", str(out_dir),
                                "--subsample-ends", "1980-12,1985-12"])
        assert code == EXIT_OK
        produced = {p.name for p in out_dir.iterdir()}
        assert produced == {"report.json", *FIGURE_FILES.values()}

    def test_missing_input_file(self):
        code, _, err = run_cli(["validate", "--input", "/nonexistent/data.csv"])
        assert code == EXIT_DATA
        assert "/nonexistent/data.csv" in err

    def test_invalid_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,a,b\n1971-01,1,1\n1971-03,2,2\n")
        code, _, err = run_cli(["validate", "--input", str(bad)])
        assert code == EXIT_DATA
        assert "gap" in err.lower()

    def test_unknown_flag_is_usage_error(self, csv_path):
        code, _, _ = run_cli(["ols", "--input", csv_path, "--frobnicate"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_pipeline_has_no_format_option(self, csv_path, fmt):
        code, out, err = run_cli(["pipeline", "--input", csv_path, "--format", fmt])
        assert code == EXIT_USAGE
        assert out == ""
        assert "unrecognized arguments: --format" in err

    def test_unknown_subcommand_is_usage_error(self):
        code, _, _ = run_cli(["transmogrify"])
        assert code == EXIT_USAGE

    def test_short_data_is_data_error_from_stage(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(write_csv(make_dataset(n_months=59)))
        for command in ("pipeline", "adf"):  # a loop keeps the test id
            code, out, err = run_cli([command, "--input", str(path)])
            assert code == EXIT_DATA, command
            assert out == ""
            assert "stage 'adf'" in err

    def test_ols_skips_the_adf_gate(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(write_csv(make_dataset(n_months=40)))
        code, out, _ = run_cli(["ols", "--input", str(path)])
        assert code == EXIT_OK
        assert "coef" in json.loads(out)

    def test_subcommands_run_only_the_stages_they_need(self, csv_path, monkeypatch):
        def no_fit(model):
            raise NonFiniteObjective("fit refused")

        monkeypatch.setattr(sspace, "fit_mle", no_fit)
        for command in ("adf", "ols", "cusum", "recursive"):
            code, _, err = run_cli([command, "--input", csv_path])
            assert code == EXIT_OK, (command, err)
        code, out, err = run_cli(["sspace", "--input", csv_path])
        assert code == EXIT_ESTIMATION
        assert out == ""
        assert "tvelast: stage 'sspace': fit refused" in err

    def test_growth_overflow_is_data_error(self, tmp_path):
        # valid positive levels whose 12-month ratio overflows in pct mode
        path = tmp_path / "overflow.csv"
        rows = [f"{1971 + i // 12}-{i % 12 + 1:02d},{1e-300 if i < 12 else 1e300!r},"
                f"{50.0 + i!r}" for i in range(80)]
        path.write_text("date,cpi,m2\n" + "\n".join(rows) + "\n")
        for command in ("ols", "pipeline"):
            code, _, err = run_cli([command, "--input", str(path), "--growth-mode", "pct"])
            assert code == EXIT_DATA, command
            assert "overflows" in err

    @pytest.mark.parametrize("level", [1e152, 1e306])
    def test_growth_whose_sums_overflow_is_data_error(self, tmp_path, level):
        # a money level alternating 1 and level every 12 months: its pct growth
        # 100 (level - 1) is finite, but a sum of its squares is not
        path = tmp_path / "huge_growth.csv"
        rows = [f"{1971 + i // 12}-{i % 12 + 1:02d},{100.0 + i!r},"
                f"{1.0 if i // 12 % 2 == 0 else level!r}" for i in range(72)]
        path.write_text("date,cpi,m2\n" + "\n".join(rows) + "\n")
        for command in ("ols", "sspace"):
            code, out, err = run_cli([command, "--input", str(path), "--growth-mode", "pct"])
            assert code == EXIT_DATA, (command, err)
            assert out == ""
            assert err.startswith("tvelast: stage 'transform': m2 growth at 1972-01 is ")
            assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_bad_csv_cells_are_data_errors(self, tmp_path):
        cases = {
            "nan.csv": b"date,cpi,m2\n1971-01,nan,1\n1971-02,2,2\n",
            "inf.csv": b"date,cpi,m2\n1971-01,1,1\n1971-02,2,-inf\n",
            "latin1.csv": b"date,cpi,m\xe9\n1971-01,1,1\n1971-02,2,2\n",
        }
        errs = {}
        for name, content in cases.items():
            path = tmp_path / name
            path.write_bytes(content)
            code, _, errs[name] = run_cli(["validate", "--input", str(path)])
            assert code == EXIT_DATA, name
            assert "Traceback" not in errs[name]
        assert "row 3" in errs["inf.csv"] and "'m2'" in errs["inf.csv"]

    def test_cr_only_csv_validates_like_the_path_route(self, tmp_path):
        path = tmp_path / "mac.csv"
        path.write_bytes(write_csv(make_dataset(n_months=30)).replace("\n", "\r").encode())
        code, out, err = run_cli(["validate", "--input", str(path)])
        assert code == EXIT_OK, err
        data = parse_csv(path)
        assert json.loads(out)["rows"] == len(data) == 30
        assert (json.loads(out)["start"], json.loads(out)["end"]) == (str(data.start), str(data.end))

    def test_oversized_csv_field_is_a_data_error(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("date,cpi,m2\n1971-01,1," + "5" * 200_000 + "\n")
        code, _, err = run_cli(["validate", "--input", str(path)])
        assert code == EXIT_DATA
        assert err.startswith("tvelast: row 2: field larger than field limit")
        assert "Traceback" not in err

    def test_os_errors_are_one_line_data_errors(self, csv_path, tmp_path):
        a_file = tmp_path / "a_file"
        a_file.write_text("x")
        for argv in (["validate", "--input", str(tmp_path)],
                     ["pipeline", "--input", csv_path, "--out", str(a_file)]):
            code, _, err = run_cli(argv)
            assert code == EXIT_DATA, argv
            assert "Traceback" not in err
            assert len(err.strip().splitlines()) == 1, err

    def test_zero_sample_size_is_usage_error(self):
        # 0 for every study, and each DGP's largest T below its minimum
        for study, t in (("mle", 0), ("adf-size", 0), ("adf-power", 0), ("cusum-size", 0),
                         ("cusum-power", 0), ("mle", 1), ("mle", 2), ("adf-size", 24),
                         ("adf-power", 24), ("adf-size", 34), ("adf-power", 34),
                         ("cusum-size", 2), ("cusum-power", 2)):
            code, out, err = run_cli(["simulate", study, "--t", str(t), "--reps", "10"])
            assert code == EXIT_USAGE, (study, t)
            assert out == ""
            assert "T must be >= " in err, (study, t)

    @pytest.mark.parametrize("command", ["pipeline", "subsample"])
    @pytest.mark.parametrize("ends", ["", ",", " , "])
    def test_empty_subsample_ends_is_usage_error(self, csv_path, command, ends):
        code, out, err = run_cli([command, "--input", csv_path, "--subsample-ends", ends])
        assert code == EXIT_USAGE
        assert out == ""
        assert "--subsample-ends names no month" in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_subsample_out_with_format_is_usage_error(self, csv_path, tmp_path, fmt):
        code, out, err = run_cli(["subsample", "--input", csv_path, "--subsample-ends", "1980-12",
                                  "--out", str(tmp_path / "sub"), "--format", fmt])
        assert code == EXIT_USAGE
        assert out == ""
        assert "not allowed with argument" in err
        assert not (tmp_path / "sub").exists()

    def test_estimation_failure_exit_code(self, tmp_path):
        # constant CPI: demeaned inflation is identically zero, the filter
        # drives both variances to the bound and the fit must not pretend
        path = tmp_path / "flat.csv"
        data = make_dataset(n_months=120, seed=1)
        from tvelast.series import Dataset, MonthlySeries
        flat = Dataset(
            MonthlySeries(data.start, (100.0,) * len(data), "cpi"),
            data.x_raw,
        )
        path.write_text(write_csv(flat))
        code, _, err = run_cli(["sspace", "--input", str(path)])
        assert code == EXIT_ESTIMATION


class TestOutputs:
    def test_validate_json(self, csv_path):
        code, out, _ = run_cli(["validate", "--input", csv_path])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["rows"] == 200
        assert payload["valid"] is True

    def test_adf_text_table(self, csv_path):
        code, out, _ = run_cli(["adf", "--input", csv_path, "--format", "text"])
        assert code == EXIT_OK
        assert "First Diff." in out
        assert "Critical values" in out

    def test_ols_formats(self, csv_path):
        code, out, _ = run_cli(["ols", "--input", csv_path, "--format", "json"])
        assert code == EXIT_OK
        assert "coef" in json.loads(out)
        code, out, _ = run_cli(["ols", "--input", csv_path, "--format", "text"])
        assert "Durbin-Watson" in out
        code, out, _ = run_cli(["ols", "--input", csv_path, "--format", "csv"])
        header, row = out.strip().splitlines()
        assert len(header.split(",")) == len(row.split(","))

    def test_sspace_text(self, csv_path):
        code, out, _ = run_cli(["sspace", "--input", csv_path, "--format", "text"])
        assert code == EXIT_OK
        assert "Final State" in out

    def test_pipeline_stdout_when_no_outdir(self, csv_path):
        code, out, _ = run_cli(["pipeline", "--input", csv_path])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["ols"] is not None

    @pytest.mark.parametrize("ends", [[], ["--subsample-ends", "1980-12,1985-12"]],
                             ids=["no-end-dates", "end-dates"])
    def test_pipeline_out_is_the_same_tree_on_every_run(self, csv_path, tmp_path, ends):
        trees = []
        for side in ("a", "b"):
            code, _, _ = run_cli(["pipeline", "--input", csv_path, *ends,
                                  "--out", str(tmp_path / side)])
            assert code == EXIT_OK
            trees.append({p.name: p.read_bytes() for p in (tmp_path / side).iterdir()})
        assert set(trees[0]) == set(trees[1]) == {"report.json", *FIGURE_FILES.values()}
        for name in trees[0]:
            assert trees[0][name] == trees[1][name], name

    def test_subsample_csv(self, csv_path):
        code, out, _ = run_cli(["subsample", "--input", csv_path,
                                "--subsample-ends", "1980-12,1983-06", "--format", "csv"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("sample_start,sample_end,final_state")
        assert len(lines) == 3

    def test_simulate_deterministic(self):
        args = ["simulate", "mle", "--reps", "10", "--seed", "7", "--t", "120"]
        code_a, out_a, _ = run_cli(args)
        code_b, out_b, _ = run_cli(args)
        assert code_a == code_b == EXIT_OK
        assert out_a == out_b
        payload = json.loads(out_a)
        assert payload["n_reps"] == 10

    def test_simulate_studies_run(self):
        for study in ("adf-size", "adf-power", "cusum-size", "cusum-power"):
            code, out, _ = run_cli(["simulate", study, "--reps", "10", "--seed", "3",
                                    "--t", "100"])
            assert code == EXIT_OK
            assert json.loads(out)["rejection_rate"] is not None

    def test_config_file_precedence(self, csv_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"growth_mode": "pct-change", "cusum_significance": 0.10}))
        code, out, _ = run_cli(["pipeline", "--input", csv_path, "--config", str(cfg)])
        payload = json.loads(out)
        assert payload["cusum"]["significance"] == 0.10
        # explicit flag beats the config file
        code, out, _ = run_cli(["pipeline", "--input", csv_path, "--config", str(cfg),
                                "--cusum-sig", "0.05"])
        payload = json.loads(out)
        assert payload["cusum"]["significance"] == 0.05

    def test_unknown_config_key_rejected(self, csv_path, tmp_path):
        # decade_path, demean_scope and adf_selection are keys that older configs carry
        cfg = tmp_path / "cfg.json"
        for key, value in (("not_a_setting", 1), ("decade_path", "filtered"),
                           ("demean_scope", "window"), ("adf_selection", "schwarz")):
            cfg.write_text(json.dumps({key: value}))
            code, _, err = run_cli(["pipeline", "--input", csv_path, "--config", str(cfg)])
            assert code == EXIT_USAGE, key
            assert "unknown config keys" in err and key in err, key

    def test_unknown_mle_config_keys_rejected(self, csv_path, tmp_path):
        # grad_tol, rel_tol and fd_scale are keys that older configs carry; the
        # fit has no settings, so the block is unknown whatever it holds
        cfg = tmp_path / "cfg.json"
        for block in ({"bogus": 1, "grad_tol": 1e-6, "rel_tol": 1e-9, "fd_scale": 1e-4}, 5):
            cfg.write_text(json.dumps({"mle": block}))
            code, _, err = run_cli(["pipeline", "--input", csv_path, "--config", str(cfg)])
            assert code == EXIT_USAGE
            assert "unknown config keys: ['mle']" in err

    @pytest.mark.parametrize("config, key", _BAD_CONFIGS,
                             ids=[json.dumps(c) for c, _ in _BAD_CONFIGS])
    def test_bad_config_values_rejected_before_any_stage(self, csv_path, tmp_path,
                                                         config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(["pipeline", "--input", csv_path, "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert out == ""
        assert len(err.strip().splitlines()) == 1, err
        assert key in err
        assert "stage '" not in err

    def test_estimate_gamma_config_key_is_unknown(self, csv_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mle": {"estimate_gamma": True}}))
        code, out, err = run_cli(["pipeline", "--input", csv_path, "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert out == ""
        assert "unknown config keys: ['mle']" in err

    def test_removed_settings_are_unknown_config_keys(self, csv_path, tmp_path):
        # the fit's iteration cap is the constant sspace._MAX_ITER, and no stage
        # draws a random number, so neither is a setting
        cfg = tmp_path / "cfg.json"
        for config, key in (({"mle": {"max_iter": 1}}, "mle"), ({"seed": 5}, "seed")):
            cfg.write_text(json.dumps(config))
            code, out, err = run_cli(["pipeline", "--input", csv_path, "--config", str(cfg)])
            assert code == EXIT_USAGE and out == ""
            assert f"unknown config keys: ['{key}']" in err


_ENDS = "1980-12,1983-06"


@pytest.fixture(scope="module")
def report(csv_path):
    cfg = PipelineConfig(subsample_end_dates=tuple(MonthDate.parse(e) for e in _ENDS.split(",")))
    with open(csv_path, "rb") as fh:
        return run_pipeline(parse_csv(fh), cfg)


def _section_argv(command, csv_path):
    return [command, "--input", csv_path] + (
        ["--subsample-ends", _ENDS] if command == "subsample" else [])


class TestSingleStageSubcommands:
    @pytest.mark.parametrize("command, which", [
        ("adf", "table1"), ("ols", "table2"), ("sspace", "table3"), ("cusum", "fig3"),
        ("recursive", "fig4"), ("subsample", "appendixA1")])
    def test_csv_is_the_pipeline_figure(self, csv_path, report, command, which):
        code, out, _ = run_cli(_section_argv(command, csv_path) + ["--format", "csv"])
        assert code == EXIT_OK
        assert out == emit_figure_data(report, which)

    @pytest.mark.parametrize("command", ["adf", "ols", "cusum", "recursive", "sspace",
                                         "subsample"])
    def test_json_is_the_report_section(self, csv_path, report, command):
        section = {"adf": "adf_table", "sspace": "mle",
                   "subsample": "subsample_table"}.get(command, command)
        code, out, _ = run_cli(_section_argv(command, csv_path))
        assert code == EXIT_OK
        assert out == json_text(report.to_dict()[section], indent=2) + "\n"

    def test_cusum_text_and_significance(self, csv_path, report):
        code, out, _ = run_cli(["cusum", "--input", csv_path, "--format", "text"])
        assert code == EXIT_OK
        assert out.startswith("CUSUM at 5%: unstable; first crossing "
                              f"{report.cusum.first_crossing}")
        code, out, _ = run_cli(["cusum", "--input", csv_path, "--cusum-sig", "0.1"])
        assert code == EXIT_OK
        assert json.loads(out)["significance"] == 0.1

    def test_recursive_text(self, csv_path, report):
        code, out, _ = run_cli(["recursive", "--input", csv_path, "--format", "text"])
        assert code == EXIT_OK
        coefs = report.recursive.coefs
        assert out.startswith(f"recursive coefficients over {len(coefs)} expanding samples; "
                              f"final {coefs[-1]:.6f} [")


class TestFlagMapping:
    def test_adf_lag_cap_and_deterministic_terms(self, csv_path):
        code, out, _ = run_cli(["adf", "--input", csv_path])
        default = json.loads(out)
        assert [r["deterministic"] for r in default] == ["constant+trend", "constant"] * 2
        assert max(r["chosen_lags"] for r in default) > 0
        code, out, _ = run_cli(["adf", "--input", csv_path, "--max-lags", "0",
                                "--deterministic-levels", "none",
                                "--deterministic-diffs", "constant+trend"])
        assert code == EXIT_OK
        rows = json.loads(out)
        assert [r["chosen_lags"] for r in rows] == [0] * 4
        assert [r["deterministic"] for r in rows] == ["none", "constant+trend"] * 2

    def test_sspace_iteration_cap_and_gamma(self, csv_path, monkeypatch):
        # the cap is the constant sspace._MAX_ITER, not a flag
        code, out, err = run_cli(["sspace", "--input", csv_path, "--max-iter", "1"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "unrecognized arguments: --max-iter 1" in err
        monkeypatch.setattr(sspace, "_MAX_ITER", 1)
        code, _, err = run_cli(["sspace", "--input", csv_path])
        assert code == EXIT_ESTIMATION
        assert "no convergence after 1 iterations" in err
        # the fit takes the model's gamma; it has no option to estimate it
        code, out, err = run_cli(["sspace", "--input", csv_path, "--estimate-gamma"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "unrecognized arguments: --estimate-gamma" in err

    def test_pipeline_seed_is_refused(self, csv_path):
        # no stage draws a random number; simulate keeps its --seed
        code, out, err = run_cli(["pipeline", "--input", csv_path, "--seed", "5"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "unrecognized arguments: --seed 5" in err

    def test_config_that_is_not_an_object_is_usage_error(self, csv_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, out, err = run_cli(["pipeline", "--input", csv_path, "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert out == ""
        assert "config file must hold a JSON object" in err

    @pytest.mark.parametrize("content", [b"{cusum_significance: 0.1}", b'{"a": "\xff"}'],
                             ids=["not-json", "not-utf8"])
    def test_config_that_does_not_decode_names_its_file(self, csv_path, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        code, out, err = run_cli(["pipeline", "--input", csv_path, "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"tvelast: config file {str(cfg)!r}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("content, message", [
        ("[1]", "config file must hold a JSON object"),
        ('{"seed": 1}', "unknown config keys: ['seed']"),
        ('{"growth_mode": "ratio"}', "growth_mode must be one of"),
    ], ids=["not-an-object", "unknown-key", "bad-value"])
    def test_every_config_error_names_its_file(self, csv_path, tmp_path, content, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        code, out, err = run_cli(["pipeline", "--input", csv_path, "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"tvelast: config file {str(cfg)!r}: {message}"), err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["pipeline", "--config", "CFG"],
        ["cusum", "--cusum-sig", "0.2"],
        ["subsample", "--subsample-ends", ","],
    ], ids=["pipeline-config", "section-flag", "subsample-ends"])
    def test_settings_are_read_before_the_data(self, tmp_path, argv):
        # a header-only CSV is a data error (exit 1), but a usage error comes first
        data = tmp_path / "empty.csv"
        data.write_text("date,cpi,m2\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, out, err = run_cli([a.replace("CFG", str(cfg)) for a in argv]
                                 + ["--input", str(data)])
        assert code == EXIT_USAGE, err
        assert out == ""
        assert "CSV has no data rows" not in err


class TestSubsampleAndSimulateFormats:
    ENDS = ["--subsample-ends", "1980-12,1983-06"]

    def test_subsample_out_writes_the_csv(self, csv_path, tmp_path):
        code, out, _ = run_cli(["subsample", "--input", csv_path, "--format", "csv"] + self.ENDS)
        assert code == EXIT_OK
        code, stdout, err = run_cli(["subsample", "--input", csv_path, "--out",
                                     str(tmp_path / "sub")] + self.ENDS)
        assert code == EXIT_OK and stdout == ""
        path = tmp_path / "sub" / FIGURE_FILES["appendixA1"]
        assert err.strip() == str(path)
        assert path.read_text(encoding="utf-8") == out

    def test_subsample_text(self, csv_path):
        code, out, _ = run_cli(["subsample", "--input", csv_path, "--format", "text"] + self.ENDS)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("1971-01..1980-12  final_state=")
        assert lines[1].startswith("1971-01..1983-06  final_state=")

    def test_simulate_text_and_csv(self):
        args = ["simulate", "mle", "--reps", "10", "--seed", "7", "--t", "120"]
        _, out, _ = run_cli(args)
        summary = json.loads(out)
        code, out, _ = run_cli(args + ["--format", "text"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == f"mle: 10 reps, {summary['n_failed']} failed"
        assert len(lines) == 1 + len(summary["bias"])
        assert lines[1].startswith(f"{next(iter(summary['bias']))}: bias=")
        code, out, _ = run_cli(args + ["--format", "csv"])
        assert code == EXIT_OK
        header, row = out.splitlines()
        flat = dict(zip(header.split(","), row.split(",")))
        assert flat["n_reps"] == "10" and flat["estimator"] == "mle"
        assert float(flat["bias_" + next(iter(summary["bias"]))]) == next(
            iter(summary["bias"].values()))
        code, out, _ = run_cli(["simulate", "cusum-size", "--reps", "10", "--seed", "3",
                                "--t", "100", "--format", "text"])
        assert code == EXIT_OK
        assert out.splitlines()[1].startswith("rejection rate: ")

    def test_simulate_where_every_replication_fails_is_quiet(self, monkeypatch):
        def fail(dgp, rep_seed):
            raise NonFiniteObjective("injected failure")

        monkeypatch.setattr(simlab, "_run_one", fail)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["simulate", "mle", "--reps", "10"])
        assert code == EXIT_OK
        assert err == ""
        summary = _strict_loads(out)
        assert summary["n_failed"] == 10
        for group in ("bias", "rmse", "median"):
            assert summary[group] and all(v is None for v in summary[group].values()), group

    def test_simulate_dump_writes_one_row_per_replication(self, tmp_path, monkeypatch):
        run_one, failing = simlab._run_one, simlab.derive_seed(7, 3)

        def fail_replication_3(dgp, rep_seed):
            if rep_seed == failing:
                raise NonFiniteObjective("injected failure")
            return run_one(dgp, rep_seed)

        monkeypatch.setattr(simlab, "_run_one", fail_replication_3)
        dump = tmp_path / "reps.csv"
        code, out, _ = run_cli(["simulate", "mle", "--reps", "10", "--seed", "7", "--t", "120",
                                "--dump", str(dump)])
        assert code == EXIT_OK
        assert json.loads(out)["n_failed"] == 1
        header, *lines = dump.read_text().splitlines()
        keys = ["converged", "log_var_meas", "log_var_meas_se", "log_var_state",
                "log_var_state_se"]
        assert header == ",".join(["replication", "failed", *keys])
        rows = [line.split(",") for line in lines]
        assert [r[:2] for r in rows] == [[str(i), "1" if i == 3 else "0"] for i in range(10)]
        assert rows[3][2:] == [""] * len(keys)
        for r in rows[:3] + rows[4:]:
            assert r[2] in ("True", "False")
            assert all(math.isfinite(float(v)) for v in r[3:])


def _strict_loads(text):
    """json.loads that rejects the NaN, Infinity and -Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    def test_ols_on_constant_cpi_writes_null(self, tmp_path):
        # y is identically zero: log_lik is inf and t_stat nan in memory
        data = make_dataset(n_months=60, seed=1)
        path = tmp_path / "flat.csv"
        path.write_text(write_csv(Dataset(MonthlySeries(data.start, (100.0,) * 60, "cpi"),
                                          data.x_raw)))
        code, out, _ = run_cli(["ols", "--input", str(path)])
        assert code == EXIT_OK
        payload = _strict_loads(out)
        for key in ("log_lik", "aic", "sic", "hq", "t_stat", "p_value", "dw"):
            assert payload[key] is None, key
        assert payload["coef"] == 0.0
        code, out, _ = run_cli(["ols", "--input", str(path), "--format", "text"])
        assert code == EXIT_OK and "inf" in out

    def test_failed_subsample_window_writes_null(self, csv_path, tmp_path, monkeypatch):
        fit_mle = sspace.fit_mle

        def fail_short_windows(model):
            if len(model) < 150:  # the 1980-12 window; the full sample has 188 months
                raise NonFiniteObjective("forced failure")
            return fit_mle(model)

        monkeypatch.setattr(sspace, "fit_mle", fail_short_windows)
        ends = ["--subsample-ends", "1980-12,1985-12"]
        code, out, _ = run_cli(["pipeline", "--input", csv_path] + ends)
        assert code == EXIT_OK
        rows = _strict_loads(out)["subsample_table"]
        assert [r["final_state"] is None for r in rows] == [True, False]
        code, _, _ = run_cli(["pipeline", "--input", csv_path, "--out", str(tmp_path)] + ends)
        assert code == EXIT_OK
        rows = _strict_loads((tmp_path / "report.json").read_text())["subsample_table"]
        assert rows[0]["z"] is None and rows[0]["converged"] is False
        assert ",nan,nan," in (tmp_path / FIGURE_FILES["appendixA1"]).read_text()
        code, out, _ = run_cli(["subsample", "--input", csv_path, "--format", "json"] + ends)
        assert code == EXIT_OK
        assert _strict_loads(out)[0]["final_rmse"] is None


class TestParserReuse:
    """main parses every call with one parser; no call may leave a value behind."""

    def test_one_parser_per_process(self, csv_path):
        cli._parser.cache_clear()
        for argv in (["validate", "--input", csv_path], ["validate", "--input", csv_path,
                                                           "--format", "text"]):
            assert run_cli(argv)[0] == EXIT_OK
        assert (cli._parser.cache_info().misses, cli._parser.cache_info().hits) == (1, 1)

    def test_a_cusum_level_is_not_kept_for_the_next_pipeline(self, csv_path):
        def config_sha(argv):
            code, out, _ = run_cli(["pipeline", "--input", csv_path] + argv)
            assert code == EXIT_OK
            return json.loads(out)["provenance"]["config_sha256"]

        cli._parser.cache_clear()
        first_call = config_sha([])
        assert config_sha(["--cusum-sig", "0.1"]) != first_call
        assert config_sha([]) == first_call == hashlib.sha256(json.dumps(
            PipelineConfig().to_dict(), sort_keys=True).encode()).hexdigest()

    def test_a_lag_cap_is_not_kept_for_the_next_adf(self, csv_path):
        cli._parser.cache_clear()
        fresh = run_cli(["adf", "--input", csv_path])
        capped = run_cli(["adf", "--input", csv_path, "--max-lags", "2"])
        assert capped != fresh
        assert run_cli(["adf", "--input", csv_path]) == fresh

    def test_help_after_parses_is_the_snapshot(self, csv_path):
        snapshot = Path(__file__).parent / "data" / "cli_help_snapshot.txt"
        assert run_cli(["adf", "--input", csv_path, "--max-lags", "2"])[0] == EXIT_OK
        assert run_cli(["simulate", "bogus"])[0] == EXIT_USAGE
        assert render_all_help() == snapshot.read_text()


class TestHelp:
    def test_snapshot(self):
        snapshot = Path(__file__).parent / "data" / "cli_help_snapshot.txt"
        assert render_all_help() == snapshot.read_text()

    def test_every_documented_flag_enumerated(self):
        text = render_all_help()
        for flag in ("--input", "--out", "--growth-mode", "--cusum-sig", "--max-lags",
                     "--subsample-ends", "--seed", "--format"):
            assert flag in text, flag
        for sub in ("validate", "adf", "ols", "cusum", "recursive", "sspace",
                    "pipeline", "subsample", "simulate"):
            assert f"===== tvelast {sub} =====" in text
