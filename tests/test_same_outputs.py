"""scripts/same_outputs.py: the file comparison, and a run of this tree against itself."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

from tvelast.cli import main
from tvelast.series import Dataset, MonthlySeries, parse_csv

from conftest import make_dataset

ROOT = Path(__file__).resolve().parents[1]
_PATH = ROOT / "scripts" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_first_difference_names_a_changed_or_missing_file(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for side in (old, new):
        (side / "k000").mkdir(parents=True)
        (side / "k000" / "a.csv").write_text("x\n1\n")
        (side / "k000" / "b.csv").write_text("x\n2\n")
    (old / "k001.csv").write_text("x\n3\n")
    (new / "k001.csv").write_text("x\n3\n")
    assert same_outputs.differences(old, new) == (3, [])
    (new / "k000" / "b.csv").write_text("x\n2.0\n")
    assert same_outputs.differences(old, new) == (2, [str(Path("k000") / "b.csv")])
    (old / "k000" / "a.csv").unlink()
    # every file that differs or is missing, in sorted order, not only the first
    assert same_outputs.differences(old, new) == (
        1, [f"{Path('k000') / 'a.csv'} (only in NEW)", str(Path("k000") / "b.csv")])


def test_this_tree_matches_itself():
    src = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(_PATH), src, src, "--n", "1"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("identical: ")


def test_each_run_writes_its_stderr_with_the_directories_masked(tmp_path):
    indir, out = tmp_path / "in", tmp_path / "out"
    indir.mkdir()
    same_outputs.write_inputs(indir, 0)
    same_outputs.emit(out, indir, 0)
    # the constant-cpi report stops at its pretests, so its message is what compares
    assert (out / "constant_cpi" / "pipeline.stdout.json.stderr").read_text() == (
        "tvelast: stage 'adf': every candidate regression is degenerate\n")
    written = (out / "degenerate_window" / "pipeline.out.stderr").read_text().splitlines()
    assert "OUT/degenerate_window/pipeline/report.json" in written
    assert all(line.startswith("OUT/degenerate_window/pipeline/") for line in written)
    assert (out / "degenerate_window" / "pipeline.out").read_text() == ""
    assert (out / "simulate" / "mle.json.stderr").read_text() == ""


def test_the_constant_cpi_input_is_the_strict_json_tests_data():
    # tests/test_cli.py TestStrictJson.test_ols_on_constant_cpi_writes_null
    data = make_dataset(n_months=60, seed=1)
    flat = Dataset(MonthlySeries(data.start, (100.0,) * 60, "cpi"), data.x_raw)
    assert parse_csv(same_outputs.constant_cpi_csv()) == flat


def test_the_degenerate_window_input_fails_its_first_fit_only(tmp_path, capsys):
    path = tmp_path / "degenerate_window.csv"
    path.write_text(same_outputs.degenerate_window_csv())
    assert main(["pipeline", "--input", str(path), *same_outputs.DEGENERATE_ARGS]) == 0
    report = json.loads(capsys.readouterr().out)
    # the first window's percent money growth is exactly 100.0
    growth_x = report["transform"]["growth_x"]["values"]
    assert growth_x[:36] == [100.0] * 36 and growth_x[36] != 100.0
    rows = report["subsample_table"]
    assert [r["sample_end"] for r in rows] == ["1974-12", "1978-12", "1980-12"]
    first = rows[0]
    assert first["converged"] is False
    assert [first[k] for k in ("final_state", "final_rmse", "z", "p_value")] == [None] * 4
    assert all(r["converged"] and math.isfinite(r["final_state"]) for r in rows[1:])
