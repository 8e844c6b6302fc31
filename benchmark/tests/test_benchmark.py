"""Tests of the benchmark itself: python3 -m pytest benchmark/tests -q"""

import json
import math

import pytest

import child
import ops
import plan
import reference
import run
import spans


# --- seeded inputs --------------------------------------------------------------


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_plan_is_a_function_of_the_seed(workload, tmp_path):
    a = plan.make_plan(workload, 7, tmp_path / "a")
    b = plan.make_plan(workload, 7, tmp_path / "b")
    c = plan.make_plan(workload, 8, tmp_path / "c")
    keys = [op["key"] for op in a["ops"]]
    assert keys == [op["key"] for op in b["ops"]]
    assert keys != [op["key"] for op in c["ops"]]
    assert len(set(keys)) == len(keys), "every op of a run has its own input"
    assert a.get("input_sha256") == b.get("input_sha256")


def test_mc_tests_ops_cycle_through_the_four_studies(tmp_path):
    ops_ = plan.make_plan("mc-tests", 3, tmp_path)["ops"][1:]
    studies = [s["study"] for s in plan.TEST_STUDIES]
    assert [op["key"].split("/")[0] for op in ops_[:8]] == studies * 2


def test_datasets_are_the_ones_the_reference_was_made_from():
    committed = reference.load("report-555")["input_sha256"]
    for k in (0, 1, plan.REPORT_POOL - 1):
        assert plan.sha256(plan.dataset_csv(k)) == committed[str(k)]
    text = plan.dataset_csv(0).splitlines()
    assert len(text) == 1 + 555
    assert text[1].startswith("1970-01,") and text[-1].startswith("2016-03,")


def test_every_pool_input_has_a_reference():
    for workload in plan.WORKLOADS:
        assert set(plan.pool_keys(workload)) == set(reference.load(workload)["items"])


# --- span recorder --------------------------------------------------------------


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, False, None]


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 5.0, 9.0, 0),
        _span("b1", 6.0, 7.0, 2),
        _span("b2", 6.5, 8.0, 2),  # overlaps b1: covered once
        _span("late", 9.5, 11.0, 0),  # runs past its parent: clipped
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 3 - 4 - 0.5, 3, 4 - 2, 1, 1.5, 1.5])


def test_per_layer_counts_likelihood_passes_under_fits_only():
    tree = [
        _span("sspace.fit_mle", 0.0, 1.0, -1),
        _span("sspace.log_likelihood", 0.1, 0.2, 0),
        _span("sspace.kalman_filter", 0.3, 0.4, 0),
        _span("sspace.log_likelihood", 2.0, 2.5, -1),  # e.g. the smoother's replay
    ]
    tree[0][spans.ATTR] = 7
    for s in tree[1:]:
        s[spans.ATTR] = 100
    m = spans.per_layer(tree, n_ops=1)
    assert m["sspace.lik_evals_per_fit"] == 2
    assert m["sspace.filter_steps"] == 200
    assert m["sspace.fit_mle.iters"] == 7
    assert m["sspace.log_likelihood.calls"] == 2
    assert m["sspace.step_ns"] == pytest.approx(1e9 * 0.6 / 200)
    assert m["unitroot.adf.calls"] == 0
    assert set(m) == set(spans.UNITS)


@pytest.fixture(scope="module")
def package():
    return ops.import_package()


def test_tracer_patches_every_binding_and_restores_them(package, tmp_path):
    import tvelast.pipeline
    import tvelast.series

    original = tvelast.series.parse_csv
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert package.parse_csv is not original  # bound by name in cli
        assert tvelast.pipeline.write_csv is tvelast.series.write_csv
        csv = tmp_path / "in.csv"
        csv.write_text(plan.dataset_csv(0))
        tracer.op = 0
        assert package.main(["validate", "--input", str(csv)]) == 0
    finally:
        tracer.uninstall()
    assert package.parse_csv is original and tvelast.series.parse_csv is original
    names = [s[spans.NAME] for s in tracer.spans]
    assert names[0] == "cli.main"
    parse = names.index("series.parse_csv")
    assert tracer.spans[parse][spans.PARENT] == 0
    assert tracer.absent == []


def test_tracer_reports_a_removed_function_as_absent(package, monkeypatch):
    import tvelast.simlab

    monkeypatch.delattr(tvelast.simlab, "gen_ar1")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["simlab.gen_ar1"]
    assert spans.per_layer([], n_ops=1)["simlab.gen_ar1.self_s"] == 0


# --- reference check and failure counting ---------------------------------------


def test_reference_rejects_a_perturbed_log_variance():
    expected = reference.load("report-555")["items"]["0"]
    for delta, accepted in ((2e-7, True), (1e-3, False)):
        actual = json.loads(json.dumps(expected))
        actual["mle.log_var_state"][1] += delta
        assert (reference.compare(actual, expected) == []) is accepted
    summary = reference.load("mc-mle")["items"]["0"]
    actual = json.loads(json.dumps(summary))
    actual["median.log_var_meas"][1] += 1e-3
    assert reference.compare(actual, summary)


def test_reference_flags_missing_and_changed_exact_fields():
    expected = reference.load("mc-tests")["items"]["adf-size/0"]
    actual = json.loads(json.dumps(expected))
    actual["n_failed"][1] = 1
    del actual["rejection_rate"]
    problems = reference.compare(actual, expected)
    assert len(problems) == 2


def test_fail_ratio_counts_a_cli_exit_code_of_one(package, tmp_path):
    expected = reference.load("report-555")["items"]
    good = plan.report_op(0, str(tmp_path / "good.csv"))
    (tmp_path / "good.csv").write_text(plan.dataset_csv(0))
    rows = plan.dataset_csv(1).splitlines()
    bad = plan.report_op(1, str(tmp_path / "gap.csv"))
    (tmp_path / "gap.csv").write_text("\n".join(rows[:100] + rows[101:]) + "\n")

    records = [child._run(good, tmp_path / "o1", expected),
               child._run(bad, tmp_path / "o2", expected)]
    assert records[0]["error"] is None and records[0]["units"] == 1
    assert records[1]["error"] == "exit code 1" and records[1]["units"] == 0
    attempted, failed, _ = run.count_failures(records)
    assert (attempted, failed) == (2, 1)


def test_failed_replications_fail_the_op():
    fields = reference.extract_summary({"n_reps": 10, "n_failed": 1, "median": {}, "bias": {},
                                        "rmse": {}, "coverage95": {}, "rejection_rate": 0.1})
    outcome = ops.Outcome(0.1, fields=fields)
    assert ops.check({"key": "k"}, outcome, fields) == "1 failed replications"


# --- metrics and the benchmark definition ---------------------------------------


def test_timed_loop_runs_each_input_once_and_stops_when_the_plan_runs_out(monkeypatch,
                                                                         tmp_path):
    monkeypatch.setattr(child, "_run", lambda op, out, expected: {"key": op["key"]})
    records = child._timed([{"key": str(i)} for i in range(5)], tmp_path, {}, 60.0)
    assert [r["key"] for r in records] == ["0", "1", "2", "3", "4"]


def test_tail_latency_is_the_nearest_rank_p90():
    latencies = [float(i) for i in range(110, 0, -1)]
    assert run.tail_latency(latencies) == (99.0, 11)
    assert run.tail_latency(latencies[:60]) == (104.0, 6)
    assert run.tail_latency([0.5]) == (0.5, 0)


def test_end_to_end_gives_the_listed_metrics_and_prints_the_others():
    setups = [{"import_s": 1.0, "first_op_s": x} for x in (0.1, 0.3, 0.2)]
    main = {"ops": [{"seconds": s, "units": 10} for s in (0.4, 0.1, 0.2, 0.3)],
            "peak_rss_mb": 100.0, "pool_exhausted": False}
    values, notes, printed = run.end_to_end("mc-mle", setups, main)
    assert set(values) == set(run.END_TO_END_UNITS)
    assert set(printed) == set(run.PRINTED_UNITS)
    assert values["setup_s"] == pytest.approx(1.2)
    assert printed["op_min_s"] == 0.1
    assert printed["op_p50_s"] == pytest.approx(0.25)
    assert printed["work_per_s"] == pytest.approx(40.0)


def test_benchmark_json_names_what_the_runner_prints():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == [w for w in plan.WORKLOADS
                                                     if w != "mc-tests"]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert max(doc["end_to_end"], key=lambda m: m["bound"])["bound"] == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert all(math.isfinite(m["bound"]) for m in doc["end_to_end"])
