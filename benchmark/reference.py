"""Reference values for every pool input, and the check against them.

The same `extract_*` functions build the committed reference files and read
each op's output during a run, so the check compares like with like. A
value passes when |actual - expected| <= atol + rtol * |expected|; counts,
lag orders and flags must match exactly.

Tolerances admit an exact reformulation of an estimator and still catch a
changed one. For scale: concentrating the measurement variance out of the
likelihood moves the ML log-variances by about 2e-7 and the log-likelihood
by about 3e-12, while a changed estimator (another diffuse prior, a looser
optimizer stop, a dropped observation) moves them by 1e-4 or more.

Regenerate the files (only when the program's outputs are meant to change):

    python3 benchmark/reference.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# field kind -> (atol, rtol); None means exact equality
TOLERANCES = {
    "adf_statistic": (1e-7, 1e-7),
    "ols_coef": (1e-9, 1e-8),
    "log_var": (1e-5, 0.0),
    "log_lik": (1e-6, 0.0),
    "state": (1e-5, 1e-5),
    "z": (1e-4, 1e-5),
    "p_value": (1e-5, 0.0),
    "mc_log_var": (1e-5, 0.0),
    "coverage": (1e-9, 0.0),
    "rejection_rate": (1e-12, 0.0),
    "exact": None,
}

REPORT_FILES = (
    "report.json", "table1_adf.csv", "table2_ols.csv", "table3_sspace.csv",
    "fig3_cusum.csv", "fig4_recursive.csv", "fig5_state_path.csv", "fig6_decades.csv",
    "fig7_subsample.csv", "fig8_shocks.csv", "appendixA1_subsamples.csv",
)


def extract_report(report: dict) -> dict:
    """Checked fields of one report.json, as {name: [kind, value]}."""
    out = {}
    for i, row in enumerate(report["adf_table"]):
        tag = f"adf[{i}].{row['variable']}.{row['form']}"
        out[f"{tag}.statistic"] = ["adf_statistic", row["statistic"]]
        out[f"{tag}.chosen_lags"] = ["exact", row["chosen_lags"]]
    out["ols.coef"] = ["ols_coef", report["ols"]["coef"]]
    mle = report["mle"]
    out["mle.log_var_meas"] = ["log_var", mle["params"]["log_var_meas"]]
    out["mle.log_var_state"] = ["log_var", mle["params"]["log_var_state"]]
    out["mle.log_lik"] = ["log_lik", mle["log_lik"]]
    out["mle.final_state"] = ["state", mle["final_state"]]
    out["mle.final_rmse"] = ["state", mle["final_rmse"]]
    out["mle.converged"] = ["exact", mle["converged"]]
    for row in report["subsample_table"]:
        tag = f"subsample[{row['sample_end']}]"
        out[f"{tag}.converged"] = ["exact", row["converged"]]
        # a window that stopped without converging has no well-defined
        # estimate to compare; its converged flag is still checked
        if row["converged"]:
            out[f"{tag}.final_state"] = ["state", row["final_state"]]
            out[f"{tag}.final_rmse"] = ["state", row["final_rmse"]]
            out[f"{tag}.z"] = ["z", row["z"]]
            out[f"{tag}.p_value"] = ["p_value", row["p_value"]]
    out["subsample.rows"] = ["exact", len(report["subsample_table"])]
    return out


def extract_summary(summary: dict) -> dict:
    """Checked fields of one McSummary.to_dict(), as {name: [kind, value]}."""
    out = {"n_reps": ["exact", summary["n_reps"]], "n_failed": ["exact", summary["n_failed"]]}
    for group in ("median", "bias", "rmse"):
        for name, value in sorted(summary[group].items()):
            out[f"{group}.{name}"] = ["mc_log_var", value]
    for name, value in sorted(summary["coverage95"].items()):
        out[f"coverage95.{name}"] = ["coverage", value]
    if summary["rejection_rate"] is not None:
        out["rejection_rate"] = ["rejection_rate", summary["rejection_rate"]]
    return out


def _close(actual, expected, kind: str) -> bool:
    tol = TOLERANCES[kind]
    if tol is None:
        return actual == expected
    if not isinstance(actual, (int, float)) or not isinstance(expected, (int, float)):
        return False
    if math.isnan(expected):
        return math.isnan(actual)
    atol, rtol = tol
    return abs(actual - expected) <= atol + rtol * abs(expected)


def compare(actual: dict, expected: dict) -> list[str]:
    """Mismatches between two extracted field maps; empty when they agree."""
    problems = []
    for name in sorted(set(actual) | set(expected)):
        if name not in actual:
            problems.append(f"{name}: missing from output")
        elif name not in expected:
            problems.append(f"{name}: not in reference")
        elif not _close(actual[name][1], expected[name][1], expected[name][0]):
            problems.append(f"{name}: got {actual[name][1]!r}, "
                            f"reference {expected[name][1]!r} ({expected[name][0]})")
    return problems


def load(workload: str) -> dict:
    """The committed reference of a workload: {"items": {key: fields}, ...}."""
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _regenerate(workloads) -> None:
    import tempfile

    import ops
    import plan

    REFERENCE_DIR.mkdir(exist_ok=True)
    ops.import_package()
    for workload in workloads:
        items, input_sha = {}, {}
        with tempfile.TemporaryDirectory(dir=REFERENCE_DIR.parent) as tmp:
            tmp = Path(tmp)
            for key in plan.pool_keys(workload):
                op = plan.pool_op(workload, key, tmp)
                if op["kind"] == "report":
                    input_sha[key] = plan.sha256(Path(op["input"]).read_text(encoding="utf-8"))
                result = ops.execute(op, tmp / "out")
                if result.error is not None:
                    raise SystemExit(f"{workload} {key}: {result.error}")
                items[key] = result.fields
                print(f"{workload} {key}", file=sys.stderr)
        doc = {"workload": workload, "items": items}
        if input_sha:
            doc["input_sha256"] = input_sha
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(_dumps(doc), encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)


def _dumps(doc: dict) -> str:
    """JSON with one line per reference item, so a diff shows which moved."""
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict) and key in ("items", "input_sha256"):
            inner = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                                for k, v in value.items())
            lines.append(f"{json.dumps(key)}: {{\n{inner}\n}}")
        else:
            lines.append(f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    import plan

    _regenerate(sys.argv[1:] or plan.WORKLOADS)
