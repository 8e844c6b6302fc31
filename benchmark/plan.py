"""Seeded inputs and op plans for the three workloads.

Each workload draws its ops from a fixed pool of inputs so that committed
reference outputs exist for every op:

- report-555: pool item k is a 555-month dataset (1970-01..2016-03) made
  by `dataset_levels(k)`;
- mc-mle: pool item k is a master seed for one `monte_carlo("mle", ...)`
  study;
- mc-tests: pool item k of study s is a master seed for one test study;
  ops cycle through the four studies in a fixed order.

The benchmark's `--seed` picks a permutation of each pool, so one seed always
gives the same inputs in the same order and different seeds give different
orders (and a different warm-up input). The first permuted item is the
warm-up op, which belongs to set-up time; the timed ops follow, each on an
input of its own. No input repeats within a run: the pools are 1.4 to 4
times what a 56-second run used (30 s for mc-tests) on the 2-CPU machine
the benchmark was tuned on, and a run that uses up its pool stops early and
says so. Nothing
here imports the package under test: inputs never depend on the code they
measure.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

WORKLOADS = ("report-555", "mc-mle", "mc-tests")

REPORT_POOL = 512
REPORT_START = (1970, 1)
REPORT_MONTHS = 555  # 1970-01 .. 2016-03
SUBSAMPLE_ENDS = "1990-12,2000-12,2005-12,2010-12"

MLE_POOL = 512
# 1/20 of the `tvelast simulate mle` default of 200 replications, so that a
# 56-second run completes about 160 to 290 ops and its p90 latency has ten or
# more ops beyond it; batching across replications gains less at R=10 than at 200.
MLE_REPS = 10
MLE_DGP = {"T": 543, "sigma2_meas": 0.016, "sigma2_state": 0.359}

TESTS_POOL = 256  # per study
# Rep counts make the four studies cost about the same per op (an ADF rep
# is ~6x a CUSUM rep), so op latencies form one cluster and their median
# does not flip between two.
TEST_STUDIES = (
    {"study": "adf-size", "estimator": "adf", "dgp": "UnitRootDgp",
     "params": {"T": 500}, "n_reps": 40},
    {"study": "adf-power", "estimator": "adf", "dgp": "Ar1Dgp",
     "params": {"T": 500, "phi": 0.5}, "n_reps": 40},
    {"study": "cusum-size", "estimator": "cusum", "dgp": "BreakRegressionDgp",
     "params": {"T": 200}, "n_reps": 240},
    {"study": "cusum-power", "estimator": "cusum", "dgp": "BreakRegressionDgp",
     "params": {"T": 200, "beta2": 4.0}, "n_reps": 240},
)

# Ops per traced cycle; the traced run repeats whole cycles so that its
# per-op counts are exact.
TRACE_CYCLE = {"report-555": 8, "mc-mle": 4, "mc-tests": 4}

_REPORT_TAG = 555_1970
_MLE_TAG = 1805_11562
_TESTS_TAG = 2016_03


def dataset_levels(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Price and money levels of report dataset k, each of 555 months.

    Monthly money growth is a drifting, smoothed Gaussian process; price
    growth loads on it with a random-walk elasticity plus noise, which is
    the relationship the report's state-space model estimates.
    """
    g = np.random.default_rng([_REPORT_TAG, k])
    n = REPORT_MONTHS
    smooth = np.convolve(g.normal(0.0, 0.015, n + 11), np.ones(12) / 12.0, "valid")
    dm = 0.012 + 0.6 * smooth + g.normal(0.0, 0.01, n)
    elasticity = 0.8 + np.cumsum(g.normal(0.0, 0.01, n))
    dp = 0.002 + 0.8 * elasticity * dm + g.normal(0.0, 0.008, n)
    return 100.0 * np.exp(np.cumsum(dp)), 50.0 * np.exp(np.cumsum(dm))


def dataset_csv(k: int) -> str:
    """CSV text of report dataset k in the package's input schema."""
    cpi, money = dataset_levels(k)
    year, month = REPORT_START
    lines = ["date,cpi,m2plus"]
    for i in range(REPORT_MONTHS):
        y, m = divmod(12 * year + month - 1 + i, 12)
        lines.append(f"{y:04d}-{m + 1:02d},{float(cpi[i])!r},{float(money[i])!r}")
    return "\n".join(lines) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def mle_master_seed(k: int) -> int:
    # replication r uses master XOR r; 1024-spaced masters never share a stream
    return 1024 * (_MLE_TAG + k)


def tests_master_seed(study: int, k: int) -> int:
    return 1024 * (_TESTS_TAG + TESTS_POOL * study + k)


def permutation(seed: int, n: int, stream: int = 0) -> list[int]:
    return [int(i) for i in np.random.default_rng([seed, stream]).permutation(n)]


def report_op(k: int, csv_path: str) -> dict:
    # the runner appends "--out <fresh directory>"
    argv = ["pipeline", "--input", csv_path, "--subsample-ends", SUBSAMPLE_ENDS]
    return {"kind": "report", "key": str(k), "input": csv_path, "argv": argv, "units": 1}


def mle_op(k: int) -> dict:
    return {"kind": "mc", "key": str(k), "estimator": "mle", "dgp": "TvpDgp",
            "params": dict(MLE_DGP), "n_reps": MLE_REPS, "seed": mle_master_seed(k),
            "units": MLE_REPS}


def tests_op(study: int, k: int) -> dict:
    spec = TEST_STUDIES[study]
    return {"kind": "mc", "key": f"{spec['study']}/{k}", "estimator": spec["estimator"],
            "dgp": spec["dgp"], "params": dict(spec["params"]), "n_reps": spec["n_reps"],
            "seed": tests_master_seed(study, k), "units": spec["n_reps"]}


def make_plan(workload: str, seed: int, workdir: Path) -> dict:
    """Generate the workload's inputs under workdir; return the op plan.

    plan["ops"][0] is the warm-up op; the timed loop runs plan["ops"][1:]
    in order, each once. Report inputs are written as CSV files here, before any
    timing starts.
    """
    if workload == "report-555":
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        ops, input_sha = [], {}
        for k in permutation(seed, REPORT_POOL):
            text = dataset_csv(k)
            path = inputs / f"dataset_{k:03d}.csv"
            path.write_text(text, encoding="utf-8")
            input_sha[str(k)] = sha256(text)
            ops.append(report_op(k, str(path)))
        return {"workload": workload, "seed": seed, "ops": ops, "input_sha256": input_sha}
    if workload == "mc-mle":
        ops = [mle_op(k) for k in permutation(seed, MLE_POOL)]
        return {"workload": workload, "seed": seed, "ops": ops}
    if workload == "mc-tests":
        perms = [permutation(seed, TESTS_POOL, stream=s) for s in range(len(TEST_STUDIES))]
        # the warm-up op is the last item of the last study's permutation, so
        # the timed ops start at adf-size and keep the fixed study order
        ops = [tests_op(len(TEST_STUDIES) - 1, perms[-1].pop())]
        for i in range(TESTS_POOL - 1):
            ops.extend(tests_op(s, perms[s][i]) for s in range(len(TEST_STUDIES)))
        return {"workload": workload, "seed": seed, "ops": ops}
    raise ValueError(f"unknown workload {workload!r}; know {', '.join(WORKLOADS)}")


def pool_keys(workload: str) -> list[str]:
    """Every reference key of a workload's pool."""
    if workload == "report-555":
        return [str(k) for k in range(REPORT_POOL)]
    if workload == "mc-mle":
        return [str(k) for k in range(MLE_POOL)]
    return [f"{s['study']}/{k}" for s in TEST_STUDIES for k in range(TESTS_POOL)]


def pool_op(workload: str, key: str, inputs: Path) -> dict:
    """The op for one reference key (used to build the reference values)."""
    if workload == "report-555":
        k = int(key)
        path = inputs / f"dataset_{k:03d}.csv"
        path.write_text(dataset_csv(k), encoding="utf-8")
        return report_op(k, str(path))
    if workload == "mc-mle":
        return mle_op(int(key))
    study, k = key.split("/")
    index = [s["study"] for s in TEST_STUDIES].index(study)
    return tests_op(index, int(k))
