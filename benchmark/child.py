"""One fresh interpreter of a benchmark run; started by run.py.

    python3 benchmark/child.py MODE PLAN_JSON RESULT_JSON SECONDS

Every mode first times `import tvelast.cli` and the warm-up op (set-up).
MODE is then
  setup   stop there;
  timed   run the plan's ops in a closed loop, one at a time, for SECONDS
          or until the plan runs out, record each op's latency and check
          its output;
  traced  repeat the plan's trace cycle, each op once plain and once with
          spans, until SECONDS have passed, and derive the per-layer metrics.
The result, with the process's peak RSS, goes to RESULT_JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import ops  # standard library only, so the package import below is timed alone


def _run(op: dict, out_dir: Path, expected: dict) -> dict:
    outcome = ops.execute(op, out_dir)
    error = ops.check(op, outcome, expected.get(op["key"]))
    return {"key": op["key"], "seconds": outcome.seconds,
            "units": op["units"] if error is None else 0, "error": error}


def main(mode: str, plan_path: str, result_path: str, seconds: float) -> int:
    start = time.perf_counter()
    ops.import_package()
    import_s = time.perf_counter() - start

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    workdir = Path(plan_path).parent
    expected = ops.reference.load(plan["workload"])["items"]
    warmup = _run(plan["ops"][0], workdir / "out-warmup", expected)
    result = {"import_s": import_s, "first_op_s": warmup["seconds"], "warmup": warmup}

    if mode == "timed":
        result["ops"] = _timed(plan["ops"][1:], workdir, expected, seconds)
        result["pool_exhausted"] = len(result["ops"]) == len(plan["ops"]) - 1
    elif mode == "traced":
        result.update(_traced(plan["ops"][1:1 + plan["trace_cycle"]], workdir, expected,
                              seconds))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _timed(plan_ops: list, workdir: Path, expected: dict, seconds: float) -> list:
    """Run each op once, in order, until SECONDS have passed; no input repeats."""
    records = []
    deadline = time.perf_counter() + seconds
    for i, op in enumerate(plan_ops):
        if time.perf_counter() >= deadline:
            break
        records.append(_run(op, workdir / f"out-{i}", expected))
    return records


def _traced(cycle: list, workdir: Path, expected: dict, seconds: float) -> dict:
    """Run each op of the cycle plain and then traced, cycle after cycle,
    until time is up.

    Whole cycles only, so per-op counts repeat exactly from run to run;
    plain and traced runs of an op sit side by side, so a drift in the
    machine's speed does not show as tracing overhead.
    """
    import spans

    tracer = spans.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        cycle_start = time.perf_counter()
        for op in cycle:
            plain.append(_run(op, workdir / f"out-{len(plain)}", expected))
            tracer.install()
            try:
                tracer.op = len(traced)
                traced.append(_run(op, workdir / f"out-t{len(traced)}", expected))
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        if now + (now - cycle_start) > deadline:
            break
    tracer.dump(workdir / "spans.jsonl")
    return {"plain": plain, "traced": traced, "absent": tracer.absent,
            "per_layer": spans.per_layer(tracer.spans, len(traced))}


if __name__ == "__main__":
    mode, plan_path, result_path, seconds = sys.argv[1:5]
    sys.exit(main(mode, plan_path, result_path, float(seconds)))
