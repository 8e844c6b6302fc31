"""Benchmark of tvelast: one workload per run, timed or traced.

    python3 benchmark/run.py --workload report-555 --seed 1 --seconds 56 --trace 0

Run from the root of a checkout that holds `src/tvelast`. The script makes
the workload's inputs from --seed, starts fresh interpreters for the set-up
samples and for the measured loop (benchmark/child.py), checks every op's
output against benchmark/reference/, and prints each metric by name and
unit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1. `--workload all` runs the three workloads in turn. Full results,
with provenance and every op's latency, go to .bench_work/results/.
See benchmark/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import plan as plans
import reference
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

CHILD_GRACE_S = 90  # beyond --seconds, before a hung child is killed
# The highest percentile with >= 10 ops beyond it in every run of 56 s on
# 2 CPUs (about 160 to 370 ops; p95 leaves fewer than 10 in the slowest). It
# stays fixed when a run completes fewer ops, so that the metric never jumps
# to another percentile.
TAIL_PERCENTILE = 90.0

# The fastest op, the median and the mean (work_per_s) of op latency are
# printed but are not end-to-end metrics: on a shared host whose speed drifts
# in phases they moved from run to run, and from one set of runs to the next,
# as far as the largest bound allowed, where p90 stayed steady (see
# benchmark/README.md).
END_TO_END_UNITS = {"setup_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB"}
PRINTED_UNITS = {"op_min_s": "s", "op_p50_s": "s", "work_per_s": "1/s"}
PER_LAYER_UNITS = dict(spans.UNITS, **{
    "setup.import_s": "s", "setup.first_op_s": "s", "trace.untraced_op_p50_s": "s",
    "trace.op_p50_s": "s", "trace.overhead_s": "s"})
WORK_UNIT = {"report-555": "reports_per_s", "mc-mle": "reps_per_s", "mc-tests": "reps_per_s"}


def _child(mode: str, plan_path: Path, seconds: float) -> dict:
    result_path = plan_path.parent / f"result-{mode}.json"
    result_path.unlink(missing_ok=True)
    with open(plan_path.parent / "child.log", "ab") as log:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), mode, str(plan_path), str(result_path),
             repr(seconds)],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            timeout=seconds + CHILD_GRACE_S,
        )
    if proc.returncode != 0 or not result_path.exists():
        tail = (plan_path.parent / "child.log").read_text(errors="replace")[-2000:]
        raise SystemExit(f"benchmark: {mode} child exited with {proc.returncode}\n{tail}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def tail_latency(latencies: list[float]) -> tuple[float, int]:
    """(value, ops beyond it) of the nearest-rank TAIL_PERCENTILE latency."""
    ordered = sorted(latencies)
    rank = max(math.ceil(TAIL_PERCENTILE / 100.0 * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload: str, setups: list[dict], main: dict) -> tuple[dict, dict, dict]:
    """End-to-end metric values (wall-clock), the notes printed beside them,
    and the figures printed without being end-to-end metrics."""
    records = main["ops"]
    latencies = [r["seconds"] for r in records]
    tail, beyond = tail_latency(latencies)
    setup = [s["import_s"] + s["first_op_s"] for s in setups]
    values = {
        "setup_s": statistics.median(setup),
        "op_tail_s": tail,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    printed = {
        "op_min_s": min(latencies),
        "op_p50_s": statistics.median(latencies),
        "work_per_s": sum(r["units"] for r in records) / sum(latencies),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters; import "
                   f"{statistics.median(s['import_s'] for s in setups):.4f} s + first op "
                   f"{statistics.median(s['first_op_s'] for s in setups):.4f} s",
        "op_tail_s": f"p{TAIL_PERCENTILE:g}; {beyond} of {len(latencies)} warm ops beyond it, "
                     "each on its own input"
                     + ("; the pool ran out before --seconds" if main["pool_exhausted"] else ""),
        "peak_rss_mb": "process running the measured loop",
        "op_min_s": "fastest op; printed, not an end-to-end metric",
        "op_p50_s": "median; printed, not an end-to-end metric",
        "work_per_s": f"{WORK_UNIT[workload]}, the mean; printed, not an end-to-end metric",
    }
    return values, notes, printed


def blas_threads() -> int | None:
    """Threads OpenBLAS uses in this process (numpy is loaded), if it says."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            if "openblas" in line.lower():
                libs.add(line.split()[-1])
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def provenance(seeds: dict) -> dict:
    import numpy as np

    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], timeout=10,
                                capture_output=True, text=True).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tvelast").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "cpu_model": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seeds": seeds,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns its summary, metrics and the full record."""
    workdir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (WORK / "results").mkdir(exist_ok=True)
    try:
        plan = plans.make_plan(workload, seed, workdir)
        plan["trace_cycle"] = plans.TRACE_CYCLE[workload]
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        drift = _input_drift(workload, plan)

        # set-up is timed in three fresh interpreters: one before the measured
        # loop, the loop's own and one after, so they meet the machine at
        # different times
        before = _child("setup", plan_path, seconds)
        main = _child("traced" if trace else "timed", plan_path, seconds)
        setups = [before, main, _child("setup", plan_path, seconds)]
        done = [s["warmup"] for s in setups]
        if trace:
            done += main["plain"] + main["traced"]
            metrics = dict(main["per_layer"])
            metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
            metrics["setup.first_op_s"] = statistics.median(s["first_op_s"] for s in setups)
            plain = statistics.median(r["seconds"] for r in main["plain"])
            traced = statistics.median(r["seconds"] for r in main["traced"])
            metrics["trace.untraced_op_p50_s"] = plain
            metrics["trace.op_p50_s"] = traced
            metrics["trace.overhead_s"] = traced - plain
            notes = {"trace.overhead_s": f"traced op_p50_s {traced:.6f} s - untraced "
                                         f"op_p50_s {plain:.6f} s over "
                                         f"{len(main['traced'])} ops each"}
            units, printed = PER_LAYER_UNITS, {}
            # spans are large: keep only the latest traced run's per workload
            shutil.copyfile(workdir / "spans.jsonl", WORK / "results" / f"{workload}.spans.jsonl")
        else:
            done += main["ops"]
            metrics, notes, printed = end_to_end(workload, setups, main)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, errors = count_failures(done)
    summary = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "attempted": attempted, "failed": failed,
               "fail_ratio": failed / attempted, "errors": errors[:20],
               "input_drift": drift, "absent": main.get("absent", []),
               "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
               "printed": {k: {"value": v, "unit": PRINTED_UNITS[k]} for k, v in printed.items()},
               "notes": notes}
    record = dict(summary, setups=[{k: s[k] for k in ("import_s", "first_op_s")} for s in setups],
                  ops=[[r["key"], r["seconds"]] for r in done])
    return {"summary": summary, "record": record}


def count_failures(records: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over op records: an op fails on an
    exception, a nonzero exit, a failed replication or a reference mismatch."""
    errors = [f"{r['key']}: {r['error']}" for r in records if r["error"] is not None]
    return len(records), len(errors), errors


def _input_drift(workload: str, plan: dict) -> list[str]:
    """Report inputs whose text differs from the one the reference was made from."""
    if "input_sha256" not in plan:
        return []
    committed = reference.load(workload).get("input_sha256", {})
    return sorted(k for k, h in plan["input_sha256"].items() if committed.get(k) != h)


def _results_path(workload: str, seed: int, trace: bool) -> Path:
    return WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"


def print_summary(summary: dict) -> None:
    mode = "traced" if summary["trace"] else "timed"
    print(f"== {summary['workload']}  seed {summary['seed']}  {mode}  "
          f"{summary['seconds']:g} s closed loop, 1 caller")
    for name, m in dict(summary["metrics"], **summary["printed"]).items():
        note = summary["notes"].get(name, "")
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']:6s} {note}")
    print(f"  {'fail_ratio':40s} {summary['fail_ratio']:>16.6g} {'1':6s} "
          f"{summary['failed']} of {summary['attempted']} ops failed")
    for line in summary["errors"]:
        print(f"  failed: {line}")
    if summary["input_drift"]:
        print(f"  inputs differ from the reference's: {summary['input_drift']}")
    if summary["absent"]:
        print(f"  absent functions (reported as 0): {', '.join(summary['absent'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=plans.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "tvelast" / "__init__.py").is_file():
        print(f"benchmark: no package source at {ROOT / 'src' / 'tvelast'}", file=sys.stderr)
        return 2

    workloads = plans.WORKLOADS if args.workload == "all" else (args.workload,)
    prov = provenance({w: args.seed for w in workloads})
    print("provenance: " + json.dumps(prov, sort_keys=True))
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    for res in results:
        print_summary(res["summary"])
        path = _results_path(res["summary"]["workload"], args.seed, bool(args.trace))
        path.write_text(json.dumps(dict(res["record"], provenance=prov), indent=1),
                        encoding="utf-8")

    if len(results) == 1:
        metrics = results[0]["summary"]["metrics"]
    else:
        metrics = {f"{r['summary']['workload']}.{k}": v
                   for r in results for k, v in r["summary"]["metrics"].items()}
    attempted = sum(r["summary"]["attempted"] for r in results)
    failed = sum(r["summary"]["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
