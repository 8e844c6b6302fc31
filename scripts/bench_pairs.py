#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and write BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change ../change \\
        --bench 9 --title "..." --claim mc-mle/op_tail_s \\
        --workload mc-mle --workload report-555 --seeds 301-310 --trace-seed 321

Each checkout is a full tree that holds `src/tvelast` and `benchmark/` (a
`git archive` of the parent commit, a copy of the change's working tree).
For every workload and seed, the script runs

    python3 benchmark/run.py --workload <w> --seed <s> --seconds <t> --trace 0

with t the run_seconds of the change's BENCHMARK.json, in both checkouts,
one run at a time, the parent first on odd seeds and the change first on
even ones, and with --trace-seed one --trace 1 pair per workload. Each
checkout's own run.py measures it, so the two sides run the same script
only when benchmark/ is the same in both. The values come from the record
run.py leaves in <checkout>/.bench_work/results/; with --assemble-only
nothing runs and the file is built from those records.

The output holds the provenance of both sides, every run's metrics, and per
metric the medians, quartiles (numpy.percentile 25/75, linear) and the number
of pairs the change won (strictly better). The claim is met when the change
wins at least 9 pairs in 10 and its median beats the parent's by more than
the parent's quartile spread. Each other end-to-end metric of the change's
BENCHMARK.json is reported against its bound, as the relative change of the
median: "within" or "beyond" the bound, or "unresolved" when either side's
quartile spread exceeds the bound relative to its median and not every
change run beats every parent run. Before each pair the script probes the
host's parallelism (parallelism_probe, stored in the pair and as each
workload's median), so a gain that needs a second CPU states the
parallelism it was measured with. Nothing else should run on the machine
while pairs run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
EXTRA = ("import_s", "first_op_s")  # medians over a record's fresh-interpreter set-ups
WIN_SHARE = 0.9
SPIN_STEPS = 2_000_000  # the probe's pure-Python loop: about 0.1 s on one core


def seed_list(text: str) -> list[int]:
    """'301-310' or '301,305' as a list of seeds."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def record_path(checkout: Path, workload: str, seed: int, trace: int) -> Path:
    return checkout / ".bench_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"


def _spin() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(SPIN_STEPS):
        total += i
    return time.perf_counter() - start


def parallelism_probe() -> float:
    """Host parallelism: the time of the slower of two spins run at once, each
    in a forked child, over one spin alone. Near 1 when the host gives each
    process a CPU of its own, near 2 when the two share one. Both children
    are reaped before it returns."""
    alone = _spin()
    go_read, go_write = os.pipe()
    pids, pipes = [], []
    try:
        for _ in range(2):
            read_fd, write_fd = os.pipe()
            pipes.append(read_fd)
            pid = os.fork()
            if pid == 0:  # wait for the start, spin, send the time, leave
                code = 1
                try:
                    os.close(go_write)  # so that the parent's close ends the wait
                    os.read(go_read, 1)
                    os.write(write_fd, struct.pack("d", _spin()))
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
            os.close(write_fd)
        os.write(go_write, b"go")  # one byte for each child
        slower = max(struct.unpack("d", os.read(fd, 8))[0] for fd in pipes)
    finally:
        for fd in (go_read, go_write, *pipes):
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
    return slower / alone


def probe_path(checkout: Path, workload: str, seed: int) -> Path:
    return checkout / ".bench_work" / "results" / f"{workload}-seed{seed}-parallelism.json"


def read_probe(checkout: Path, workload: str, seed: int) -> float | None:
    """The parallelism probed before a pair, or None when none was stored."""
    path = probe_path(checkout, workload, seed)
    if not path.exists():
        return None
    return round(json.loads(path.read_text(encoding="utf-8"))["parallelism"], 4)


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> None:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    last = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()[-300:]]
    print(f"{checkout.name} {workload} seed {seed} trace {trace}: exit {proc.returncode} {last[0]}",
          flush=True)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark run failed in {checkout}")


def read(checkout: Path, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(values, provenance) of one run's record."""
    rec = json.loads(record_path(checkout, workload, seed, trace).read_text(encoding="utf-8"))
    values = {k: m["value"] for k, m in rec["metrics"].items()}
    if not trace:
        for key in EXTRA:
            values[key] = statistics.median(s[key] for s in rec["setups"])
    values["attempted"], values["failed"] = rec["attempted"], rec["failed"]
    return values, rec["provenance"]


def quartiles(xs: list[float]) -> dict:
    q1, med, q3 = (float(v) for v in np.percentile(xs, [25, 50, 75]))
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "iqr": round(q3 - q1, 6), "n": len(xs)}


def summarize(pairs: list[dict], metric: str, better: str) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    side = {s: [p[s][metric] for p in pairs] for s in SIDES}
    out = {s: quartiles(side[s]) for s in SIDES}
    out["change_wins"] = sum(sign * (c - p) < 0 for p, c in zip(side["parent"], side["change"]))
    out["ties"] = sum(p == c for p, c in zip(side["parent"], side["change"]))
    out["median_diff"] = round(out["change"]["median"] - out["parent"]["median"], 6)
    out["median_ratio_change_over_parent"] = round(
        out["change"]["median"] / out["parent"]["median"], 4)
    return out


def verdicts(workloads: dict, gated: dict, claim_id: str | None) -> tuple[dict | None, dict]:
    """(claim, bounds): the verdict on the claimed "workload/metric", if any,
    and one on every other gated metric of every workload against its bound.

    workloads maps a name to {"pairs": [...], "summary": {metric:
    summarize(...)}}; gated maps a metric name to its BENCHMARK.json entry.
    """
    claim = None
    if claim_id:
        workload, metric = claim_id.split("/")
        s = workloads[workload]["summary"][metric]
        n = len(workloads[workload]["pairs"])
        gain = -s["median_diff"] if gated[metric]["better"] == "lower" else s["median_diff"]
        claim = {"workload": workload, "metric": metric, "better": gated[metric]["better"],
                 "pairs": n, "change_wins": s["change_wins"],
                 "median_diff": s["median_diff"], "parent_iqr": s["parent"]["iqr"],
                 "met": s["change_wins"] >= math.ceil(WIN_SHARE * n)
                 and gain > s["parent"]["iqr"]}
    bounds = {}
    for workload, w in workloads.items():
        for name, m in gated.items():
            if claim_id == f"{workload}/{name}":
                continue
            s = w["summary"][name]
            rel = s["change"]["median"] / s["parent"]["median"] - 1.0
            sign = 1.0 if m["better"] == "lower" else -1.0
            spread = max(s[side]["iqr"] / s[side]["median"] for side in SIDES)
            runs = {side: [sign * p[side][name] for p in w["pairs"]] for side in SIDES}
            if spread > m["bound"] and max(runs["change"]) >= min(runs["parent"]):
                status = "unresolved"
            else:
                status = "within" if sign * rel <= m["bound"] else "beyond"
            bounds[f"{workload}/{name}"] = {"relative_change_of_median": round(rel, 4),
                                            "widest_relative_spread": round(spread, 4),
                                            "bound": m["bound"], "status": status}
        bounds[f"{workload}/fail_ratio"] = {
            f"{side}_failed": sum(p[side]["failed"] for p in w["pairs"]) for side in SIDES}
    return claim, bounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True, help="e.g. 301-310")
    ap.add_argument("--trace-seed", type=int, default=None, help="one --trace 1 pair per workload")
    ap.add_argument("--bench", type=int, required=True, help="n of BENCH_<n>.json")
    ap.add_argument("--title", required=True)
    ap.add_argument("--claim", default=None, help="workload/metric the change claims, if any")
    ap.add_argument("--note", action="append", default=[])
    ap.add_argument("--assemble-only", action="store_true",
                    help="build the file from the records already in .bench_work/results/")
    args = ap.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    gated = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    if not args.assemble_only:
        for workload in args.workload:
            for seed in args.seeds:
                ratio = parallelism_probe()
                path = probe_path(dirs["change"], workload, seed)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps({"parallelism": ratio}), encoding="utf-8")
                print(f"{workload} seed {seed}: host parallelism {ratio:.2f}", flush=True)
                order = SIDES if seed % 2 else SIDES[::-1]
                for side in order:
                    run(dirs[side], workload, seed, seconds, 0)
            if args.trace_seed is not None:
                for side in SIDES:
                    run(dirs[side], workload, args.trace_seed, seconds, 1)

    workloads, prov = {}, {}
    for workload in args.workload:
        pairs = []
        for seed in args.seeds:
            pair = {"seed": seed, "first": "parent" if seed % 2 else "change",
                    "parallelism": read_probe(dirs["change"], workload, seed)}
            for side in SIDES:
                pair[side], prov[side] = read(dirs[side], workload, seed, 0)
            pairs.append(pair)
        metrics = [*gated, *EXTRA]
        summary = {m: summarize(pairs, m, gated[m]["better"] if m in gated else "lower")
                   for m in metrics}
        ratios = [p["parallelism"] for p in pairs if p["parallelism"] is not None]
        workloads[workload] = {
            "parallelism_median": statistics.median(ratios) if ratios else None,
            "pairs": pairs, "summary": summary}
        if args.trace_seed is not None:
            workloads[workload]["trace_pair"] = {"seed": args.trace_seed, **{
                side: read(dirs[side], workload, args.trace_seed, 1)[0] for side in SIDES}}

    claim, bounds = verdicts(workloads, gated, args.claim)

    keep = ("cpu_model", "nproc", "python", "numpy", "scipy", "blas", "blas_threads", "thread_env")
    provenance = {k: prov["change"].get(k) for k in keep}
    provenance["differs"] = {k: [prov["parent"].get(k), prov["change"].get(k)] for k in keep
                             if prov["parent"].get(k) != prov["change"].get(k)}
    provenance["git_commit"] = {side: prov[side]["git_commit"] for side in SIDES}
    provenance["source_sha256"] = {side: prov[side]["source_sha256"] for side in SIDES}
    doc = {
        "bench": args.bench, "title": args.title, "claim": claim, "must_not_worsen": bounds,
        "provenance": provenance,
        "method": (f"scripts/bench_pairs.py: python3 benchmark/run.py --workload <w> --seed <s> "
                   f"--seconds {seconds:g} --trace 0 in each checkout, one run at a time, "
                   f"seeds {args.seeds[0]}..{args.seeds[-1]}, one pair per seed and workload, "
                   "parent first on odd seeds and change first on even ones"
                   + (f"; trace pair --trace 1 with seed {args.trace_seed}"
                      if args.trace_seed is not None else "")
                   + ". Before each pair, parallelism is the time of the slower of two "
                   "concurrent pure-Python spins (forked) over one spin alone: near 1 with a "
                   "free second CPU, near 2 without one. import_s and first_op_s are medians "
                   "over a record's 3 fresh-interpreter set-ups; quartiles are "
                   "numpy.percentile 25/75 (linear) over a side's runs; a pair is won when "
                   "the change's value is strictly better."),
        "notes": args.note,
        "workloads": workloads,
    }
    out = Path(f"BENCH_{args.bench}.json")
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}" + (f"; claim met: {claim['met']}" if claim else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
