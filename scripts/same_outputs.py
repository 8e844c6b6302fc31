#!/usr/bin/env python3
"""Check that two source trees write byte-identical outputs.

    python3 scripts/same_outputs.py OLD_SRC NEW_SRC [--n 32]

OLD_SRC and NEW_SRC are directories that hold the `tvelast` package (the
`src/` of a checkout, or of a `git archive` of another commit). The first N
inputs `benchmark/plan.dataset_csv(k)` of the report-555 pool are written
once, so both trees read the same paths. Each tree then runs in a
subprocess of its own with its directory first on PYTHONPATH and writes,
for every input:

- `tvelast pipeline --out`: report.json and every table and figure CSV;
- the standard output of the plain `tvelast pipeline`;
- for the first input only, both of those again without
  `--subsample-ends`, so the empty sub-sample table is compared;
- the `--format json|csv|text` output of validate, adf, ols, cusum,
  recursive, sspace and subsample;
- the file `subsample --out` writes;

and, once, for a 60-month input whose price index is constant (so the
OLS fit has no residuals and its log-likelihood, t statistic and p-value
are inf or nan), the `--format json|csv|text` output of ols and the
output of `tvelast pipeline`. That pipeline stops at stage adf (every
candidate regression is degenerate, exit 2), so its run compares an
error text and an exit code, not a report with null OLS fields. The runs
that do print inf and nan fields (null in JSON) are this input's `ols
--format json|csv|text` and the null sub-sample rows of the next input:
once, for a 120-month input whose first sub-sample window has constant
money growth (so that window's fit raises DegenerateRegressor and its row
is null), the outputs of `tvelast pipeline --out`, of the plain `tvelast
pipeline` and of `subsample --format json|csv|text`, all with
DEGENERATE_ARGS; and, once, the `--format json|csv|text` output and the
`--dump` file of every `simulate` study at `--reps 10`, at its default
`--t` and at small ones (SMALL_T; for mle also one at which replications
fail, so the dump's failed rows are compared; for the cusum studies also
an odd one), with its replications run in one process, again split
across 3 processes and again across this host's own CPU set, plus every
command's exit code.
`monte_carlo` splits the replications across the CPU set that
`os.sched_getaffinity` reports, so the 1- and 3-CPU runs patch that call
in the emitting process. Every
run's standard error is written beside its standard output, with the input
and output directories written IN and OUT, so error texts and the paths
that `--out` prints are compared too. The two output trees are then
compared file by file. Prints the number of identical files, and when any
file differs or is missing, that number and one path per line. Exit 0 when every file is identical, 1 when
one is not, 2 when a tree fails to write its outputs.
benchmark/plan.py is read, never modified.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
SINGLE = ("validate", "adf", "ols", "cusum", "recursive", "sspace", "subsample")
FORMATS = ("json", "csv", "text")
# each simulate study, with a small --t near its estimator's shortest sample;
# at mle's T=6, 1 fit of the 10 at seed 0 raises; an odd T draws an odd
# number of normals for each of the break regression's two series
SMALL_T = {"mle": (60, 6), "adf-size": (40,), "adf-power": (40,), "cusum-size": (30, 31),
           "cusum-power": (30, 31)}
# the degenerate-window input's run: the first window's money growth is 100.0
DEGENERATE_ARGS = ("--growth-mode", "pct", "--subsample-ends", "1974-12,1978-12,1980-12")


def _load_plan():
    spec = importlib.util.spec_from_file_location("plan", ROOT / "benchmark" / "plan.py")
    plan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plan)
    return plan


def constant_cpi_csv() -> str:
    """60 months from 1971-01: cpi 100.0 throughout, m2 a drifting random walk
    in logs (numpy seed 1), the levels `tests/conftest.make_dataset(60, 1)`
    holds for m2."""
    import numpy as np

    gen = np.random.default_rng(1)
    gen.normal(0.004, 0.01, 60)  # make_dataset's cpi draw, replaced by the constant
    m2 = 50.0 * np.exp(np.cumsum(gen.normal(0.006, 0.02, 60)))
    return "".join(["date,cpi,m2\n"] + [f"{1971 + i // 12}-{i % 12 + 1:02d},100.0,{float(v)!r}\n"
                                          for i, v in enumerate(m2)])


def degenerate_window_csv() -> str:
    """120 months from 1971-01: m2 exactly doubles every 12 months through
    1974-12 and is a random walk in logs after that, and cpi is a random
    walk in logs (numpy seed 2). Its percent growth of 1972-01..1974-12 is
    exactly 100.0, so the window ending 1974-12 demeans it to zeros."""
    import numpy as np

    gen = np.random.default_rng(2)
    cpi = 100.0 * np.exp(np.cumsum(gen.normal(0.004, 0.01, 120)))
    steps = np.exp(gen.normal(0.006, 0.02, 120)).tolist()
    m2 = [50.0]
    for t in range(1, 120):
        m2.append(2.0 * m2[t - 12] if 12 <= t < 48 else m2[t - 1] * steps[t])
    return "".join(["date,cpi,m2\n"] + [f"{1971 + i // 12}-{i % 12 + 1:02d},{float(c)!r},{m!r}\n"
                                          for i, (c, m) in enumerate(zip(cpi, m2))])


def write_inputs(indir: Path, n: int) -> None:
    """Write the first n pool datasets, the constant-cpi and the
    degenerate-window input under indir."""
    plan = _load_plan()
    (indir / "constant_cpi.csv").write_text(constant_cpi_csv(), encoding="utf-8")
    (indir / "degenerate_window.csv").write_text(degenerate_window_csv(), encoding="utf-8")
    for k in range(n):
        (indir / f"dataset_{k:03d}.csv").write_text(plan.dataset_csv(k), encoding="utf-8")


def emit(outdir: Path, indir: Path, n: int) -> None:
    """Write every output of the tvelast found first on sys.path under outdir."""
    from tvelast import cli

    plan = _load_plan()
    exits = {}

    def run(name: str, argv: list[str]) -> None:
        """Run the CLI; its stdout goes to outdir/name and its stderr, with
        the input and output directories written IN and OUT, beside it."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            exits[name] = cli.main(argv)
        path = outdir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(out.getvalue(), encoding="utf-8")
        path.with_name(path.name + ".stderr").write_text(
            err.getvalue().replace(str(indir), "IN").replace(str(outdir), "OUT"),
            encoding="utf-8")

    ends = ["--subsample-ends", plan.SUBSAMPLE_ENDS]
    for k in range(n):
        key = f"k{k:03d}"
        kdir = outdir / key
        base = ["--input", str(indir / f"dataset_{k:03d}.csv")]
        run(f"{key}/pipeline.out", ["pipeline", *base, *ends, "--out", str(kdir / "pipeline")])
        run(f"{key}/pipeline.stdout.json", ["pipeline", *base, *ends])
        if k == 0:
            run(f"{key}/pipeline_no_ends.out",
                ["pipeline", *base, "--out", str(kdir / "pipeline_no_ends")])
            run(f"{key}/pipeline_no_ends.stdout.json", ["pipeline", *base])
        for cmd in SINGLE:
            for fmt in FORMATS:
                argv = [cmd, *base, "--format", fmt, *(ends if cmd == "subsample" else [])]
                run(f"{key}/{cmd}.{fmt}", argv)
        run(f"{key}/subsample.out", ["subsample", *base, *ends, "--out", str(kdir / "subsample")])
    flat = ["--input", str(indir / "constant_cpi.csv")]
    for fmt in FORMATS:
        run(f"constant_cpi/ols.{fmt}", ["ols", *flat, "--format", fmt])
    run("constant_cpi/pipeline.stdout.json", ["pipeline", *flat])
    deg = ["--input", str(indir / "degenerate_window.csv"), *DEGENERATE_ARGS]
    deg_dir = outdir / "degenerate_window"
    run("degenerate_window/pipeline.out", ["pipeline", *deg, "--out", str(deg_dir / "pipeline")])
    run("degenerate_window/pipeline.stdout.json", ["pipeline", *deg])
    for fmt in FORMATS:
        run(f"degenerate_window/subsample.{fmt}", ["subsample", *deg, "--format", fmt])
    (outdir / "simulate").mkdir(parents=True, exist_ok=True)  # the --dump files' directory
    for n_cpus, suffix in ((1, ""), (3, ".jobs3"), (None, ".default")):
        # the CLI has no jobs flag; None leaves this host's own CPU set
        cpus = contextlib.nullcontext() if n_cpus is None else mock.patch.object(
            os, "sched_getaffinity", lambda pid, n=n_cpus: set(range(n)), create=True)
        with cpus:
            for study, small_ts in SMALL_T.items():
                for t in (None, *small_ts):
                    t_args = [] if t is None else ["--t", str(t)]
                    name = (study if t is None else f"{study}.t{t}") + suffix
                    dump = outdir / "simulate" / f"{name}.dump.csv"
                    for fmt in FORMATS:
                        run(f"simulate/{name}.{fmt}",
                            ["simulate", study, "--reps", "10", *t_args, "--format", fmt,
                             "--dump", str(dump)])
    (outdir / "exit_codes.json").write_text(json.dumps(exits, indent=1, sort_keys=True),
                                            encoding="utf-8")


def differences(old: Path, new: Path) -> tuple[int, list[str]]:
    """(number of identical files, the sorted relative paths whose bytes
    differ or that only one tree holds)."""
    old_files = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    new_files = {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    same, differ = 0, []
    for rel in sorted(old_files | new_files):
        if rel not in old_files or rel not in new_files:
            differ.append(f"{rel} (only in {'NEW' if rel in new_files else 'OLD'})")
        elif (old / rel).read_bytes() != (new / rel).read_bytes():
            differ.append(str(rel))
        else:
            same += 1
    return same, differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src", nargs="?", help="directory holding the old tvelast package")
    ap.add_argument("new_src", nargs="?", help="directory holding the new tvelast package")
    ap.add_argument("--n", type=int, default=32, help="report-555 pool inputs to run (default 32)")
    # the per-tree child: --emit OUTDIR --inputs INDIR
    ap.add_argument("--emit", default=None, help=argparse.SUPPRESS)
    ap.add_argument("--inputs", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit:
        emit(Path(args.emit), Path(args.inputs), args.n)
        return 0
    if not (args.old_src and args.new_src):
        ap.error("OLD_SRC and NEW_SRC are required")
    with tempfile.TemporaryDirectory() as tmp:
        indir = Path(tmp) / "inputs"
        indir.mkdir()
        write_inputs(indir, args.n)
        outs = []
        for side, src in (("old", args.old_src), ("new", args.new_src)):
            src = Path(src).resolve()
            if not (src / "tvelast" / "__init__.py").is_file():
                ap.error(f"{src} holds no tvelast package")
            out = Path(tmp) / side
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
            child = subprocess.run(
                [sys.executable, __file__, "--emit", str(out), "--inputs", str(indir),
                 "--n", str(args.n)], env=env)
            if child.returncode != 0:
                print(f"the {side.upper()} tree failed to write its outputs")
                return 2
            outs.append(out)
        same, differ = differences(*outs)
    print(f"identical: {same} files")
    if differ:
        print(f"differs: {len(differ)} files", *differ, sep="\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
