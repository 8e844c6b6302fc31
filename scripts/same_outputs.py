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
- the `--format json|csv|text` output of validate, adf, ols, cusum,
  recursive, sspace and subsample;
- the file `subsample --out` writes;

and, once, for a 60-month input whose price index is constant (so the
OLS fit has no residuals and its log-likelihood, t statistic and p-value
are inf or nan), the `--format json|csv|text` output of ols and the
output of `tvelast pipeline`; and, once, the `--format json|csv|text`
output and the `--dump` file of every `simulate` study at `--reps 10`, at
its default `--t` and at small ones (SMALL_T; for mle also one at which
replications fail, so the dump's failed rows are compared), with its
replications run in one process, again split across 3 processes
(`monte_carlo`'s `n_jobs`) and again at each tree's own default `n_jobs`,
plus every command's exit code. A report's `created_at` line is dropped. The two output trees are
then compared file by file. Exit 0 when every file is identical; exit 1
naming the first file that differs or is missing; exit 2 when a tree fails
to write its outputs.
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

ROOT = Path(__file__).resolve().parents[1]
SINGLE = ("validate", "adf", "ols", "cusum", "recursive", "sspace", "subsample")
FORMATS = ("json", "csv", "text")
# each simulate study, with a small --t near its estimator's shortest sample;
# at mle's T=6, 1 fit of the 10 at seed 0 raises
SMALL_T = {"mle": (60, 6), "adf-size": (40,), "adf-power": (40,), "cusum-size": (30,),
           "cusum-power": (30,)}


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


def write_inputs(indir: Path, n: int) -> None:
    """Write the first n pool datasets and the constant-cpi input under indir."""
    plan = _load_plan()
    (indir / "constant_cpi.csv").write_text(constant_cpi_csv(), encoding="utf-8")
    for k in range(n):
        (indir / f"dataset_{k:03d}.csv").write_text(plan.dataset_csv(k), encoding="utf-8")


def _drop_created_at(path: Path) -> None:
    if path.exists():
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(
            line for line in lines if not line.lstrip().startswith('"created_at"')),
            encoding="utf-8")


def emit(outdir: Path, indir: Path, n: int) -> None:
    """Write every output of the tvelast found first on sys.path under outdir."""
    from tvelast import cli, simlab

    plan = _load_plan()
    exits = {}

    def run(name: str, argv: list[str], stdout_file: Path | None = None) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            exits[name] = cli.main(argv)
        if stdout_file is not None:
            stdout_file.parent.mkdir(parents=True, exist_ok=True)
            stdout_file.write_text(buf.getvalue(), encoding="utf-8")

    ends = ["--subsample-ends", plan.SUBSAMPLE_ENDS]
    for k in range(n):
        kdir = outdir / f"k{k:03d}"
        base = ["--input", str(indir / f"dataset_{k:03d}.csv")]
        run(f"k{k}/pipeline/out", ["pipeline", *base, *ends, "--out", str(kdir / "pipeline")])
        _drop_created_at(kdir / "pipeline" / "report.json")
        run(f"k{k}/pipeline/stdout", ["pipeline", *base, *ends], kdir / "pipeline.stdout.json")
        _drop_created_at(kdir / "pipeline.stdout.json")
        for cmd in SINGLE:
            for fmt in FORMATS:
                argv = [cmd, *base, "--format", fmt, *(ends if cmd == "subsample" else [])]
                run(f"k{k}/{cmd}/{fmt}", argv, kdir / f"{cmd}.{fmt}")
        run(f"k{k}/subsample/out", ["subsample", *base, *ends, "--out", str(kdir / "subsample")])
    flat, flat_dir = ["--input", str(indir / "constant_cpi.csv")], outdir / "constant_cpi"
    for fmt in FORMATS:
        run(f"constant_cpi/ols/{fmt}", ["ols", *flat, "--format", fmt], flat_dir / f"ols.{fmt}")
    run("constant_cpi/pipeline/stdout", ["pipeline", *flat], flat_dir / "pipeline.stdout.json")
    monte_carlo = simlab.monte_carlo
    for n_jobs, suffix in ((1, ""), (3, ".jobs3"), (None, ".default")):
        # the CLI has no jobs flag; it calls simlab.monte_carlo through the module,
        # and None leaves the call as the CLI makes it
        simlab.monte_carlo = monte_carlo if n_jobs is None else (
            lambda *a, **kw: monte_carlo(*a, n_jobs=n_jobs, **kw))
        for study, small_ts in SMALL_T.items():
            for t in (None, *small_ts):
                t_args = [] if t is None else ["--t", str(t)]
                name = (study if t is None else f"{study}.t{t}") + suffix
                dump = outdir / "simulate" / f"{name}.dump.csv"
                dump.parent.mkdir(parents=True, exist_ok=True)
                for fmt in FORMATS:
                    run(f"simulate/{name}/{fmt}",
                        ["simulate", study, "--reps", "10", *t_args, "--format", fmt,
                         "--dump", str(dump)],
                        outdir / "simulate" / f"{name}.{fmt}")
    simlab.monte_carlo = monte_carlo
    (outdir / "exit_codes.json").write_text(json.dumps(exits, indent=1, sort_keys=True),
                                            encoding="utf-8")


def first_difference(old: Path, new: Path) -> str | None:
    """The first relative path whose bytes differ or that only one tree holds."""
    old_files = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    new_files = {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    for rel in sorted(old_files | new_files):
        if rel not in old_files or rel not in new_files:
            return f"{rel} (only in {'NEW' if rel in new_files else 'OLD'})"
        if (old / rel).read_bytes() != (new / rel).read_bytes():
            return str(rel)
    return None


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
        diff = first_difference(*outs)
        n_files = sum(1 for p in outs[0].rglob("*") if p.is_file())
    if diff is not None:
        print(f"differs: {diff}")
        return 1
    print(f"identical: {n_files} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
