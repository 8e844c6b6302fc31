"""Run one op against the package from outside, and check what it produced.

An op is one `tvelast pipeline` run through `tvelast.cli.main` (report-555)
or one `simlab.monte_carlo` study (mc-mle, mc-tests). Only the call itself
is timed; building arguments, reading the outputs and removing the output
directory happen outside the timed region.

This module imports nothing but the standard library at load time, so a
fresh interpreter can time `import tvelast.cli` on its own.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


@dataclass
class Outcome:
    seconds: float
    error: str | None = None  # exception, nonzero exit or missing output
    fields: dict = field(default_factory=dict)  # extracted for the reference check


def import_package():
    """Import tvelast.cli from this checkout's src/; refuse any other copy."""
    if not (SOURCE / "tvelast" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {SOURCE / 'tvelast'}")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    import tvelast.cli

    found = Path(tvelast.cli.__file__).resolve()
    if SOURCE.resolve() not in found.parents:
        raise SystemExit(f"benchmark: imported tvelast from {found}, not from {SOURCE}")
    return tvelast.cli


def execute(op: dict, out_dir: Path) -> Outcome:
    if op["kind"] == "report":
        return _execute_report(op, out_dir)
    return _execute_mc(op)


def _execute_report(op: dict, out_dir: Path) -> Outcome:
    cli = sys.modules["tvelast.cli"]
    argv = op["argv"] + ["--out", str(out_dir)]
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # any crash is a failed op, not a failed benchmark
        seconds = time.perf_counter() - start
        return Outcome(seconds, error=_last_line(traceback.format_exc()))
    seconds = time.perf_counter() - start
    try:
        if code != 0:
            return Outcome(seconds, error=f"exit code {code}")
        missing = [f for f in reference.REPORT_FILES if not (out_dir / f).is_file()]
        if missing:
            return Outcome(seconds, error=f"missing outputs {missing}")
        with open(out_dir / "report.json", encoding="utf-8") as fh:
            fields = reference.extract_report(json.load(fh))
        return Outcome(seconds, fields=fields)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _execute_mc(op: dict) -> Outcome:
    simlab = sys.modules["tvelast.simlab"]
    dgp = getattr(simlab, op["dgp"])(**op["params"])
    start = time.perf_counter()
    try:
        summary = simlab.monte_carlo(op["estimator"], dgp, op["n_reps"], op["seed"])
    except Exception:
        seconds = time.perf_counter() - start
        return Outcome(seconds, error=_last_line(traceback.format_exc()))
    seconds = time.perf_counter() - start
    return Outcome(seconds, fields=reference.extract_summary(summary.to_dict()))


def check(op: dict, outcome: Outcome, expected: dict | None) -> str | None:
    """The reason the op failed, or None when it matches its reference."""
    if outcome.error is not None:
        return outcome.error
    n_failed = outcome.fields.get("n_failed", ["exact", 0])[1]
    if n_failed:
        return f"{n_failed} failed replications"
    if expected is None:
        return f"no reference for input {op['key']}"
    problems = reference.compare(outcome.fields, expected)
    if problems:
        more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
        return f"output differs from reference: {problems[0]}{more}"
    return None


def _last_line(text: str) -> str:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return lines[-1] if lines else "unknown error"
