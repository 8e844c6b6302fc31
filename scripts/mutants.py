#!/usr/bin/env python3
"""Mutation probe: does the test suite catch a broken formula?

    python3 scripts/mutants.py [--only NAME ...] [--tests FILE ...]

MUTANTS is a fixed table of one-line slips in formulas whose results the
report prints: (name, module, old text, new text, what it breaks). Each
changes a printed number; the one algebraic rewrite of the same value,
ols-r2-tss-cancels, changes it by cancellation.
The probe copies src/, tests/, scripts/, benchmark/ and pyproject.toml to a
temporary directory once. For each mutant it replaces the old text, which
must occur exactly once in src/tvelast/<module>.py, runs `pytest -x` on
tests/test_<module>.py and tests/test_acceptance.py there (or on the
--tests files instead), and restores the module. A failing run kills the
mutant; a passing run lets it survive.

Prints one line per mutant and a count. Exit 0 when every mutant is killed,
1 when any survives, 2 when a mutant does not apply or pytest could not run.
A mutant takes from a few seconds to about a minute, so the whole table
takes several minutes; --only picks mutants by name.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "benchmark", "pyproject.toml")
TIMEOUT_S = 1800

MUTANTS = (
    # the ML fit's summary statistics
    ("final-p-sqrt2", "sspace",
     "final_p=math.erfc(abs(final_z) / math.sqrt(2.0)),",
     "final_p=math.erfc(abs(final_z) / 2.0),",
     "final_p is not the two-sided normal tail of final_z"),
    ("mle-p-sqrt2", "sspace",
     "pvals = tuple(math.erfc(abs(zi) / math.sqrt(2.0)) for zi in z)",
     "pvals = tuple(math.erfc(abs(zi) / 2.0) for zi in z)",
     "the MLE p_values are not the two-sided normal tails of z_stats"),
    ("hessian-only-se", "sspace",
     "se = tuple(math.sqrt(math.fsum(map(mul, c, c))) / det for c in cols)",
     "se = (math.sqrt(-d / det), math.sqrt(-a / det))",
     "robust_se is the inverse Hessian, not the sandwich"),
    ("bound-margin-0", "sspace",
     "_BOUND_MARGIN = 1.0",
     "_BOUND_MARGIN = 0.0",
     "an estimate within 1 of the box bound is reported as converged"),
    ("mle-aic-penalty", "sspace",
     "aic=(-2.0 * ll + 2.0 * k) / n,",
     "aic=(-2.0 * ll + k) / n,",
     "the MLE AIC"),
    ("mle-sic-log", "sspace",
     "sic=(-2.0 * ll + k * math.log(n)) / n,",
     "sic=(-2.0 * ll + k * math.log(n - 1)) / n,",
     "the MLE Schwarz criterion"),
    ("mle-hq-loglog", "sspace",
     "hq=(-2.0 * ll + 2.0 * k * math.log(math.log(n))) / n,",
     "hq=(-2.0 * ll + 2.0 * k * math.log(n)) / n,",
     "the MLE Hannan-Quinn criterion"),
    ("forecast-rmse", "sspace",
     "forecast_rmse=math.sqrt(out.filt_var[-1] + params.var_state),",
     "forecast_rmse=math.sqrt(out.filt_var[-1]),",
     "the one-step forecast's root MSE leaves out the state variance"),
    ("final-z-var", "sspace",
     "final_z = final_state / final_rmse if final_rmse > 0 else math.inf",
     "final_z = final_state / out.filt_var[-1] if final_rmse > 0 else math.inf",
     "final_z divides by the variance, not the root MSE"),
    ("pass-count", "sspace",
     "n_filter_passes=n_evals + 3,",
     "n_filter_passes=n_evals + 2,",
     "n_filter_passes misses a pass"),
    ("hessian-cond-inverted", "sspace",
     "hessian_cond = largest / smallest if smallest != 0.0 else math.inf",
     "hessian_cond = smallest / largest if smallest != 0.0 else math.inf",
     "hessian_cond is the reciprocal of the condition number"),
    ("shock-scale", "sspace",
     "vals = tuple(v / math.sqrt(f) for v, f in zip(output.innovations, output.innov_var))",
     "vals = tuple(v / f for v, f in zip(output.innovations, output.innov_var))",
     "shocks are divided by F_t, not its square root"),
    # the smoother
    ("smoother-var-j", "sspace",
     "sv[t] = output.filt_var[t] + j * j * (sv[t + 1] - pp)",
     "sv[t] = output.filt_var[t] + j * (sv[t + 1] - pp)",
     "the smoothed variances use J_t, not J_t^2"),
    ("smoother-gain", "sspace",
     "j = output.filt_var[t] / pp if pp > 0.0 else 0.0",
     "j = output.filt_var[t + 1] / pp if pp > 0.0 else 0.0",
     "the smoother gain J_t = P_{t|t} / P_{t+1|t} takes the wrong filtered variance"),
    ("smoother-skips-month-1", "sspace",
     "for t in range(len(sm) - 2, -1, -1):",
     "for t in range(len(sm) - 2, 0, -1):",
     "the diffuse month's smoothed moments are its filtered ones"),
    ("smoother-mean-pred", "sspace",
     "sm[t] = output.filt_mean[t] + j * (sm[t + 1] - output.filt_mean[t])",
     "sm[t] = output.filt_mean[t] + j * (sm[t + 1] - output.filt_mean[t + 1])",
     "the smoothed means correct by the filtered, not the predicted, mean"),
    ("smoother-pred-var", "sspace",
     "pp = output.filt_var[t] + output.var_state",
     "pp = output.filt_var[t]",
     "the smoother's predicted variance leaves out the state variance"),
    # the one recursion and its diffuse start
    ("diffuse-p1", "sspace",
     "p = 1.0 / (x1 * x1) if x1 * x1 > 0.0 else math.inf",
     "p = 1.0 / abs(x1) if x1 * x1 > 0.0 else math.inf",
     "the diffuse P_1 is 1 / |x_1|, not 1 / x_1^2"),
    ("diffuse-a1", "sspace",
     "a = yv[0] / x1",
     "a = yv[0] * x1",
     "the diffuse a_1 multiplies by x_1"),
    ("p-pred-step", "sspace",
     "p_pred = p + q",
     "p_pred = p",
     "the predicted variance leaves out the state variance"),
    ("filt-var-update", "sspace",
     "p = p_pred / f",
     "p = p_pred * (xp * xt / f)",
     "the filtered variance is K x P_pred, not (1 - K x) P_pred"),
    ("filter-gain-x", "sspace",
     "a += xp * g",
     "a += p_pred * g",
     "the Kalman gain leaves out x_t"),
    ("innovation-x", "sspace",
     "v = yt - xt * a",
     "v = yt - a",
     "the innovation leaves out x_t"),
    ("likelihood-terms", "sspace",
     "return sum_log_f + log(prod), sum_v2_f, len(yv) - DIFFUSE_MONTHS",
     "return sum_log_f + log(prod), sum_v2_f, len(yv)",
     "the diffuse month is counted as a likelihood term"),
    ("log-f-flush-drops-prod", "sspace",
     "sum_log_f += log(prod) + log(f)",
     "sum_log_f += log(f)",
     "a flush of the running product of F_t drops the product's log"),
    ("log-f-never-flushes", "sspace",
     "if nxt < hi:",
     "if True:",
     "the running product of F_t is never flushed, so it overflows"),
    ("log-f-drops-last-prod", "sspace",
     "return sum_log_f + log(prod), sum_v2_f, len(yv) - DIFFUSE_MONTHS",
     "return sum_log_f, sum_v2_f, len(yv) - DIFFUSE_MONTHS",
     "the sum of log F_t drops the F_t since the last flush"),
    # the scaling of the unit pass to the measurement variance
    ("loglik-drops-n-log-var-meas", "sspace",
     "(sum_log_f + n * log_var_meas)",
     "sum_log_f",
     "the log-likelihood leaves out n log var_meas of the scaled sum log F_t"),
    ("filt-var-unscaled", "sspace",
     "fv = tuple([p * var_meas for p in fv])",
     "fv = tuple(fv)",
     "kalman_filter's filtered variances stay at unit scale"),
    ("innov-var-unscaled", "sspace",
     "innov_var=tuple([f * var_meas for f in ivv])",
     "innov_var=tuple(ivv)",
     "kalman_filter's innovation variances stay at unit scale"),
    ("stencil-f-unscaled", "sspace",
     "(vp * vp / fp - vm * vm / fm) / var_meas",
     "(vp * vp / fp - vm * vm / fm)",
     "the stencil's per-observation scores take unit-scale F_t"),
    ("fit-min-len", "sspace",
     "if len(model) < 3:",
     "if len(model) <= 3:",
     "the ML fit refuses its 3-observation minimum"),
    ("sigma2-hat-n", "sspace",
     "log_s2 = math.log(sum_v2_f / n) if sum_v2_f > 0.0 else -math.inf",
     "log_s2 = math.log(sum_v2_f / (n + 1)) if sum_v2_f > 0.0 else -math.inf",
     "the concentrated measurement variance divides by T, not T - 1"),
    # OLS, CUSUM and the recursive path
    ("ols-loglik-plus-1", "regress",
     "math.log(ssr / n) + 1.0)",
     "math.log(ssr / n))",
     "the OLS log-likelihood, AIC, SIC and HQ leave out the +1"),
    ("ols-dw-tss", "regress",
     "for a, b in zip(resid, resid[1:])) / ssr",
     "for a, b in zip(resid, resid[1:])) / tss",
     "Durbin-Watson divides by the total, not the residual, sum of squares"),
    ("ols-r2-s2", "regress",
     "r2 = 1.0 - ssr / tss if tss > 0 else 0.0",
     "r2 = 1.0 - s2 / tss if tss > 0 else 0.0",
     "R^2 takes the residual variance, not the SSR"),
    ("ols-adj-r2-n", "regress",
     "adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / df",
     "adj_r2 = 1.0 - (1.0 - r2) * n / df",
     "adjusted R^2 scales by n, not n - 1"),
    ("cusum-sigma-ddof", "regress",
     "for v in w) / (n - 1))",
     "for v in w) / n)",
     "the CUSUM scale divides by T - k, not T - k - 1"),
    ("cusum-1pct-constant", "regress",
     "0.01: 1.143,",
     "0.01: 2.143,",
     "the 1% CUSUM band constant does not solve the crossing probability"),
    ("cusum-zero-sigma", "regress",
     "if sigma_w > 0 else",
     "if sigma_w >= 0 else",
     "an exact fit's CUSUM statistic is 0 / 0"),
    ("ols-r2-tss-cancels", "regress",
     "tss = math.fsum((v - ybar) * (v - ybar) for v in yv)",
     "tss = math.fsum((v + ybar) * (v - ybar) for v in yv)",
     "R^2's total sum of squares cancels sum(y^2) against n * mean^2"),
    ("recursive-min-len", "regress",
     "_check_pair(y, x, min_len=N_REGRESSORS + 1)",
     "_check_pair(y, x, min_len=N_REGRESSORS + 2)",
     "the recursive path refuses its 2-observation minimum"),
    ("cusum-band-slope", "regress",
     "band_hi = [a * (sqrt_n + 2.0 * i / sqrt_n) for i in range(n + 1)]",
     "band_hi = [a * (sqrt_n + i / sqrt_n) for i in range(n + 1)]",
     "the CUSUM band grows at half its slope"),
    ("recursive-band-width", "regress",
     "bands_lo.append(bt - 2.0 * se)",
     "bands_lo.append(bt - se)",
     "the recursive lower band is 1 s.e., not 2"),
    ("recursive-band-dof", "regress",
     "se = math.sqrt(ssr / (t - N_REGRESSORS) * pt)",
     "se = math.sqrt(ssr / t * pt)",
     "the recursive s.e. divides by t, not t - k"),
    ("recursive-text-final", "regress",
     "final {self.coefs[-1]:.6f}",
     "final {self.coefs[-2]:.6f}",
     "the recursive path's text reports the second-to-last estimate as the final one"),
    # ADF
    ("adf-stars-1pct", "unitroot",
     'if self.reject_at == 0.01:\n            return "***"',
     'if self.reject_at == 0.01:\n            return "**"',
     "a 1% rejection prints two stars"),
    ("adf-pvalue-scale", "unitroot",
     "z = z_grid[i] + slope * (statistic - q[i])",
     "z = 1.01 * (z_grid[i] + slope * (statistic - q[i]))",
     "the ADF p-value's normal quantile is 1% too large"),
    ("adf-t-sign", "unitroot",
     "math.copysign(1.0, r_ll) * r_ly",
     "r_ly",
     "the ADF t-ratio drops the sign of R_ll, so its sign follows the QR's"),
    ("adf-t-dof", "unitroot",
     "math.sqrt(n_used - k)",
     "math.sqrt(n_used - k + 1)",
     "the ADF t-ratio's residual variance divides by n - k + 1, not n - k"),
    ("adf-lag-rule", "unitroot",
     "return int(math.floor(12.0 * (t / 100.0) ** 0.25))",
     "return int(math.floor(4.0 * (t / 100.0) ** 0.25))",
     "the default lag cap is Schwert's l4, not l12"),
    # decades
    ("decade-boundary", "series",
     "decade = (first + lo) // 120 * 10",
     "decade = (first + lo + 1) // 120 * 10",
     "each decade starts one month early"),
    ("decade-mean", "series",
     "mean=math.fsum(s.values[lo:hi]) / (hi - lo),",
     "mean=math.fsum(s.values[lo:hi]) / (hi - lo + 1),",
     "the decade mean divides by one month too many"),
    # the report's sub-sample table and shocks
    ("subsample-z-sign", "pipeline",
     "z=fit.final_z, p_value=fit.final_p,",
     "z=-fit.final_z, p_value=fit.final_p,",
     "a sub-sample row's z has the wrong sign"),
    ("subsample-failed-p", "pipeline",
     "z=math.nan, p_value=math.nan, converged=False)",
     "z=math.nan, p_value=1.0, converged=False)",
     "a row whose fit raised prints p 1.0 beside a nan state"),
    ("pred-mean-shift", "pipeline",
     'onestep = ("0.0", *filtered[:-1])',
     'onestep = ("0.0", *filtered[1:])',
     "fig5's one-step means are the next month's filtered means"),
    ("shock-burn-in-flag", "pipeline",
     "(int(i < sspace.DIFFUSE_MONTHS) for i in range(n))",
     "(int(i <= sspace.DIFFUSE_MONTHS) for i in range(n))",
     "fig8 flags a month after the diffuse one as burn-in"),
    # report.json's writer
    ("cusum-keeps-bands", "pipeline",
     '_entry(c, drop=("band_lo", "band_hi"))',
     "_entry(c)",
     "report.json's cusum section writes the bands that its other entries fix"),
    ("month-not-text", "pipeline",
     "str(v) if isinstance(v := getattr(section, f.name), MonthDate) else v",
     "v if isinstance(v := getattr(section, f.name), MonthDate) else v",
     "a month in report.json is not written as its YYYY-MM text"),
    ("mle-params-flat", "pipeline",
     '**_entry(m, drop=("filter_output",)), "params": _entry(m.params)}',
     '**_entry(m, drop=("filter_output", "params")), **_entry(m.params)}',
     "mle.params' log-variances sit at the top of the mle section"),
    # the simulation stream
    ("stream-counter-0", "simlab",
     "np.arange(1, n + 1, dtype=_U64)",
     "np.arange(0, n, dtype=_U64)",
     "the stream starts at output 0, not 1"),
    ("box-muller-sin", "simlab",
     "r * np.sin(theta)",
     "r * np.cos(theta)",
     "each pair's second normal is its first again"),
    # Monte Carlo summaries
    ("mc-median-even", "simlab",
     "median[name] = srt[mid] if len(srt) % 2 else (srt[mid - 1] + srt[mid]) / 2",
     "median[name] = srt[mid] if len(srt) % 2 else srt[mid]",
     "an even count's median is the upper middle value, not the mean of the two"),
)


def module_path(root: Path, module: str) -> Path:
    return root / "src" / "tvelast" / f"{module}.py"


def check_applies(root: Path) -> list[str]:
    """Problems with the table: a name used twice, a new text equal to the
    old, or an old text that does not occur exactly once in its module."""
    problems, seen = [], set()
    for name, module, old, new, _ in MUTANTS:
        if name in seen:
            problems.append(f"{name}: name used twice")
        seen.add(name)
        if old == new:
            problems.append(f"{name}: the new text is the old text")
        count = module_path(root, module).read_text(encoding="utf-8").count(old)
        if count != 1:
            problems.append(f"{name}: old text occurs {count} times in {module}.py")
    return problems


def run_one(work: Path, mutant, tests: list[str] | None) -> tuple[str, float]:
    """Apply one mutant in the copy at work, run pytest, restore the module;
    returns (killed | survived | error, seconds)."""
    _, module, old, new, _ = mutant
    path = module_path(work, module)
    original = path.read_text(encoding="utf-8")
    path.write_text(original.replace(old, new, 1), encoding="utf-8")
    files = tests or [f"tests/test_{module}.py", "tests/test_acceptance.py"]
    # the copy's own src/ (pyproject's pythonpath) is the only tvelast on the path
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # no stale bytecode between mutants of one module
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files],
            cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = 1  # a suite that hangs on the mutant has caught it
    finally:
        path.write_text(original, encoding="utf-8")
    verdict = {0: "survived", 1: "killed"}.get(code, "error")
    return verdict, time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", action="append", metavar="NAME",
                    help="run only this mutant (repeatable)")
    ap.add_argument("--tests", action="append", metavar="FILE",
                    help="run these test files, relative to the repository root, instead of "
                         "the module's own and test_acceptance.py (repeatable)")
    args = ap.parse_args(argv)
    names = {m[0] for m in MUTANTS}
    unknown = sorted(set(args.only or ()) - names)
    if unknown:
        ap.error(f"unknown mutant(s) {unknown}; know {sorted(names)}")
    problems = check_applies(ROOT)
    if problems:
        print("\n".join(problems))
        return 2
    chosen = [m for m in MUTANTS if not args.only or m[0] in args.only]
    verdicts = []
    with tempfile.TemporaryDirectory(prefix="tvelast-mutants-") as tmp:
        work = Path(tmp)
        for item in COPIED:
            src = ROOT / item
            if src.is_dir():
                shutil.copytree(src, work / item, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(src, work / item)
        for mutant in chosen:
            verdict, seconds = run_one(work, mutant, args.tests)
            verdicts.append(verdict)
            print(f"{verdict:8} {seconds:6.1f}s  {mutant[0]:22} {mutant[1]}: {mutant[4]}",
                  flush=True)
    survived, errors = verdicts.count("survived"), verdicts.count("error")
    print(f"{len(verdicts)} mutants: {verdicts.count('killed')} killed, {survived} survived, "
          f"{errors} errors")
    return 2 if errors else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
