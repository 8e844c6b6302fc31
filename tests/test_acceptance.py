"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line with the measured values (run with -s to see them all).

The data-conditional criterion activates when TVELAST_GHANA_CSV points to a
CSV of monthly CPI and M2+ levels covering 1970-01..2016-03; without it the
published headline numbers are not reproducible and that test is skipped.
"""

import math
import os

import numpy as np
import pytest

from tvelast import regress, sspace, unitroot
from tvelast.pipeline import PipelineConfig, run_pipeline
from tvelast.series import Dataset, MonthDate, parse_csv, window
from tvelast.simlab import (
    Ar1Dgp,
    BreakRegressionDgp,
    TvpDgp,
    UnitRootDgp,
    derive_seed,
    gen_tvp,
    monte_carlo,
)

import _oracles
from conftest import make_dataset, make_series

SEED = 20250809


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_exp_transform_anchors():
    params = sspace.VarianceParams(-4.136491, -1.025106)
    a, b = params.var_meas, params.var_state
    ok = abs(a - 0.015979) < 5e-7 and abs(b - 0.358758) < 5e-7
    _report(1, ok, f"exp(-4.136491)={a:.6f} (want 0.015979), "
                   f"exp(-1.025106)={b:.6f} (want 0.358758), tol 5e-7")


def test_criterion_02_critical_value_anchor():
    got = unitroot.critical_values(543, "constant+trend")
    want = (-3.975046, -3.418117, -3.13153)
    errs = [abs(g - w) for g, w in zip(got, want)]
    ok = all(e < 0.02 for e in errs)
    _report(2, ok, f"critical_values(543, ct)=({got[0]:.4f}, {got[1]:.4f}, {got[2]:.4f}), "
                   f"max |err|={max(errs):.4f}, tol 0.02")


def test_criterion_03_filter_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        t = int(rng.integers(2, 9))
        yv = rng.normal(0, 1, t)
        xv = rng.normal(0, 1, t)
        vm, vs = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0))
        model = sspace.TvpModel(make_series(yv, name="y"), make_series(xv, name="x"))
        out = sspace.kalman_filter(model, sspace.VarianceParams(math.log(vm), math.log(vs)))
        sm, sv = sspace.kalman_smoother(out)
        ll, fm, fv, sm_o, sv_o = _oracles.diffuse_state_space_oracle(yv, xv, vm, vs)
        worst = max(
            worst,
            abs(out.log_lik - ll),
            float(np.max(np.abs(np.asarray(out.filt_mean) - fm))),
            float(np.max(np.abs(np.asarray(out.filt_var) - fv))),
            float(np.max(np.abs(np.asarray(sm) - sm_o))),
            float(np.max(np.abs(np.asarray(sv) - sv_o))),
        )
    ok = worst < 1e-8
    _report(3, ok, f"100 diffuse-start instances T<=8, smoothed month 1 included: "
                   f"worst |KF - joint-Gaussian oracle| = {worst:.2e}, tol 1e-8")


def test_criterion_04_diffuse_limit_convergence():
    model, _ = gen_tvp(TvpDgp(T=120, sigma2_meas=0.5, sigma2_state=0.2, seed=3))
    params = sspace.VarianceParams(math.log(0.5), math.log(0.2))
    ref = sspace.kalman_filter(model, params)

    def partial_ll(v, f):
        v, f = np.asarray(v[1:]), np.asarray(f[1:])
        return float(-0.5 * np.sum(np.log(2 * np.pi) + np.log(f) + v * v / f))

    ref_mean = np.asarray(ref.filt_mean[1:])
    ref_var = np.asarray(ref.filt_var[1:])
    ref_ll = partial_ll(ref.innovations, ref.innov_var)
    devs = []
    for k in range(4, 11):
        # the proper-prior reference filter from N(0, 10^k), against the diffuse start
        fm, fv, v, f = _oracles.proper_prior_filter(model.y.values, model.x.values,
                                                    params.var_meas, params.var_state,
                                                    0.0, 10.0 ** k)
        devs.append(max(
            float(np.max(np.abs(np.asarray(fm[1:]) - ref_mean)
                         / np.maximum(np.abs(ref_mean), 1e-8))),
            float(np.max(np.abs(np.asarray(fv[1:]) - ref_var) / ref_var)),
            abs((partial_ll(v, f) - ref_ll) / ref_ll),
        ))
    monotone = all(b <= a for a, b in zip(devs, devs[1:]))
    ok = monotone and devs[-1] < 1e-6
    _report(4, ok, f"deviation from diffuse mode: K=1e4 -> {devs[0]:.2e}, K=1e10 -> {devs[-1]:.2e}, "
                   f"monotone={monotone}, final tol 1e-6")


@pytest.fixture(scope="module")
def mle_recovery_fits():
    truth = (math.log(0.016), math.log(0.359))
    fits, grads = [], []
    for r in range(200):
        dgp = TvpDgp(T=543, sigma2_meas=0.016, sigma2_state=0.359, seed=derive_seed(SEED, r))
        model, _ = gen_tvp(dgp)
        fit = sspace.fit_mle(model)
        grad = _oracles.central_gradient(
            lambda t: sspace.kalman_filter(model, sspace.VarianceParams(t[0], t[1])).log_lik,
            np.array([fit.params.log_var_meas, fit.params.log_var_state]),
        )
        fits.append(fit)
        grads.append(float(np.max(np.abs(grad))))
    return truth, fits, grads


def test_criterion_05_mle_recovery(mle_recovery_fits):
    truth, fits, _ = mle_recovery_fits
    est = np.array([[f.params.log_var_meas, f.params.log_var_state] for f in fits])
    ses = np.array([f.robust_se[:2] for f in fits])
    medians = np.median(est, axis=0)
    med_err = np.abs(medians - np.array([-4.135, -1.025]))
    covered = np.abs(est - np.array(truth)) <= 1.959963984540054 * ses
    coverage = covered.mean(axis=0)
    ok = (bool(np.all(med_err < 0.25))
          and bool(np.all((coverage >= 0.85) & (coverage <= 0.99))))
    _report(5, ok, f"medians=({medians[0]:.3f}, {medians[1]:.3f}) vs (-4.135, -1.025) tol 0.25; "
                   f"coverage95=({coverage[0]:.3f}, {coverage[1]:.3f}) in [0.85, 0.99]; "
                   f"200 replications, all converged={all(f.converged for f in fits)}")


def test_criterion_06_gradient_check_at_optima(mle_recovery_fits):
    _, fits, grads = mle_recovery_fits
    worst = max(g for f, g in zip(fits, grads) if f.converged)
    ok = worst < 1e-4
    _report(6, ok, f"worst finite-difference gradient inf-norm over "
                   f"{sum(f.converged for f in fits)} converged fits = {worst:.2e}, tol 1e-4")


def test_criterion_07_adf_size_and_power():
    size = monte_carlo("adf", UnitRootDgp(T=500), n_reps=500, seed=SEED).rejection_rate
    power = monte_carlo("adf", Ar1Dgp(T=500, phi=0.5), n_reps=500, seed=SEED + 1).rejection_rate
    ok = 0.03 <= size <= 0.07 and power >= 0.95
    _report(7, ok, f"random-walk size at 5% = {size:.3f} (want [0.03, 0.07]); "
                   f"AR(1) phi=0.5 power = {power:.3f} (want >= 0.95); 500 reps each")


def test_criterion_08_cusum_size_power_and_band():
    size = monte_carlo("cusum", BreakRegressionDgp(T=200), n_reps=500,
                       seed=SEED + 2).rejection_rate
    power = monte_carlo("cusum", BreakRegressionDgp(T=200, beta2=4.0), n_reps=200,
                        seed=SEED + 3).rejection_rate
    rng = np.random.default_rng(0)
    xv = rng.normal(1, 1, 101)
    res = regress.cusum(make_series(xv + rng.normal(0, 1, 101), name="y"),
                        make_series(xv, name="x"), significance=0.05)
    band_exact = res.band_hi[0] == 9.48 and res.band_lo[0] == -9.48
    ok = 0.02 <= size <= 0.08 and power >= 0.95 and band_exact
    _report(8, ok, f"stable flag rate = {size:.3f} (want [0.02, 0.08]); "
                   f"break detection = {power:.3f} over 200 reps (want >= 0.95); "
                   f"band at t=k, T-k=100 is +/-{res.band_hi[0]} (want exactly 9.48)")


def test_criterion_09_recursive_endpoint():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 200))
        xv = rng.normal(0, 1, n)
        yv = rng.normal(0, 1, n)
        path = regress.recursive_coefficients(make_series(yv, name="y"), make_series(xv, name="x"))
        full = regress.ols_no_intercept(make_series(yv, name="y"), make_series(xv, name="x"))
        worst = max(worst, abs(path.coefs[-1] - full.coef))
    ok = worst < 1e-10
    _report(9, ok, f"100 instances: worst |recursive endpoint - full OLS coef| = {worst:.2e}, tol 1e-10")


def test_criterion_10_ols_definitional_oracle():
    rng = np.random.default_rng(SEED + 5)
    worst_def = 0.0
    worst_scale = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 100))
        xv = rng.normal(0, 2, n)
        yv = 0.8 * xv + rng.normal(0, 1, n)
        res = regress.ols_no_intercept(make_series(yv, name="y"), make_series(xv, name="x"))
        ref = _oracles.ols_brute(yv, xv)
        worst_def = max(worst_def, *(abs(getattr(res, k) - ref[k])
                                     for k in ("coef", "ssr", "r2", "dw")))
        c = float(rng.uniform(0.5, 5.0))
        scaled = regress.ols_no_intercept(make_series(c * yv, name="y"), make_series(xv, name="x"))
        worst_scale = max(
            worst_scale,
            abs(scaled.coef - c * res.coef),
            abs(scaled.r2 - res.r2),
            abs(scaled.dw - res.dw),
            abs(scaled.t_stat - res.t_stat),
        )
    ok = worst_def < 1e-10 and worst_scale < 1e-10
    _report(10, ok, f"worst |stat - brute force| = {worst_def:.2e}; "
                    f"worst scale-equivariance violation = {worst_scale:.2e}; tol 1e-10")


def test_criterion_11_pipeline_determinism():
    data = make_dataset(n_months=240, seed=11)
    cfg = PipelineConfig(subsample_end_dates=(MonthDate(1983, 12), data.end))
    a = run_pipeline(data, cfg)
    b = run_pipeline(data, cfg)
    identical = a.to_json() == b.to_json()
    last = a.subsample_table[-1]
    headline_match = (last.final_state == a.mle.final_state
                      and last.final_rmse == a.mle.final_rmse
                      and last.z == a.mle.final_z
                      and last.p_value == a.mle.final_p)
    ok = identical and headline_match
    _report(11, ok, f"byte-identical reports: {identical}; "
                    f"full-span sub-sample row equals headline MLE exactly: {headline_match}")


GHANA_ENV = "TVELAST_GHANA_CSV"


@pytest.mark.skipif(GHANA_ENV not in os.environ,
                    reason=f"set {GHANA_ENV} to a CPI/M2+ levels CSV to enable")
def test_criterion_12_ghana_data_conditional():
    with open(os.environ[GHANA_ENV], "rb") as fh:
        raw = parse_csv(fh)
    # trim so the growth sample is exactly 1971M1..2016M3
    lo, hi = MonthDate(1970, 1), MonthDate(2016, 3)
    data = Dataset(window(raw.y_raw, lo, hi), window(raw.x_raw, lo, hi))
    cfg = PipelineConfig(subsample_end_dates=(MonthDate(2010, 12),))
    report = run_pipeline(data, cfg)

    coef_ok = abs(report.ols.coef - 0.775278) < 0.01
    # the published fit used fractional growth; ours is in percent, which
    # shifts the measurement log-variance by log(100^2) and nothing else
    lvm = report.mle.params.log_var_meas - math.log(1e4)
    lvs = report.mle.params.log_var_state
    logvar_ok = abs(lvm - (-4.136491)) < 0.05 and abs(lvs - (-1.025106)) < 0.05
    final_ok = abs(report.mle.final_state - 0.7334) < 0.05
    row_2010 = next(r for r in report.subsample_table
                    if r.sample_end == MonthDate(2010, 12))
    row_ok = abs(row_2010.final_state - 2.64) < 0.15
    ok = coef_ok and logvar_ok and final_ok and row_ok
    _report(12, ok, f"coef={report.ols.coef:.6f} (0.775278 +/-0.01); "
                    f"log-vars=({lvm:.4f}, {lvs:.4f}) vs (-4.1365, -1.0251) +/-0.05; "
                    f"final={report.mle.final_state:.4f} (0.7334 +/-0.05); "
                    f"2010:12 -> {row_2010.final_state:.2f} (2.64 +/-0.15)")
