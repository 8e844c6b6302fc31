import dataclasses
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps  # oracle only: the package must not import scipy.stats

from tvelast.errors import DegenerateRegressor, LengthMismatch
from tvelast.pipeline import PipelineConfig, Report, run_pipeline
from tvelast.regress import (
    CUSUM_BAND_CONSTANTS,
    _t_two_sided_tail,
    cusum,
    ols_no_intercept,
    recursive_coefficients,
    recursive_residuals,
)
from tvelast.series import MonthDate, parse_csv

import _oracles
from conftest import make_dataset, make_series, pool_csv


def _pair(yv, xv):
    return make_series(yv, name="y"), make_series(xv, name="x")


class TestOls:
    def test_perfect_fit(self, rng):
        xv = rng.normal(0, 1, 30)
        y, x = _pair(2.0 * xv, xv)
        res = ols_no_intercept(y, x)
        assert res.coef == pytest.approx(2.0, abs=1e-12)
        assert res.r2 == pytest.approx(1.0, abs=1e-12)
        assert res.ssr == pytest.approx(0.0, abs=1e-18)

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(20):
            xv = rng.normal(0, 2, 20)
            yv = 0.7 * xv + rng.normal(0, 1, 20)
            res = ols_no_intercept(*_pair(yv, xv))
            ref = _oracles.ols_brute(yv, xv)
            for key in ("coef", "ssr", "r2", "dw", "se_regression", "std_err"):
                assert getattr(res, key) == pytest.approx(ref[key], abs=1e-10), key

    def test_summary_identities(self, rng):
        xv = rng.normal(0, 1, 80)
        yv = 1.5 * xv + rng.normal(0, 0.5, 80)
        res = ols_no_intercept(*_pair(yv, xv))
        assert res.t_stat == pytest.approx(res.coef / res.std_err, rel=1e-12)
        assert 0.0 <= res.r2 <= 1.0
        assert res.adj_r2 == pytest.approx(res.r2, rel=1e-12)  # k = 1, no intercept
        assert 0.0 <= res.dw <= 4.0
        assert res.n_obs == 80
        assert 0.0 <= res.p_value <= 1.0

    def test_information_criteria_convention(self, rng):
        # per-observation convention: aic = (-2*loglik + 2k)/n with k = 1
        xv = rng.normal(0, 1, 60)
        yv = xv + rng.normal(0, 1, 60)
        res = ols_no_intercept(*_pair(yv, xv))
        n = 60
        assert res.aic == pytest.approx((-2 * res.log_lik + 2) / n, rel=1e-12)
        assert res.sic == pytest.approx((-2 * res.log_lik + math.log(n)) / n, rel=1e-12)
        assert res.hq == pytest.approx((-2 * res.log_lik + 2 * math.log(math.log(n))) / n, rel=1e-12)

    def test_log_likelihood_is_the_gaussian_at_the_ml_variance(self, rng):
        # the concentrated Gaussian log-likelihood: residuals scored at sigma^2 = SSR / n
        xv = rng.normal(0, 1, 60)
        yv = 0.4 * xv + rng.normal(0, 0.7, 60)
        res = ols_no_intercept(*_pair(yv, xv))
        n = 60
        resid = yv - res.coef * xv
        ll = float(sps.norm.logpdf(resid, scale=math.sqrt(float(resid @ resid) / n)).sum())
        assert res.log_lik == pytest.approx(ll, rel=1e-12)
        assert res.aic == pytest.approx((-2 * ll + 2) / n, rel=1e-12)
        assert res.sic == pytest.approx((-2 * ll + math.log(n)) / n, rel=1e-12)
        assert res.hq == pytest.approx((-2 * ll + 2 * math.log(math.log(n))) / n, rel=1e-12)

    def test_exact_fit_t_stat_carries_the_slope_sign(self):
        xv = [1.0, -2.0, 3.0, 0.5]
        for slope in (-2.0, 2.0):
            res = ols_no_intercept(*_pair([slope * v for v in xv], xv))
            assert res.coef == slope
            assert res.std_err == 0.0
            assert res.t_stat == math.copysign(math.inf, slope)
            assert res.p_value == 0.0

    def test_all_zero_y_is_not_significant(self):
        res = ols_no_intercept(*_pair([0.0, 0.0, 0.0, 0.0], [1.0, -2.0, 3.0, 0.5]))
        assert res.coef == 0.0
        assert math.isnan(res.t_stat)
        assert math.isnan(res.p_value)

    @pytest.mark.parametrize("slope", [-2.0, 0.0])  # an exact fit, an all-zero y
    def test_durbin_watson_undefined_without_residuals(self, slope):
        xv = [1.0, -2.0, 3.0, 0.5]
        res = ols_no_intercept(*_pair([slope * v for v in xv], xv))
        assert res.ssr == 0.0
        assert math.isnan(res.dw)

    def test_r2_stays_accurate_when_the_mean_of_y_dwarfs_its_spread(self, rng):
        # R^2 centres y itself: sum(y^2) - n * mean^2, the same value in exact
        # arithmetic, cancels away most digits of a y whose mean is 1e6
        xv = rng.normal(1e6, 1.0, 50)
        yv = xv + rng.normal(0.0, 1.0, 50)
        res = ols_no_intercept(*_pair(yv, xv))
        assert res.r2 == pytest.approx(_oracles.ols_brute(yv, xv)["r2"], rel=1e-9)

    def test_degenerate_regressor(self):
        y, x = _pair([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        with pytest.raises(DegenerateRegressor):
            ols_no_intercept(y, x)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ols_no_intercept(make_series([1.0, 2.0]), make_series([1.0, 2.0, 3.0]))

    def test_scale_equivariance_in_y(self, rng):
        xv = rng.normal(0, 1, 50)
        yv = 0.4 * xv + rng.normal(0, 1, 50)
        base = ols_no_intercept(*_pair(yv, xv))
        scaled = ols_no_intercept(*_pair(3.7 * yv, xv))
        assert scaled.coef == pytest.approx(3.7 * base.coef, abs=1e-10)
        assert scaled.se_regression == pytest.approx(3.7 * base.se_regression, abs=1e-10)
        for key in ("r2", "dw", "t_stat"):
            assert getattr(scaled, key) == pytest.approx(getattr(base, key), abs=1e-10)

    def test_scale_equivariance_in_x(self, rng):
        xv = rng.normal(0, 1, 50)
        yv = 0.4 * xv + rng.normal(0, 1, 50)
        base = ols_no_intercept(*_pair(yv, xv))
        scaled = ols_no_intercept(*_pair(yv, -2.5 * xv))
        assert scaled.coef == pytest.approx(base.coef / -2.5, abs=1e-10)
        for key in ("r2", "dw", "ssr", "se_regression"):
            assert getattr(scaled, key) == pytest.approx(getattr(base, key), abs=1e-10)

    def test_json_roundtrip(self, rng):
        import json
        xv = rng.normal(0, 1, 20)
        res = ols_no_intercept(*_pair(xv * 2, xv))
        assert json.loads(Report(ols=res).to_json())["ols"]["coef"] == res.coef
        assert "Durbin-Watson" in res.to_text()


class TestRecursiveResiduals:
    def test_zero_noise_exact_beta(self, rng):
        xv = rng.normal(1, 1, 40)
        w = recursive_residuals(*_pair(5.0 * xv, xv))
        np.testing.assert_allclose(w.values, 0.0, atol=1e-12)

    def test_matches_sequential_ols_oracle(self, rng):
        yv = rng.normal(0, 1, 5)
        xv = rng.normal(1, 1, 5)
        w = recursive_residuals(*_pair(yv, xv))
        ref = _oracles.recursive_residuals_brute(yv, xv)
        np.testing.assert_allclose(w.values, ref, atol=1e-12)

    def test_dating(self, rng):
        y, x = _pair(rng.normal(0, 1, 10), rng.normal(1, 1, 10))
        w = recursive_residuals(y, x)
        assert len(w) == 9
        assert w.start == y.start.plus(1)

    def test_variance_calibration(self):
        # under the stable DGP the standardized errors have variance sigma^2
        gen = np.random.default_rng(7)
        sigma = 1.7
        xv = gen.normal(1.0, 1.0, 1000)
        yv = 2.0 * xv + gen.normal(0.0, sigma, 1000)
        w = recursive_residuals(*_pair(yv, xv))
        assert np.var(w.values) == pytest.approx(sigma ** 2, rel=0.15)

    def test_zero_first_regressor(self):
        # 1e-170 squares to zero, so the recursion cannot start from it either
        for x1 in (0.0, 1e-170):
            pair = _pair([1.0, 2.0, 3.0], [x1, 1.0, 1.0])
            for fn in (recursive_residuals, recursive_coefficients, cusum):
                with pytest.raises(DegenerateRegressor):
                    fn(*pair)


class TestRecursiveCoefficients:
    def test_text_reports_the_full_sample_estimate_and_band(self):
        # y = (1, 3, 2), x = (1, 2, 1): beta = 9/6 and SSR = 14 - 81/6 = 1/2,
        # so the s.e. is sqrt(1/2 / 2 / 6) and the band 1.5 -/+ 2 sqrt(1/24)
        path = recursive_coefficients(*_pair([1.0, 3.0, 2.0], [1.0, 2.0, 1.0]))
        assert path.to_text() == ("recursive coefficients over 2 expanding samples; "
                                  "final 1.500000 [1.091752, 1.908248]")

    @pytest.mark.parametrize("noise", [1e-6, 1e-9])
    def test_near_exact_fit_keeps_its_bands(self, noise):
        # y = 2x + noise: SSR_t is a sum of squared recursive residuals, not
        # S_yy - beta S_xy, which cancels all but the noise's last few digits
        gen = np.random.default_rng(17)
        xv = gen.normal(0.0, 1.0, 200)
        yv = 2.0 * xv + noise * gen.normal(0.0, 1.0, 200)
        path = recursive_coefficients(*_pair(yv, xv))
        for i, (lo, hi) in enumerate(zip(path.bands_lo, path.bands_hi)):
            se = (hi - lo) / 4.0
            assert se > 0.0
            assert se == pytest.approx(_oracles.ols_brute(yv[:i + 2], xv[:i + 2])["std_err"],
                                       rel=1e-5)

    def test_two_observations_give_one_estimate(self):
        # the minimum: k + 1 = 2 observations leave one residual degree of freedom
        yv, xv = [1.0, 3.0], [1.0, 2.0]
        path = recursive_coefficients(*_pair(yv, xv))
        full = ols_no_intercept(*_pair(yv, xv))
        assert path.start_index == 2
        assert path.coefs == (full.coef,)
        assert path.bands_lo[0] == pytest.approx(full.coef - 2.0 * full.std_err, rel=1e-12)
        assert path.bands_hi[0] == pytest.approx(full.coef + 2.0 * full.std_err, rel=1e-12)
        with pytest.raises(LengthMismatch):
            recursive_coefficients(*_pair(yv[:1], xv[:1]))

    def test_noiseless_flat_path(self, rng):
        xv = rng.normal(0.5, 1, 30)
        path = recursive_coefficients(*_pair(3.0 * xv, xv))
        np.testing.assert_allclose(path.coefs, 3.0, atol=1e-10)

    def test_endpoint_equals_full_sample(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 120))
            xv = rng.normal(0, 1, n)
            yv = rng.normal(0, 1, n)
            path = recursive_coefficients(*_pair(yv, xv))
            full = ols_no_intercept(*_pair(yv, xv))
            assert path.coefs[-1] == pytest.approx(full.coef, abs=1e-10)

    def test_bands_contain_estimate(self, rng):
        xv = rng.normal(0, 1, 60)
        yv = xv + rng.normal(0, 1, 60)
        path = recursive_coefficients(*_pair(yv, xv))
        for lo, c, hi in zip(path.bands_lo, path.coefs, path.bands_hi):
            assert lo <= c <= hi

    def test_break_moves_path_between_regimes(self):
        # beta jumps 1 -> 5 at midpoint with no noise: the expanding-sample
        # estimate climbs monotonically toward a value between the regimes
        gen = np.random.default_rng(3)
        n = 100
        xv = gen.normal(1.0, 0.3, n)
        beta = np.where(np.arange(n) < n // 2, 1.0, 5.0)
        path = recursive_coefficients(*_pair(beta * xv, xv))
        post_break = path.coefs[n // 2:]
        assert all(b >= a for a, b in zip(post_break, post_break[1:]))
        assert 1.0 < path.coefs[-1] < 5.0


class TestCusum:
    def test_band_anchor_at_t_equals_k(self, rng):
        # T - k = 100: the 5% band starts at exactly 0.948 * 10
        xv = rng.normal(1, 1, 101)
        yv = xv + rng.normal(0, 1, 101)
        res = cusum(*_pair(yv, xv), significance=0.05)
        assert res.band_hi[0] == 9.48
        assert res.band_lo[0] == -9.48

    @pytest.mark.parametrize("significance", sorted(CUSUM_BAND_CONSTANTS))
    def test_band_constant_solves_the_crossing_probability(self, rng, significance):
        # Brown, Durbin & Evans (1975): the band constant a solves
        # Q(3a) + exp(-4a^2) (1 - Q(a)) = significance / 2, Q the normal upper
        # tail; the published constants are its roots to three decimals
        def upper_tail(z):
            return 0.5 * math.erfc(z / math.sqrt(2.0))

        lo, hi = 0.5, 2.0  # the left side falls from above 0.05 to below 0.005
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            crossing = upper_tail(3.0 * mid) + math.exp(-4.0 * mid * mid) * (1.0 - upper_tail(mid))
            lo, hi = (mid, hi) if crossing > significance / 2.0 else (lo, mid)
        xv = rng.normal(1, 1, 101)
        res = cusum(*_pair(xv + rng.normal(0, 1, 101), xv), significance=significance)
        assert res.band_hi[0] / 10.0 == pytest.approx(round(lo, 3), abs=1e-12)  # sqrt(T - k) = 10

    def test_exact_fit_has_a_zero_statistic_and_is_stable(self):
        # every recursive residual is exactly 0, so sigma_w is 0 and the
        # statistic stays at 0 rather than 0 / 0
        xv = [1.0, 2.0, 3.0, 4.0, 5.0]
        res = cusum(*_pair([2.0 * v for v in xv], xv))
        assert res.sigma_w == 0.0
        assert res.statistic == (0.0,) * 5
        assert res.stable and res.first_crossing is None

    def test_bands_symmetric_and_affine(self, rng):
        xv = rng.normal(1, 1, 80)
        yv = xv + rng.normal(0, 1, 80)
        res = cusum(*_pair(yv, xv))
        n = len(res.band_hi) - 1
        a = CUSUM_BAND_CONSTANTS[0.05]
        for i, (lo, hi) in enumerate(zip(res.band_lo, res.band_hi)):
            assert lo == -hi
            assert hi == pytest.approx(a * (math.sqrt(n) + 2 * i / math.sqrt(n)), rel=1e-12)

    def test_stable_iff_no_crossing(self, rng):
        xv = rng.normal(1, 1, 150)
        yv = 2 * xv + rng.normal(0, 1, 150)
        res = cusum(*_pair(yv, xv))
        assert res.stable == (res.first_crossing is None)

    def test_big_break_detected_with_date(self):
        gen = np.random.default_rng(11)
        n = 120
        xv = gen.normal(1.5, 0.5, n)
        beta = np.where(np.arange(n) < n // 2, 1.0, 4.0)
        yv = beta * xv + gen.normal(0, 0.5, n)
        y, x = _pair(yv, xv)
        res = cusum(y, x)
        assert not res.stable
        assert isinstance(res.first_crossing, MonthDate)
        assert res.first_crossing >= y.start.plus(n // 2 - 1)

    def test_statistic_scale_invariant(self, rng):
        xv = rng.normal(1, 1, 90)
        yv = xv + rng.normal(0, 1, 90)
        base = cusum(*_pair(yv, xv))
        scaled = cusum(*_pair(7.0 * yv, xv))
        np.testing.assert_allclose(scaled.statistic, base.statistic, atol=1e-10)

    def test_scale_is_the_sample_sd_of_the_recursive_residuals(self, rng):
        # Brown, Durbin & Evans (1975): W_t divides by the standard deviation of
        # the w_t with denominator T - k - 1
        xv = rng.normal(1, 1, 50)
        yv = xv + rng.normal(0, 1, 50)
        res = cusum(*_pair(yv, xv))
        w = _oracles.recursive_residuals_brute(yv, xv)
        mean = math.fsum(w) / len(w)
        sd = math.sqrt(math.fsum((v - mean) ** 2 for v in w) / (len(w) - 1))
        assert res.sigma_w == pytest.approx(sd, rel=1e-10)
        np.testing.assert_allclose(res.statistic[1:], np.cumsum(w) / sd, rtol=1e-9)

    def test_unsupported_significance(self, rng):
        y, x = _pair(rng.normal(0, 1, 30), rng.normal(1, 1, 30))
        with pytest.raises(ValueError):
            cusum(y, x, significance=0.025)


_EPS = 2.0 ** -52
# Worst errors against the 200-bit oracle, in eps times each quantity's data
# scale, over these three inputs and report-555 pool inputs 0-9, and the
# budget the test holds each to:
#   quantity      scale                          worst   budget
#   w             ||y||                          0.52      4
#   beta_t        sqrt(S_yy,t / S_xx,t)          4.5      16
#   half-width    |half-width|                   9.7      32
#   statistic     sqrt(T - 1)                    30       64
# A half-width taken from S_yy - beta S_xy cancels: that route's worst was
# 281 eps on the pool, and 193 on the pool input below.
_BUDGETS = {"w": 4.0, "beta": 16.0, "half": 32.0, "statistic": 64.0}


@pytest.mark.parametrize("source", ["make_dataset-72", "make_dataset-132", "pool-1"])
def test_stability_paths_meet_their_budgets_against_200_bits(source):
    if source == "pool-1":
        data = parse_csv(pool_csv(1))  # a report-555 input, T = 543
    else:
        data = make_dataset(n_months=int(source.rsplit("-", 1)[1]), seed=3)  # T = 60, 120
    report = run_pipeline(data, PipelineConfig(), "stability")
    y, x = report.demeaned_y, report.demeaned_x
    w = recursive_residuals(y, x).values
    path, stat = report.recursive, report.cusum.statistic[1:]
    w_ex, beta_ex, half_ex, stat_ex = _oracles.recursive_path_exact(y.values, x.values)
    with mpmath.workprec(200):
        mp = mpmath.mpf
        y_norm = mpmath.sqrt(mpmath.fsum(mp(v) ** 2 for v in y.values))
        syy = [mp(v) ** 2 for v in y.values]
        sxx = [mp(v) ** 2 for v in x.values]
        for t in range(1, len(syy)):
            syy[t] += syy[t - 1]
            sxx[t] += sxx[t - 1]
        errors = {
            "w": max(abs(mp(a) - b) / y_norm for a, b in zip(w, w_ex)),
            "beta": max(abs(mp(a) - b) / mpmath.sqrt(sy / sx)
                        for a, b, sy, sx in zip(path.coefs, beta_ex, syy[1:], sxx[1:])),
            "half": max(abs((mp(hi) - mp(lo)) / 2 - h) / h
                        for lo, hi, h in zip(path.bands_lo, path.bands_hi, half_ex)),
            "statistic": max(abs(mp(a) - b) for a, b in zip(stat, stat_ex)) / mpmath.sqrt(len(w)),
        }
    over = {k: float(e) / _EPS for k, e in errors.items() if e > _BUDGETS[k] * _EPS}
    assert not over, f"errors in eps x scale over their budgets {_BUDGETS}: {over}"


# Worst relative errors of ols_no_intercept against the 200-bit oracle, in
# eps (r2 and adj_r2: absolute, in eps), on this test's three inputs and
# over report-555 pool inputs 0-23, and the budget, the first power of 2 at
# least twice the worst of the four columns (margin: budget / that worst):
#   field           T=60  T=120  pool 1  pool 0-23   budget  margin
#   coef            0.03   0.20    0.19    0.87         2     2.3
#   std_err         0.02   0.08    0.24    0.66         2     3.0
#   t_stat          0.37   0.45    0.05    0.98         2     2.0
#   p_value         22.7  172.9   383.3   817.2      2048     2.5
#   r2, adj_r2      0.21   0.26    0.37    0.55         2     3.6
#   se_regression   0.02   0.34    0.51    0.51         2     3.9
#   ssr             0.14   0.27    0.47    0.48         1     2.1
#   log_lik         0.03   0.93    0.69    0.78         2     2.2
#   aic             0.31   0.67    0.56    0.72         2     2.8
#   sic             0.57   0.46    1.00    1.14         4     3.5
#   hq              0.32   1.27    0.24    0.52         4     3.1
#   dw              0.27   0.78    0.46    0.95         2     2.1
# The p-value's error is the incomplete beta's and grows with t (pool t is
# 10-40).
_OLS_BUDGETS = {"coef": 2.0, "std_err": 2.0, "t_stat": 2.0, "p_value": 2048.0, "r2": 2.0,
                "adj_r2": 2.0, "se_regression": 2.0, "ssr": 1.0, "log_lik": 2.0, "aic": 2.0,
                "sic": 4.0, "hq": 4.0, "dw": 2.0}


@pytest.mark.parametrize("source", ["make_dataset-72", "make_dataset-132", "pool-1"])
def test_ols_fields_meet_their_budgets_against_200_bits(source):
    if source == "pool-1":
        data = parse_csv(pool_csv(1))  # a report-555 input, T = 543
    else:
        data = make_dataset(n_months=int(source.rsplit("-", 1)[1]), seed=3)  # T = 60, 120
    report = run_pipeline(data, PipelineConfig(), "ols")
    exact = _oracles.ols_exact(report.demeaned_y.values, report.demeaned_x.values)
    assert set(exact) == {f.name for f in dataclasses.fields(report.ols)} - {"n_obs"}
    with mpmath.workprec(200):
        errors = {k: abs(mpmath.mpf(getattr(report.ols, k)) - v) / (1 if k.endswith("r2") else abs(v))
                  for k, v in exact.items()}
    over = {k: float(e) / _EPS for k, e in errors.items() if e > _OLS_BUDGETS[k] * _EPS}
    assert not over, f"errors in eps over their budgets {_OLS_BUDGETS}: {over}"


def _section_csvs(path, **env_changes):
    """The `--format csv` outputs of tvelast ols, cusum, recursive and sspace
    on the input at path, from one new interpreter run with env_changes added."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **env_changes,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("from tvelast import cli\n"
            "for cmd in ('ols', 'cusum', 'recursive', 'sspace'):\n"
            f"    assert cli.main([cmd, '--input', {str(path)!r}, '--format', 'csv']) == 0\n")
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          check=True).stdout


@pytest.mark.skipif(platform.system() != "Linux" or platform.machine() != "x86_64"
                    or "avx2" not in Path("/proc/cpuinfo").read_text(),
                    reason="OPENBLAS_CORETYPE=Haswell needs an x86-64 Linux CPU with AVX2")
def test_table2_table3_and_the_stability_paths_do_not_depend_on_the_blas_kernel(tmp_path):
    # a BLAS dot product gives pool input 1's table2 and table3 other last bits
    # under OpenBLAS's Haswell kernels than under an AVX-512 CPU's own; the
    # variable acts only on the child process
    path = tmp_path / "pool-1.csv"
    path.write_text(pool_csv(1))
    plain = _section_csvs(path)
    assert plain.count(b"\n") > 1000  # all four sections were written
    assert b"log_var_state" in plain
    assert _section_csvs(path, OPENBLAS_CORETYPE="Haswell") == plain


def _scaled_draw(seed, t, log_sx, log_sy):
    """y and x of length t on the given scales, with |x_1| kept off zero."""
    gen = np.random.default_rng(seed)
    xv = gen.normal(0.0, 1.0, t)
    xv[0] = math.copysign(0.1 + abs(xv[0]), xv[0])
    yv = 0.7 * xv + gen.normal(0.0, 1.0, t)
    return yv * 10.0 ** log_sy, xv * 10.0 ** log_sx


_draws = dict(seed=st.integers(0, 2 ** 32 - 1), t=st.integers(3, 40),
              log_sx=st.integers(-6, 6), log_sy=st.integers(-6, 6))


class TestRecursiveProperty:
    @settings(max_examples=100)
    @given(**_draws)
    def test_residuals_match_refit_on_every_prefix(self, seed, t, log_sx, log_sy):
        yv, xv = _scaled_draw(seed, t, log_sx, log_sy)
        w = recursive_residuals(*_pair(yv, xv))
        ref = _oracles.recursive_residuals_brute(yv, xv)
        np.testing.assert_allclose(w.values, ref, rtol=1e-9, atol=1e-9 * 10.0 ** log_sy)

    @settings(max_examples=100)
    @given(**_draws)
    def test_coefficients_match_ols_on_every_prefix(self, seed, t, log_sx, log_sy):
        yv, xv = _scaled_draw(seed, t, log_sx, log_sy)
        path = recursive_coefficients(*_pair(yv, xv))
        assert len(path.coefs) == t - 1
        scale = 10.0 ** (log_sy - log_sx)
        for i, (lo, c, hi) in enumerate(zip(path.bands_lo, path.coefs, path.bands_hi)):
            ref = _oracles.ols_brute(yv[:i + 2], xv[:i + 2])
            assert c == pytest.approx(ref["coef"], rel=1e-9, abs=1e-9 * scale)
            assert (hi - lo) / 4.0 == pytest.approx(ref["std_err"], rel=1e-6, abs=1e-6 * scale)


class TestCusumBandProperty:
    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), t=st.integers(3, 200),
           significance=st.sampled_from(sorted(CUSUM_BAND_CONSTANTS)))
    def test_bands_symmetric_and_increasing(self, seed, t, significance):
        yv, xv = _scaled_draw(seed, t, 0, 0)
        res = cusum(*_pair(yv, xv), significance=significance)
        assert len(res.band_hi) == t
        assert all(lo == -hi for lo, hi in zip(res.band_lo, res.band_hi))
        assert all(b > a for a, b in zip(res.band_hi, res.band_hi[1:]))


class TestOlsPValueProperty:
    @settings(max_examples=200)
    @given(seed=st.integers(0, 2 ** 32 - 1), t=st.integers(2, 600),
           slope=st.floats(-3.0, 3.0), log_sx=st.integers(-6, 6), log_sy=st.integers(-6, 6))
    def test_p_value_is_the_student_t_two_sided_tail(self, seed, t, slope, log_sx, log_sy):
        gen = np.random.default_rng(seed)
        xv = gen.normal(0.0, 1.0, t)
        yv = slope * xv + gen.normal(0.0, 1.0, t)
        res = ols_no_intercept(*_pair(yv * 10.0 ** log_sy, xv * 10.0 ** log_sx))
        assert res.p_value == _two_sided_oracle(res.t_stat, t - 1)


def _two_sided_oracle(t_stat, df):
    """scipy's two-sided tail at 1e-10 relative: the package's continued fraction
    is not scipy's routine, and agrees with it to about 5e-12 for df <= 700."""
    return pytest.approx(2.0 * float(sps.t.sf(abs(t_stat), df)), rel=1e-10, abs=0.0)


class TestStudentTTail:
    # both signs, df = 1, both sides of the symmetry switch and far tails
    @pytest.mark.parametrize("t_stat, df", [
        (0.3, 1), (-0.3, 1), (-12.7, 1), (1e6, 1), (2.5, 2), (-1.0, 7), (0.05, 30), (-2.0, 30),
        (1.5, 536), (-1.96, 599), (-5.0, 599), (40.0, 600), (-40.0, 600),
    ])
    def test_matches_the_oracle(self, t_stat, df):
        assert _t_two_sided_tail(t_stat, df) == _two_sided_oracle(t_stat, df)

    def test_two_observations_leave_one_degree_of_freedom(self):
        res = ols_no_intercept(*_pair([1.0, 1.5], [1.0, 2.0]))
        assert res.coef == pytest.approx(0.8, rel=1e-15)
        assert res.p_value == _two_sided_oracle(res.t_stat, 1)

    def test_zero_t_is_exactly_one(self):
        res = ols_no_intercept(*_pair([2.0, -1.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]))
        assert res.t_stat == 0.0
        assert res.p_value == 1.0
        assert _t_two_sided_tail(-0.0, 5) == 1.0

    def test_huge_t_underflows_to_zero(self):
        xv = np.arange(1.0, 601.0)
        res = ols_no_intercept(*_pair(2.0 * xv + 1e-9 * (-1.0) ** xv, xv))
        assert res.t_stat > 1e11
        assert res.p_value == 0.0
        assert _t_two_sided_tail(-1e200, 3) == 0.0  # t * t overflows

    @pytest.mark.parametrize("t_stat", [math.inf, -math.inf])
    def test_infinite_t_is_zero(self, t_stat):
        assert _t_two_sided_tail(t_stat, 10) == 0.0

    def test_nan_stays_nan(self):
        assert math.isnan(_t_two_sided_tail(math.nan, 10))
