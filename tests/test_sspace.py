import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import optimize, stats

from tvelast import regress, sspace

from tvelast.errors import DegenerateRegressor, EmptySeries, NoConvergence, NonFiniteObjective
from tvelast.pipeline import PipelineConfig, Report, run_pipeline
from tvelast.series import parse_csv
from tvelast.simlab import TvpDgp, derive_seed, gen_tvp
from tvelast.sspace import (
    TvpModel,
    VarianceParams,
    fit_mle,
    innovation_shocks,
    kalman_filter,
    kalman_smoother,
)

import _oracles
from conftest import make_dataset, make_series, pool_csv


_LOG_2PI = math.log(2.0 * math.pi)


def _model(yv, xv):
    return TvpModel(make_series(yv, name="y"), make_series(xv, name="x"))


def _random_model(rng, max_t=8):
    t = int(rng.integers(2, max_t + 1))
    return (
        _model(rng.normal(0, 1, t), rng.normal(0, 1, t)),
        float(rng.uniform(0.2, 2.0)),  # var_meas
        float(rng.uniform(0.2, 2.0)),  # var_state
    )


class TestVarianceParams:
    def test_exp_transform_anchors(self):
        p = VarianceParams(-4.136491, -1.025106)
        assert p.var_meas == pytest.approx(0.015979, abs=5e-7)
        assert p.var_state == pytest.approx(0.358758, abs=5e-7)
        assert VarianceParams(0.0, 0.0).var_meas == 1.0

    def test_properties(self):
        p = VarianceParams(math.log(0.25), math.log(4.0))
        assert p.var_meas == pytest.approx(0.25, rel=1e-12)
        assert p.var_state == pytest.approx(4.0, rel=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            VarianceParams(float("inf"), 0.0)

    def test_model_alignment_enforced(self, rng):
        y = make_series(rng.normal(0, 1, 10))
        x_short = make_series(rng.normal(0, 1, 9))
        with pytest.raises(ValueError):
            TvpModel(y, x_short)


class TestKalmanFilter:
    def test_single_observation_diffuse_algebra(self):
        y1, x1 = 1.3, 0.7
        params = VarianceParams(math.log(0.5), math.log(0.2))
        out = kalman_filter(_model([y1], [x1]), params)
        assert out.filt_mean[0] == y1 / x1
        assert out.filt_var[0] == 0.5 / (x1 * x1)
        assert out.log_lik == 0.0  # the diffuse month adds no likelihood term

    def test_constant_state_reduces_to_running_mean(self, rng):
        t = 80
        yv = rng.normal(2.0, 1.0, t)
        params = VarianceParams(0.0, -700.0)  # state variance ~ 1e-304
        out = kalman_filter(_model(yv, np.ones(t)), params)
        running = np.cumsum(yv) / np.arange(1, t + 1)
        np.testing.assert_allclose(out.filt_mean, running, atol=1e-8)

    def test_matches_joint_gaussian_oracle(self, rng):
        for _ in range(30):
            model, vm, vs = _random_model(rng)
            out = kalman_filter(model, VarianceParams(math.log(vm), math.log(vs)))
            ll, fm, fv, _, _ = _oracles.diffuse_state_space_oracle(
                model.y.values, model.x.values, vm, vs)
            assert out.log_lik == pytest.approx(ll, abs=1e-8)
            np.testing.assert_allclose(out.filt_mean, fm, atol=1e-8)
            np.testing.assert_allclose(out.filt_var, fv, atol=1e-8)

    def test_innovation_identity(self, rng):
        model, vm, vs = _random_model(rng)
        params = VarianceParams(math.log(vm), math.log(vs))
        out = kalman_filter(model, params)
        assert out.var_state == params.var_state
        # a random walk predicts no change: month t's one-step moments are
        # filt_mean[t - 1] and, in the unit pass at q = var_state / var_meas
        # that kalman_filter scales by var_meas, P_{t-1} + q
        yv, xv = model.y.values, model.x.values
        q = math.exp(params.log_var_state - params.log_var_meas)
        _, p, _, f = _unit_moments(yv, xv, q)
        for t in range(1, len(model)):
            assert out.innovations[t] == yv[t] - xv[t] * out.filt_mean[t - 1]
            pp = p[t - 1] + q
            assert f[t] == xv[t] * (xv[t] * pp) + 1.0
            assert p[t] == pp / f[t]

    def test_variances_positive_after_burn_in(self, rng):
        model, _ = gen_tvp(TvpDgp(T=100, sigma2_meas=0.3, sigma2_state=0.1, seed=4))
        out = kalman_filter(model, VarianceParams(math.log(0.3), math.log(0.1)))
        assert all(v > 0 for v in out.filt_var)
        assert all(f > 0 for f in out.innov_var)

    def test_diffuse_limit_monotone_convergence(self):
        model, _ = gen_tvp(TvpDgp(T=60, sigma2_meas=0.5, sigma2_state=0.2, seed=3))
        params = VarianceParams(math.log(0.5), math.log(0.2))
        ref = kalman_filter(model, params)
        ref_mean = np.asarray(ref.filt_mean[1:])
        ref_var = np.asarray(ref.filt_var[1:])
        devs = []
        for k in range(4, 11):
            fm, fv, _, _ = _oracles.proper_prior_filter(model.y.values, model.x.values,
                                                        params.var_meas, params.var_state,
                                                        0.0, 10.0 ** k)
            dev_mean = np.max(np.abs(np.asarray(fm[1:]) - ref_mean)
                              / np.maximum(np.abs(ref_mean), 1e-8))
            dev_var = np.max(np.abs(np.asarray(fv[1:]) - ref_var) / ref_var)
            devs.append(max(dev_mean, dev_var))
        assert all(b <= a for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 1e-6


class TestLogLikelihood:
    def test_deterministic(self, rng):
        model, vm, vs = _random_model(rng)
        params = VarianceParams(math.log(vm), math.log(vs))
        assert kalman_filter(model, params).log_lik == kalman_filter(model, params).log_lik


class TestSmoother:
    def test_boundary_equals_filtered(self, rng):
        model, vm, vs = _random_model(rng)
        out = kalman_filter(model, VarianceParams(math.log(vm), math.log(vs)))
        sm, sv = kalman_smoother(out)
        assert sm[-1] == out.filt_mean[-1]
        assert sv[-1] == out.filt_var[-1]

    def test_constant_state_gives_full_sample_mean(self, rng):
        t = 60
        yv = rng.normal(0.0, 1.0, t)
        model = _model(yv, np.ones(t))
        params = VarianceParams(0.0, -700.0)
        out = kalman_filter(model, params)
        sm, _ = kalman_smoother(out)
        np.testing.assert_allclose(sm, np.mean(yv), atol=1e-8)

    def test_matches_oracle(self, rng):
        for _ in range(30):
            model, vm, vs = _random_model(rng)
            out = kalman_filter(model, VarianceParams(math.log(vm), math.log(vs)))
            sm, sv = kalman_smoother(out)
            _, _, _, sm_o, sv_o = _oracles.diffuse_state_space_oracle(
                model.y.values, model.x.values, vm, vs)
            np.testing.assert_allclose(sm, sm_o, atol=1e-8)
            np.testing.assert_allclose(sv, sv_o, atol=1e-8)

    def test_smoothing_never_inflates_variance(self, rng):
        model, _ = gen_tvp(TvpDgp(T=120, sigma2_meas=0.4, sigma2_state=0.3, seed=8))
        params = VarianceParams(math.log(0.4), math.log(0.3))
        out = kalman_filter(model, params)
        _, sv = kalman_smoother(out)
        for s, f in zip(sv, out.filt_var):
            assert s <= f + 1e-12


_unit = st.floats(-3.0, 3.0, allow_nan=False)
_variance = st.floats(0.2, 2.0)


@st.composite
def _diffuse_cases(draw):
    t = draw(st.integers(1, 8))
    x1 = draw(st.one_of(st.floats(-3.0, -0.1), st.floats(0.1, 3.0)))
    return (
        _model(draw(st.lists(_unit, min_size=t, max_size=t)),
               [x1] + draw(st.lists(_unit, min_size=t - 1, max_size=t - 1))),
        draw(_variance),                 # var_meas
        draw(_variance),                 # var_state
    )


class TestAgainstOracleProperty:
    @settings(max_examples=150)
    @given(_diffuse_cases())
    def test_filter_smoother_likelihood_match_joint_gaussian(self, case):
        # months 2..T against the dense oracle on the tail after the diffuse
        # month, month 1's smoothed moments against its conditioning on that tail
        model, vm, vs = case
        out = kalman_filter(model, VarianceParams(math.log(vm), math.log(vs)))
        sm, sv = kalman_smoother(out)
        ll, fm, fv, sm_o, sv_o = _oracles.diffuse_state_space_oracle(
            model.y.values, model.x.values, vm, vs)
        assert out.log_lik == pytest.approx(ll, abs=1e-8)
        np.testing.assert_allclose(out.filt_mean, fm, atol=1e-8)
        np.testing.assert_allclose(out.filt_var, fv, atol=1e-8)
        np.testing.assert_allclose(sm, sm_o, atol=1e-8)
        np.testing.assert_allclose(sv, sv_o, atol=1e-8)


class TestRecursiveLeastSquares:
    """At q = 0 the diffuse filter is recursive least squares, so from month 2
    the unit pass's v_t / sqrt(F_t) are the recursive residuals and its
    filtered means the OLS slopes on every prefix. regress reads fig3 and
    fig4 off this pass, so they are held here to fresh fits of every prefix."""

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(3, 120),
           log10_scale=st.floats(-3.0, 3.0))
    def test_the_q0_pass_is_recursive_ols(self, seed, t, log10_scale):
        rng = np.random.default_rng(seed)
        xv = rng.normal(0, 1, t) * 10.0 ** log10_scale
        yv = 0.7 * xv + rng.normal(0, 1, t)
        filt_mean, _, innov, innov_var = _unit_moments(tuple(yv), tuple(xv), 0.0)
        path = regress.recursive_coefficients(make_series(yv, name="y"), make_series(xv, name="x"))
        # The oracles refit every prefix, O(T^2) in all, so T stops at 120.
        # The tolerance is 1e-9 of each path's scale from the data. By
        # Cauchy-Schwarz |w_t| <= |y_t| + ||y_{<t}||, so ||y|| scales the
        # residuals, and |beta_t| <= sqrt(sum_{s<=t} y_s^2 / sum_{s<=t} x_s^2)
        # scales the coefficients; the s.e., half the band's half-width, is
        # held relative to itself. On 2000 such draws the largest gaps were
        # 3.7e-15, 2.3e-14 and 3.3e-12 of these scales.
        shocks = np.asarray(innov[1:]) / np.sqrt(innov_var[1:])
        w = _oracles.recursive_residuals_brute(yv, xv)
        assert np.max(np.abs(shocks - w)) <= 1e-9 * math.sqrt(float(yv @ yv))
        for i in range(1, t):
            ref = _oracles.ols_brute(yv[:i + 1], xv[:i + 1])
            beta_scale = math.sqrt(float(yv[:i + 1] @ yv[:i + 1]) / float(xv[:i + 1] @ xv[:i + 1]))
            assert abs(filt_mean[i] - ref["coef"]) <= 1e-9 * beta_scale
            se = (path.bands_hi[i - 1] - path.bands_lo[i - 1]) / 4.0
            assert abs(se - ref["std_err"]) <= 1e-9 * ref["std_err"]


def _log_f_bound(logs):
    """How far the filter's sum of log F_t may lie from the exact sum of logs.

    Each month's product rounds once, a relative 2^-53, which is 2^-53 in
    log F whatever F_t is; each log and each addition of a flush rounds
    relative to the sum. 2^-50 (sum |log F_t| + n) covers both with room.
    """
    return 2.0 ** -50 * (math.fsum(map(abs, logs)) + len(logs))


def _loglik_bound(unit_logs, log_var_meas, v2_f):
    """How far a pass's log_lik may lie from -1/2 (n log 2 pi + sum log F_t +
    n log_var_meas + sum v_t^2 / F_t), with F_t the unit pass's and v2_f the
    scaled terms v_t^2 / (F_t var_meas).

    The unit pass's sum log F_t is within _log_f_bound; the scaling and the
    three additions round once each relative to their terms, and the sum of
    v^2 / F at most n + 2 times relative to itself. 2^-50 covers each.
    """
    n = len(unit_logs)
    return 0.5 * (_log_f_bound(unit_logs) + 2.0 ** -50 * (
        n * (_LOG_2PI + abs(log_var_meas)) + math.fsum(map(abs, unit_logs))
        + (n + 2) * math.fsum(v2_f)))


def _unit_moments(yv, xv, q):
    """(filt_mean, filt_var, innovations, innov_var) of the unit pass at q."""
    moments = ([], [], [], [])
    sspace._filter_core(yv, xv, q, moments)
    return moments


def _sum_log_f(yv, xv, q):
    """(the unit pass's sum log F_t, the F_t of the months after the diffuse one)."""
    moments = ([], [], [], [])
    sum_log_f, _, _ = sspace._filter_core(yv, xv, q, moments)
    return sum_log_f, moments[3][1:]


def _powers_of_ten(lo, hi):
    return st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(lo, hi)).map(
        lambda sk: sk[0] * 10.0 ** sk[1])


@st.composite
def _extreme_cases(draw):
    """Log-variances in [-40, 40], a tiny x_1 (so a huge P_1) and x_t up to
    1e20 either way, so that F_t spans hundreds of binary orders:
    (y, x, log_var_meas, log_var_state)."""
    t = draw(st.integers(2, 12))
    return ([draw(st.floats(-1e3, 1e3)) for _ in range(t)],
            [draw(_powers_of_ten(-100.0, 0.0))] + draw(
                st.lists(_powers_of_ten(-20.0, 20.0), min_size=t - 1, max_size=t - 1)),
            draw(st.floats(-40.0, 40.0)), draw(st.floats(-40.0, 40.0)))


def _unit_q(case):
    """The unit pass's (y, x, q) of an _extreme_cases case."""
    yv, xv, log_vm, log_vs = case
    return yv, xv, math.exp(log_vs - log_vm)


class TestLogFAccumulator:
    # F_t of about 1 + 5e-8: the products' rounding, not the logs, is the error
    @example(([0.5] * 7, [1.0] + [1.065e-4] * 6, 0.0, math.log(1.065)))
    @settings(max_examples=300)
    @given(_extreme_cases())
    def test_matches_the_exact_sum_of_logs(self, case):
        sum_log_f, f = _sum_log_f(*_unit_q(case))
        logs = [math.log(fi) for fi in f]
        assert abs(sum_log_f - math.fsum(logs)) <= _log_f_bound(logs)

    @settings(max_examples=300)
    @given(_extreme_cases())
    def test_every_unit_factor_is_at_least_one(self, case):
        # F_t = x_t^2 P_pred + 1 with P_pred >= 0, so the running product only
        # grows and one bound guards it
        _, f = _sum_log_f(*_unit_q(case))
        assert all(fi >= 1.0 for fi in f)

    @pytest.mark.parametrize("x", [[1e-100] + [1e20] * 29], ids=["up"])
    def test_flushes_before_the_product_leaves_double_range(self, x):
        # the product of these F_t is far outside double range (log > 745),
        # so unflushed it would be inf; the sum stays exact to the bound
        sum_log_f, f = _sum_log_f([1.0] * len(x), x, 1.0)
        logs = [math.log(fi) for fi in f]
        assert math.fsum(logs) > 1000.0
        assert abs(sum_log_f - math.fsum(logs)) <= _log_f_bound(logs)

    @pytest.mark.parametrize("bad, expected", [(math.nan, math.nan), (math.inf, math.inf),
                                               (1e200, math.inf)])
    @pytest.mark.parametrize("month", [1, 3, 5])
    def test_a_nan_or_inf_factor_propagates(self, bad, expected, month):
        # x_t = 1e200 squares to inf: F_t is inf, and the states after it are nan
        x = [1.0, 2.0, 0.5, 1.5, 0.7, 1.2]
        x[month] = bad
        sum_log_f, f = _sum_log_f([0.3, -0.2, 0.4, 0.1, -0.5, 0.2], x, 0.4)
        assert math.isnan(f[month - 1]) or f[month - 1] == math.inf
        if math.isnan(expected):
            assert math.isnan(sum_log_f)
        else:
            assert sum_log_f == expected


class TestKalmanFilterScale:
    @settings(max_examples=300)
    @given(_extreme_cases())
    def test_is_the_unit_pass_scaled_by_the_measurement_variance(self, case):
        # moments bit for bit; log_lik is the scaled pass's exact one to the
        # accumulator bound
        yv, xv, log_vm, log_vs = case
        params = VarianceParams(log_vm, log_vs)
        out = kalman_filter(_model(yv, xv), params)
        fm, fv, v, f = _unit_moments(*_unit_q(case))
        vm = params.var_meas
        assert out.filt_mean == tuple(fm) and out.innovations == tuple(v)
        assert out.filt_var == tuple(p * vm for p in fv)
        assert out.innov_var == tuple(fi * vm for fi in f)
        n = len(yv) - sspace.DIFFUSE_MONTHS
        logs = [math.log(fi) for fi in f[1:]]
        v2_f = [vi * vi / fi / vm for vi, fi in zip(v[1:], f[1:])]
        exact = -0.5 * math.fsum([n * _LOG_2PI, n * log_vm, *logs, *v2_f])
        assert abs(out.log_lik - exact) <= _loglik_bound(logs, log_vm, v2_f)

    def test_an_overflowing_scaled_first_variance_is_degenerate(self):
        # 1 / x_1^2 = 1e306 is finite, so the unit pass opens and a pass at
        # var_meas = 1 keeps month 1's variance. At var_meas = e^40 month 1's
        # var_meas / x_1^2 is not finite and the smoother would turn it into a
        # nan: the filter raises DegenerateRegressor naming x_1, and so does a
        # fit whose estimate is pinned at that bound
        base, _ = gen_tvp(TvpDgp(T=50, sigma2_meas=0.3, sigma2_state=0.1, seed=0))
        model = _model(base.y.values, (1e-153,) + base.x.values[1:])
        out = kalman_filter(model, VarianceParams(0.0, 0.0))
        assert out.filt_var[0] == 1e306
        assert all(map(math.isfinite, sum(kalman_smoother(out), ())))
        with pytest.raises(DegenerateRegressor, match="x is 1e-153"):
            kalman_filter(model, VarianceParams(40.0, 0.0))
        base, _ = gen_tvp(TvpDgp(T=200, sigma2_meas=0.3, sigma2_state=0.1, seed=5))
        model = _model(base.y.values, (1e-153,) + base.x.values[1:])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DegenerateRegressor):
            fit_mle(model)


class TestDiffuseStart:
    @settings(max_examples=150)
    @given(_diffuse_cases())
    def test_is_the_explicit_start_on_the_tail(self, case):
        # months 2..T of the diffuse pass are a proper-prior filter on the tail
        # y_2..y_T from alpha_1 ~ N(y_1/x_1, 1/x_1^2) at unit scale, bit for
        # bit after the scaling by var_meas
        model, vm, vs = case
        params = VarianceParams(math.log(vm), math.log(vs))
        vm = params.var_meas
        yv, xv = model.y.values, model.x.values
        a1, p1 = yv[0] / xv[0], 1.0 / (xv[0] * xv[0])
        out = kalman_filter(model, params)
        fm, fv, v, f = _oracles.proper_prior_filter(
            yv[1:], xv[1:], 1.0, math.exp(params.log_var_state - params.log_var_meas), a1, p1)
        assert (out.filt_mean[0], out.filt_var[0]) == (a1, p1 * vm)
        assert list(out.filt_mean[1:]) == fm
        assert list(out.filt_var[1:]) == [p * vm for p in fv]
        assert list(out.innovations[1:]) == v
        assert list(out.innov_var[1:]) == [fi * vm for fi in f]
        n = len(yv) - sspace.DIFFUSE_MONTHS
        logs = [math.log(fi) for fi in f]
        v2_f = [vi * vi / fi / vm for vi, fi in zip(v, f)]
        exact = -0.5 * math.fsum([n * _LOG_2PI, n * params.log_var_meas, *logs, *v2_f])
        assert abs(out.log_lik - exact) <= _loglik_bound(logs, params.log_var_meas, v2_f)

    def test_diffuse_month_has_no_prediction(self, rng):
        model, vm, vs = _random_model(rng)
        out = kalman_filter(model, VarianceParams(math.log(vm), math.log(vs)))
        assert out.innov_var[0] == math.inf
        assert out.innovations[0] == model.y.values[0]
        assert innovation_shocks(out).values[0] == 0.0

    # 1e-170 squares to zero; 1e-155 squares to a subnormal, so 1 / x_1^2 overflows
    @pytest.mark.parametrize("x1", [0.0, 1e-170, 1e-155])
    def test_degenerate_first_regressor_raises(self, x1):
        base, _ = gen_tvp(TvpDgp(T=200, sigma2_meas=0.3, sigma2_state=0.1, seed=5))
        model = _model(base.y.values, (x1,) + base.x.values[1:])
        params = VarianceParams(math.log(0.3), math.log(0.1))
        with pytest.raises(DegenerateRegressor):
            kalman_filter(model, params)
        with pytest.raises(DegenerateRegressor):
            fit_mle(model)


class TestInnovationShocks:
    def test_definitional_recompute(self, rng):
        model, _ = gen_tvp(TvpDgp(T=50, sigma2_meas=0.2, sigma2_state=0.1, seed=6))
        out = kalman_filter(model, VarianceParams(math.log(0.2), math.log(0.1)))
        shocks = innovation_shocks(out)
        for s, v, f in zip(shocks.values, out.innovations, out.innov_var):
            assert s == v / math.sqrt(f)
        assert shocks.start == model.y.start

    def test_self_consistent_data_gives_tiny_shocks(self, rng):
        t = 40
        xv = rng.normal(1.0, 0.5, t)
        model = _model(2.0 * xv, xv)
        out = kalman_filter(model, VarianceParams(math.log(1e-10), math.log(1e-12)))
        shocks = innovation_shocks(out)
        assert max(abs(v) for v in shocks.values[sspace.DIFFUSE_MONTHS:]) < 1e-3

    def test_calibrated_variance_under_correct_model(self):
        model, _ = gen_tvp(TvpDgp(T=1000, sigma2_meas=0.3, sigma2_state=0.15, seed=12))
        out = kalman_filter(model, VarianceParams(math.log(0.3), math.log(0.15)))
        vals = np.asarray(innovation_shocks(out).values[sspace.DIFFUSE_MONTHS:])
        assert np.var(vals) == pytest.approx(1.0, abs=0.15)


class TestFitMle:
    def test_two_observations_are_refused(self):
        # one likelihood term is left after the diffuse month, flat in q;
        # TvpDgp refuses T=2 itself, so the fit's own guard is set past it
        for r in range(10):
            dgp = TvpDgp(T=3, sigma2_meas=0.016, sigma2_state=0.359, seed=derive_seed(0, r))
            object.__setattr__(dgp, "T", 2)
            model, _ = gen_tvp(dgp)
            with pytest.raises(EmptySeries, match="three observations"):
                fit_mle(model)

    def test_three_observations_are_fitted(self):
        # the minimum: two likelihood terms after the diffuse month; a fit may
        # stop short of convergence there, but the series is not refused
        for r in range(10):
            model, _ = gen_tvp(TvpDgp(T=3, sigma2_meas=0.016, sigma2_state=0.359,
                                      seed=derive_seed(0, r)))
            try:
                fit = fit_mle(model)
            except NoConvergence as exc:
                fit = exc.result
            assert fit.n_obs == 3

    def test_recovers_known_variances(self):
        model, _ = gen_tvp(TvpDgp(T=543, sigma2_meas=0.016, sigma2_state=0.359, seed=7))
        fit = fit_mle(model)
        assert fit.converged
        assert fit.params.log_var_meas == pytest.approx(math.log(0.016), abs=0.5)
        assert fit.params.log_var_state == pytest.approx(math.log(0.359), abs=0.3)

    def test_gradient_small_at_optimum(self):
        model, _ = gen_tvp(TvpDgp(T=300, sigma2_meas=0.1, sigma2_state=0.2, seed=9))
        fit = fit_mle(model)
        theta = np.array([fit.params.log_var_meas, fit.params.log_var_state])
        grad = _oracles.central_gradient(
            lambda t: kalman_filter(model, VarianceParams(t[0], t[1])).log_lik, theta
        )
        assert np.max(np.abs(grad)) < 1e-4

    def test_accepted_loglik_path_monotone(self):
        model, _ = gen_tvp(TvpDgp(T=200, sigma2_meas=0.05, sigma2_state=0.4, seed=10))
        fit = fit_mle(model)
        path = fit.loglik_path
        assert all(b >= a for a, b in zip(path, path[1:]))
        assert fit.log_lik == pytest.approx(path[-1], abs=1e-9)

    def test_degenerate_zero_data_never_silent(self, rng):
        t = 100
        model = _model(np.zeros(t), rng.normal(0, 1, t))
        with pytest.raises(NoConvergence):
            fit_mle(model)

    def test_iteration_cap_is_no_convergence_with_the_best_point(self, monkeypatch):
        model, _ = gen_tvp(TvpDgp(T=200, sigma2_meas=0.05, sigma2_state=0.4, seed=10))
        monkeypatch.setattr(sspace, "_MAX_ITER", 1)
        with pytest.raises(NoConvergence) as info:
            fit_mle(model)
        assert str(info.value) == ("no convergence after 1 iterations: "
                                   "Maximum number of iterations exceeded")
        best = info.value.result
        assert best.converged is False and best.n_iter == 1
        assert best.log_lik == pytest.approx(best.loglik_path[-1], abs=1e-9)

    def test_information_criteria_convention(self):
        model, _ = gen_tvp(TvpDgp(T=150, sigma2_meas=0.1, sigma2_state=0.1, seed=13))
        fit = fit_mle(model)
        n, k = 150, 2
        assert fit.aic == pytest.approx((-2 * fit.log_lik + 2 * k) / n, rel=1e-12)
        assert fit.sic == pytest.approx((-2 * fit.log_lik + k * math.log(n)) / n, rel=1e-12)
        assert fit.hq == pytest.approx((-2 * fit.log_lik + 2 * k * math.log(math.log(n))) / n,
                                       rel=1e-12)

    def test_final_state_fields(self):
        model, _ = gen_tvp(TvpDgp(T=100, sigma2_meas=0.2, sigma2_state=0.3, seed=14))
        fit = fit_mle(model)
        out = kalman_filter(model, fit.params)
        assert fit.final_state == out.filt_mean[-1]
        assert fit.final_rmse == math.sqrt(out.filt_var[-1])
        assert fit.final_z == pytest.approx(fit.final_state / fit.final_rmse, rel=1e-12)
        assert 0.0 <= fit.final_p <= 1.0
        assert fit.forecast_rmse > fit.final_rmse

    def test_reparameterization_consistency(self):
        # optimizing directly over variances reaches the same maximum
        model, _ = gen_tvp(TvpDgp(T=200, sigma2_meas=0.25, sigma2_state=0.5, seed=15))
        fit = fit_mle(model)

        def neg_ll_direct(v):
            if v[0] <= 1e-12 or v[1] <= 1e-12:
                return math.inf
            return -kalman_filter(
                model, VarianceParams(math.log(v[0]), math.log(v[1]))).log_lik

        opt = optimize.minimize(neg_ll_direct, [0.3, 0.3], method="Nelder-Mead",
                                options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
        assert opt.success
        assert -opt.fun == pytest.approx(fit.log_lik, abs=1e-6)

    @pytest.mark.parametrize("sigma2_meas, sigma2_state, seed",
                             [(0.8, 3.6e-4, 0), (0.8, 3.6e-4, 3), (1.0, 1.0, 3)])
    def test_p_values_are_two_sided_normal_tails(self, sigma2_meas, sigma2_state, seed):
        model, _ = gen_tvp(TvpDgp(T=200, sigma2_meas=sigma2_meas, sigma2_state=sigma2_state,
                                  seed=seed))
        fit = fit_mle(model)
        assert fit.final_p == pytest.approx(2.0 * stats.norm.sf(abs(fit.final_z)), rel=1e-12)
        assert fit.p_values == pytest.approx(
            [2.0 * stats.norm.sf(abs(z)) for z in fit.z_stats], rel=1e-12)

    def test_estimate_within_the_margin_of_the_bound_raises(self):
        # scaling y by c moves log_var_meas by 2 log c and leaves log q alone, so
        # the scaled fit's optimum sits 0.5 above the -40 bound, inside the margin
        model, _ = gen_tvp(TvpDgp(T=300, sigma2_meas=0.016, sigma2_state=0.359, seed=11))
        c = math.exp((-39.5 - fit_mle(model).params.log_var_meas) / 2.0)
        scaled = TvpModel(make_series([c * v for v in model.y.values], model.y.start, "y"),
                          model.x)
        with pytest.raises(NoConvergence, match="-39.50 is pinned") as info:
            fit_mle(scaled)
        params = info.value.result.params
        assert params.log_var_meas == pytest.approx(-39.5, abs=1e-6)
        assert params.log_var_state > sspace._LOG_VAR_MIN + 1.0  # only one estimate is pinned
        assert info.value.result.converged is False

    def test_non_finite_start_rejected(self, rng):
        # var(y) ~ 1e20 puts the default start at [45.26, 43.74], outside the box
        model = _model(1e10 * rng.normal(0, 1, 50), rng.normal(0, 1, 50))
        with pytest.raises(NonFiniteObjective, match="outside the box"):
            fit_mle(model)
        # var(y) overflows, so the default start has no finite log-variance
        huge = _model(rng.normal(0, 1e160, 50), rng.normal(0, 1, 50))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteObjective):
            fit_mle(huge)
        # same-sign values near 1e307: the sum of y overflows, which reads as an
        # infinite variance, not as fsum's OverflowError
        same_sign = _model(rng.uniform(1e307, 1.5e307, 50), rng.normal(0, 1, 50))
        with pytest.raises(NonFiniteObjective, match="sample variance of y is inf"):
            fit_mle(same_sign)

    def test_robust_se_positive(self):
        model, _ = gen_tvp(TvpDgp(T=250, sigma2_meas=0.1, sigma2_state=0.2, seed=17))
        fit = fit_mle(model)
        assert all(se > 0 for se in fit.robust_se)
        assert all(0 <= p <= 1 for p in fit.p_values)

    def test_text_and_json_render(self):
        model, _ = gen_tvp(TvpDgp(T=80, sigma2_meas=0.1, sigma2_state=0.2, seed=18))
        fit = fit_mle(model)
        assert "Final State" in fit.to_text()
        import json
        assert json.loads(Report(mle=fit).to_json())["mle"]["converged"] is True

    @settings(max_examples=60)
    @given(log_q=st.floats(-8.0, 8.0), seed=st.integers(0, 3))
    def test_concentrated_loglik_is_the_profile(self, log_q, seed):
        model, _ = gen_tvp(TvpDgp(T=150, sigma2_meas=0.2, sigma2_state=0.3, seed=seed))
        yv, xv = model.y.values, model.x.values
        ll, log_vm, log_vs = sspace._profile(yv, xv, log_q)
        assert log_vs - log_vm == pytest.approx(log_q, abs=1e-12)
        assert ll == pytest.approx(
            kalman_filter(model, VarianceParams(log_vm, log_vs)).log_lik, abs=1e-9)

    @pytest.mark.parametrize("hessian", [np.eye(2), np.diag([-1.0, 1.0]),
                                         np.full((2, 2), math.nan)])
    def test_hessian_not_negative_definite_raises(self, monkeypatch, hessian):
        model, _ = gen_tvp(TvpDgp(T=100, sigma2_meas=0.2, sigma2_state=0.3, seed=19))
        monkeypatch.setattr(sspace, "_sandwich_stencil",
                            lambda model, theta, out: (hessian, None))
        with pytest.raises(NoConvergence, match="not negative definite") as info:
            fit_mle(model)
        result = info.value.result
        assert result.converged is False
        assert all(math.isnan(v) for v in result.robust_se + result.z_stats + result.p_values)


def _recorded(f):
    """f, plus the list of points it is called at."""
    calls = []

    def g(x):
        calls.append(float(x))
        return f(x)
    return g, calls


def _brent_oracle(f, xa, max_iter):
    """scipy's search that sspace._brent ports, at the port's x tolerance, as
    (x, f(x), nit, failure)."""
    res = optimize.minimize_scalar(f, bracket=(xa, xa + 1.0), method="brent",
                                   tol=sspace._XTOL, options={"maxiter": max_iter})
    return res.x, res.fun, res.nit, None if res.success else res.message.strip()


@st.composite
def _smooth_functions(draw):
    c = draw(st.floats(-20.0, 20.0))
    s = draw(st.floats(1e-3, 1e3))
    kind = draw(st.sampled_from(("quadratic", "quartic", "quadratic+sine")))
    if kind == "quadratic":
        return lambda x: s * (x - c) ** 2
    if kind == "quartic":
        t = draw(st.floats(-5.0, 5.0))  # t < 0 gives two wells
        return lambda x: s * (x - c) ** 4 + t * (x - c) ** 2
    a, w = draw(st.floats(0.0, 3.0)), draw(st.floats(0.1, 10.0))
    return lambda x: s * (x - c) ** 2 + a * math.sin(w * x)


class TestBrentPort:
    """sspace._brent against scipy.optimize.minimize_scalar, its oracle: the
    same points in the same order, and == on x, f(x), nit and the message."""

    @staticmethod
    def _check(f, xa, max_iter):
        f_port, port_calls = _recorded(f)
        f_scipy, scipy_calls = _recorded(f)
        got = sspace._brent(f_port, xa, xa + 1.0, max_iter)
        assert got == _brent_oracle(f_scipy, xa, max_iter)
        assert port_calls == scipy_calls
        return got

    @settings(max_examples=300)
    @given(f=_smooth_functions(), xa=st.floats(-30.0, 30.0), max_iter=st.integers(1, 500))
    def test_smooth_functions(self, f, xa, max_iter):
        self._check(f, xa, max_iter)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 7), t=st.integers(20, 300), xa=st.floats(-10.0, 10.0),
           max_iter=st.integers(1, 500))
    def test_profile_likelihood(self, seed, t, xa, max_iter):
        model, _ = gen_tvp(TvpDgp(T=t, sigma2_meas=0.1, sigma2_state=0.2, seed=seed))
        yv, xv = model.y.values, model.x.values
        self._check(lambda z: -sspace._profile(yv, xv, z)[0], xa, max_iter)

    def test_constant_function_fails_the_bracket(self):
        assert self._check(lambda x: 3.0, 0.25, 500) == (
            0.25, 3.0, 0, "The algorithm terminated without finding a valid bracket. "
                          "Consider trying different initial points.")

    def test_bracket_cap_fails_where_scipy_raises(self):
        def f(x):  # falls forever while golden steps stay finite
            return -abs(x) ** 1.1
        with np.errstate(all="ignore"), pytest.raises(RuntimeError) as info:
            _brent_oracle(f, 0.3, 500)
        _, _, nit, failure = sspace._brent(f, 0.3, 1.3, 500)
        assert (nit, failure) == (0, str(info.value))

    def test_bracket_cap_is_no_convergence(self, monkeypatch):
        model, _ = gen_tvp(TvpDgp(T=100, sigma2_meas=0.2, sigma2_state=0.3, seed=19))
        monkeypatch.setattr(sspace, "_profile",
                            lambda yv, xv, log_q: (abs(log_q) ** 1.1, 0.0, 0.0))
        with pytest.raises(NoConvergence, match="after 0 iterations: No valid bracket") as info:
            fit_mle(model)
        assert info.value.result.converged is False


class TestSandwichStencil:
    """The stencil works in phi = (sigma, rho), with sigma = log_var_meas and
    rho = log_var_state - log_var_meas, and returns theta-coordinates."""

    @staticmethod
    def _full_loglik(model):
        return lambda t: kalman_filter(model, VarianceParams(t[0], t[1])).log_lik

    @staticmethod
    def _obs_terms(model):
        """Per-observation log-likelihood terms from t = 2, as a function of theta."""
        def fun(t):
            out = kalman_filter(model, VarianceParams(t[0], t[1]))
            v, f = np.asarray(out.innovations[1:]), np.asarray(out.innov_var[1:])
            return -0.5 * (math.log(2.0 * math.pi) + np.log(f) + v * v / f)
        return fun

    @staticmethod
    def _stencil(model, at):
        """The stencil at theta = at, as a 2x2 array and a (T - 1) x 2 array;
        it returns plain floats, a nested 2x2 tuple and two score lists."""
        theta = tuple(map(float, at))
        hess, scores = sspace._sandwich_stencil(
            model, theta, kalman_filter(model, VarianceParams(*theta)))
        assert {type(v) for row in hess for v in row} == {float}
        assert {type(v) for column in scores for v in column} == {float}
        return np.array(hess), np.column_stack(scores)

    @staticmethod
    def _points(model):
        """The estimate, and a point away from it where the gradient is not ~0:
        both log-variances moved by 0.3."""
        fit = fit_mle(model)
        theta = np.array([fit.params.log_var_meas, fit.params.log_var_state])
        return [theta, theta + 0.3]

    def test_matches_plain_central_differences(self):
        model, _ = gen_tvp(TvpDgp(T=300, sigma2_meas=0.05, sigma2_state=0.3, seed=21))
        fun = self._full_loglik(model)
        for at in self._points(model):
            hess, scores = self._stencil(model, at)
            ref = _oracles.central_hessian(fun, at)
            # rho moves theta_1 alone: the same points and formula as plain
            # central differences in theta
            assert hess[1, 1] == ref[1, 1]
            assert scores.shape == (len(model) - 1, 2)
            # the reference differences whole terms, each rounded to an eps of
            # its size, over 2h; the stencil's one log(F+ / F-) per month does
            # not, so the two agree to the reference's rounding (worst 0.74 of it)
            terms = self._obs_terms(model)(at)
            rounding = np.finfo(float).eps * np.abs(terms).max() / (2e-4 * max(1.0, abs(at[1])))
            np.testing.assert_allclose(
                scores[:, 1], _oracles.central_gradient(self._obs_terms(model), at)[:, 1],
                rtol=0.0, atol=4.0 * rounding)
            # the sigma entries are exact, so the whole Hessian differs from plain
            # central differences only by their error
            np.testing.assert_allclose(hess, ref, rtol=0.0, atol=1e-5 * np.abs(ref).max())

    def test_sigma_row_and_column_are_closed_form(self):
        model, _ = gen_tvp(TvpDgp(T=60, sigma2_meas=0.05, sigma2_state=0.3, seed=22))
        yv, xv = model.y.values, model.x.values
        a = np.array([[1.0, 0.0], [1.0, 1.0]])  # theta = A phi

        def sum_v2_f_and_ratios(phi):
            """sum(v^2/F) over t >= 2 and the ratios v_t^2/F_t, from the dense
            joint-Gaussian oracle on the tail after the diffuse step."""
            theta = a @ phi
            vm, vs = math.exp(theta[0]), math.exp(theta[1])
            v, f = _oracles.state_space_innovations(
                yv[1:], xv[1:], vm, vs, yv[0] / xv[0], vm / (xv[0] * xv[0]))
            return float(np.sum(v * v / f)), v * v / f

        for at in self._points(model):
            hess, scores = self._stencil(model, at)
            hess_phi, scores_phi = a.T @ hess @ a, scores @ a
            phi = np.linalg.solve(a, at)
            s0, ratios = sum_v2_f_and_ratios(phi)
            np.testing.assert_allclose(scores_phi[:, 0], -0.5 * (1.0 - ratios), rtol=1e-9)
            assert hess_phi[0, 0] == pytest.approx(-0.5 * s0, rel=1e-9)
            step = np.array([0.0, 1e-4 * max(1.0, abs(at[1]))])
            cross = 0.5 * (sum_v2_f_and_ratios(phi + step)[0]
                           - sum_v2_f_and_ratios(phi - step)[0]) / (2.0 * step[1])
            assert hess_phi[0, 1] == pytest.approx(cross, rel=1e-9)
            assert hess_phi[1, 0] == hess_phi[0, 1]


    @pytest.mark.parametrize("t, sigma2_meas, sigma2_state, seed",
                             [(60, 0.05, 0.3, 22), (60, 0.016, 0.359, 5)])
    def test_robust_se_is_the_sandwich_of_the_dense_oracle(self, t, sigma2_meas, sigma2_state,
                                                          seed):
        # H^-1 (S'S) H^-1 with H and the per-observation scores S taken by plain
        # central differences of the joint-Gaussian oracle on the tail after
        # the diffuse month; 1e-4 is above the stencil's own error (7e-6)
        model, _ = gen_tvp(TvpDgp(T=t, sigma2_meas=sigma2_meas, sigma2_state=sigma2_state,
                                  seed=seed))
        fit = fit_mle(model)
        yv, xv = np.asarray(model.y.values), np.asarray(model.x.values)

        def tail(theta):
            vm, vs = math.exp(theta[0]), math.exp(theta[1])
            return yv[1:], xv[1:], vm, vs, yv[0] / xv[0], vm / (xv[0] * xv[0])

        def obs_terms(theta):
            v, f = _oracles.state_space_innovations(*tail(theta))
            return -0.5 * (math.log(2.0 * math.pi) + np.log(f) + v * v / f)

        theta = np.array([fit.params.log_var_meas, fit.params.log_var_state])
        h_inv = np.linalg.inv(_oracles.central_hessian(
            lambda th: _oracles.state_space_oracle(*tail(th))[0], theta))
        scores = _oracles.central_gradient(obs_terms, theta)
        sandwich = h_inv @ scores.T @ scores @ h_inv
        assert fit.robust_se == pytest.approx(np.sqrt(np.diag(sandwich)), rel=1e-4)


_EPS = 2.0 ** -52
# Relative errors of the fit's sandwich fields against _oracles.sandwich_exact
# at the fit's own theta (the same stencil at 200 bits), on this test's three
# inputs and the worst over report-555 pool inputs 0-23, and the budget
# (margin: budget / that worst); z_stats' errors are robust_se's:
#   field              T=60     T=120    pool 1   pool 0-23   budget   margin
#   robust_se sigma    1.0e-10  4.5e-9   7.1e-8   3.8e-7      1e-6     2.7
#   robust_se rho      2.6e-10  1.4e-8   1.8e-7   8.5e-7      2e-6     2.3
#   hessian_cond       2.2e-10  1.1e-8   1.6e-7   7.3e-7      2e-6     2.7
#   log_lik, in eps    0.29     0.18     0.66     1.22        4 eps    3.3
# The SE error is rounding, and the rho-rho second difference carries it: a
# few eps of |log_lik| ~ 1200 over h^2 ~ 1e-7 put h_rr off by 1.3-2.4e-7 on
# pool inputs 1, 2 and 5. It is the order of the stencil's own truncation
# error, so the budgets are relative errors near 1e-6, not a few eps.
_SANDWICH_BUDGETS = {"robust_se": (1e-6, 2e-6), "z_stats": (1e-6, 2e-6),
                     "hessian_cond": 2e-6, "log_lik": 4.0 * _EPS}


@pytest.mark.parametrize("source", ["make_dataset-72", "make_dataset-132", "pool-1"])
def test_sandwich_meets_its_budgets_against_200_bits(source):
    if source == "pool-1":
        data = parse_csv(pool_csv(1))  # a report-555 input, T = 543
    else:
        data = make_dataset(n_months=int(source.rsplit("-", 1)[1]), seed=1)  # T = 60, 120
    report = run_pipeline(data, PipelineConfig(), "sspace")
    fit = report.mle
    exact = _oracles.sandwich_exact(report.demeaned_y.values, report.demeaned_x.values,
                                    (fit.params.log_var_meas, fit.params.log_var_state))
    over = {}
    with mpmath.workprec(200):
        for name, budget in _SANDWICH_BUDGETS.items():
            got, want = getattr(fit, name), exact[name]
            pairs = zip(got, want, budget) if isinstance(got, tuple) else [(got, want, budget)]
            for i, (g, w, b) in enumerate(pairs):
                error = float(abs(mpmath.mpf(g) - w) / abs(w))
                if error > b:
                    over[f"{name}[{i}]"] = (error, b)
    assert not over, f"relative errors over their budgets: {over}"


class TestFitDiagnostics:
    def test_pass_count_ignores_the_objectives_last_bits(self, monkeypatch):
        # Brent stops at the objective's resolution: a 2-ulp change of every
        # objective value moves no fit's pass count
        models = [gen_tvp(TvpDgp(T=t, sigma2_meas=0.016, sigma2_state=0.359,
                                 seed=derive_seed(91, r)))[0]
                  for t in (120, 543) for r in range(10)]

        def passes():
            counts = []
            for model in models:
                try:
                    counts.append(fit_mle(model).n_filter_passes)
                except NoConvergence as exc:
                    counts.append(exc.result.n_filter_passes)
            return counts

        before = passes()
        profile = sspace._profile

        def nudged(yv, xv, log_q):
            ll, log_vm, log_vs = profile(yv, xv, log_q)
            return ll * (1.0 + 4.4e-16), log_vm, log_vs

        monkeypatch.setattr(sspace, "_profile", nudged)
        assert passes() == before

    def test_filter_passes_are_search_estimate_and_stencil(self, monkeypatch):
        model, _ = gen_tvp(TvpDgp(T=200, sigma2_meas=0.05, sigma2_state=0.3, seed=23))
        calls = {"_filter_core": 0, "_profile": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(sspace, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(sspace, name, counted)
        fit = fit_mle(model)
        # one pass per objective evaluation, one at the estimate, the stencil's 2
        assert calls["_filter_core"] == calls["_profile"] + 1 + 2
        assert fit.n_filter_passes == calls["_filter_core"]

    def test_hessian_condition_number(self):
        model, _ = gen_tvp(TvpDgp(T=200, sigma2_meas=0.05, sigma2_state=0.3, seed=23))
        fit = fit_mle(model)
        theta = np.array([fit.params.log_var_meas, fit.params.log_var_state])
        hess = np.array(sspace._sandwich_stencil(model, theta, fit.filter_output)[0])
        # the eigenvalues of [[a, b], [b, d]] are mid -/+ hypot((a - d) / 2, b)
        mid = 0.5 * (hess[0, 0] + hess[1, 1])
        r = math.hypot(0.5 * (hess[0, 0] - hess[1, 1]), hess[0, 1])
        assert fit.hessian_cond == (abs(mid) + r) / abs(abs(mid) - r)
        eig = np.abs(np.linalg.eigvalsh(hess))
        assert fit.hessian_cond == pytest.approx(eig.max() / eig.min(), rel=1e-12, abs=0.0)
        assert fit.hessian_cond >= 1.0
        d = Report(mle=fit).to_dict()["mle"]
        assert (d["n_filter_passes"], d["hessian_cond"]) == (fit.n_filter_passes, fit.hessian_cond)
