import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize, stats

from tvelast import sspace

from tvelast.errors import DegenerateRegressor, EmptySeries, NoConvergence, NonFiniteObjective
from tvelast.series import json_text
from tvelast.simlab import TvpDgp, derive_seed, gen_tvp
from tvelast.sspace import (
    ExplicitInit,
    TvpModel,
    VarianceParams,
    fit_mle,
    innovation_shocks,
    kalman_filter,
    kalman_smoother,
)

import _oracles
from conftest import make_series


def _model(yv, xv, gamma=1.0):
    return TvpModel(make_series(yv, name="y"), make_series(xv, name="x"), gamma=gamma)


def _random_model(rng, max_t=8):
    t = int(rng.integers(2, max_t + 1))
    return (
        _model(rng.normal(0, 1, t), rng.normal(0, 1, t), gamma=float(rng.uniform(0.5, 1.0))),
        float(rng.uniform(0.2, 2.0)),  # var_meas
        float(rng.uniform(0.2, 2.0)),  # var_state
        float(rng.normal()),           # a0
        float(rng.uniform(0.5, 3.0)),  # p0
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

    def test_explicit_init_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            ExplicitInit(0.0, -1.0)


class TestKalmanFilter:
    def test_single_observation_diffuse_algebra(self):
        y1, x1 = 1.3, 0.7
        params = VarianceParams(math.log(0.5), math.log(0.2))
        out = kalman_filter(_model([y1], [x1]), params)
        assert out.filt_mean[0] == y1 / x1
        assert out.filt_var[0] == 0.5 / (x1 * x1)
        assert out.n_diffuse_dropped == 1

    def test_constant_state_reduces_to_running_mean(self, rng):
        t = 80
        yv = rng.normal(2.0, 1.0, t)
        params = VarianceParams(0.0, -700.0)  # state variance ~ 1e-304
        out = kalman_filter(_model(yv, np.ones(t)), params)
        running = np.cumsum(yv) / np.arange(1, t + 1)
        np.testing.assert_allclose(out.filt_mean, running, atol=1e-8)

    def test_matches_joint_gaussian_oracle(self, rng):
        for _ in range(30):
            model, vm, vs, a0, p0 = _random_model(rng)
            params = VarianceParams(math.log(vm), math.log(vs))
            init = ExplicitInit(a0, p0)
            out = kalman_filter(model, params, init=init)
            yv = np.asarray(model.y.values)
            xv = np.asarray(model.x.values)
            ll, fm, fv, _, _ = _oracles.state_space_oracle(yv, xv, model.gamma, vm, vs, a0, p0)
            assert out.log_lik == pytest.approx(ll, abs=1e-8)
            np.testing.assert_allclose(out.filt_mean, fm, atol=1e-8)
            np.testing.assert_allclose(out.filt_var, fv, atol=1e-8)

    def test_innovation_identity(self, rng):
        model, vm, vs, a0, p0 = _random_model(rng)
        out = kalman_filter(model, VarianceParams(math.log(vm), math.log(vs)),
                            init=ExplicitInit(a0, p0))
        for t in range(len(model)):
            assert out.innovations[t] == model.y.values[t] - model.x.values[t] * out.pred_mean[t]

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
            out = kalman_filter(model, params, init=ExplicitInit(0.0, 10.0 ** k))
            dev_mean = np.max(np.abs(np.asarray(out.filt_mean[1:]) - ref_mean)
                              / np.maximum(np.abs(ref_mean), 1e-8))
            dev_var = np.max(np.abs(np.asarray(out.filt_var[1:]) - ref_var) / ref_var)
            devs.append(max(dev_mean, dev_var))
        assert all(b <= a for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 1e-6


class TestLogLikelihood:
    def test_deterministic(self, rng):
        model, vm, vs, _, _ = _random_model(rng)
        params = VarianceParams(math.log(vm), math.log(vs))
        assert kalman_filter(model, params).log_lik == kalman_filter(model, params).log_lik


class TestSmoother:
    def test_boundary_equals_filtered(self, rng):
        model, vm, vs, a0, p0 = _random_model(rng)
        params = VarianceParams(math.log(vm), math.log(vs))
        init = ExplicitInit(a0, p0)
        out = kalman_filter(model, params, init=init)
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
            model, vm, vs, a0, p0 = _random_model(rng)
            params = VarianceParams(math.log(vm), math.log(vs))
            init = ExplicitInit(a0, p0)
            out = kalman_filter(model, params, init=init)
            sm, sv = kalman_smoother(out)
            yv = np.asarray(model.y.values)
            xv = np.asarray(model.x.values)
            _, _, _, sm_o, sv_o = _oracles.state_space_oracle(yv, xv, model.gamma, vm, vs, a0, p0)
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
def _small_models(draw):
    t = draw(st.integers(1, 8))
    return (
        _model(draw(st.lists(_unit, min_size=t, max_size=t)),
               draw(st.lists(_unit, min_size=t, max_size=t)),
               gamma=draw(st.floats(0.5, 1.0))),
        draw(_variance),                 # var_meas
        draw(_variance),                 # var_state
        draw(st.floats(-2.0, 2.0)),      # a0
        draw(st.floats(0.5, 3.0)),       # p0
    )


class TestAgainstOracleProperty:
    @settings(max_examples=150)
    @given(_small_models())
    def test_filter_smoother_likelihood_match_joint_gaussian(self, case):
        model, vm, vs, a0, p0 = case
        params = VarianceParams(math.log(vm), math.log(vs))
        init = ExplicitInit(a0, p0)
        out = kalman_filter(model, params, init=init)
        sm, sv = kalman_smoother(out)
        ll, fm, fv, sm_o, sv_o = _oracles.state_space_oracle(
            model.y.values, model.x.values, model.gamma, vm, vs, a0, p0)
        assert out.log_lik == pytest.approx(ll, abs=1e-8)
        np.testing.assert_allclose(out.filt_mean, fm, atol=1e-8)
        np.testing.assert_allclose(out.filt_var, fv, atol=1e-8)
        np.testing.assert_allclose(sm, sm_o, atol=1e-8)
        np.testing.assert_allclose(sv, sv_o, atol=1e-8)


@st.composite
def _diffuse_cases(draw):
    t = draw(st.integers(2, 8))
    x1 = draw(st.one_of(st.floats(-3.0, -0.1), st.floats(0.1, 3.0)))
    return (
        _model(draw(st.lists(_unit, min_size=t, max_size=t)),
               [x1] + draw(st.lists(_unit, min_size=t - 1, max_size=t - 1)),
               gamma=draw(st.floats(0.5, 1.0))),
        draw(_variance),                 # var_meas
        draw(_variance),                 # var_state
    )


class TestDiffuseStart:
    @settings(max_examples=150)
    @given(_diffuse_cases())
    def test_is_the_explicit_start_on_the_tail(self, case):
        model, vm, vs = case
        params = VarianceParams(math.log(vm), math.log(vs))
        yv, xv = model.y.values, model.x.values
        tail = _model(yv[1:], xv[1:], gamma=model.gamma)
        a1, p1 = yv[0] / xv[0], params.var_meas / (xv[0] * xv[0])
        out = kalman_filter(model, params)
        ref = kalman_filter(tail, params, init=ExplicitInit(a1, p1))
        assert out.log_lik == ref.log_lik
        assert out.filt_mean[1:] == ref.filt_mean
        assert out.filt_var[1:] == ref.filt_var
        ll, fm, fv, sm_o, sv_o = _oracles.state_space_oracle(
            yv[1:], xv[1:], model.gamma, params.var_meas, params.var_state, a1, p1)
        sm, sv = kalman_smoother(out)
        assert out.log_lik == pytest.approx(ll, abs=1e-8)
        np.testing.assert_allclose(out.filt_mean[1:], fm, atol=1e-8)
        np.testing.assert_allclose(out.filt_var[1:], fv, atol=1e-8)
        np.testing.assert_allclose(sm[1:], sm_o, atol=1e-8)
        np.testing.assert_allclose(sv[1:], sv_o, atol=1e-8)

    def test_diffuse_month_has_no_prediction(self, rng):
        model, vm, vs, _, _ = _random_model(rng)
        out = kalman_filter(model, VarianceParams(math.log(vm), math.log(vs)))
        assert (out.pred_mean[0], out.pred_var[0], out.innov_var[0]) == (0.0, math.inf, math.inf)
        assert out.innovations[0] == model.y.values[0]
        assert innovation_shocks(out).values[0] == 0.0

    # 1e-170 squares to zero; 1e-155 squares to a subnormal, so var_meas / x_1^2 overflows
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
        assert max(abs(v) for v in shocks.values[out.n_diffuse_dropped:]) < 1e-3

    def test_calibrated_variance_under_correct_model(self):
        model, _ = gen_tvp(TvpDgp(T=1000, sigma2_meas=0.3, sigma2_state=0.15, seed=12))
        out = kalman_filter(model, VarianceParams(math.log(0.3), math.log(0.15)))
        vals = np.asarray(innovation_shocks(out).values[out.n_diffuse_dropped:])
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
        # gamma = 1: the one-step forecast equals the final filtered state
        assert fit.forecast_state == fit.final_state
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
        assert json.loads(json_text(fit.to_dict()))["converged"] is True

    @settings(max_examples=60)
    @given(log_q=st.floats(-8.0, 8.0), gamma=st.floats(0.5, 1.0), seed=st.integers(0, 3))
    def test_concentrated_loglik_is_the_profile(self, log_q, gamma, seed):
        base, _ = gen_tvp(TvpDgp(T=150, sigma2_meas=0.2, sigma2_state=0.3, seed=seed))
        model = TvpModel(base.y, base.x, gamma)
        yv, xv = model.y.values, model.x.values
        ll, log_vm, log_vs = sspace._profile(yv, xv, gamma, log_q)
        assert log_vs - log_vm == pytest.approx(log_q, abs=1e-12)
        assert ll == pytest.approx(
            kalman_filter(model, VarianceParams(log_vm, log_vs)).log_lik, abs=1e-9)

    @pytest.mark.parametrize("hessian", [np.eye(2), np.diag([-1.0, 1.0])])
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
    """scipy's search that sspace._brent ports, as (x, f(x), nit, failure)."""
    res = optimize.minimize_scalar(f, bracket=(xa, xa + 1.0), method="brent",
                                   options={"maxiter": max_iter})
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
        self._check(lambda z: -sspace._profile(yv, xv, 1.0, z)[0], xa, max_iter)

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
                            lambda yv, xv, gamma, log_q: (abs(log_q) ** 1.1, 0.0, 0.0))
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
        out = kalman_filter(model, VarianceParams(at[0], at[1]))
        return sspace._sandwich_stencil(model, at, out)

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
            np.testing.assert_allclose(
                scores[:, 1], _oracles.central_gradient(self._obs_terms(model), at)[:, 1],
                rtol=1e-12, atol=0.0)
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
                yv[1:], xv[1:], model.gamma, vm, vs, yv[0] / xv[0], vm / (xv[0] * xv[0]))
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
            return yv[1:], xv[1:], model.gamma, vm, vs, yv[0] / xv[0], vm / (xv[0] * xv[0])

        def obs_terms(theta):
            v, f = _oracles.state_space_innovations(*tail(theta))
            return -0.5 * (math.log(2.0 * math.pi) + np.log(f) + v * v / f)

        theta = np.array([fit.params.log_var_meas, fit.params.log_var_state])
        h_inv = np.linalg.inv(_oracles.central_hessian(
            lambda th: _oracles.state_space_oracle(*tail(th))[0], theta))
        scores = _oracles.central_gradient(obs_terms, theta)
        sandwich = h_inv @ scores.T @ scores @ h_inv
        assert fit.robust_se == pytest.approx(np.sqrt(np.diag(sandwich)), rel=1e-4)


class TestFitDiagnostics:
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
        eig = np.abs(np.linalg.eigvalsh(
            sspace._sandwich_stencil(model, theta, fit.filter_output)[0]))
        assert fit.hessian_cond == eig.max() / eig.min()
        assert fit.hessian_cond >= 1.0
        d = fit.to_dict()
        assert (d["n_filter_passes"], d["hessian_cond"]) == (fit.n_filter_passes, fit.hessian_cond)
