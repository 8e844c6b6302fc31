"""Time-varying-coefficient state-space model and its maximum-likelihood fit.

The model is the univariate pair

    y_t = x_t * alpha_t + mu_t,        mu_t ~ N(0, var_meas)
    alpha_t = alpha_{t-1} + eps_t,     eps_t ~ N(0, var_state)

so the coefficient follows a random walk (a transition coefficient of 1,
which is part of the model and not estimated). Estimation maximizes the
prediction-error-decomposition log-likelihood over the two log-variances.
The measurement variance is concentrated out: a filter pass with
measurement variance 1 and state variance q gives its closed-form estimate,
so the search is over the signal-to-noise ratio log q alone (Brent, a
step-for-step port of scipy's, so no fit imports scipy). Parameter
uncertainty is reported with a Huber-White sandwich built from the observed
Hessian and per-observation scores of the full likelihood at the optimum.
Scaling both variances scales every F_t and leaves every v_t unchanged, so
the measurement-scale direction of both is closed form in the fit's own
pass at the estimate; only log q takes central differences, 2 filter
passes. The fit keeps that pass (MleResult.filter_output), so the state
paths, the smoother and the shocks need no pass of their own. All of it is
plain floats and math.fsum, so no result depends on a BLAS or numpy kernel.

Every pass runs the one recursion, _filter_core, whose only public door is
kalman_filter; a pass's log-likelihood is its log_lik. The recursion always
runs at measurement variance 1 and state variance q = var_state / var_meas,
the concentrated diffuse likelihood's scale (Durbin and Koopman 2012,
section 2.10.2): scaling both variances by var_meas scales every P_t and
F_t by var_meas and leaves every a_t and v_t unchanged, so kalman_filter
multiplies the filtered and innovation variances by var_meas, adds n log
var_meas to sum log F_t and divides sum v_t^2 / F_t by var_meas. The
recursion always opens with the exact diffuse step (Koopman 1997; Durbin
and Koopman 2012, section 5.2): the first observation alone sets a_1 =
y_1 / x_1, P_1 = 1 / x_1^2 (DegenerateRegressor if not finite) and adds no
likelihood term, so the first DIFFUSE_MONTHS months carry no shock. The
filtered-variance update is P_pred / F (algebraically identical to
(1 - K x) P_pred but free of cancellation). A pass keeps no predicted
moments: a random walk's a_{t+1|t} = a_{t|t} and P_{t+1|t} = P_{t|t} +
var_state (Durbin and Koopman 2012, section 4.3) follow from the rest.

A pass takes no log per month. At unit scale every F_t = x_t^2 P_pred + 1
is at least 1, so the running product of the F_t only grows; the pass adds
the product's log to sum log F_t only before the next factor would take it
to 2^256 or past, and once at the end. Each product rounds once, 2^-53 in
log F; each log and each addition rounds relative to the sum, so the sum
lies within 2^-50 (sum |log F_t| + n) of the exact sum of the logs, which
the tests check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import mul

from .errors import (
    DegenerateRegressor, EmptySeries, NoConvergence, NonFiniteObjective, NonFiniteState)
from .series import MonthDate, MonthlySeries

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_VAR_MIN = -40.0
_LOG_VAR_MAX = 40.0
_BOUND_MARGIN = 1.0  # estimates closer than this to a bound are not trusted
_FD_SCALE = 1e-4  # relative step of the finite differences behind the SEs
# scipy.optimize's constants, which _brent ports: the bracket's growth factor
# (1 + sqrt 5) / 2, its largest parabolic step in widths, iteration cap and
# near-zero divisor; Brent's golden fraction (3 - sqrt 5) / 2 and absolute x
# tolerance
_GOLD, _GROW_LIMIT, _BRACKET_MAX_ITER, _VERY_SMALL = 1.618034, 110.0, 1000, 1e-21
_CG, _MINTOL = 0.3819660, 1.0e-11
# Brent's relative x tolerance, set at the objective's resolution. scipy's
# default, sqrt(eps) = 1.48e-8, assumes |f| ~ f'' x^2. Rounding hides a minimum
# of f within d = sqrt(2 eps |f| / f'') (Press et al. 2007, section 10.2): a
# step d moves f by f'' d^2 / 2 = eps |f|. Both |f| and f'' grow with T; in
# log q their ratio is 12-14 on simulated fits at T = 30-543 and 45-66 on
# report fits at T = 543 (|f| ~ 1150-1280, f'' ~ 18-28), so d is 0.7e-7 to
# 1.7e-7 at |log q| of 3 to 5: 2e-8 to 4e-8 relative. Brent's last parabolic
# steps read f within a few d, so the stop sits a few d out: scaling the
# objective by 1 + 2 ulp moved the pass count of 43, 19, 2 and 0 of 60
# simulated fits at 1.48e-8, 3e-8, 5e-8 and 1e-7.
_XTOL = 1e-7
# the fit's Brent iteration cap, scipy's default maxiter: golden sections
# alone shrink the whole clamped log q range to tolerance in about 60
_MAX_ITER = 500
DIFFUSE_MONTHS = 1  # months the exact diffuse start absorbs: no likelihood term, shock 0
# the filter's running product of F_t >= 1 stays below this; log(prod) joins
# the sum of log F_t before a factor would take the product to it
_PROD_MAX = 2.0 ** 256


@dataclass(frozen=True)
class VarianceParams:
    """Log-variances of the measurement and state innovations."""

    log_var_meas: float
    log_var_state: float

    def __post_init__(self):
        if not (math.isfinite(self.log_var_meas) and math.isfinite(self.log_var_state)):
            raise ValueError("log-variances must be finite")

    @property
    def var_meas(self) -> float:
        return math.exp(self.log_var_meas)

    @property
    def var_state(self) -> float:
        return math.exp(self.log_var_state)


@dataclass(frozen=True)
class TvpModel:
    """Demeaned observation/regressor pair."""

    y: MonthlySeries
    x: MonthlySeries

    def __post_init__(self):
        if len(self.y) != len(self.x) or self.y.start != self.x.start:
            raise ValueError("y and x must be aligned (same start and length)")

    def __len__(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class KalmanOutput:
    """Per-period filter moments plus the decomposition log-likelihood.

    Index t holds month t's filtered moments and its innovation. From t = 1
    on, the one-step prediction for month t is the random walk's: mean
    filt_mean[t - 1], so innovations[t] == y_t - x_t * filt_mean[t - 1]
    exactly, and variance filt_var[t - 1] + var_state, the pass's state
    variance. These are all the RTS smoother needs, so kalman_smoother
    takes the output alone. Nothing predicts the diffuse month, index 0:
    innov_var is inf and the innovation is y_1.
    """

    filt_mean: tuple[float, ...]
    filt_var: tuple[float, ...]
    innovations: tuple[float, ...]
    innov_var: tuple[float, ...]
    var_state: float
    log_lik: float
    start: MonthDate


def _filter_core(yv, xv, q, moments=None):
    """The forward recursion at measurement variance 1 and state variance q,
    the only one in the module.

    It opens with the exact diffuse step, P_1 = 1 / x_1^2 (see the module
    docstring), and predicts a_pred = a, P_pred = P + q from t = 2. Returns
    (sum log F_t, sum v_t^2 / F_t, n) over the n = T - DIFFUSE_MONTHS
    observations that add a term; kalman_filter scales them to a measurement
    variance. Each month appends to moments, when given, the lists
    (filt_mean, filt_var, innovations, innov_var) at unit scale, the diffuse
    month as KalmanOutput describes it.

    g = v / F serves both the state update a + (x P_pred) g and v^2 / F =
    v g. sum log F_t comes from the running product prod of the F_t, each at
    least 1: when prod * F_t would reach _PROD_MAX, log(prod) + log(F_t) is
    added and prod restarts at 1, so no single F_t overflows it; a nan or
    inf F_t always lands there and propagates through log.
    The sum is within 2^-50 (sum |log F_t| + n) of the exact one.
    """
    x1 = xv[0]
    p = 1.0 / (x1 * x1) if x1 * x1 > 0.0 else math.inf
    if p == math.inf:
        raise DegenerateRegressor(f"first observation of x is {x1!r}: 1 / x_1^2 is not "
                                  "finite, so the diffuse start cannot identify the state")
    a = yv[0] / x1
    store = moments is not None
    if store:
        filt_mean, filt_var, innov, innov_var = moments
        for column, value in zip(moments, (a, p, yv[0], math.inf)):
            column.append(value)
    sum_log_f = 0.0
    sum_v2_f = 0.0
    prod = 1.0  # the F_t since the last flush into sum_log_f
    hi, log = _PROD_MAX, math.log
    for yt, xt in zip(yv[DIFFUSE_MONTHS:], xv[DIFFUSE_MONTHS:]):
        p_pred = p + q
        xp = xt * p_pred
        f = xt * xp + 1.0
        v = yt - xt * a
        g = v / f
        a += xp * g
        p = p_pred / f
        sum_v2_f += v * g
        nxt = prod * f
        if nxt < hi:
            prod = nxt
        else:  # also a nan or inf F_t, which log propagates
            sum_log_f += log(prod) + log(f)
            prod = 1.0
        if store:
            filt_mean.append(a)
            filt_var.append(p)
            innov.append(v)
            innov_var.append(f)
    return sum_log_f + log(prod), sum_v2_f, len(yv) - DIFFUSE_MONTHS


def _loglik(sums, log_var_meas: float) -> float:
    """The log-likelihood of a unit pass's sums (sum log F_t, sum v_t^2 / F_t,
    n) at measurement variance e^log_var_meas, which scales every F_t."""
    sum_log_f, sum_v2_f, n = sums
    return -0.5 * (n * _LOG_2PI + (sum_log_f + n * log_var_meas)
                   + sum_v2_f / math.exp(log_var_meas))


def kalman_filter(model: TvpModel, params: VarianceParams) -> KalmanOutput:
    """Run the forward recursion from the exact diffuse start and return
    all per-period moments; the pass's log-likelihood is the output's log_lik.

    One unit pass at q = var_state / var_meas, scaled by var_meas."""
    var_meas = params.var_meas
    moments = ([], [], [], [])
    sums = _filter_core(model.y.values, model.x.values,
                        math.exp(params.log_var_state - params.log_var_meas), moments)
    fm, fv, iv, ivv = moments
    fv = tuple([p * var_meas for p in fv])
    if fv[0] == math.inf:  # 1 / x_1^2 is finite, var_meas / x_1^2 overflows
        raise DegenerateRegressor(f"first observation of x is {model.x.values[0]!r}: var_meas / "
                                  "x_1^2 is not finite, so the diffuse start cannot identify the state")
    if not (math.isfinite(fm[-1]) and math.isfinite(fv[-1])):
        raise NonFiniteState("filter recursion produced a non-finite state")
    return KalmanOutput(
        filt_mean=tuple(fm), filt_var=fv,
        innovations=tuple(iv), innov_var=tuple([f * var_meas for f in ivv]),
        var_state=params.var_state,
        log_lik=_loglik(sums, params.log_var_meas), start=model.y.start,
    )


def kalman_smoother(output: KalmanOutput) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Fixed-interval (RTS) smoother over a filter pass: (means, variances).

    Its one-step moments are filt_mean[t], the filter's own float, and
    filt_var[t] + var_state, the filter's var_meas (P_t + q) up to rounding.
    """
    sm = list(output.filt_mean)
    sv = list(output.filt_var)
    for t in range(len(sm) - 2, -1, -1):
        pp = output.filt_var[t] + output.var_state
        j = output.filt_var[t] / pp if pp > 0.0 else 0.0
        sm[t] = output.filt_mean[t] + j * (sm[t + 1] - output.filt_mean[t])
        sv[t] = output.filt_var[t] + j * j * (sv[t + 1] - pp)
    return tuple(sm), tuple(sv)


def innovation_shocks(output: KalmanOutput) -> MonthlySeries:
    """Standardized innovations v_t / sqrt(F_t), dated like the input.

    The first DIFFUSE_MONTHS entries belong to the diffuse month, whose
    infinite innovation variance makes the shock 0; presentation layers
    flag them.
    """
    vals = tuple(v / math.sqrt(f) for v, f in zip(output.innovations, output.innov_var))
    return MonthlySeries(output.start, vals, name="shocks")


@dataclass(frozen=True)
class MleResult:
    """Maximum-likelihood estimates in the shape of a state-space summary.

    robust_se / z_stats / p_values are ordered (measurement, state). The
    headline final_state is the last filtered mean a_{T|T}. Under the
    random walk it is also the one-step forecast a_{T+1|T}, whose root MSE
    sqrt(P_{T|T} + var_state) is forecast_rmse.
    n_iter counts Brent iterations of the log q search. n_filter_passes
    counts every filter pass the fit made (the search, the pass at the
    estimate and the SE stencil), and hessian_cond is the ratio of the
    largest to the smallest |eigenvalue| of the observed Hessian in the
    coordinates of robust_se. filter_output is the filter pass at the
    estimate; report.json (pipeline.Report.to_dict) leaves it out.
    """

    params: VarianceParams
    robust_se: tuple[float, ...]
    z_stats: tuple[float, ...]
    p_values: tuple[float, ...]
    var_meas: float
    var_state: float
    final_state: float
    final_rmse: float
    final_z: float
    final_p: float
    forecast_rmse: float
    log_lik: float
    aic: float
    sic: float
    hq: float
    n_obs: int
    n_iter: int
    n_filter_passes: int
    hessian_cond: float
    converged: bool
    filter_output: KalmanOutput = field(repr=False, compare=False)
    loglik_path: tuple[float, ...] = field(repr=False, default=())

    def to_text(self) -> str:
        lines = [
            "State-space fit by maximum likelihood (concentrated, Brent search)",
            f"Included observations        {self.n_obs}",
            f"Convergence {'achieved' if self.converged else 'NOT achieved'} "
            f"after {self.n_iter} iterations",
            "",
            f"{'':24}{'Coefficient':>12}  {'Std. Error':>10}  {'z-Statistic':>11}  {'Prob.':>7}",
        ]
        rows = zip(("log var (measurement)", "log var (state)"),
                   (self.params.log_var_meas, self.params.log_var_state),
                   self.robust_se, self.z_stats, self.p_values)
        lines += [f"{name:24}{c:>12.6f}  {se:>10.6f}  {z:>11.6f}  {p:>7.4f}"
                  for name, c, se, z, p in rows]
        lines += [
            "",
            f"{'':24}{'Final State':>12}  {'Root MSE':>10}  {'z-Statistic':>11}  {'Prob.':>7}",
            f"{'state coefficient':24}{self.final_state:>12.6f}  "
            f"{self.final_rmse:>10.6f}  {self.final_z:>11.6f}  {self.final_p:>7.4f}",
            "",
            f"Log likelihood               {self.log_lik:.6f}",
            f"Akaike info criterion        {self.aic:.6f}",
            f"Schwarz criterion            {self.sic:.6f}",
            f"Hannan-Quinn criter.         {self.hq:.6f}",
            f"Implied var (measurement)    {self.var_meas:.6f}",
            f"Implied var (state)          {self.var_state:.6f}",
        ]
        return "\n".join(lines)


def _default_init(model: TvpModel) -> VarianceParams:
    vy, vx = _variance(model.y.values), _variance(model.x.values)
    vm = max(0.5 * vy, 1e-6)
    vs = max(0.1 * vy / max(vx, 1e-12), 1e-6)
    if not (math.isfinite(vm) and math.isfinite(vs)):
        raise NonFiniteObjective(
            f"the sample variance of y is {vy}: the data overflow double precision, "
            "so the likelihood has no finite starting point"
        )
    return VarianceParams(math.log(vm), math.log(vs))


def _variance(values) -> float:
    """Population variance from two fsums; inf when a sum overflows."""
    try:
        mean = math.fsum(values) / len(values)
        return math.fsum((v - mean) * (v - mean) for v in values) / len(values)
    except OverflowError:
        return math.inf


def _profile(yv, xv, log_q: float) -> tuple[float, float, float]:
    """Log-likelihood with the measurement variance concentrated out.

    One unit pass at state variance q gives sigma2_hat = sum(v^2/F) / n, the
    maximizing measurement variance for that q. Both are kept inside the box
    that bounds each log-variance, so this is the 2-D likelihood maximized
    over the measurement variance on the box. Returns (log-likelihood,
    log_var_meas, log_var_state).
    """
    log_q = min(max(log_q, _LOG_VAR_MIN - _LOG_VAR_MAX), _LOG_VAR_MAX - _LOG_VAR_MIN)
    sums = _filter_core(yv, xv, math.exp(log_q))
    _, sum_v2_f, n = sums
    log_s2 = math.log(sum_v2_f / n) if sum_v2_f > 0.0 else -math.inf
    log_s2 = min(max(log_s2, _LOG_VAR_MIN, _LOG_VAR_MIN - log_q),
                 _LOG_VAR_MAX, _LOG_VAR_MAX - log_q)
    return _loglik(sums, log_s2), log_s2, log_q + log_s2


def fit_mle(model: TvpModel) -> MleResult:
    """Estimate the log-variances by ML.

    The Brent search over log q starts at the ratio var_state / var_meas of
    _default_init. Raises NoConvergence when _MAX_ITER iterations are reached,
    an estimate is pinned at the log-variance box bound, or the observed
    Hessian is not negative definite; the exception carries the best point
    found as .result, with converged=False, so callers can still inspect it.
    """
    if len(model) < 3:
        raise EmptySeries("ML needs three observations: the diffuse start absorbs the first, "
                          "and one likelihood term alone is the same at every q")
    start = _default_init(model)
    for v in (start.log_var_meas, start.log_var_state):
        if not _LOG_VAR_MIN <= v <= _LOG_VAR_MAX:
            raise NonFiniteObjective(
                f"log-likelihood is non-finite at the starting values "
                f"{[start.log_var_meas, start.log_var_state]}: outside the box "
                f"[{_LOG_VAR_MIN}, {_LOG_VAR_MAX}]"
            )
    yv, xv = model.y.values, model.x.values
    log_q0 = start.log_var_state - start.log_var_meas
    best = [-math.inf, None]  # log-likelihood and (log_var_meas, log_var_state)
    path = []
    n_evals = 0

    def objective(log_q: float) -> float:
        nonlocal n_evals
        n_evals += 1
        ll, log_vm, log_vs = _profile(yv, xv, log_q)
        if not math.isfinite(ll):
            return math.inf
        if ll > best[0]:
            best[:] = [ll, (log_vm, log_vs)]
        path.append(best[0])
        return -ll

    # a likelihood flat in log q gives no bracket, hence a failure
    _, _, n_iter, failure = _brent(objective, log_q0, log_q0 + 1.0, _MAX_ITER)
    problem = None if failure is None else f"no convergence after {n_iter} iterations: {failure}"
    if best[1] is None:
        raise NonFiniteObjective("log-likelihood is non-finite everywhere the search looked")
    result = _build_result(model, best[1], n_iter, n_evals, tuple(path))
    if problem is None:
        for v in best[1]:
            if v < _LOG_VAR_MIN + _BOUND_MARGIN or v > _LOG_VAR_MAX - _BOUND_MARGIN:
                problem = (f"log-variance estimate {v:.2f} is pinned at the parameter bound; "
                           "the variance is not identified on this data")
                break
    if problem is None and not result.converged:
        problem = "the observed Hessian is not negative definite at the estimate"
    if problem is not None:
        raise NoConvergence(problem, result=replace(result, converged=False))
    return result


def _brent(f, xa: float, xb: float, max_iter: int) -> tuple[float, float, int, str | None]:
    """(x, f(x), iterations, failure) of scipy.optimize.minimize_scalar(f,
    bracket=(xa, xb), method="brent") with its maxiter set to max_iter.

    A step-for-step port of scipy's bracket and Brent.optimize: f sees the
    same points in the same order, so the result is the same floats. failure
    is None on success, else scipy's message; where scipy raises RuntimeError
    (no bracket within its cap), this returns its message with nan, nan, 0.
    """
    # scipy.optimize.bracket: walk downhill until f rises again
    fa, fb = f(xa), f(xb)
    if fa < fb:
        xa, xb, fa, fb = xb, xa, fb, fa
    xc = xb + _GOLD * (xb - xa)
    fc = f(xc)
    it = 0
    while fc < fb:
        tmp1 = (xb - xa) * (fb - fc)
        tmp2 = (xb - xc) * (fb - fa)
        val = tmp2 - tmp1
        denom = 2.0 * _VERY_SMALL if abs(val) < _VERY_SMALL else 2.0 * val
        w = xb - ((xb - xc) * tmp2 - (xb - xa) * tmp1) / denom
        wlim = xb + _GROW_LIMIT * (xc - xb)
        if it > _BRACKET_MAX_ITER:
            return (math.nan, math.nan, 0,
                    "No valid bracket was found before the iteration limit was reached. "
                    "Consider trying different initial points or increasing `maxiter`.")
        it += 1
        if (w - xc) * (xb - w) > 0.0:
            fw = f(w)
            if fw < fc:
                xa, xb, fa, fb = xb, w, fb, fw
                break
            if fw > fb:
                xc, fc = w, fw
                break
            w = xc + _GOLD * (xc - xb)
            fw = f(w)
        elif (w - wlim) * (wlim - xc) >= 0.0:
            w = wlim
            fw = f(w)
        elif (w - wlim) * (xc - w) > 0.0:
            fw = f(w)
            if fw < fc:
                xb, xc, fb, fc = xc, w, fc, fw
                w = xc + _GOLD * (xc - xb)
                fw = f(w)
        else:
            w = xc + _GOLD * (xc - xb)
            fw = f(w)
        xa, xb, xc, fa, fb, fc = xb, xc, w, fb, fc, fw
    if not (((fb < fc and fb <= fa) or (fb < fa and fb <= fc))
            and (xa < xb < xc or xc < xb < xa)
            and all(map(math.isfinite, (xa, xb, xc)))):
        xs, fs = (xa, xb, xc), (fa, fb, fc)
        i = min(range(3), key=fs.__getitem__)
        x, fx = (math.nan, math.nan) if any(map(math.isnan, xs + fs)) else (xs[i], fs[i])
        return (x, fx, 0, "The algorithm terminated without finding a valid bracket. "
                          "Consider trying different initial points.")

    # scipy.optimize.Brent.optimize: parabolic steps, golden sections when they fail
    x = w = v = xb
    fx = fw = fv = fb
    a, b = (xa, xc) if xa < xc else (xc, xa)
    deltax = rat = 0.0
    it = 0
    while it < max_iter:
        tol1 = _XTOL * abs(x) + _MINTOL
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if abs(x - xmid) < tol2 - 0.5 * (b - a):
            break
        if abs(deltax) <= tol1:
            deltax = a - x if x >= xmid else b - x
            rat = _CG * deltax
        else:
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if tmp2 > 0.0:
                p = -p
            tmp2 = abs(tmp2)
            dx_temp, deltax = deltax, rat
            if tmp2 * (a - x) < p < tmp2 * (b - x) and abs(p) < abs(0.5 * tmp2 * dx_temp):
                rat = p / tmp2
                u = x + rat
                if (u - a) < tol2 or (b - u) < tol2:
                    rat = tol1 if xmid - x >= 0 else -tol1
            else:
                deltax = a - x if x >= xmid else b - x
                rat = _CG * deltax
        u = (x + tol1 if rat >= 0 else x - tol1) if abs(rat) < tol1 else x + rat  # step >= tol1
        fu = f(u)
        if fu > fx:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        else:
            a, b = (x, b) if u >= x else (a, x)
            v, w, x, fv, fw, fx = w, x, u, fw, fx, fu
        it += 1
    if math.isnan(x) or math.isnan(fx):
        return x, fx, it, "NaN result encountered."
    return x, fx, it, None if it < max_iter else "Maximum number of iterations exceeded"


def _sandwich_stencil(model: TvpModel, theta: tuple[float, float], out: KalmanOutput):
    """Observed Hessian and per-observation scores of the full log-likelihood.

    theta = (log_var_meas, log_var_state) and out is the filter pass at
    theta. Both are built in the coordinates phi = (sigma, rho) with sigma =
    log_var_meas and rho = log_var_state - log_var_meas, then mapped back.
    Moving sigma by d scales every F_t (and the diffuse P_1) by e^d and
    leaves every v_t unchanged, so the sigma direction is closed form: score
    -(1 - v_t^2/F_t)/2 and curvature -sum(v^2/F)/2 from out, and the cross
    term is sum(v^2/F)'s derivative in rho over 2. Only rho takes central
    differences, with step h = _FD_SCALE * max(1, |log_var_state|): the unit
    passes at rho +/- h, scaled like kalman_filter's, give the rho-rho entry,
    the cross term and the rho scores. That is 2 filter passes, in plain
    floats and fsum; log 2 pi and log var_meas cancel from a rho score, so it
    takes one log(F+ / F-) per month. Returns ((a, b), (b, d)) and two lists.
    """
    yv, xv = model.y.values, model.x.values
    log_var_meas, log_var_state = theta
    var_meas = math.exp(log_var_meas)
    h = _FD_SCALE * max(1.0, abs(log_var_state))

    def moved(log_var_state: float):
        """Log-likelihood, sum(v^2/F) and the unit v_t, F_t after the diffuse
        month, at log_var_state and the measurement variance of theta."""
        moments = ([], [], [], [])
        sums = _filter_core(yv, xv, math.exp(log_var_state - log_var_meas), moments)
        return _loglik(sums, log_var_meas), sums[1] / var_meas, moments[2][1:], moments[3][1:]

    ll_p, s_p, v_p, f_p = moved(log_var_state + h)
    ll_m, s_m, v_m, f_m = moved(log_var_state - h)
    score_r = [-(math.log(fp / fm) + (vp * vp / fp - vm * vm / fm) / var_meas) / (4.0 * h)
               for vp, fp, vm, fm in zip(v_p, f_p, v_m, f_m)]
    v2_f = [v * v / f for v, f in zip(out.innovations[1:], out.innov_var[1:])]
    h_ss = -0.5 * math.fsum(v2_f)
    h_rr = (ll_p - 2.0 * out.log_lik + ll_m) / (h * h)
    h_sr = 0.5 * (s_p - s_m) / (2.0 * h)
    # phi = B theta with B = [[1, 0], [-1, 1]], so the theta-Hessian is B' H B
    # and the theta-scores S B
    hess = ((h_ss - h_sr) - (h_sr - h_rr), h_sr - h_rr), (h_sr - h_rr, h_rr)
    return hess, ([-0.5 * (1.0 - q) - r for q, r in zip(v2_f, score_r)], score_r)


def _build_result(model: TvpModel, theta: tuple[float, float], n_iter: int, n_evals: int,
                  path: tuple[float, ...]) -> MleResult:
    """The fit at theta after n_evals objective evaluations; converged is
    False when the Hessian is not negative definite."""
    params = VarianceParams(*theta)
    out = kalman_filter(model, params)
    n = len(model)
    k = len(theta)
    ll = out.log_lik

    # the symmetric 2x2 Hessian [[a, b], [b, d]] has eigenvalues mid -/+ r; a
    # nan entry makes them nan, which is not negative definite
    ((a, b), (_, d)), scores = _sandwich_stencil(model, theta, out)
    mid, r = 0.5 * (a + d), math.hypot(0.5 * (a - d), b)
    negative_definite = mid + r < 0.0
    largest, smallest = abs(mid) + r, abs(abs(mid) - r)
    hessian_cond = largest / smallest if smallest != 0.0 else math.inf
    if negative_definite:
        # sandwich H^-1 (S'S) H^-1, as column norms of S H^-1 so it stays >= 0,
        # with H^-1 = [[d, -b], [-b, a]] / det and det the eigenvalues' product
        det = (mid - r) * (mid + r)
        cols = ([s * d - t * b for s, t in zip(*scores)], [t * a - s * b for s, t in zip(*scores)])
        se = tuple(math.sqrt(math.fsum(map(mul, c, c))) / det for c in cols)
        z = tuple(t / s if s > 0 else math.inf for t, s in zip(theta, se))
        pvals = tuple(math.erfc(abs(zi) / math.sqrt(2.0)) for zi in z)
    else:
        se = z = pvals = (math.nan,) * k

    final_state = out.filt_mean[-1]
    final_rmse = math.sqrt(out.filt_var[-1])
    final_z = final_state / final_rmse if final_rmse > 0 else math.inf
    return MleResult(
        params=params,
        robust_se=se,
        z_stats=z,
        p_values=pvals,
        var_meas=params.var_meas,
        var_state=params.var_state,
        final_state=final_state,
        final_rmse=final_rmse,
        final_z=final_z,
        final_p=math.erfc(abs(final_z) / math.sqrt(2.0)),
        forecast_rmse=math.sqrt(out.filt_var[-1] + params.var_state),
        log_lik=ll,
        aic=(-2.0 * ll + 2.0 * k) / n,
        sic=(-2.0 * ll + k * math.log(n)) / n,
        hq=(-2.0 * ll + 2.0 * k * math.log(math.log(n))) / n,
        n_obs=n,
        n_iter=n_iter,
        # one pass per evaluation, the pass at theta and the stencil's 2
        n_filter_passes=n_evals + 3,
        hessian_cond=hessian_cond,
        converged=negative_definite,
        filter_output=out,
        loglik_path=path,
    )
