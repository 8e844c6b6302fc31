"""No-intercept OLS with stability diagnostics.

The regression of interest is y_t = coef * x_t + e_t on demeaned series
(demeaning upstream replaces the constant). Alongside the usual summary
statistics, this module provides the recursive residuals, the recursive
coefficient path, and the cumulative-sum stability test of Brown, Durbin
and Evans (1975). All of it is plain float arithmetic, each whole-sample
sum a correctly rounded math.fsum, so no result depends on a BLAS kernel.

The three read the state-space filter's one recursion: at state variance
q = 0 its exact-diffuse unit pass is recursive least squares. From month 2
its v_t / sqrt(F_t) is the recursive residual w_t, its filtered mean the
OLS slope on the first t observations and its filtered variance 1 / S_xx,t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from . import sspace
from .errors import DegenerateRegressor, LengthMismatch
from .series import MonthDate, MonthlySeries

N_REGRESSORS = 1  # one slope, no intercept, throughout

# Brown-Durbin-Evans boundary constants for the CUSUM test
CUSUM_BAND_CONSTANTS = {0.01: 1.143, 0.05: 0.948, 0.10: 0.850}


@dataclass(frozen=True)
class OlsResult:
    """Summary of the no-intercept regression, one row per familiar label."""

    coef: float
    std_err: float
    t_stat: float
    p_value: float
    r2: float
    adj_r2: float
    se_regression: float
    ssr: float
    log_lik: float
    aic: float
    sic: float
    hq: float
    dw: float
    n_obs: int

    def to_text(self) -> str:
        rows = [
            ("Coefficient", self.coef),
            ("Std. Error", self.std_err),
            ("t-Statistic", self.t_stat),
            ("Prob.", self.p_value),
            ("R-squared", self.r2),
            ("Adjusted R-squared", self.adj_r2),
            ("S.E. of regression", self.se_regression),
            ("Sum squared resid", self.ssr),
            ("Log likelihood", self.log_lik),
            ("Akaike info criterion", self.aic),
            ("Schwarz criterion", self.sic),
            ("Hannan-Quinn criter.", self.hq),
            ("Durbin-Watson stat", self.dw),
            ("Included observations", self.n_obs),
        ]
        width = max(len(label) for label, _ in rows)
        lines = ["Least squares, no intercept"]
        for label, value in rows:
            if isinstance(value, int):
                lines.append(f"{label:<{width}}  {value}")
            else:
                lines.append(f"{label:<{width}}  {value:.6f}")
        return "\n".join(lines)


@dataclass(frozen=True)
class RecursivePath:
    """Expanding-sample coefficient estimates with +/-2 s.e. bands.

    start_index is the number of observations in the first estimate (the
    earliest point with a defined standard error).
    """

    start_index: int
    coefs: tuple[float, ...]
    bands_lo: tuple[float, ...]
    bands_hi: tuple[float, ...]

    def to_text(self) -> str:
        return (f"recursive coefficients over {len(self.coefs)} expanding samples; "
                f"final {self.coefs[-1]:.6f} [{self.bands_lo[-1]:.6f}, {self.bands_hi[-1]:.6f}]")


@dataclass(frozen=True)
class CusumResult:
    """Cumulative sum of scaled recursive residuals against linear bands.

    Entry i corresponds to t = k + i observations used (the t = k entry is
    the zero anchor before the first recursive residual). report.json
    (pipeline.Report.to_dict) leaves out the bands, which the significance
    and the statistic's length fix.
    """

    statistic: tuple[float, ...]
    band_lo: tuple[float, ...]
    band_hi: tuple[float, ...]
    significance: float
    first_crossing: MonthDate | None
    stable: bool
    sigma_w: float

    def to_text(self) -> str:
        return (f"CUSUM at {self.significance:.0%}: "
                + ("stable (no boundary crossing)" if self.stable
                   else f"unstable; first crossing {self.first_crossing}"))


def _check_pair(y: MonthlySeries, x: MonthlySeries, min_len: int) -> tuple[tuple, tuple]:
    if len(y) != len(x):
        raise LengthMismatch(f"y has {len(y)} observations, x has {len(x)}")
    if len(y) < min_len:
        raise LengthMismatch(f"need at least {min_len} observations, got {len(y)}")
    return y.values, x.values


_CF_EPS = 1e-16  # a continued-fraction step this close to 1 ends the evaluation
_CF_TINY = 1e-300  # Lentz's guard against a zero denominator
_CF_MAX_ITER = 10_000  # far above need: at most 56 steps for df <= 700 and |t| <= 40


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta I_x(a, b) by Lentz's method.

    Numerical Recipes, section 6.4: it converges fast for x < (a+1)/(a+b+2).
    """
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # the even and the odd step of the fraction
        for num in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                    -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            h *= d * c
        if abs(d * c - 1.0) <= _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _t_two_sided_tail(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom.

    This is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df/(df + t^2). nan stays nan, and an infinite t gives 0.
    """
    if math.isnan(t):
        return math.nan
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    if math.isinf(t2):
        return 0.0
    a, b = 0.5 * df, 0.5
    x, y = df / (df + t2), t2 / (df + t2)  # y = 1 - x without the cancellation
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, y) / b  # the symmetry I_x(a, b) = 1 - I_y(b, a)


def ols_no_intercept(y: MonthlySeries, x: MonthlySeries) -> OlsResult:
    """Fit y = coef * x by least squares with no constant term.

    Inputs are expected to be demeaned; the information criteria follow the
    per-observation convention (-2*loglik + penalty) / n so values are
    directly comparable across sample sizes.
    """
    yv, xv = _check_pair(y, x, min_len=2)
    n = len(yv)
    sxx = math.fsum(map(mul, xv, xv))
    if sxx == 0.0:
        raise DegenerateRegressor("regressor is identically zero")
    coef = math.fsum(map(mul, xv, yv)) / sxx
    resid = [yt - coef * xt for yt, xt in zip(yv, xv)]
    ssr = math.fsum(map(mul, resid, resid))
    df = n - N_REGRESSORS
    s2 = ssr / df
    std_err = math.sqrt(s2 / sxx)
    if std_err > 0:
        t_stat = coef / std_err
    elif coef != 0.0:
        t_stat = math.copysign(math.inf, coef)  # exact fit: the sign of the slope
    else:
        t_stat = math.nan  # y is identically zero: no evidence either way
    p_value = _t_two_sided_tail(t_stat, df)
    ybar = math.fsum(yv) / n
    tss = math.fsum((v - ybar) * (v - ybar) for v in yv)
    r2 = 1.0 - ssr / tss if tss > 0 else 0.0
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / df
    log_lik = -0.5 * n * (math.log(2.0 * math.pi) + math.log(ssr / n) + 1.0) if ssr > 0 else math.inf
    aic = (-2.0 * log_lik + 2.0 * N_REGRESSORS) / n
    sic = (-2.0 * log_lik + N_REGRESSORS * math.log(n)) / n
    hq = (-2.0 * log_lik + 2.0 * N_REGRESSORS * math.log(math.log(n))) / n
    dw = (math.fsum((b - a) * (b - a) for a, b in zip(resid, resid[1:])) / ssr
          if ssr > 0 else math.nan)  # 0/0
    return OlsResult(
        coef=coef, std_err=std_err, t_stat=t_stat, p_value=p_value,
        r2=r2, adj_r2=adj_r2, se_regression=math.sqrt(s2), ssr=ssr,
        log_lik=log_lik, aic=aic, sic=sic, hq=hq, dw=dw, n_obs=n,
    )


def _q0_pass(y: MonthlySeries, x: MonthlySeries) -> tuple[list[float], list[float], list[float]]:
    """(w_t, beta_t, 1 / S_xx,t) for t = 2..T from the q = 0 unit filter pass.

    A first x that squares to zero raises DegenerateRegressor at its start.
    """
    yv, xv = _check_pair(y, x, min_len=N_REGRESSORS + 1)
    moments = ([], [], [], [])
    sspace._filter_core(yv, xv, 0.0, moments)
    beta, p, v, f = (m[sspace.DIFFUSE_MONTHS:] for m in moments)
    return [vt / math.sqrt(ft) for vt, ft in zip(v, f)], beta, p


def recursive_residuals(y: MonthlySeries, x: MonthlySeries) -> MonthlySeries:
    """Standardized one-step-ahead prediction errors from expanding OLS.

    w_t = (y_t - x_t * beta_{t-1}) / sqrt(1 + x_t^2 / S_{t-1}) where
    S_{t-1} = sum of x_s^2 over s < t, for t = 2..T: the q = 0 pass's
    v_t / sqrt(F_t). Under a stable model with iid N(0, sigma^2) errors the
    w_t are iid N(0, sigma^2).
    """
    w, _, _ = _q0_pass(y, x)
    return MonthlySeries(y.start.plus(N_REGRESSORS), tuple(w), name="recursive_residuals")


def recursive_coefficients(y: MonthlySeries, x: MonthlySeries) -> RecursivePath:
    """Coefficient path over expanding samples with +/-2 s.e. bands.

    The first entry uses k+1 = 2 observations (the earliest sample with a
    residual degree of freedom); the last equals the full-sample estimate.
    beta_t is the q = 0 pass's filtered mean and its s.e. is
    sqrt(SSR_t / (t - k) * p_t), with SSR_t the running sum of w_s^2 (the
    prefix fit's SSR, without cancellation) and p_t = 1 / S_xx,t.
    """
    w, beta, p = _q0_pass(y, x)
    bands_lo, bands_hi = [], []
    ssr = 0.0
    for t, (wt, bt, pt) in enumerate(zip(w, beta, p), start=N_REGRESSORS + 1):
        ssr += wt * wt
        se = math.sqrt(ssr / (t - N_REGRESSORS) * pt)
        bands_lo.append(bt - 2.0 * se)
        bands_hi.append(bt + 2.0 * se)
    return RecursivePath(start_index=N_REGRESSORS + 1, coefs=tuple(beta),
                         bands_lo=tuple(bands_lo), bands_hi=tuple(bands_hi))


def cusum(y: MonthlySeries, x: MonthlySeries, significance: float = 0.05) -> CusumResult:
    """CUSUM stability test on the cumulated scaled recursive residuals.

    W_t = sum of w_s (s <= t) divided by the sample standard deviation of
    the recursive residuals (denominator T-k-1), the w_t of the q = 0 pass.
    The boundaries are +/- a * [sqrt(T-k) + 2*(t-k)/sqrt(T-k)] with a the
    Brown-Durbin-Evans constant for the chosen significance level; a
    crossing anywhere rejects parameter stability.
    """
    if significance not in CUSUM_BAND_CONSTANTS:
        raise ValueError(
            f"significance must be one of {sorted(CUSUM_BAND_CONSTANTS)}, got {significance}"
        )
    w, _, _ = _q0_pass(y, x)
    n = len(w)  # T - k
    if n < 2:
        raise LengthMismatch("need at least two recursive residuals for CUSUM")
    mean = math.fsum(w) / n
    sigma_w = math.sqrt(math.fsum((v - mean) * (v - mean) for v in w) / (n - 1))
    a = CUSUM_BAND_CONSTANTS[significance]
    sqrt_n = math.sqrt(n)
    # index i corresponds to t - k = i, with the zero anchor at i = 0
    stat = [0.0, *(s / sigma_w for s in accumulate(w))] if sigma_w > 0 else [0.0] * (n + 1)
    band_hi = [a * (sqrt_n + 2.0 * i / sqrt_n) for i in range(n + 1)]
    band_lo = [-b for b in band_hi]

    first_crossing: MonthDate | None = None
    for i in range(1, n + 1):
        if abs(stat[i]) > band_hi[i]:
            # entry i is the residual at observation k + i (1-based)
            first_crossing = y.start.plus(N_REGRESSORS + i - 1)
            break
    return CusumResult(statistic=tuple(stat), band_lo=tuple(band_lo), band_hi=tuple(band_hi),
                       significance=significance, first_crossing=first_crossing,
                       stable=first_crossing is None, sigma_w=sigma_w)
