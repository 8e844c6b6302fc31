"""Independent reference implementations used to freeze expected values.

Everything here recomputes results from definitions (explicit sums, joint
Gaussian densities, sequential OLS) without touching the library's own
recursions, so a test that compares the two is a genuine cross-check.
proper_prior_filter is the one recursion: a start the library does not
have, against which its diffuse start is checked as a limit.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath
import numpy as np


def ols_brute(y, x):
    """No-intercept OLS statistics from explicit elementwise sums."""
    y = [float(v) for v in y]
    x = [float(v) for v in x]
    n = len(y)
    sxx = math.fsum(xi * xi for xi in x)
    sxy = math.fsum(xi * yi for xi, yi in zip(x, y))
    coef = sxy / sxx
    resid = [yi - coef * xi for yi, xi in zip(y, x)]
    ssr = math.fsum(r * r for r in resid)
    ybar = math.fsum(y) / n
    tss = math.fsum((yi - ybar) ** 2 for yi in y)
    dw = math.fsum((resid[t] - resid[t - 1]) ** 2 for t in range(1, n)) / ssr
    return {
        "coef": coef,
        "ssr": ssr,
        "r2": 1.0 - ssr / tss,
        "dw": dw,
        "se_regression": math.sqrt(ssr / (n - 1)),
        "std_err": math.sqrt(ssr / (n - 1) / sxx),
    }


def ols_exact(y, x, prec=200):
    """Every OlsResult field but n_obs at prec bits, from the definitions.

    Each float converts to mpmath exactly, and S_xx, S_xy, the residuals,
    SSR, the mean and the total sum of squares, the Durbin-Watson sum and
    the logs are all taken at prec bits, so nothing is shared with a
    float64 sum. The p-value is the regularized incomplete beta
    I_z(df/2, 1/2) at z = df / (df + t^2). Returns a dict of mpf; the fit
    must have residuals (SSR > 0).
    """
    with mpmath.workprec(prec):
        y = [mpmath.mpf(float(v)) for v in y]
        x = [mpmath.mpf(float(v)) for v in x]
        n = len(y)
        df = n - 1
        sxx = mpmath.fdot(x, x)
        coef = mpmath.fdot(x, y) / sxx
        resid = [a - coef * b for a, b in zip(y, x)]
        ssr = mpmath.fdot(resid, resid)
        s2 = ssr / df
        std_err = mpmath.sqrt(s2 / sxx)
        t_stat = coef / std_err
        p_value = mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0,
                                 df / (df + t_stat * t_stat), regularized=True)
        ybar = mpmath.fsum(y) / n
        tss = mpmath.fsum((v - ybar) ** 2 for v in y)
        r2 = 1 - ssr / tss
        log_lik = -mpmath.mpf(n) / 2 * (mpmath.log(2 * mpmath.pi) + mpmath.log(ssr / n) + 1)
        return {
            "coef": coef, "std_err": std_err, "t_stat": t_stat, "p_value": p_value,
            "r2": r2, "adj_r2": 1 - (1 - r2) * (n - 1) / df,
            "se_regression": mpmath.sqrt(s2), "ssr": ssr, "log_lik": log_lik,
            "aic": (-2 * log_lik + 2) / n,
            "sic": (-2 * log_lik + mpmath.log(n)) / n,
            "hq": (-2 * log_lik + 2 * mpmath.log(mpmath.log(n))) / n,
            "dw": mpmath.fsum((b - a) ** 2 for a, b in zip(resid, resid[1:])) / ssr,
        }


def recursive_residuals_brute(y, x):
    """Recursive residuals via a fresh OLS fit on every prefix."""
    y = [float(v) for v in y]
    x = [float(v) for v in x]
    out = []
    for t in range(1, len(y)):
        xs, ys = x[:t], y[:t]
        sxx = math.fsum(v * v for v in xs)
        beta = math.fsum(a * b for a, b in zip(xs, ys)) / sxx
        err = y[t] - x[t] * beta
        out.append(err / math.sqrt(1.0 + x[t] * x[t] / sxx))
    return out


def recursive_path_exact(y, x, prec=200):
    """The recursive path and CUSUM at prec bits, from prefix sums.

    Each float converts to mpmath exactly, and every prefix fit is taken
    from its own sums S_xx, S_xy and S_yy, with SSR_t = S_yy - S_xy^2 / S_xx,
    so nothing is shared with a filter recursion. Returns mpf lists, t =
    2..T: the recursive residuals w, the coefficients beta, the +/-2 s.e.
    band half-widths 2 sqrt(SSR_t / (t - 1) / S_xx,t), and the CUSUM
    statistic cumsum(w) / sd(w, ddof 1), without its zero anchor.
    """
    with mpmath.workprec(prec):
        y = [mpmath.mpf(float(v)) for v in y]
        x = [mpmath.mpf(float(v)) for v in x]
        sxx, sxy, syy = x[0] * x[0], x[0] * y[0], y[0] * y[0]
        w, beta, half = [], [], []
        for t in range(1, len(y)):
            b_prev = sxy / sxx
            w.append((y[t] - x[t] * b_prev) / mpmath.sqrt(1 + x[t] * x[t] / sxx))
            sxx, sxy, syy = sxx + x[t] * x[t], sxy + x[t] * y[t], syy + y[t] * y[t]
            beta.append(sxy / sxx)
            half.append(2 * mpmath.sqrt((syy - sxy * sxy / sxx) / t / sxx))
        mean = mpmath.fsum(w) / len(w)
        sd = mpmath.sqrt(mpmath.fsum((v - mean) ** 2 for v in w) / (len(w) - 1))
        stat, total = [], mpmath.mpf(0)
        for v in w:
            total += v
            stat.append(total / sd)
        return w, beta, half, stat


def _unit_innovations_exact(y, x, q):
    """The innovations v_t and variances F_t, t = 2..T, of the random walk at
    measurement variance 1 and state variance q from the exact diffuse start
    (a_1 = y_1 / x_1, P_1 = 1 / x_1^2), in the textbook update P - K x P."""
    a, p = y[0] / x[0], 1 / (x[0] * x[0])
    v, f = [], []
    for yt, xt in zip(y[1:], x[1:]):
        p_pred = p + q
        ft = xt * xt * p_pred + 1
        k = p_pred * xt / ft
        vt = yt - xt * a
        a, p = a + k * vt, p_pred - k * xt * p_pred
        v.append(vt)
        f.append(ft)
    return v, f


def sandwich_exact(yv, xv, theta, prec=200):
    """robust_se, z_stats, hessian_cond and log_lik of sspace's sandwich
    stencil at theta = (log_var_meas, log_var_state), at prec bits.

    The same estimator as the package's, so only its rounding differs: in
    phi = (sigma, rho) = (log_var_meas, log_var_state - log_var_meas), the
    unit passes at rho and rho +/- h, with the package's float step h =
    1e-4 max(1, |log_var_state|), give the closed-form sigma entries, the
    second-difference rho-rho entry, the central-difference cross term and
    rho scores; B = [[1, 0], [-1, 1]] maps them to theta, and each SE is a
    column norm of S H^-1. Returns a dict of mpf tuples and mpfs.
    """
    h = 1e-4 * max(1.0, abs(float(theta[1])))
    with mpmath.workprec(prec):
        mp = mpmath.mpf
        y = [mp(float(v)) for v in yv]
        x = [mp(float(v)) for v in xv]
        lvm, lvs, h = mp(float(theta[0])), mp(float(theta[1])), mp(h)
        vm, n = mpmath.exp(lvm), len(y) - 1

        def unit(rho):
            v, f = _unit_innovations_exact(y, x, mpmath.exp(rho))
            ll = -(n * mpmath.log(2 * mpmath.pi) + mpmath.fsum(map(mpmath.log, f)) + n * lvm
                   + mpmath.fsum(a * a / b for a, b in zip(v, f)) / vm) / 2
            return ll, v, f

        (ll0, v0, f0), (llp, vp, fp), (llm, vm_, fm) = (unit(lvs - lvm + d) for d in (0, h, -h))
        v2_f = [a * a / (b * vm) for a, b in zip(v0, f0)]
        h_ss = -mpmath.fsum(v2_f) / 2
        h_rr = (llp - 2 * ll0 + llm) / (h * h)
        s_p = mpmath.fsum(a * a / b for a, b in zip(vp, fp)) / vm
        s_m = mpmath.fsum(a * a / b for a, b in zip(vm_, fm)) / vm
        h_sr = (s_p - s_m) / (4 * h)
        score_r = [-(mpmath.log(f1 / f2) + (v1 * v1 / f1 - v2 * v2 / f2) / vm) / (4 * h)
                   for v1, f1, v2, f2 in zip(vp, fp, vm_, fm)]
        score_s = [-(1 - r2) / 2 - r for r2, r in zip(v2_f, score_r)]
        a, b, d = h_ss - 2 * h_sr + h_rr, h_sr - h_rr, h_rr
        det = a * d - b * b
        se = tuple(mpmath.sqrt(mpmath.fsum(c * c for c in col)) / det for col in (
            [s * d - r * b for s, r in zip(score_s, score_r)],
            [r * a - s * b for s, r in zip(score_s, score_r)]))
        mid, rad = (a + d) / 2, mpmath.sqrt(((a - d) / 2) ** 2 + b * b)
        return {"robust_se": se, "z_stats": (lvm / se[0], lvs / se[1]),
                "hessian_cond": (abs(mid) + rad) / abs(abs(mid) - rad), "log_lik": ll0}


def _joint_gaussian(yv, xv, var_meas, var_state, a0, p0):
    """Means and covariances of the random-walk states alpha_1..alpha_T and of
    y_1..y_T under a proper N(a0, p0) prior on alpha_0: (mean_a, cov_a,
    residuals y - E y, cov_y), with Cov(alpha_t, alpha_s) = p0 + var_state
    * min(t, s)."""
    yv = np.asarray(yv, dtype=float)
    xv = np.asarray(xv, dtype=float)
    steps = np.arange(1, len(yv) + 1)
    cov_a = p0 + var_state * np.minimum.outer(steps, steps).astype(float)
    mean_a = np.full(len(yv), float(a0))
    cov_y = np.outer(xv, xv) * cov_a + var_meas * np.eye(len(yv))
    return mean_a, cov_a, yv - xv * mean_a, cov_y


def state_space_oracle(yv, xv, var_meas, var_state, a0, p0):
    """Exact moments of the TVP model from the joint Gaussian distribution.

    Builds the T x T covariance of the states implied by the random-walk
    transition and a proper N(a0, p0) prior on alpha_0, marginalizes to the
    observations, and conditions directly. Returns
    (loglik, filtered_means, filtered_vars, smoothed_means, smoothed_vars).
    """
    xv = np.asarray(xv, dtype=float)
    T = len(xv)
    mean_a, cov_a, resid, cov_y = _joint_gaussian(yv, xv, var_meas, var_state, a0, p0)
    _, logdet = np.linalg.slogdet(cov_y)
    loglik = -0.5 * (T * math.log(2.0 * math.pi) + logdet
                     + float(resid @ np.linalg.solve(cov_y, resid)))

    filt_m, filt_v, sm_m, sm_v = [], [], [], []
    sol_full = np.linalg.solve(cov_y, resid)
    for t in range(T):
        cross = cov_a[t, :t + 1] * xv[:t + 1]
        sol = np.linalg.solve(cov_y[:t + 1, :t + 1], resid[:t + 1])
        filt_m.append(mean_a[t] + float(cross @ sol))
        filt_v.append(cov_a[t, t] - float(
            cross @ np.linalg.solve(cov_y[:t + 1, :t + 1], cross)
        ))
        cross_full = cov_a[t, :] * xv
        sm_m.append(mean_a[t] + float(cross_full @ sol_full))
        sm_v.append(cov_a[t, t] - float(
            cross_full @ np.linalg.solve(cov_y, cross_full)
        ))
    return loglik, np.array(filt_m), np.array(filt_v), np.array(sm_m), np.array(sm_v)


def smoothed_prior_oracle(yv, xv, var_meas, var_state, a0, p0):
    """Mean and variance of alpha_0 given y_1..y_T under the N(a0, p0) prior:
    with c_t = Cov(alpha_0, y_t) = x_t * p0 and S the covariance of y, they are
    a0 + c' S^-1 (y - x a0) and p0 - c' S^-1 c."""
    _, _, resid, cov_y = _joint_gaussian(yv, xv, var_meas, var_state, a0, p0)
    c = np.asarray(xv, dtype=float) * p0
    return (a0 + float(c @ np.linalg.solve(cov_y, resid)),
            p0 - float(c @ np.linalg.solve(cov_y, c)))


def diffuse_state_space_oracle(yv, xv, var_meas, var_state):
    """state_space_oracle's five results for the exact diffuse start, over all T months.

    The first month alone gives alpha_1 ~ N(y_1 / x_1, var_meas / x_1^2) and
    no likelihood term; that is the proper prior of the dense oracle on the
    tail y_2..y_T, which gives months 2..T. Month 1's filtered moments are
    that prior, and its smoothed moments condition it on the whole tail
    (smoothed_prior_oracle).
    """
    yv = np.asarray(yv, dtype=float)
    xv = np.asarray(xv, dtype=float)
    a1, p1 = yv[0] / xv[0], var_meas / (xv[0] * xv[0])
    if len(yv) == 1:
        return 0.0, np.array([a1]), np.array([p1]), np.array([a1]), np.array([p1])
    ll, fm, fv, sm, sv = state_space_oracle(yv[1:], xv[1:], var_meas, var_state, a1, p1)
    s1, v1 = smoothed_prior_oracle(yv[1:], xv[1:], var_meas, var_state, a1, p1)
    return (ll, np.concatenate(([a1], fm)), np.concatenate(([p1], fv)),
            np.concatenate(([s1], sm)), np.concatenate(([v1], sv)))


def state_space_innovations(yv, xv, var_meas, var_state, a0, p0):
    """One-step prediction errors v_t and their variances F_t, t = 1..T.

    Each prediction is taken from the previous period's filtered moments of
    state_space_oracle (the prior N(a0, p0) before the first), propagated
    one step through the random walk and the measurement equation.
    """
    yv = np.asarray(yv, dtype=float)
    xv = np.asarray(xv, dtype=float)
    _, fm, fv, _, _ = state_space_oracle(yv, xv, var_meas, var_state, a0, p0)
    prev_m = np.concatenate(([a0], fm[:-1]))
    prev_v = np.concatenate(([p0], fv[:-1]))
    return yv - xv * prev_m, xv * xv * (prev_v + var_state) + var_meas


def proper_prior_filter(yv, xv, var_meas, var_state, a0, p0):
    """A reference scalar Kalman filter from the proper prior alpha_0 ~ N(a0, p0).

    It has no diffuse month: every observation is predicted and filtered,
    with the library's operations in the library's order (a_pred = a,
    P_pred = P + var_state, F = x (x P_pred) + var_meas, the update
    a + (x P_pred) (v / F) and the variance update P_pred var_meas / F, at
    var_meas = 1 the library's unit-scale P_pred / F), so as p0 grows its
    months 2..T approach the library's exact diffuse start. Returns lists
    (filtered means, filtered variances, innovations, innovation
    variances), t = 1..T.
    """
    a, p = a0, p0
    fm, fv, vs, fs = [], [], [], []
    for yt, xt in zip(yv, xv):
        p_pred = p + var_state
        xp = xt * p_pred
        f = xt * xp + var_meas
        v = yt - xt * a
        a = a + xp * (v / f)
        p = p_pred * var_meas / f
        fm.append(a)
        fv.append(p)
        vs.append(v)
        fs.append(f)
    return fm, fv, vs, fs


def central_gradient(fun, x, scale=1e-4):
    """Central-difference gradient with step scale * max(1, |x_i|) per coordinate.

    A vector-valued fun gives its Jacobian, one column per coordinate.
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(len(x)):
        h = scale * max(1.0, abs(x[i]))
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        cols.append((np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def central_hessian(fun, x, scale=1e-4):
    """Central-difference Hessian with step scale * max(1, |x_i|) per coordinate.

    The diagonal is the three-point second difference, each off-diagonal
    entry the four-point cross difference.
    """
    x = np.asarray(x, dtype=float)
    h = [scale * max(1.0, abs(v)) for v in x]

    def at(*steps):
        z = x.copy()
        for i, step in steps:
            z[i] += step
        return fun(z)

    n = len(x)
    hess = np.empty((n, n))
    for i in range(n):
        hess[i, i] = (at((i, h[i])) - 2.0 * fun(x) + at((i, -h[i]))) / (h[i] * h[i])
        for j in range(i + 1, n):
            hess[i, j] = hess[j, i] = (
                at((i, h[i]), (j, h[j])) - at((i, h[i]), (j, -h[j]))
                - at((i, -h[i]), (j, h[j])) + at((i, -h[i]), (j, -h[j]))
            ) / (4.0 * h[i] * h[j])
    return hess


def adf_design_brute(x, p, n_rows, deterministic):
    """ADF regression rows for the last n_rows differences, built row by row."""
    t_end = len(x)
    rows, y = [], []
    for t in range(t_end - n_rows, t_end):
        row = []
        if deterministic in ("constant", "constant+trend"):
            row.append(1.0)
        if deterministic == "constant+trend":
            row.append(float(t))
        row.append(x[t - 1])
        row.extend(x[t - j] - x[t - j - 1] for j in range(1, p + 1))
        rows.append(row)
        y.append(x[t] - x[t - 1])
    return np.array(rows, dtype=float), np.array(y, dtype=float)


def _svd_fit(design, y, rtol):
    """OLS by SVD: (beta, ssr, diag of (X'X)^-1), or None when s_min <= rtol * s_max."""
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s[-1] <= rtol * s[0]:
        return None
    beta = vt.T @ ((u.T @ y) / s)
    resid = y - design @ beta
    return beta, float(resid @ resid), np.einsum("ji,j->i", vt ** 2, 1.0 / s ** 2)


def adf_brute(values, deterministic, max_lags=None, rtol=1e-9):
    """ADF lag order and t-ratio with one SVD fit per candidate order.

    Every order 0..max_lags is fitted on the common sample trimmed for the
    largest order and scored by the Schwarz criterion, skipping a candidate
    whose singular values have s_min <= rtol * s_max or whose SSR is not
    positive; the t-ratio on the lagged level comes from a refit at the
    chosen order on its own maximal sample. Returns (chosen order, t-ratio),
    or None when every candidate is skipped.
    """
    x = [float(v) for v in values]
    t_len = len(x)
    if max_lags is None:
        max_lags = int(math.floor(12.0 * (t_len / 100.0) ** 0.25))
    max_lags = max(0, min(max_lags, t_len // 3))
    n_common = t_len - 1 - max_lags
    chosen, best_sic = 0, math.inf
    for p in range(max_lags + 1):
        design, y = adf_design_brute(x, p, n_common, deterministic)
        fit = _svd_fit(design, y, rtol)
        if fit is None or fit[1] <= 0.0:
            continue
        k = design.shape[1]
        sic = math.log(fit[1] / n_common) + k * math.log(n_common) / n_common
        if sic < best_sic:
            chosen, best_sic = p, sic
    if not math.isfinite(best_sic):
        return None
    n_used = t_len - 1 - chosen
    design, y = adf_design_brute(x, chosen, n_used, deterministic)
    beta, ssr, xtx_inv_diag = _svd_fit(design, y, rtol)
    k = design.shape[1]
    level_pos = k - 1 - chosen
    se = math.sqrt(ssr / (n_used - k) * xtx_inv_diag[level_pos])
    return chosen, float(beta[level_pos]) / se


def adf_t_exact(values, deterministic, chosen, prec=200):
    """The ADF t-ratio on the lagged level at order chosen, at prec bits.

    Each value converts to mpmath exactly, and the differences, the final
    regression's design on its maximal sample (dependent differences
    t = chosen + 1 .. T - 1, trend t), the normal equations X'X b = X'y and
    the residuals are all taken at prec bits, so nothing is shared with a
    float64 factorization. Returns an mpf.
    """
    with mpmath.workprec(prec):
        x = [mpmath.mpf(float(v)) for v in values]
        rows, y = [], []
        for t in range(chosen + 1, len(x)):
            row = [mpmath.mpf(1)] if deterministic in ("constant", "constant+trend") else []
            if deterministic == "constant+trend":
                row.append(mpmath.mpf(t))
            row.append(x[t - 1])
            row.extend(x[t - j] - x[t - j - 1] for j in range(1, chosen + 1))
            rows.append(row)
            y.append(x[t] - x[t - 1])
        n, k = len(rows), len(rows[0])
        cols = list(zip(*rows))
        xtx = mpmath.matrix([[mpmath.fdot(a, b) for b in cols] for a in cols])
        xtx_inv = mpmath.inverse(xtx)
        beta = xtx_inv * mpmath.matrix([mpmath.fdot(a, y) for a in cols])
        ssr = mpmath.fsum((yt - mpmath.fdot(row, beta)) ** 2 for row, yt in zip(rows, y))
        level = k - 1 - chosen
        return beta[level] / mpmath.sqrt(ssr / (n - k) * xtx_inv[level, level])


def csv_text_reference(header, rows):
    """The per-cell CSV writer the package used before series.csv_text:
    csv.writer with "\n" line ends, every float cell passed as repr(float(c))."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(c)) if isinstance(c, float) else c for c in row])
    return buf.getvalue()


def json_text_stdlib(obj, indent=None):
    """The JSON writer the package used before series.json_text encoded on
    its own: json.dumps with sorted keys, a nan or inf rewritten as null."""
    try:
        return json.dumps(obj, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError:  # only a payload holding a nan or inf is walked
        return json.dumps(_finite_or_null(obj), sort_keys=True, indent=indent, allow_nan=False)


def _finite_or_null(obj):
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj
