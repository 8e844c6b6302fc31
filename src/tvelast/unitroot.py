"""Augmented Dickey-Fuller test with Schwarz-criterion lag selection.

The test regression is

    dX_t = [deterministics] + rho_coef * X_{t-1} + sum_j b_j * dX_{t-j} + e_t

and the statistic is the t-ratio on X_{t-1}; the null of a unit root is
rejected for sufficiently negative values. Lag order is chosen by
minimizing the Schwarz criterion over 0..max_lags on a common sample
trimmed for the largest candidate, then the final regression is refit at
the chosen order on its own maximal sample. The candidates are nested, so
every candidate's SSR comes from one QR of the widest augmented design
on the common sample; a candidate is skipped as degenerate when the
smallest |R_ii| of its columns is at most _RANK_RTOL times the largest
(the R-diagonal rule), or when its SSR is not positive.

Critical values and approximate p-values interpolate embedded quantile
tables of the Dickey-Fuller t-ratio (see _dftables.py and
scripts/gen_adf_tables.py); interpolation is linear in 1/T across sample
sizes and linear on the normal-quantile scale across probabilities. The
normal quantiles of the tabulated probabilities are frozen next to the
tables (scipy.special.ndtri, written by the same script), and the normal
CDF is taken from math.erf/erfc, so the test needs no scipy at run time.
Accuracy of the embedded tables is about +/-0.005 on the 1%..10% critical
values, comfortably inside the +/-0.02 documented target.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._dftables import NORMAL_QUANTILES, PROBS, TABLES
from .errors import DegenerateDesign, TooShort, UnsupportedCase
from .series import MonthlySeries

DETERMINISTIC_CASES = ("none", "constant", "constant+trend")
_MIN_TABLE_T = 25
_RANK_RTOL = 1e-9
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class AdfSpec:
    """Configuration: deterministic terms and the largest candidate lag order."""

    deterministic: str = "constant+trend"
    max_lags: int | None = None  # None -> floor(12 * (T/100)^0.25)

    def __post_init__(self):
        if self.deterministic not in DETERMINISTIC_CASES:
            raise UnsupportedCase(
                f"deterministic must be one of {DETERMINISTIC_CASES}, got {self.deterministic!r}"
            )
        if self.max_lags is not None and self.max_lags < 0:
            raise ValueError("max_lags must be >= 0")


@dataclass(frozen=True)
class AdfResult:
    statistic: float
    chosen_lags: int
    crit_1: float
    crit_5: float
    crit_10: float
    p_value_approx: float
    reject_at: float | None
    n_used: int
    deterministic: str

    def stars(self) -> str:
        if self.reject_at == 0.01:
            return "***"
        if self.reject_at == 0.05:
            return "**"
        if self.reject_at == 0.10:
            return "*"
        return ""


def default_max_lags(t: int) -> int:
    """Common rule of thumb: floor(12 * (T/100)^(1/4))."""
    return int(math.floor(12.0 * (t / 100.0) ** 0.25))


def _lag_cap(t: int, max_lags: int | None) -> int:
    """The largest candidate order adf searches for a series of length t."""
    return max(0, min(default_max_lags(t) if max_lags is None else max_lags, t // 3))


# Shortest series whose default-lag test the tables always cover: the final
# regression keeps t - 1 - chosen >= t - 1 - _lag_cap(t, None) rows, and
# that bound never falls as t grows.
MIN_DEFAULT_LAGS_T = next(t for t in itertools.count(_MIN_TABLE_T)
                          if t - 1 - _lag_cap(t, None) >= _MIN_TABLE_T)


def _interp_quantiles(case: str, t: int) -> np.ndarray:
    """Quantile grid for sample size t, linear in 1/T between table rows."""
    if case not in TABLES:
        raise UnsupportedCase(f"no table for deterministic case {case!r}")
    if t < _MIN_TABLE_T:
        raise TooShort(f"tables require at least {_MIN_TABLE_T} observations, got {t}")
    rows = TABLES[case]
    inv = 1.0 / t
    for (lo_inv, lo_q), (hi_inv, hi_q) in zip(rows, rows[1:]):
        if lo_inv <= inv <= hi_inv:
            w = (inv - lo_inv) / (hi_inv - lo_inv)
            lo = np.asarray(lo_q)
            return lo + w * (np.asarray(hi_q) - lo)
    return np.asarray(rows[-1][1])


def critical_values(t: int, deterministic: str) -> tuple[float, float, float]:
    """(1%, 5%, 10%) critical values of the DF t-ratio for sample size t."""
    q = _interp_quantiles(deterministic, t)
    return (
        float(q[PROBS.index(0.01)]),
        float(q[PROBS.index(0.05)]),
        float(q[PROBS.index(0.10)]),
    )


def approx_pvalue(statistic: float, t: int, deterministic: str) -> float:
    """One-sided p-value of the DF t-ratio against the embedded tables.

    Interpolates linearly on the normal-quantile scale between tabulated
    quantiles and extrapolates the end segments, so the result is strictly
    monotone in the statistic and well behaved far into either tail.
    """
    if math.isnan(statistic):
        return math.nan
    q = _interp_quantiles(deterministic, t)
    z_grid = NORMAL_QUANTILES
    # piecewise-linear map statistic -> normal quantile
    if statistic <= q[0]:
        i, j = 0, 1
    elif statistic >= q[-1]:
        i, j = len(q) - 2, len(q) - 1
    else:
        j = int(np.searchsorted(q, statistic))
        i = j - 1
    slope = (z_grid[j] - z_grid[i]) / (q[j] - q[i])
    z = z_grid[i] + slope * (statistic - q[i])
    return _ndtr(float(z))


def _ndtr(z: float) -> float:
    """Standard normal CDF, split as scipy.special.ndtr splits it.

    erf near the centre and erfc in the tails, so a small lower-tail
    probability keeps its relative precision.
    """
    x = z * _SQRT_HALF
    if abs(x) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(x)
    tail = 0.5 * math.erfc(abs(x))
    return 1.0 - tail if x > 0 else tail


def _design(x: np.ndarray, p: int, n_rows: int, deterministic: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows t = len(x)-n_rows .. len(x)-1 (0-based) of the ADF regression."""
    dx = np.diff(x)
    t_end = len(x)
    t0 = t_end - n_rows  # first (0-based) index of the dependent difference
    y = dx[t0 - 1:]
    cols = []
    if deterministic in ("constant", "constant+trend"):
        cols.append(np.ones(n_rows))
    if deterministic == "constant+trend":
        cols.append(np.arange(t0, t_end, dtype=float))
    cols.append(x[t0 - 1:t_end - 1])  # lagged level
    for j in range(1, p + 1):
        cols.append(dx[t0 - 1 - j:t_end - 1 - j])
    return np.column_stack(cols), y


def _fit(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """OLS via SVD with an explicit rank check; returns (beta, ssr, xtx_inv_diag)."""
    n, k = design.shape
    if n <= k:
        raise TooShort(f"only {n} usable observations for {k} regressors")
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s[-1] <= _RANK_RTOL * s[0]:
        raise DegenerateDesign("regressors are collinear (rank-deficient design)")
    beta = vt.T @ ((u.T @ y) / s)
    resid = y - design @ beta
    ssr = float(resid @ resid)
    xtx_inv_diag = np.einsum("ji,j->i", vt ** 2, 1.0 / s ** 2)
    return beta, ssr, xtx_inv_diag


def _select_lags(x: np.ndarray, max_lags: int, deterministic: str) -> int:
    """Schwarz-criterion lag order over 0..max_lags on the common sample.

    The candidate designs share their rows and differ only by trailing lag
    columns, so one QR of the widest design with y appended gives them all:
    with R's last column r, the candidate with k regressors has
    SSR = sum(r[k:]**2). Candidate k is skipped as degenerate when the
    smallest |R_ii| of its first k columns is at most _RANK_RTOL times the
    largest.
    """
    n_common = len(x) - 1 - max_lags  # trimmed for the largest candidate order
    design, y = _design(x, max_lags, n_common, deterministic)
    k_widest = design.shape[1]  # adf's length gate leaves n_common > k_widest
    r = np.linalg.qr(np.column_stack((design, y)), mode="r")
    diag = np.abs(np.diagonal(r)[:-1])
    full_rank = np.minimum.accumulate(diag) > _RANK_RTOL * np.maximum.accumulate(diag)
    tail_ssr = np.cumsum(r[::-1, -1] ** 2)[::-1]  # tail_ssr[k] = sum(r[k:, -1]**2)
    chosen = 0
    best_sic = math.inf
    for p in range(max_lags + 1):
        k = k_widest - max_lags + p
        ssr = float(tail_ssr[k])
        if not full_rank[k - 1] or ssr <= 0.0:
            continue
        sic = math.log(ssr / n_common) + k * math.log(n_common) / n_common
        if sic < best_sic:
            best_sic = sic
            chosen = p
    if not math.isfinite(best_sic):
        raise DegenerateDesign("every candidate regression is degenerate")
    return chosen


def adf(s: MonthlySeries, spec: AdfSpec = AdfSpec()) -> AdfResult:
    """Run the test on a series; see the module docstring for conventions."""
    x = np.asarray(s.values, dtype=float)
    t_len = len(x)
    max_lags = _lag_cap(t_len, spec.max_lags)
    if t_len - max_lags - 2 < 10:
        raise TooShort(
            f"{t_len} observations leave fewer than 10 effective rows "
            f"after {max_lags} lags"
        )

    chosen = _select_lags(x, max_lags, spec.deterministic)
    n_used = t_len - 1 - chosen
    design, y = _design(x, chosen, n_used, spec.deterministic)
    beta, ssr, xtx_inv_diag = _fit(design, y)
    k = design.shape[1]
    level_pos = k - 1 - chosen  # lagged level sits before the lagged differences
    s2 = ssr / (n_used - k)
    se = math.sqrt(s2 * xtx_inv_diag[level_pos])
    if se == 0.0 or not math.isfinite(se):
        raise DegenerateDesign("zero residual variance: the t-ratio is unbounded")
    statistic = float(beta[level_pos]) / se

    crit = critical_values(n_used, spec.deterministic)
    p_val = approx_pvalue(statistic, n_used, spec.deterministic)
    reject_at = None
    for level, cv in zip((0.01, 0.05, 0.10), crit):
        if statistic < cv:
            reject_at = level
            break
    return AdfResult(
        statistic=statistic,
        chosen_lags=chosen,
        crit_1=crit[0],
        crit_5=crit[1],
        crit_10=crit[2],
        p_value_approx=p_val,
        reject_at=reject_at,
        n_used=n_used,
        deterministic=spec.deterministic,
    )
