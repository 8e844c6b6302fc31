"""Augmented Dickey-Fuller test with Schwarz-criterion lag selection.

The test regression is

    dX_t = [deterministics] + rho_coef * X_{t-1} + sum_j b_j * dX_{t-j} + e_t

and the statistic is the t-ratio on X_{t-1}; the null of a unit root is
rejected for sufficiently negative values. Lag order is chosen by
minimizing the Schwarz criterion over 0..max_lags on a common sample
trimmed for the largest candidate, then the final regression is refit at
the chosen order on its own maximal sample. Every regression reads one QR
of [X y] under one rank rule: a design is degenerate when the smallest
|R_ii| of its columns is at most _RANK_RTOL times the largest (the
R-diagonal rule). The candidates are nested, so every candidate's SSR
comes from one QR of the widest design on the common sample, and a
candidate is also skipped when its SSR is not positive. The final design
puts the lagged level last, so its t-ratio is read off the last rows of R.

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

import bisect
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


def _interp_quantiles(case: str, t: int) -> tuple[float, ...]:
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
            return tuple(lo + w * (hi - lo) for lo, hi in zip(lo_q, hi_q))
    return rows[-1][1]


def critical_values(t: int, deterministic: str) -> tuple[float, float, float]:
    """(1%, 5%, 10%) critical values of the DF t-ratio for sample size t."""
    q = _interp_quantiles(deterministic, t)
    return q[PROBS.index(0.01)], q[PROBS.index(0.05)], q[PROBS.index(0.10)]


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
        j = bisect.bisect_left(q, statistic)
        i = j - 1
    slope = (z_grid[j] - z_grid[i]) / (q[j] - q[i])
    z = z_grid[i] + slope * (statistic - q[i])
    return _ndtr(z)


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


def _qr(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R of one QR of [design y], and the R-diagonal rule's flags: full_rank[k - 1]
    holds when the smallest |R_ii| of the first k columns exceeds _RANK_RTOL
    times the largest."""
    r = np.linalg.qr(np.column_stack((design, y)), mode="r")
    diag = np.abs(np.diagonal(r)[:-1])
    return r, np.minimum.accumulate(diag) > _RANK_RTOL * np.maximum.accumulate(diag)


def _select_lags(x: np.ndarray, max_lags: int, deterministic: str) -> int:
    """Schwarz-criterion lag order over 0..max_lags on the common sample.

    The candidate designs share their rows and differ only by trailing lag
    columns, so one QR of the widest design with y appended gives them all:
    with R's last column r, the candidate with k regressors has
    SSR = sum(r[k:]**2), and it is skipped as degenerate when its first k
    columns fail the R-diagonal rule.
    """
    n_common = len(x) - 1 - max_lags  # trimmed for the largest candidate order
    design, y = _design(x, max_lags, n_common, deterministic)
    k_widest = design.shape[1]  # adf's length gate leaves n_common > k_widest
    r, full_rank = _qr(design, y)
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
    k = design.shape[1]  # n_used > k, as n_common > k_widest in the search
    lv = k - 1 - chosen  # _design puts the lagged level before the lagged differences
    r, full_rank = _qr(np.column_stack((design[:, :lv], design[:, lv + 1:], design[:, lv])), y)
    if not full_rank[-1]:
        raise DegenerateDesign("regressors are collinear (rank-deficient design)")
    # with the level last, its coefficient is R_ly / R_ll, its (X'X)^-1 entry
    # 1 / R_ll^2 and the SSR R_yy^2
    r_ll, r_ly = r[-2, -2:].tolist()
    r_yy = abs(float(r[-1, -1]))
    if r_yy == 0.0:
        raise DegenerateDesign("zero residual variance: the t-ratio is unbounded")
    statistic = math.copysign(1.0, r_ll) * r_ly * math.sqrt(n_used - k) / r_yy
    if not math.isfinite(statistic):
        raise DegenerateDesign("the t-ratio is not finite")

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
