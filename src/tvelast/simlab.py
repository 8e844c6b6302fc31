"""Synthetic data generators and a Monte Carlo harness for the estimators.

Randomness comes from SplitMix64 (Steele, Lea & Flood 2014), a 64-bit
counter-based generator: output k of the stream for seed s is
mix64(mix64(s + GAMMA) + k * GAMMA) with the published finalizer (the
inner application scrambles the seed so adjacent seeds give unrelated
streams). Everything is portable across languages and trivially
vectorizable. Gaussian variates use the Box-Muller transform on 53-bit
uniforms (a deterministic transform, no rejection), so any implementation
of the same recipe reproduces the streams bit for bit.

Replication r of a study derives its stream as master_seed XOR r; the
aggregation of replication records is order-independent.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from . import regress, sspace, unitroot
from .errors import TvelastError
from .series import MonthDate, MonthlySeries, csv_text, json_text

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = np.uint64
_DEFAULT_START = MonthDate(1971, 1)
# test levels with both an ADF critical value and a CUSUM band constant
_LEVELS = (0.01, 0.05, 0.10)


def _mix64(z: np.ndarray) -> np.ndarray:
    """Published SplitMix64 finalizer over uint64 arrays (wrapping)."""
    z = (z ^ (z >> _U64(30))) * _U64(_MIX1)
    z = (z ^ (z >> _U64(27))) * _U64(_MIX2)
    return z ^ (z >> _U64(31))


def _mix64_scalar(z: int) -> int:
    with np.errstate(over="ignore"):
        return int(_mix64(np.array([z], dtype=_U64))[0])


class SplitMix64:
    """Counter-mode SplitMix64 stream; draws advance an integer counter.

    Output k of the stream for a given seed is

        mix64(base + k * GAMMA)   with   base = mix64(seed + GAMMA)

    where mix64 is the published SplitMix64 finalizer. Scrambling the seed
    into the base once means numerically adjacent seeds (0, 1, 2, ...)
    start at unrelated points of the state space; without it, streams for
    nearby seeds sample the mixer on overlapping neighborhoods and show
    measurable cross-stream correlation.
    """

    def __init__(self, seed: int):
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        self._base = int(_mix64_scalar((self.seed + _GAMMA) & 0xFFFFFFFFFFFFFFFF))
        self._counter = 0
        self._pending_normal: float | None = None

    def _raw(self, n: int) -> np.ndarray:
        ks = np.arange(self._counter + 1, self._counter + n + 1, dtype=_U64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix64(_U64(self._base) + ks * _U64(_GAMMA))

    def uniforms(self, n: int) -> np.ndarray:
        """n uniforms on the open interval (0, 1), 53-bit resolution."""
        return ((self._raw(n) >> _U64(11)).astype(np.float64) + 0.5) * 2.0 ** -53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on consecutive uniform pairs.

        An odd draw leaves half a pair pending for the next call, so the
        stream of normals is a pure function of (seed, draws so far).
        """
        lead = []
        if self._pending_normal is not None and n > 0:
            lead = [self._pending_normal]
            self._pending_normal = None
        need = n - len(lead)
        pairs = (need + 1) // 2
        u = self.uniforms(2 * pairs)
        r = np.sqrt(-2.0 * np.log(u[0::2]))
        theta = 2.0 * math.pi * u[1::2]
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        if need % 2 == 1:
            self._pending_normal = float(z[-1])
        return np.concatenate([lead, z[:need]])


def derive_seed(master: int, replication: int) -> int:
    """Stream seed for one replication: master XOR replication index."""
    return (master ^ replication) & 0xFFFFFFFFFFFFFFFF


# --- data-generating processes -------------------------------------------------


@dataclass(frozen=True)
class IidNormalX:
    mean: float = 0.0
    var: float = 1.0


@dataclass(frozen=True)
class Ar1X:
    phi: float = 0.5
    var: float = 1.0

    def __post_init__(self):
        if not abs(self.phi) < 1:
            raise ValueError("ar1 regressor needs |phi| < 1")


@dataclass(frozen=True)
class ConstantX:
    value: float = 1.0


@dataclass(frozen=True)
class TvpDgp:
    """Random-walk-coefficient DGP matching the state-space model."""

    T: int
    sigma2_meas: float
    sigma2_state: float
    alpha0: float = 0.0
    x_process: IidNormalX | Ar1X | ConstantX = IidNormalX()
    seed: int = 0

    def __post_init__(self):
        if self.T < 3:  # fit_mle's minimum
            raise ValueError("T must be >= 3")
        if self.sigma2_meas <= 0 or self.sigma2_state <= 0:
            raise ValueError("variances must be positive")


def _gen_x(proc, T: int, rng: SplitMix64) -> np.ndarray:
    if isinstance(proc, IidNormalX):
        return proc.mean + math.sqrt(proc.var) * rng.normals(T)
    if isinstance(proc, Ar1X):
        z = rng.normals(T + 1)
        sd = math.sqrt(proc.var)
        x = np.empty(T)
        prev = z[0] * sd / math.sqrt(1.0 - proc.phi ** 2)  # stationary start
        for t in range(T):
            prev = proc.phi * prev + sd * z[t + 1]
            x[t] = prev
        return x
    if isinstance(proc, ConstantX):
        return np.full(T, proc.value)
    raise ValueError(f"unknown x process {proc!r}")


def gen_tvp(dgp: TvpDgp, start: MonthDate = _DEFAULT_START) -> tuple[sspace.TvpModel, MonthlySeries]:
    """Simulate (y, x) from the TVP model; returns the model and true state."""
    rng = SplitMix64(dgp.seed)
    x = _gen_x(dgp.x_process, dgp.T, rng)
    state_noise = math.sqrt(dgp.sigma2_state) * rng.normals(dgp.T)
    alpha = dgp.alpha0 + np.cumsum(state_noise)
    y = x * alpha + math.sqrt(dgp.sigma2_meas) * rng.normals(dgp.T)
    model = sspace.TvpModel(
        y=MonthlySeries(start, tuple(y), name="y"),
        x=MonthlySeries(start, tuple(x), name="x"),
    )
    true_state = MonthlySeries(start, tuple(alpha), name="alpha")
    return model, true_state


def gen_unit_root(T: int, drift: float = 0.0, seed: int = 0, sigma: float = 1.0,
                  start: MonthDate = _DEFAULT_START) -> MonthlySeries:
    """Gaussian random walk with optional drift, X_0 = 0, length T."""
    if T < 25:
        raise ValueError("T must be >= 25")
    rng = SplitMix64(seed)
    steps = drift + sigma * rng.normals(T)
    return MonthlySeries(start, tuple(np.cumsum(steps)), name="random_walk")


def gen_ar1(T: int, phi: float, seed: int = 0, var: float = 1.0,
            start: MonthDate = _DEFAULT_START) -> MonthlySeries:
    """Stationary Gaussian AR(1) path of length T."""
    if T < 25:
        raise ValueError("T must be >= 25")
    x = _gen_x(Ar1X(phi=phi, var=var), T, SplitMix64(seed))
    return MonthlySeries(start, tuple(x), name="ar1")


# --- Monte Carlo harness --------------------------------------------------------


@dataclass(frozen=True)
class BreakRegressionDgp:
    """y = beta * x + e with an optional coefficient break at break_frac."""

    T: int
    beta1: float = 1.0
    beta2: float = 1.0  # equal to beta1 -> stable model
    break_frac: float = 0.5
    noise_sd: float = 1.0
    x_process: IidNormalX | Ar1X | ConstantX = IidNormalX(mean=1.5, var=0.25)

    def __post_init__(self):
        if self.T < 3:  # CUSUM needs two recursive residuals
            raise ValueError("T must be >= 3")
        if not 0.0 < self.break_frac < 1.0:
            raise ValueError("break_frac must be in (0, 1)")


def gen_break_regression(dgp: BreakRegressionDgp, seed: int,
                         start: MonthDate = _DEFAULT_START) -> tuple[MonthlySeries, MonthlySeries]:
    rng = SplitMix64(seed)
    x = _gen_x(dgp.x_process, dgp.T, rng)
    e = dgp.noise_sd * rng.normals(dgp.T)
    beta = np.where(np.arange(dgp.T) < int(dgp.break_frac * dgp.T), dgp.beta1, dgp.beta2)
    y = beta * x + e
    return (MonthlySeries(start, tuple(y), name="y"),
            MonthlySeries(start, tuple(x), name="x"))


@dataclass(frozen=True)
class UnitRootDgp:
    T: int
    drift: float = 0.0
    sigma: float = 1.0
    deterministic: str = "constant+trend"

    def __post_init__(self):
        if self.T < unitroot.MIN_DEFAULT_LAGS_T:
            raise ValueError(f"T must be >= {unitroot.MIN_DEFAULT_LAGS_T}")


@dataclass(frozen=True)
class Ar1Dgp:
    T: int
    phi: float = 0.5
    var: float = 1.0
    deterministic: str = "constant+trend"

    def __post_init__(self):
        if self.T < unitroot.MIN_DEFAULT_LAGS_T:
            raise ValueError(f"T must be >= {unitroot.MIN_DEFAULT_LAGS_T}")


@dataclass(frozen=True)
class McSummary:
    estimator: str
    n_reps: int
    n_failed: int
    bias: dict[str, float] = field(default_factory=dict)
    rmse: dict[str, float] = field(default_factory=dict)
    median: dict[str, float] = field(default_factory=dict)
    coverage95: dict[str, float] = field(default_factory=dict)
    rejection_rate: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json_text(self.to_dict())


def _summarize(estimator: str, n_reps: int, records: list[dict | None],
               truth: dict[str, float]) -> McSummary:
    """Bias, RMSE and median of each truth key; coverage where records hold
    '<key>_se'; a rejection rate where they hold 'reject'."""
    ok = [r for r in records if r is not None]
    bias: dict[str, float] = {}
    rmse: dict[str, float] = {}
    median: dict[str, float] = {}
    coverage: dict[str, float] = {}
    for name, true_val in truth.items():
        if not ok:  # numpy warns on the mean and median of an empty set
            bias[name] = rmse[name] = median[name] = math.nan
            continue
        est = np.asarray([r[name] for r in ok])
        err = est - true_val
        bias[name] = float(np.mean(err))
        rmse[name] = float(np.sqrt(np.mean(err ** 2)))
        median[name] = float(np.median(est))
        se_key = name + "_se"
        if se_key in ok[0]:
            ses = np.asarray([r[se_key] for r in ok])
            hits = np.abs(err) <= 1.959963984540054 * ses
            coverage[name] = float(np.mean(hits))
    rejection = float(np.mean([r["reject"] for r in ok])) if ok and "reject" in ok[0] else None
    return McSummary(estimator=estimator, n_reps=n_reps, n_failed=n_reps - len(ok),
                     bias=bias, rmse=rmse, median=median, coverage95=coverage,
                     rejection_rate=rejection)


@dataclass(frozen=True)
class Study:
    estimator: str
    draw: Callable  # (dgp, seed) -> one replication's data
    estimate: Callable  # (data, dgp, level) -> record
    truth: Callable = lambda dgp: {}  # dgp -> {record key: its true value}


def _estimate_mle(model, dgp, level):
    fit = sspace.fit_mle(model)
    return {
        "log_var_meas": fit.params.log_var_meas,
        "log_var_meas_se": fit.robust_se[0],
        "log_var_state": fit.params.log_var_state,
        "log_var_state_se": fit.robust_se[1],
        "converged": fit.converged,
    }


def _estimate_adf(s, dgp, level):
    res = unitroot.adf(s, unitroot.AdfSpec(deterministic=dgp.deterministic))
    crit = {0.01: res.crit_1, 0.05: res.crit_5, 0.10: res.crit_10}[level]
    return {"statistic": res.statistic, "reject": float(res.statistic < crit)}


def _estimate_cusum(yx, dgp, level):
    res = regress.cusum(*yx, significance=level)
    return {"reject": 0.0 if res.stable else 1.0}


# DGP type -> its study; draws look the generators up by name, so a wrapper on one sees each call
STUDIES = {
    TvpDgp: Study("mle", lambda d, seed: gen_tvp(replace(d, seed=seed))[0], _estimate_mle,
                  lambda d: {"log_var_meas": math.log(d.sigma2_meas),
                             "log_var_state": math.log(d.sigma2_state)}),
    UnitRootDgp: Study("adf", lambda d, seed: gen_unit_root(d.T, d.drift, seed, d.sigma),
                       _estimate_adf),
    Ar1Dgp: Study("adf", lambda d, seed: gen_ar1(d.T, d.phi, seed, d.var), _estimate_adf),
    BreakRegressionDgp: Study("cusum", lambda d, seed: gen_break_regression(d, seed),
                              _estimate_cusum),
}


def monte_carlo(estimator: str, dgp, n_reps: int, seed: int,
                level: float = 0.05, dump_path: str | None = None,
                n_jobs: int = 1) -> McSummary:
    """Run n_reps independent replications of one estimator study.

    The study is STUDIES[type(dgp)], and estimator must be its id.
    Replication r draws from the stream seeded with seed XOR r, and the
    aggregation only sees records keyed by r, so results are identical
    whether replications run sequentially or in parallel (n_jobs > 1).
    Replication failures are counted, not fatal.
    """
    study = STUDIES.get(type(dgp))
    if study is None or study.estimator != estimator:
        raise ValueError(f"estimator {estimator!r} does not take a {type(dgp).__name__}")
    if n_reps < 10:
        raise ValueError("n_reps must be >= 10")
    if level not in _LEVELS:
        raise ValueError(f"level must be one of {list(_LEVELS)}, got {level}")
    seeds = [derive_seed(seed, r) for r in range(n_reps)]
    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            records = list(pool.map(_safe_run_one, [dgp] * n_reps, seeds, [level] * n_reps))
    else:
        records = [_safe_run_one(dgp, s, level) for s in seeds]
    if dump_path:
        _dump_records(dump_path, records)
    return _summarize(estimator, n_reps, records, study.truth(dgp))


def _safe_run_one(dgp, rep_seed: int, level: float) -> dict | None:
    try:
        return _run_one(dgp, rep_seed, level)
    except TvelastError:
        return None


def _run_one(dgp, rep_seed: int, level: float) -> dict:
    study = STUDIES[type(dgp)]
    return study.estimate(study.draw(dgp, rep_seed), dgp, level)


def _dump_records(path: str, records: list[dict | None]) -> None:
    keys = next((sorted(r) for r in records if r is not None), [])
    rows = ([i, 1] + [None] * len(keys) if r is None else [i, 0] + [r[k] for k in keys]
            for i, r in enumerate(records))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_text(["replication", "failed"] + keys, rows))
