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
import os
import pickle
import signal
import traceback
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


def _mix64(z: np.ndarray) -> np.ndarray:
    """Published SplitMix64 finalizer over uint64 arrays (wrapping)."""
    z = (z ^ (z >> _U64(30))) * _U64(_MIX1)
    z = (z ^ (z >> _U64(27))) * _U64(_MIX2)
    return z ^ (z >> _U64(31))


def _stream(seed: int, n: int) -> np.ndarray:
    """Outputs k = 1..n of the stream for seed, as uint64: the recipe above,
    with base = mix64(seed + GAMMA) scrambled once so that nearby seeds do
    not sample the mixer on overlapping neighborhoods."""
    base = _mix64(np.array([(seed + _GAMMA) & 0xFFFFFFFFFFFFFFFF], dtype=_U64))
    return _mix64(base + np.arange(1, n + 1, dtype=_U64) * _U64(_GAMMA))


def _uniforms(seed: int, n: int) -> np.ndarray:
    """The first n uniforms for seed: the top 53 bits of each output, centred
    in its cell so every value lies in the open interval (0, 1)."""
    return ((_stream(seed, n) >> _U64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def _normals(seed: int, n: int) -> np.ndarray:
    """The first n standard normals for seed: Box-Muller on consecutive pairs
    of _uniforms, the cosine of each pair first. A generator makes one call,
    so each replication is a pure function of its seed."""
    u = _uniforms(seed, n + n % 2)
    r = np.sqrt(-2.0 * np.log(u[0::2]))
    theta = 2.0 * math.pi * u[1::2]
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1).ravel()[:n]


def derive_seed(master: int, replication: int) -> int:
    """Stream seed for one replication: master XOR replication index."""
    return (master ^ replication) & 0xFFFFFFFFFFFFFFFF


# --- data-generating processes -------------------------------------------------


@dataclass(frozen=True)
class TvpDgp:
    """Random-walk-coefficient DGP matching the state-space model: x is iid
    N(0, 1) and the state starts at 0."""

    T: int
    sigma2_meas: float
    sigma2_state: float
    seed: int = 0

    def __post_init__(self):
        if self.T < 3:  # fit_mle's minimum
            raise ValueError("T must be >= 3")
        for name, value in (("sigma2_meas", self.sigma2_meas), ("sigma2_state", self.sigma2_state)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


def gen_tvp(dgp: TvpDgp) -> tuple[sspace.TvpModel, MonthlySeries]:
    """Simulate (y, x) from the TVP model; returns the model and true state."""
    x, steps, noise = _normals(dgp.seed, 3 * dgp.T).reshape(3, dgp.T)
    alpha = np.cumsum(math.sqrt(dgp.sigma2_state) * steps)
    y = x * alpha + math.sqrt(dgp.sigma2_meas) * noise
    model = sspace.TvpModel(
        y=MonthlySeries(_DEFAULT_START, y.tolist(), name="y"),
        x=MonthlySeries(_DEFAULT_START, x.tolist(), name="x"),
    )
    return model, MonthlySeries(_DEFAULT_START, alpha.tolist(), name="alpha")


def gen_unit_root(T: int, seed: int = 0) -> MonthlySeries:
    """Gaussian random walk with unit-variance steps, X_0 = 0, length T."""
    if T < 25:
        raise ValueError("T must be >= 25")
    steps = _normals(seed, T)
    return MonthlySeries(_DEFAULT_START, tuple(np.cumsum(steps)), name="random_walk")


def gen_ar1(T: int, phi: float, seed: int = 0) -> MonthlySeries:
    """Stationary Gaussian AR(1) path of length T, unit-variance innovations."""
    if T < 25:
        raise ValueError("T must be >= 25")
    z = _normals(seed, T + 1)
    x = np.empty(T)
    prev = z[0] / math.sqrt(1.0 - phi ** 2)  # stationary start
    for t in range(T):
        prev = phi * prev + z[t + 1]
        x[t] = prev
    return MonthlySeries(_DEFAULT_START, tuple(x), name="ar1")


@dataclass(frozen=True)
class BreakRegressionDgp:
    """y = beta * x + e, x = 1.5 + 0.5 z and e iid N(0, 1); the slope is 1
    and beta2 from T // 2 on (beta2 = 1 is the stable model)."""

    T: int
    beta2: float = 1.0

    def __post_init__(self):
        if self.T < 3:  # CUSUM needs two recursive residuals
            raise ValueError("T must be >= 3")
        if not math.isfinite(self.beta2):
            raise ValueError(f"beta2 must be finite, got {self.beta2}")


def gen_break_regression(dgp: BreakRegressionDgp, seed: int) -> tuple[MonthlySeries, MonthlySeries]:
    z, e = _normals(seed, 2 * dgp.T).reshape(2, dgp.T)
    x = 1.5 + 0.5 * z
    beta = np.where(np.arange(dgp.T) < dgp.T // 2, 1.0, dgp.beta2)
    y = beta * x + e
    return (MonthlySeries(_DEFAULT_START, tuple(y), name="y"),
            MonthlySeries(_DEFAULT_START, tuple(x), name="x"))


@dataclass(frozen=True)
class UnitRootDgp:
    T: int

    def __post_init__(self):
        if self.T < unitroot.MIN_DEFAULT_LAGS_T:
            raise ValueError(f"T must be >= {unitroot.MIN_DEFAULT_LAGS_T}")


@dataclass(frozen=True)
class Ar1Dgp:
    T: int
    phi: float = 0.5

    def __post_init__(self):
        if self.T < unitroot.MIN_DEFAULT_LAGS_T:
            raise ValueError(f"T must be >= {unitroot.MIN_DEFAULT_LAGS_T}")
        if not abs(self.phi) < 1:
            raise ValueError(f"phi must satisfy |phi| < 1, got {self.phi}")


# --- Monte Carlo harness --------------------------------------------------------


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
        srt = sorted(r[name] for r in ok)  # np.median's first call would import numpy.ma
        mid = len(srt) // 2
        median[name] = srt[mid] if len(srt) % 2 else (srt[mid - 1] + srt[mid]) / 2
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
    estimate: Callable  # one replication's data -> record
    truth: Callable = lambda dgp: {}  # dgp -> {record key: its true value}


def _estimate_mle(model):
    fit = sspace.fit_mle(model)
    return {
        "log_var_meas": fit.params.log_var_meas,
        "log_var_meas_se": fit.robust_se[0],
        "log_var_state": fit.params.log_var_state,
        "log_var_state_se": fit.robust_se[1],
        "converged": fit.converged,
    }


def _estimate_adf(s):
    res = unitroot.adf(s)
    return {"statistic": res.statistic, "reject": float(res.statistic < res.crit_5)}


def _estimate_cusum(yx):
    res = regress.cusum(*yx)
    return {"reject": 0.0 if res.stable else 1.0}


# DGP type -> its study; draws look the generators up by name, so a wrapper on one sees each call
STUDIES = {
    TvpDgp: Study("mle", lambda d, seed: gen_tvp(replace(d, seed=seed))[0], _estimate_mle,
                  lambda d: {"log_var_meas": math.log(d.sigma2_meas),
                             "log_var_state": math.log(d.sigma2_state)}),
    UnitRootDgp: Study("adf", lambda d, seed: gen_unit_root(d.T, seed), _estimate_adf),
    Ar1Dgp: Study("adf", lambda d, seed: gen_ar1(d.T, d.phi, seed), _estimate_adf),
    BreakRegressionDgp: Study("cusum", lambda d, seed: gen_break_regression(d, seed),
                              _estimate_cusum),
}


def monte_carlo(estimator: str, dgp, n_reps: int, seed: int,
                dump_path: str | None = None) -> McSummary:
    """Run n_reps independent replications of one estimator study.

    The study is STUDIES[type(dgp)], and estimator must be its id. Every
    test study rejects at 5%.
    Replication r draws from the stream seeded with seed XOR r. The
    replications are split across the CPUs this process may run on
    (os.sched_getaffinity; 1 where it is missing), capped at n_reps: one
    CPU runs them all in this process. The split forks (POSIX only) one
    child per further CPU, each running one contiguous block of
    replications, and joins the records in replication order, so the
    summary and the dump are identical for every CPU set.
    Replication failures are counted, not fatal.
    """
    study = STUDIES.get(type(dgp))
    if study is None or study.estimator != estimator:
        raise ValueError(f"estimator {estimator!r} does not take a {type(dgp).__name__}")
    if n_reps < 10:
        raise ValueError("n_reps must be >= 10")
    n_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    seeds = [derive_seed(seed, r) for r in range(n_reps)]
    records = _run_split(dgp, seeds, min(n_cpus, n_reps))
    if dump_path:
        _dump_records(dump_path, records)
    return _summarize(estimator, n_reps, records, study.truth(dgp))


def _run_split(dgp, seeds: list[int], n_blocks: int) -> list[dict | None]:
    """The records of every seed, in order, with the seeds cut into n_blocks
    contiguous blocks: this process runs the first, a forked child each
    other one. No child outlives the call."""
    cuts = [len(seeds) * j // n_blocks for j in range(n_blocks + 1)]
    children = []  # [pid, pipe's read end, first replication, stop]; pid None once reaped
    try:
        for first, stop in zip(cuts[1:-1], cuts[2:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child(write_fd, dgp, seeds[first:stop])  # never returns
            os.close(write_fd)
            children.append([pid, os.fdopen(read_fd, "rb"), first, stop])
        records = [_safe_run_one(dgp, s) for s in seeds[:cuts[1]]]
        for child in children:
            pid, pipe, first, stop = child
            with pipe:
                payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            child[0] = None
            if status != 0 or not payload:
                raise RuntimeError(f"replication worker {pid} (replications {first}-{stop - 1}) "
                                   f"ended with exit status {status} before returning its records")
            kind, value, trace = pickle.loads(payload)  # written by _child, below
            if kind == "error":
                raise value from _ChildTraceback(trace)
            records.extend(value)
        return records
    finally:
        for pid, pipe, _, _ in children:
            pipe.close()
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


class _ChildTraceback(Exception):
    """A child's formatted traceback, raised as the cause of its exception."""


def _child(write_fd: int, dgp, seeds: list[int]) -> None:
    """Run one block in a forked child, write ("records", list, None) or
    ("error", exception, traceback text) to write_fd and _exit, so no
    buffered output or atexit handler of the parent runs twice."""
    status = 1
    try:
        try:
            payload = ("records", [_safe_run_one(dgp, s) for s in seeds], None)
        except Exception as exc:
            payload = ("error", exc, traceback.format_exc())
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(pickle.dumps(payload))
        status = 0
    finally:
        os._exit(status)


def _safe_run_one(dgp, rep_seed: int) -> dict | None:
    try:
        return _run_one(dgp, rep_seed)
    except TvelastError:
        return None


def _run_one(dgp, rep_seed: int) -> dict:
    study = STUDIES[type(dgp)]
    return study.estimate(study.draw(dgp, rep_seed))


def _dump_records(path: str, records: list[dict | None]) -> None:
    keys = next((sorted(r) for r in records if r is not None), [])
    rows = ([i, 1] + [None] * len(keys) if r is None else [i, 0] + [r[k] for k in keys]
            for i, r in enumerate(records))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_text(["replication", "failed"] + keys, rows))
