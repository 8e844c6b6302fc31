import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from tvelast.series import Dataset, MonthDate, MonthlySeries

# Property tests replay the same examples on every run: no example database,
# no randomness between runs, and no per-example deadline (timings vary by host).
settings.register_profile("tvelast", deadline=None, derandomize=True, database=None)
settings.load_profile("tvelast")


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)


def make_series(values, start=MonthDate(2000, 1), name="s"):
    return MonthlySeries(start, tuple(float(v) for v in values), name=name)


def make_dataset(n_months=200, seed=42, start=MonthDate(1971, 1)):
    """Positive level series whose logs follow drifting random walks."""
    gen = np.random.default_rng(seed)
    zc = np.cumsum(gen.normal(0.004, 0.01, n_months))
    zm = np.cumsum(gen.normal(0.006, 0.02, n_months))
    return Dataset(
        MonthlySeries(start, tuple(float(v) for v in 100.0 * np.exp(zc)), "cpi"),
        MonthlySeries(start, tuple(float(v) for v in 50.0 * np.exp(zm)), "m2"),
    )


def pool_csv(k):
    """The CSV text of the benchmark's report-555 pool input k (555 months)."""
    spec = importlib.util.spec_from_file_location(
        "plan", Path(__file__).resolve().parents[1] / "benchmark" / "plan.py")
    plan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plan)
    return plan.dataset_csv(k)


@pytest.fixture
def dataset():
    return make_dataset()
