"""Estimation toolkit for the link between money growth and inflation.

Constant-parameter OLS with stability diagnostics, ADF unit-root pretests,
and a time-varying-coefficient state-space model estimated by Kalman-filter
maximum likelihood, plus a pipeline that runs the whole battery on a CSV of
monthly levels.

Importing the package sets OPENBLAS_NUM_THREADS to 1 unless it is already
set: every matrix the package hands to LAPACK is tiny, so OpenBLAS threads
cannot help and can stall. numpy reads the variable when it loads, so this
holds only where tvelast is imported before numpy.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import TvelastError
from .series import Dataset, DecadeAverage, MonthDate, MonthlySeries

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DecadeAverage",
    "MonthDate",
    "MonthlySeries",
    "TvelastError",
    "__version__",
]
