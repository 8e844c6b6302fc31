"""What importing the package loads and sets, checked in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tvelast.series import MonthDate, write_csv

from conftest import make_dataset

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code, **env_changes):
    """The stdout of `code` run in a new interpreter that finds this src/;
    an env_changes value of None unsets that variable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name, value in env_changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def _modules_after(statement):
    """Names in sys.modules after running `statement` in a new interpreter."""
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    return json.loads(_run(code))


def _under(modules, package):
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_bare_package_loads_no_numerics():
    modules = _modules_after("import tvelast")
    assert "tvelast" in modules
    assert _under(modules, "numpy") == []
    assert _under(modules, "scipy") == []


def test_fit_and_ols_modules_load_no_numpy():
    # table2 and table3 are plain floats and math.fsum, free of BLAS and numpy kernels
    modules = _modules_after("import tvelast.sspace, tvelast.regress")
    assert "tvelast.sspace" in modules and "tvelast.regress" in modules
    assert _under(modules, "numpy") == []


def test_cli_loads_no_scipy():
    modules = _modules_after("import tvelast.cli")
    assert "tvelast.cli" in modules
    assert "numpy" in modules
    # benchmark/ops.py's mc-mle op reads sys.modules["tvelast.simlab"] after
    # importing only tvelast.cli, so cli must keep loading simlab at its top
    assert "tvelast.simlab" in modules
    assert _under(modules, "scipy") == []


def test_default_fit_and_mle_study_load_no_scipy():
    # the CLI too: only a report hashes, so simulate loads no OpenSSL (_hashlib),
    # and a study's medians load no numpy.ma
    modules = _modules_after(
        "import tvelast.cli\n"
        "from tvelast.simlab import TvpDgp, gen_tvp, monte_carlo\n"
        "from tvelast.sspace import fit_mle\n"
        "dgp = TvpDgp(T=120, sigma2_meas=0.1, sigma2_state=0.2, seed=3)\n"
        "assert fit_mle(gen_tvp(dgp)[0]).converged\n"
        "assert monte_carlo('mle', dgp, 10, 0).n_reps == 10")  # the smallest study
    assert "tvelast.sspace" in modules
    assert _under(modules, "scipy") == []
    assert _under(modules, "numpy.ma") == []
    assert "_hashlib" not in modules


def test_pipeline_report_loads_no_scipy(tmp_path):
    # a full report: ADF and OLS p-values, the fits, the smoother and the files
    csv = tmp_path / "in.csv"
    csv.write_text(write_csv(make_dataset(n_months=555, seed=7, start=MonthDate(1970, 1))))
    argv = ["pipeline", "--input", str(csv), "--out", str(tmp_path / "out"),
            "--subsample-ends", "1990-12,2000-12,2005-12,2010-12"]
    modules = _modules_after(f"from tvelast import cli\nassert cli.main({argv!r}) == 0")
    assert (tmp_path / "out" / "report.json").is_file()
    assert "tvelast.unitroot" in modules and "tvelast.regress" in modules
    assert _under(modules, "scipy") == []


@pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")], ids=["unset", "explicit"])
def test_openblas_runs_one_thread_unless_told_otherwise(given, expected):
    # tvelast sets the variable before any of its modules loads numpy, which
    # reads it once; an explicit setting wins
    code = "import os, tvelast\nprint(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _run(code, OPENBLAS_NUM_THREADS=given).strip() == expected
