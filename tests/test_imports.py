"""What importing the package loads, checked in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules_after(statement):
    """Names in sys.modules after running `statement` in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def _under(modules, package):
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_cli_does_not_load_scipy_stats():
    modules = _modules_after("import tvelast.cli")
    assert "tvelast.cli" in modules
    assert _under(modules, "scipy.stats") == []


def test_bare_package_loads_no_numerics():
    modules = _modules_after("import tvelast")
    assert "tvelast" in modules
    assert _under(modules, "numpy") == []
    assert _under(modules, "scipy") == []
