"""scripts/mutants.py: its table applies to this tree, and a run of one mutant
against one test file that catches it and one that does not."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_PATH = ROOT / "scripts" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_applies_once():
    assert mutants.check_applies(ROOT) == []
    assert len(mutants.MUTANTS) >= 35


def test_one_mutant_is_killed_by_its_test_and_survives_another():
    def probe(test_file):
        return subprocess.run(
            [sys.executable, str(_PATH), "--only", "cusum-sigma-ddof", "--tests", test_file],
            capture_output=True, text=True, timeout=600)

    killed = probe("tests/test_regress.py")
    assert killed.returncode == 0, killed.stdout + killed.stderr
    assert killed.stdout.startswith("killed ")
    assert killed.stdout.rstrip().endswith("1 mutants: 1 killed, 0 survived, 0 errors")
    survived = probe("tests/test_imports.py")
    assert survived.returncode == 1, survived.stdout + survived.stderr
    assert survived.stdout.startswith("survived ")
