"""The claim and bound verdicts of scripts/bench_pairs.py on synthetic pairs,
and its host-parallelism probe."""

import importlib.util
import math
import os
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRIC = "op_tail_s"
GATED = {METRIC: {"name": METRIC, "unit": "s", "better": "lower", "bound": 0.25}}
PARENT = [float(v) for v in range(1, 11)]  # median 5.5, quartiles 3.25 and 7.75: IQR 4.5
NARROW = [1.0 + 0.01 * i for i in range(10)]  # relative IQR about 0.043


def _workloads(parent, change, failed=(0, 0)):
    pairs = [{"seed": i, "parent": {METRIC: p, "failed": failed[0]},
              "change": {METRIC: c, "failed": failed[1]}}
             for i, (p, c) in enumerate(zip(parent, change))]
    summary = {METRIC: bench_pairs.summarize(pairs, METRIC, "lower")}
    return {"w": {"pairs": pairs, "summary": summary}}


def _claim(parent, change):
    claim, bounds = bench_pairs.verdicts(_workloads(parent, change), GATED, f"w/{METRIC}")
    assert f"w/{METRIC}" not in bounds  # the claimed metric is judged by the claim alone
    return claim


def _status(parent, change):
    _, bounds = bench_pairs.verdicts(_workloads(parent, change), GATED, None)
    return bounds[f"w/{METRIC}"]["status"]


class TestClaim:
    def test_met_at_nine_of_ten_with_a_gain_above_the_parent_iqr(self):
        change = [p - 4.75 for p in PARENT[:9]] + [PARENT[9] + 1.0]
        claim = _claim(PARENT, change)
        assert (claim["pairs"], claim["change_wins"], claim["parent_iqr"]) == (10, 9, 4.5)
        assert claim["met"] is True

    def test_not_met_at_eight_of_ten(self):
        change = [p - 4.75 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]]
        claim = _claim(PARENT, change)
        assert claim["change_wins"] == 8
        assert claim["met"] is False

    @pytest.mark.parametrize("gain, met", [(4.5, False), (4.0, False), (4.75, True)])
    def test_gain_must_exceed_the_parent_iqr(self, gain, met):
        claim = _claim(PARENT, [p - gain for p in PARENT])
        assert claim["change_wins"] == 10
        assert claim["median_diff"] == -gain
        assert claim["met"] is met

    @pytest.mark.parametrize("ties, met", [(1, True), (2, False)])
    def test_ties_count_for_neither_side(self, ties, met):
        change = [p - 4.75 for p in PARENT[:10 - ties]] + PARENT[10 - ties:]
        summary = _workloads(PARENT, change)["w"]["summary"][METRIC]
        assert (summary["change_wins"], summary["ties"]) == (10 - ties, ties)
        assert _claim(PARENT, change)["met"] is met


class TestBounds:
    def test_unresolved_when_a_side_spreads_wider_than_the_bound_and_runs_overlap(self):
        assert 4.5 / 5.5 > GATED[METRIC]["bound"]
        assert _status(PARENT, PARENT) == "unresolved"
        assert _status(NARROW, PARENT) == "unresolved"  # the change's spread alone suffices

    def test_within_when_every_change_run_beats_every_parent_run(self):
        parent = [p + 10.0 for p in PARENT]  # relative IQR 4.5 / 15.5 > 0.25
        assert _status(parent, PARENT) == "within"

    def test_within_and_beyond_on_narrow_spreads(self):
        assert _status(NARROW, [1.1 * p for p in NARROW]) == "within"
        assert _status(NARROW, [1.2 * p for p in NARROW]) == "within"
        assert _status(NARROW, [1.5 * p for p in NARROW]) == "beyond"

    def test_fail_counts_per_side(self):
        _, bounds = bench_pairs.verdicts(_workloads(NARROW, NARROW, failed=(0, 2)), GATED, None)
        assert bounds["w/fail_ratio"] == {"parent_failed": 0, "change_failed": 20}


def test_parallelism_probe_is_a_positive_ratio_and_leaves_no_child():
    ratio = bench_pairs.parallelism_probe()
    assert math.isfinite(ratio) and ratio > 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
