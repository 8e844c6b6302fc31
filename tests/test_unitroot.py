import importlib.util
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special  # oracle only: the package must not import scipy

from tvelast import _dftables, unitroot
from tvelast.errors import DegenerateDesign, TooShort, UnsupportedCase
from tvelast.simlab import Ar1Dgp, UnitRootDgp, gen_ar1, gen_unit_root, monte_carlo
from tvelast.unitroot import (DETERMINISTIC_CASES, MIN_DEFAULT_LAGS_T, AdfSpec, _ndtr, adf,
                              approx_pvalue, critical_values, default_max_lags)

import _oracles
from conftest import make_series


class TestCriticalValues:
    def test_trend_case_anchor_t543(self):
        c1, c5, c10 = critical_values(543, "constant+trend")
        assert c1 == pytest.approx(-3.975046, abs=0.02)
        assert c5 == pytest.approx(-3.418117, abs=0.02)
        assert c10 == pytest.approx(-3.13153, abs=0.02)

    def test_constant_case_asymptotics(self):
        # classic asymptotic values: 1% = -3.43, 5% = -2.86, 10% = -2.57
        c1, c5, c10 = critical_values(10 ** 9, "constant")
        assert c1 == pytest.approx(-3.43, abs=0.02)
        assert c5 == pytest.approx(-2.86, abs=0.02)
        assert c10 == pytest.approx(-2.57, abs=0.02)

    def test_ordering_invariant(self):
        for case in ("none", "constant", "constant+trend"):
            for t in (25, 50, 137, 543, 5000):
                c1, c5, c10 = critical_values(t, case)
                assert c1 < c5 < c10

    def test_deterministic(self):
        assert critical_values(200, "constant") == critical_values(200, "constant")

    def test_unsupported_case(self):
        with pytest.raises(UnsupportedCase):
            critical_values(100, "quadratic-trend")

    def test_too_short(self):
        with pytest.raises(TooShort):
            critical_values(24, "constant")


class TestApproxPvalue:
    def test_anchored_at_critical_values(self):
        for case in ("none", "constant", "constant+trend"):
            for t in (50, 250, 543):
                _, c5, _ = critical_values(t, case)
                assert approx_pvalue(c5, t, case) == pytest.approx(0.05, abs=0.005)

    def test_tabulated_quantiles_return_their_probabilities(self):
        # at a table row's sample size the grid is that row, and each tabulated
        # quantile maps to its own probability
        for case, rows in _dftables.TABLES.items():
            for inv_t, quantiles in rows[1:]:
                t = round(1.0 / inv_t)
                assert 1.0 / t == inv_t
                for q, p in zip(quantiles, _dftables.PROBS):
                    assert approx_pvalue(q, t, case) == pytest.approx(p, rel=1e-12, abs=0.0)

    def test_deep_left_tail(self):
        assert approx_pvalue(-14.14, 543, "constant+trend") < 1e-4

    def test_right_of_distribution(self):
        assert approx_pvalue(0.0, 543, "constant+trend") > 0.90

    def test_nan_statistic_is_nan(self):
        for case in ("none", "constant", "constant+trend"):
            assert math.isnan(approx_pvalue(math.nan, 200, case))

    def test_monotone_in_statistic(self):
        # more negative statistic -> deeper into the rejection region ->
        # smaller p
        grid = np.linspace(-8.0, 3.0, 250)
        ps = [approx_pvalue(float(s), 200, "constant") for s in grid]
        assert all(b >= a - 1e-15 for a, b in zip(ps, ps[1:]))
        assert all(0.0 <= p <= 1.0 for p in ps)


_GEN_PATH = Path(__file__).resolve().parents[1] / "scripts" / "gen_adf_tables.py"


class TestNormalPieces:
    def test_frozen_quantiles_are_scipy_ndtri(self):
        expected = tuple(float(v) for v in special.ndtri(np.asarray(_dftables.PROBS)))
        assert _dftables.NORMAL_QUANTILES == expected

    def test_tables_file_is_what_the_generator_writes(self):
        spec = importlib.util.spec_from_file_location("gen_adf_tables", _GEN_PATH)
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        assert gen.PROBS == _dftables.PROBS
        assert gen.tables_source(_dftables.TABLES) == Path(_dftables.__file__).read_text()

    def test_ndtr_matches_scipy(self):
        z = np.linspace(-38.0, 38.0, 76001)  # both tails, down to subnormal results
        got = np.array([_ndtr(float(v)) for v in z])
        # subnormals carry no relative precision: below the smallest normal, absolute
        np.testing.assert_allclose(got, special.ndtr(z), rtol=1e-13, atol=sys.float_info.min)

    def test_ndtr_nan_and_infinities(self):
        assert math.isnan(_ndtr(math.nan))
        assert _ndtr(-math.inf) == 0.0
        assert _ndtr(math.inf) == 1.0
        assert _ndtr(0.0) == 0.5


class TestAdf:
    def test_exact_linear_trend_degenerate(self):
        s = make_series([float(t) for t in range(120)])
        with pytest.raises(DegenerateDesign):
            adf(s, AdfSpec(deterministic="constant+trend"))

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), shift=st.floats(-1e3, 1e3),
           log10_scale=st.floats(-3.0, 3.0), negate=st.booleans(),
           deterministic=st.sampled_from(["none", "constant", "constant+trend"]),
           kind=st.sampled_from(["unit_root", "ma_differenced"]))
    @example(seed=0, shift=1e3, log10_scale=-3.0, negate=False,
             deterministic="constant+trend", kind="ma_differenced")
    def test_location_scale_invariance(self, seed, shift, log10_scale, negate, deterministic, kind):
        # a constant absorbs a shift; every case is invariant to a nonzero scale
        if kind == "unit_root":
            s = gen_unit_root(300, seed=seed)
        else:  # over-differenced AR(1): long lag orders on a nearly collinear design
            s = make_series(np.diff(gen_ar1(301, 0.5, seed=seed).values))
        scale = (-1.0 if negate else 1.0) * 10.0 ** log10_scale
        if deterministic == "none":
            shift = 0.0
        moved = make_series([shift + scale * v for v in s.values], start=s.start)
        base = adf(s, AdfSpec(deterministic=deterministic))
        res = adf(moved, AdfSpec(deterministic=deterministic))
        assert res.statistic == pytest.approx(base.statistic, rel=1e-8)
        assert res.chosen_lags == base.chosen_lags

    def test_a_shifted_over_differenced_series_keeps_its_result(self):
        # 1000 + 1e-3 v: the shift and the trend leave the level column nearly
        # collinear with the constant, which the lag search's rank rule accepts
        spec = AdfSpec(deterministic="constant+trend")
        for seed in range(40):
            v = np.diff(gen_ar1(301, 0.5, seed=seed).values)
            base = adf(make_series(v), spec)
            res = adf(make_series(1000.0 + 1e-3 * v), spec)
            assert res.chosen_lags == base.chosen_lags
            assert res.statistic == pytest.approx(base.statistic, rel=1e-8)

    def test_lag_selection_deterministic(self):
        s = gen_ar1(400, 0.7, seed=9)
        a = adf(s, AdfSpec())
        b = adf(s, AdfSpec())
        assert a == b

    def test_synthetic_i1_contract(self):
        # levels of a random walk do not reject; first differences reject at 1%
        s = gen_unit_root(500, seed=20250809)
        levels = adf(s, AdfSpec(deterministic="constant+trend"))
        assert levels.reject_at is None
        diffs = make_series(np.diff(s.values), start=s.start.plus(1))
        moved = adf(diffs, AdfSpec(deterministic="constant"))
        assert moved.reject_at == 0.01
        assert moved.p_value_approx < 0.01

    def test_too_short(self):
        with pytest.raises(TooShort):
            adf(make_series(np.arange(20) + np.random.default_rng(0).normal(0, 1, 20)),
                AdfSpec(max_lags=8))

    def test_n_used_accounting(self):
        s = gen_unit_root(200, seed=3)
        res = adf(s, AdfSpec(max_lags=4))
        assert 0 <= res.chosen_lags <= 4
        assert res.n_used == 200 - 1 - res.chosen_lags

    def test_default_max_lags_rule(self):
        assert default_max_lags(100) == 12
        assert default_max_lags(543) == 18

    def test_default_lags_keep_table_coverage_from_the_study_minimum(self):
        # the final regression keeps at least t - 1 - max_lags rows
        assert MIN_DEFAULT_LAGS_T == 35
        rows = [t - 1 - min(default_max_lags(t), t // 3) for t in range(34, 5000)]
        assert rows[0] < 25 <= min(rows[1:])
        for seed in range(20):
            assert adf(gen_unit_root(MIN_DEFAULT_LAGS_T, seed=seed)).n_used >= 25

    @pytest.mark.parametrize("offsets, stars", [
        ((1, 2, 3), "***"),  # just beyond crit_1
        ((-1, 1, 2), "**"),  # just beyond crit_5
        ((-2, -1, 1), "*"),  # just beyond crit_10
        ((-3, -2, -1), ""),  # just inside crit_10
    ])
    def test_stars_follow_the_critical_values(self, monkeypatch, offsets, stars):
        # critical values placed one ulp (offset 1 or -1) or a unit either side of
        # the statistic; more negative than a critical value rejects at its level
        s = gen_unit_root(200, 3)
        stat = adf(s).statistic

        def at(offset):
            return math.nextafter(stat, math.copysign(math.inf, offset)) + (
                0.0 if abs(offset) == 1 else offset)

        monkeypatch.setattr(unitroot, "critical_values", lambda t, d: tuple(map(at, offsets)))
        res = adf(s)
        assert res.statistic == stat
        assert (res.crit_1, res.crit_5, res.crit_10) == tuple(map(at, offsets))
        assert res.stars() == stars

    def test_spec_validation(self):
        with pytest.raises(UnsupportedCase):
            AdfSpec(deterministic="quadratic")
        with pytest.raises(ValueError):
            AdfSpec(max_lags=-1)


# Relative error budgets of the statistic against _oracles.adf_t_exact (200
# bits): well-conditioned designs, and the collinear test's two families.
# Near is ill-conditioned: a one-ulp change of its values moves the exact
# statistic by 6e-7 to 3e-3 relative.
_ADF_BUDGETS = {"well": 4e-15, "exact": 1e-12, "near": 1e-3}


def _relative_error(statistic, values, deterministic, chosen):
    exact = _oracles.adf_t_exact(values, deterministic, chosen)
    with mpmath.workprec(200):
        return float(abs((mpmath.mpf(statistic) - exact) / exact))


class TestLagSearch:
    """The one-QR lag search against one SVD fit per candidate order, and the
    statistic against a 200-bit oracle."""

    @settings(max_examples=150)
    @given(t_len=st.integers(60, 600), seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["unit_root", "ar1", "ma_differenced"]),
           phi=st.floats(-0.9, 0.95), deterministic=st.sampled_from(DETERMINISTIC_CASES),
           max_lags=st.none() | st.integers(0, 24))
    def test_matches_svd_search(self, t_len, seed, kind, phi, deterministic, max_lags):
        if kind == "unit_root":
            values = gen_unit_root(t_len, seed=seed).values
        elif kind == "ar1":
            values = gen_ar1(t_len, phi, seed=seed).values
        else:  # over-differenced AR(1): an MA unit root that wants long lag orders
            values = np.diff(gen_ar1(t_len + 1, phi, seed=seed).values)
        res = adf(make_series(values), AdfSpec(deterministic, max_lags))
        chosen, statistic = _oracles.adf_brute(values, deterministic, max_lags)
        assert res.chosen_lags == chosen
        assert res.statistic == pytest.approx(statistic, rel=1e-11)

    @pytest.mark.parametrize("t_len, kind, deterministic", [
        (60, "ar1", "constant"), (120, "unit_root", "constant+trend"), (200, "ma_differenced", "none"),
    ])
    def test_statistic_meets_its_budget_against_200_bits(self, t_len, kind, deterministic):
        if kind == "ar1":
            values = gen_ar1(t_len, 0.5, seed=1).values
        elif kind == "unit_root":
            values = gen_unit_root(t_len, seed=2).values
        else:
            values = np.diff(gen_ar1(t_len + 1, 0.5, seed=3).values)
        res = adf(make_series(values), AdfSpec(deterministic))
        error = _relative_error(res.statistic, values, deterministic, res.chosen_lags)
        assert error <= _ADF_BUDGETS["well"]

    @pytest.mark.parametrize("deterministic", DETERMINISTIC_CASES)
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "near"])
    def test_collinear_high_orders_are_skipped(self, exact, deterministic):
        # the differences repeat with period 5, so from some order up the lag
        # columns (with any deterministic terms, which periodic lags also span)
        # are linearly dependent while the lower orders are full rank. Exact:
        # the last 8 differences are free, which keeps the residuals nonzero.
        # Near: every difference carries a 1e-11 perturbation, so the higher
        # orders do lower the SSR and only the rank rule keeps them out.
        t_len, period, max_lags = 240, 5, 20
        gen = np.random.default_rng(7)
        pattern = gen.normal(0.0, 1.0, period)
        if exact:
            free = 8
            steps = np.concatenate((pattern[np.arange(t_len - 1 - free) % period],
                                    gen.normal(0.0, 1.0, free)))
        else:
            steps = pattern[np.arange(t_len - 1) % period] + 1e-11 * gen.normal(0.0, 1.0, t_len - 1)
        values = np.concatenate(([0.0], np.cumsum(steps)))
        n_common = t_len - 1 - max_lags
        ratios = []
        for p in range(max_lags + 1):
            design, _ = _oracles.adf_design_brute(list(values), p, n_common, deterministic)
            sv = np.linalg.svd(design, compute_uv=False)
            ratios.append(sv[-1] / sv[0])
        first_collinear = next(p for p, r in enumerate(ratios) if r < 1e-12)
        assert 0 < first_collinear <= 13
        assert all(r > 1e-6 for r in ratios[:first_collinear])
        assert all(r < 1e-12 for r in ratios[first_collinear:])

        res = adf(make_series(values), AdfSpec(deterministic, max_lags))
        chosen, _ = _oracles.adf_brute(values, deterministic, max_lags)
        assert res.chosen_lags == chosen < first_collinear
        error = _relative_error(res.statistic, values, deterministic, chosen)
        assert error <= _ADF_BUDGETS["exact" if exact else "near"]
        if not exact:
            unskipped, _ = _oracles.adf_brute(values, deterministic, max_lags, rtol=0.0)
            assert unskipped >= first_collinear

class TestSizePower:
    def test_size_close_to_nominal(self):
        out = monte_carlo("adf", UnitRootDgp(T=500), n_reps=200, seed=101)
        assert 0.02 <= out.rejection_rate <= 0.09

    def test_power_against_stationary_ar1(self):
        out = monte_carlo("adf", Ar1Dgp(T=500, phi=0.5), n_reps=100, seed=102)
        assert out.rejection_rate >= 0.95
