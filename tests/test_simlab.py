import hashlib
import math
import os

import numpy as np
import pytest

from tvelast.simlab import (
    Ar1Dgp,
    BreakRegressionDgp,
    SplitMix64,
    TvpDgp,
    UnitRootDgp,
    derive_seed,
    gen_ar1,
    gen_break_regression,
    gen_tvp,
    gen_unit_root,
    monte_carlo,
)


class TestSplitMix64:
    def test_finalizer_matches_published_sequence(self):
        # the canonical splitmix64 stream for state 0 is the finalizer
        # applied to successive multiples of GAMMA (Steele, Lea & Flood;
        # also the xoshiro seeding test vectors)
        from tvelast.simlab import _GAMMA, _mix64_scalar
        got = [_mix64_scalar((k * _GAMMA) & (2 ** 64 - 1)) for k in range(1, 6)]
        assert got == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
            0x1B39896A51A8749B,
        ]

    def test_stream_construction_recipe(self):
        # output k = mix64(mix64(seed + GAMMA) + k * GAMMA), frozen here so
        # a refactor cannot silently change every downstream stream
        from tvelast.simlab import _GAMMA, _mix64_scalar
        mask = 2 ** 64 - 1
        for seed in (0, 1, 20250809, mask):
            base = _mix64_scalar((seed + _GAMMA) & mask)
            want = [_mix64_scalar((base + k * _GAMMA) & mask) for k in range(1, 4)]
            got = [int(v) for v in SplitMix64(seed)._raw(3)]
            assert got == want

    def test_uniforms_open_interval(self):
        u = SplitMix64(123).uniforms(10000)
        assert np.all(u > 0.0) and np.all(u < 1.0)
        assert abs(np.mean(u) - 0.5) < 0.01

    def test_normals_moments(self):
        z = SplitMix64(456).normals(200000)
        assert abs(np.mean(z)) < 0.01
        assert abs(np.std(z) - 1.0) < 0.01

    def test_counter_continuation_matches_one_shot(self):
        a = SplitMix64(9)
        first = a.normals(7)
        second = a.normals(5)
        both = SplitMix64(9).normals(12)
        np.testing.assert_array_equal(np.concatenate([first, second]), both)

    def test_derive_seed_is_xor(self):
        assert derive_seed(0b1100, 0b1010) == 0b0110
        assert derive_seed(2 ** 64 - 1, 1) == 2 ** 64 - 2


def _generator_draws(kind):
    for seed in (0, 7, 20250809, 2 ** 64 - 1):
        if kind == "tvp":
            for t in (3, 17, 543):
                model, state = gen_tvp(TvpDgp(T=t, sigma2_meas=0.016, sigma2_state=0.359,
                                              seed=seed))
                yield from (model.y, model.x, state)
        elif kind == "break_regression":
            for t in (3, 17, 200):
                for beta2 in (1.0, 4.0):
                    yield from gen_break_regression(BreakRegressionDgp(T=t, beta2=beta2), seed)
        elif kind == "unit_root":
            for t in (25, 500):
                yield gen_unit_root(t, seed=seed)
        else:
            for t in (25, 500):
                for phi in (0.5, -0.9):
                    yield gen_ar1(t, phi, seed=seed)


@pytest.mark.parametrize("kind, digest", [
    ("tvp", "815fe278d807fe8ba9e93c218839e4c410274d2460b9113da3fe4a45c4694c69"),
    ("break_regression", "1156da9b6ae9888323f503199cb02e4543ae0313dc1e286db69c614db12818fc"),
    ("unit_root", "63deee0f4340d148af7cfb4126138c0e1e465a0862edb96a87ec904b149abe9c"),
    ("ar1", "71ae1a53ccd2799124ae3bd79cde36dfe3db2774948ebda6efd775f22ec15971"),
])
def test_generator_streams_are_pinned(kind, digest):
    # sha256 of the repr of every series each generator returns (start month,
    # name and every float's exact repr), over seeds and lengths from the
    # minimum T up: a change to any draw, its order or its arithmetic shows here
    text = "".join(repr(s) for s in _generator_draws(kind))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestGenTvp:
    def test_same_seed_identical(self):
        dgp = TvpDgp(T=50, sigma2_meas=0.1, sigma2_state=0.2, seed=77)
        m1, a1 = gen_tvp(dgp)
        m2, a2 = gen_tvp(dgp)
        assert m1.y.values == m2.y.values
        assert m1.x.values == m2.x.values
        assert a1.values == a2.values

    def test_vanishing_state_variance_freezes_path(self):
        dgp = TvpDgp(T=200, sigma2_meas=0.1, sigma2_state=1e-12, seed=5)
        _, alpha = gen_tvp(dgp)
        assert max(abs(v) for v in alpha.values) < 1e-4

    def test_measurement_noise_variance(self):
        dgp = TvpDgp(T=10000, sigma2_meas=0.25, sigma2_state=0.01, seed=13)
        model, alpha = gen_tvp(dgp)
        resid = np.asarray(model.y.values) - np.asarray(model.x.values) * np.asarray(alpha.values)
        assert np.var(resid) == pytest.approx(0.25, rel=0.05)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TvpDgp(T=1, sigma2_meas=0.1, sigma2_state=0.1)
        with pytest.raises(ValueError):
            TvpDgp(T=10, sigma2_meas=0.0, sigma2_state=0.1)


class TestPathGenerators:
    def test_white_noise_autocorrelation(self):
        s = gen_ar1(2000, phi=0.0, seed=3)
        v = np.asarray(s.values)
        r1 = np.corrcoef(v[:-1], v[1:])[0, 1]
        assert abs(r1) < 0.05

    def test_differenced_walk_is_white_noise(self):
        s = gen_unit_root(2001, seed=4)
        d = np.diff(s.values)
        r1 = np.corrcoef(d[:-1], d[1:])[0, 1]
        assert abs(r1) < 0.05

    def test_ar1_persistence(self):
        s = gen_ar1(5000, phi=0.8, seed=8)
        v = np.asarray(s.values)
        r1 = np.corrcoef(v[:-1], v[1:])[0, 1]
        assert r1 == pytest.approx(0.8, abs=0.05)

    def test_break_regression_shapes(self):
        dgp = BreakRegressionDgp(T=100, beta2=3.0)
        y, x = gen_break_regression(dgp, seed=9)
        assert len(y) == len(x) == 100


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _refuse_replications_and_forks(monkeypatch):
    import tvelast.simlab as simlab

    def refuse(*args):
        raise AssertionError("a replication ran or a child was forked")

    monkeypatch.setattr(simlab, "_safe_run_one", refuse)
    monkeypatch.setattr(os, "fork", refuse)


class TestMonteCarlo:
    def test_deterministic_summary(self):
        dgp = TvpDgp(T=120, sigma2_meas=0.1, sigma2_state=0.2)
        a = monte_carlo("mle", dgp, n_reps=10, seed=42)
        b = monte_carlo("mle", dgp, n_reps=10, seed=42)
        assert a.to_json() == b.to_json()

    def test_parallel_matches_sequential(self, tmp_path):
        from tvelast.simlab import STUDIES

        dgps = (TvpDgp(T=100, sigma2_meas=0.1, sigma2_state=0.2), UnitRootDgp(T=100),
                Ar1Dgp(T=100, phi=0.5), BreakRegressionDgp(T=100, beta2=2.0))
        assert {type(dgp) for dgp in dgps} == set(STUDIES)  # one DGP per table entry
        for dgp in dgps:
            estimator = STUDIES[type(dgp)].estimator
            # None is every usable CPU; 20 > n_reps is capped at one replication per process
            seq, *splits = (monte_carlo(estimator, dgp, n_reps=12, seed=9, n_jobs=n_jobs,
                                        dump_path=str(tmp_path / f"{n_jobs}.csv"))
                            for n_jobs in (1, 3, None, 20))
            _assert_no_child()
            for n_jobs, split in zip((3, None, 20), splits):
                assert seq.to_json() == split.to_json(), (dgp, n_jobs)
                assert ((tmp_path / "1.csv").read_bytes()
                        == (tmp_path / f"{n_jobs}.csv").read_bytes()), (dgp, n_jobs)

    @pytest.mark.parametrize("failing", [0, 8])  # this process's block, a child's
    def test_an_exception_is_raised_in_the_caller(self, monkeypatch, failing):
        import tvelast.simlab as simlab

        run_one, failing_seed = simlab._run_one, derive_seed(9, failing)

        def fail(dgp, rep_seed):
            if rep_seed == failing_seed:
                raise KeyError(f"raised in {os.getpid()}")
            return run_one(dgp, rep_seed)

        monkeypatch.setattr(simlab, "_run_one", fail)
        with pytest.raises(KeyError) as info:
            monte_carlo("adf", UnitRootDgp(T=100), n_reps=10, seed=9, n_jobs=2)
        raised_here = info.value.args[0] == f"raised in {os.getpid()}"
        assert raised_here == (failing == 0)
        _assert_no_child()

    def test_a_child_that_exits_early_is_an_error(self, monkeypatch):
        import tvelast.simlab as simlab

        run_one, failing_seed = simlab._run_one, derive_seed(9, 7)

        def exit_early(dgp, rep_seed):
            if rep_seed == failing_seed:
                os._exit(3)
            return run_one(dgp, rep_seed)

        monkeypatch.setattr(simlab, "_run_one", exit_early)
        with pytest.raises(RuntimeError, match=r"replication worker \d+ \(replications 5-9\) "
                                               r"ended with exit status 3 "):
            monte_carlo("adf", UnitRootDgp(T=100), n_reps=10, seed=9, n_jobs=2)
        _assert_no_child()

    def test_mle_study_fields(self):
        dgp = TvpDgp(T=150, sigma2_meas=0.05, sigma2_state=0.3)
        out = monte_carlo("mle", dgp, n_reps=20, seed=7)
        assert set(out.bias) == {"log_var_meas", "log_var_state"}
        assert all(0.0 <= c <= 1.0 for c in out.coverage95.values())
        assert out.rejection_rate is None
        assert out.n_failed + out.n_reps - out.n_failed == 20

    def test_adf_study_rejection_field(self):
        out = monte_carlo("adf", UnitRootDgp(T=100), n_reps=50, seed=3)
        assert out.rejection_rate is not None
        assert 0.0 <= out.rejection_rate <= 1.0

    def test_min_reps_enforced(self):
        with pytest.raises(ValueError):
            monte_carlo("adf", UnitRootDgp(T=100), n_reps=5, seed=1)

    def test_bad_study_rejected_before_any_replication(self, monkeypatch):
        _refuse_replications_and_forks(monkeypatch)

        def tvp(sigma2_meas=0.1, sigma2_state=0.2):
            return TvpDgp(T=100, sigma2_meas=sigma2_meas, sigma2_state=sigma2_state)

        for estimator, make_dgp, match in (
                # an estimator paired with another study's DGP
                ("mle", lambda: UnitRootDgp(T=100), "'mle'.*UnitRootDgp"),
                ("mle", lambda: BreakRegressionDgp(T=100), "'mle'.*BreakRegressionDgp"),
                ("adf", tvp, "'adf'.*TvpDgp"),
                ("adf", lambda: BreakRegressionDgp(T=100), "'adf'.*BreakRegressionDgp"),
                ("cusum", lambda: Ar1Dgp(T=100), "'cusum'.*Ar1Dgp"),
                ("cusum", tvp, "'cusum'.*TvpDgp"),
                # a design no replication could draw, refused when it is built
                ("adf", lambda: Ar1Dgp(T=100, phi=1.0), r"phi must satisfy \|phi\| < 1"),
                ("adf", lambda: Ar1Dgp(T=100, phi=math.nan), "phi"),
                ("mle", lambda: tvp(sigma2_meas=math.nan), "sigma2_meas must be positive"),
                ("mle", lambda: tvp(sigma2_state=math.inf), "sigma2_state must be positive"),
                ("cusum", lambda: BreakRegressionDgp(T=100, beta2=math.inf),
                 "beta2 must be finite")):
            for n_jobs in (1, 2, None):
                with pytest.raises(ValueError, match=match):
                    monte_carlo(estimator, make_dgp(), n_reps=10, seed=1, n_jobs=n_jobs)

    def test_bad_n_jobs_rejected_before_any_replication(self, monkeypatch):
        _refuse_replications_and_forks(monkeypatch)
        for n_jobs in (0, -3, True, False, 2.5, "2"):
            with pytest.raises(ValueError, match="n_jobs must be None or a positive integer"):
                monte_carlo("adf", UnitRootDgp(T=100), n_reps=10, seed=1, n_jobs=n_jobs)

    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            monte_carlo("bogus", UnitRootDgp(T=100), n_reps=10, seed=1)

    def test_per_rep_dump(self, tmp_path):
        path = tmp_path / "reps.csv"
        monte_carlo("adf", Ar1Dgp(T=100, phi=0.5), n_reps=10, seed=5,
                    dump_path=str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "replication,failed,reject,statistic"
        assert len(lines) == 11
