"""Hypothesis tests, confidence set inversion, unboundedness rules."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import norm

from conftest import oracle_decide, oracle_normalized_stats
from mwiv import (
    CurveCache,
    CurveLibrary,
    DataError,
    Dataset,
    JudgeDesignSpec,
    METHODS,
    NormalizedStats,
    NumericalError,
    TableError,
    build_projection,
    cs_csv_text,
    cw_critical_value,
    detect_unbounded,
    invert_confidence_set,
    jive_point_estimate,
    load_two_sided_table,
    normalized_stats,
    run_test,
    simulate_judge_data,
    snap_rho_to_grid,
    two_sided_chi2,
    write_curve_csv,
)
from mwiv import critval, estimators, inference

Q2 = 3.8414588206941254
SQ = 1.6448536269514722


def scaled_design(lam, seed, n_judges=40, nk=8):
    rng = np.random.default_rng(12345)
    base = rng.standard_normal(n_judges)
    spec = JudgeDesignSpec(
        n_judges=n_judges,
        per_judge=(nk,) * n_judges,
        pi=tuple(lam * base),
        beta=1.0,
        error_corr=0.4,
        seed=seed,
    )
    return simulate_judge_data(spec)


@pytest.fixture(scope="module")
def strong_data():
    data = scaled_design(2.0, 3)
    return data, build_projection(data)


@pytest.fixture(scope="module")
def negative_nu_data():
    data = scaled_design(0.0, 13)
    return data, build_projection(data)


@pytest.fixture(scope="module")
def ms1_weak_data():
    data = scaled_design(0.25, 16)
    return data, build_projection(data)


@pytest.fixture(scope="module")
def ms2_weak_data():
    data = scaled_design(0.33, 15)
    return data, build_projection(data)


def synthetic_stats(nu, q_xx=float("nan"), b_xxxx=None):
    return NormalizedStats(
        xi=0.0, nu=nu, rho=0.0, rho_raw=0.0, rho_clamped=False,
        ar=0.0, t_squared=0.0, beta0=0.0, q_xx=q_xx, b_xxxx=b_xxxx,
    )


class TestRunTest:
    def test_ms1_rejects_at_1p7(self, strong_data, curve_library):
        data, ctx = strong_data

        def ar_at(b0):
            return normalized_stats(ctx, data, b0).ar - 1.7

        beta_hat = jive_point_estimate(ctx, data)
        # AR rises fast above beta_hat on this design; the 1.7 crossing is close
        b0 = brentq(ar_at, beta_hat, beta_hat + 0.2, xtol=1e-12)

        d1 = run_test("ms1", ctx, data, b0, curves=curve_library)
        assert d1.statistic == pytest.approx(1.7, abs=1e-9)
        assert d1.critical == pytest.approx(SQ, rel=1e-12)
        assert d1.reject
        # the same point squares to 2.89, inside the two-sided cutoff
        d2 = run_test("ms2", ctx, data, b0, curves=curve_library)
        assert d2.statistic == pytest.approx(2.89, abs=1e-8)
        assert not d2.reject

    def test_vtfo_never_rejects_negative_nu(self, negative_nu_data, curve_library):
        data, ctx = negative_nu_data
        st = normalized_stats(ctx, data, 0.0)
        assert st.nu < 0.0
        for b0 in (-1.0, 0.0, 1.0):
            d = run_test("vtfo", ctx, data, b0, curves=curve_library)
            assert math.isinf(d.critical)
            assert not d.reject

    def test_numpy_alpha_names_one_cache_file(self, strong_data, tmp_path):
        # alpha enters run_test as a float: a NumPy scalar names the same
        # cache files as 0.05, so a later call reads them without a write
        data, ctx = strong_data
        lib = CurveLibrary(cache=CurveCache(directory=str(tmp_path)))
        got = run_test("vtfo", ctx, data, 1.0, alpha=np.float64(0.05), curves=lib)
        assert type(got.alpha) is float
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names and all("_alpha0.05_" in name for name in names)
        stamps = {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()}
        again = CurveLibrary(cache=CurveCache(directory=str(tmp_path)))
        want = run_test("vtfo", ctx, data, 1.0, alpha=0.05, curves=again)
        assert got == want
        assert {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()} == stamps

    def test_vtfo_accepts_point_estimate(self, strong_data, curve_library):
        data, ctx = strong_data
        beta_hat = jive_point_estimate(ctx, data)
        d = run_test("vtfo", ctx, data, beta_hat, curves=curve_library)
        assert d.statistic == pytest.approx(0.0, abs=1e-18)
        assert not d.reject

    def test_decision_fields(self, strong_data, curve_library):
        data, ctx = strong_data
        d = run_test("lm", ctx, data, 0.7, curves=curve_library)
        st = normalized_stats(ctx, data, 0.7)
        assert d.method == "lm"
        assert d.beta0 == 0.7
        assert d.statistic == pytest.approx(st.xi**2, rel=1e-12)
        assert d.critical == pytest.approx(Q2, rel=1e-12)
        assert d.nu == st.nu and d.rho == st.rho

    def test_cw_uses_conditioning_statistic(self, strong_data, curve_library):
        data, ctx = strong_data
        d = run_test("cw", ctx, data, 0.9, curves=curve_library)
        st = normalized_stats(ctx, data, 0.9)
        assert d.statistic == pytest.approx(st.t_squared, rel=1e-12)
        assert np.isfinite(d.critical) and d.critical >= 0.0

    def test_unknown_method(self, strong_data):
        data, ctx = strong_data
        with pytest.raises(DataError, match="unknown method 'tsls'"):
            run_test("tsls", ctx, data, 0.0)

    def test_vtf_without_table(self, strong_data, curve_library):
        data, ctx = strong_data
        with pytest.raises(TableError, match="two-sided table unavailable"):
            run_test("vtf", ctx, data, 0.5, curves=curve_library)

    def test_vtf_with_table(self, strong_data, curve_library, tmp_path):
        from mwiv import CurveLibrary

        data, ctx = strong_data
        path = tmp_path / "table.csv"
        write_curve_csv(
            path,
            [curve_library.cache.get(0.3, 0.05), curve_library.cache.get(0.9, 0.05)],
        )
        lib = CurveLibrary(
            cache=curve_library.cache, two_sided=load_two_sided_table(path)
        )
        d = run_test("vtf", ctx, data, 0.5, curves=lib)
        assert np.isfinite(d.statistic)


class TestRejectsBelowOneSidedCutoff:
    def test_exists_for_high_rho(self, curve_library):
        # nu below the one-sided cutoff can still reject under the curve
        curve = curve_library.cache.get(0.9, 0.05)
        nu, xi, rho = 1.62, 1.8, 0.9
        assert nu < SQ
        stat = xi**2 / (1.0 - 2.0 * rho * xi / nu + xi**2 / nu**2)
        crit = curve.evaluate(nu)
        assert np.isfinite(crit)
        assert stat > crit


class TestConfidenceSets:
    def test_strong_data_single_interval(self, strong_data, curve_library):
        data, ctx = strong_data
        beta_hat = jive_point_estimate(ctx, data)
        for method in METHODS:
            if method == "vtf":
                continue
            # curve methods pay a build per snapped rho; keep their grids tight
            grid = None
            if method in ("vtfo", "cw"):
                grid = (beta_hat - 0.1, beta_hat + 0.1, 41)
            cs = invert_confidence_set(method, ctx, data, grid=grid, curves=curve_library)
            assert len(cs.intervals) == 1, method
            lo, hi = cs.intervals[0]
            assert lo <= beta_hat <= hi
            assert not cs.unbounded_flag
            assert cs.unbounded_reason == ""
            if method == "cw":
                assert cs.analytic_unbounded is None
            else:
                assert cs.analytic_unbounded is False

    def test_grid_profile_evaluated_once(self, strong_data, curve_library, monkeypatch):
        # with no degenerate point the set decides on the stats it screened
        data, ctx = strong_data
        calls = []
        stats = estimators._Profile.stats
        monkeypatch.setattr(estimators._Profile, "stats", lambda self, b: calls.append(b) or stats(self, b))
        cs = invert_confidence_set("ms2", ctx, data, grid=(-1.0, 3.0, 41), curves=curve_library)
        assert not cs.degenerate.any()
        assert len(calls) == 1

    def test_duality_with_run_test(self, strong_data, curve_library):
        data, ctx = strong_data
        cs = invert_confidence_set(
            "ms2", ctx, data, grid=(-1.0, 3.0, 41), curves=curve_library
        )
        for i in (0, 10, 20, 30, 40):
            d = run_test("ms2", ctx, data, float(cs.betas[i]), curves=curve_library)
            assert d.reject == bool(cs.rejects[i])
            assert d.statistic == pytest.approx(float(cs.statistics[i]), rel=1e-12)

    def test_ms1_weak_design_unbounded(self, ms1_weak_data, curve_library):
        data, ctx = ms1_weak_data
        st = normalized_stats(ctx, data, 0.0)
        assert 1.1 < st.nu < 1.3
        cs = invert_confidence_set(
            "ms1", ctx, data, grid=(-60.0, 60.0, 601), curves=curve_library
        )
        assert cs.unbounded_flag
        assert "extends beyond the grid" in cs.unbounded_reason
        assert cs.analytic_unbounded is True

    def test_ms2_weak_design_unbounded(self, ms2_weak_data, curve_library):
        data, ctx = ms2_weak_data
        st = normalized_stats(ctx, data, 0.0)
        assert st.nu**2 == pytest.approx(2.0, abs=0.15)
        cs = invert_confidence_set(
            "ms2", ctx, data, grid=(-60.0, 60.0, 601), curves=curve_library
        )
        assert cs.unbounded_flag
        assert cs.analytic_unbounded is True

    def test_grid_validation(self, strong_data):
        data, ctx = strong_data
        with pytest.raises(DataError, match="grid must be finite"):
            invert_confidence_set("ms1", ctx, data, grid=(0.0, 1.0, 2))
        with pytest.raises(DataError, match="grid must be finite"):
            invert_confidence_set("ms1", ctx, data, grid=(2.0, 1.0, 11))

    @pytest.mark.parametrize("method", ["cw", "ms2"])
    def test_grid_size_is_bounded_before_allocating(self, strong_data, curve_library, method):
        data, ctx = strong_data
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=f"3 <= n <= {inference.MAX_GRID_POINTS}"):
                invert_confidence_set(method, ctx, data, grid=(0.0, 1.0, 10**9), curves=curve_library)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_one_profile_build_per_dataset(self, monkeypatch):
        # the context memoizes the beta0 profile of the last dataset it saw:
        # a session's variance, grid, test and sets build it once, a second
        # dataset builds its own, and the memoized profile is the fresh one
        data = scaled_design(2.0, 3)
        ctx = build_projection(data)
        built = []
        profile_cls = estimators._Profile

        def count(**fields):
            built.append(fields)
            return profile_cls(**fields)

        monkeypatch.setattr(estimators, "_Profile", count)
        estimators.jive_variance(ctx, data, jive_point_estimate(ctx, data))
        lo, hi, n = inference.default_grid(ctx, data)
        run_test("ms2", ctx, data, 1.0)
        sets = [invert_confidence_set(m, ctx, data) for m in ("ms2", "ms1", "lm")]
        assert len(built) == 1
        assert all((cs.grid_lo, cs.grid_hi, cs.grid_n) == (lo, hi, n) == (lo, hi, 2001) for cs in sets)

        other = Dataset(y=data.y + 0.5 * data.x, x=data.x, instruments=data.instruments)
        got = normalized_stats(ctx, other, 0.3)
        assert len(built) == 2
        want = normalized_stats(build_projection(other), other, 0.3)
        assert len(built) == 3
        assert all(getattr(got, f) == getattr(want, f) for f in ("xi", "nu", "rho", "ar", "t_squared"))
        assert got.xi != normalized_stats(ctx, data, 0.3).xi
        assert len(built) == 4

        grid = np.linspace(lo, hi, 401)
        memoized = estimators._profile(ctx, data).stats(grid)
        assert len(built) == 4
        fresh = estimators._profile(build_projection(data), data).stats(grid)
        for f in ("xi", "rho", "rho_raw", "rho_clamped", "ar", "t_squared", "beta0"):
            assert getattr(memoized[0], f).tobytes() == getattr(fresh[0], f).tobytes(), f
        assert (memoized[0].nu, memoized[0].q_xx, memoized[0].b_xxxx) == (fresh[0].nu, fresh[0].q_xx, fresh[0].b_xxxx)
        assert np.array_equal(memoized[1], fresh[1])

    def test_failed_build_is_not_memoized(self, monkeypatch):
        data = scaled_design(2.0, 3)
        ctx = build_projection(data)
        with monkeypatch.context() as m:
            m.setattr(type(ctx), "pair_weighted", lambda *args: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                estimators._profile(ctx, data)
        assert ctx._memo is None
        assert estimators._profile(ctx, data) is ctx._memo[1]

    def test_default_grid_from_the_set_profile(self):
        # an exact fit has variance 0.0 and takes the fixed band, in the
        # grid a set reads off its own profile too
        x = np.random.default_rng(10).standard_normal(20)
        exact = Dataset(y=0.7 * x, x=x, instruments=np.repeat([0, 1, 2, 3], 5))
        ctx = build_projection(exact)
        lo, hi, n = inference.default_grid(ctx, exact)
        cs = invert_confidence_set("ms2", ctx, exact)
        assert (cs.grid_lo, cs.grid_hi, cs.grid_n) == (lo, hi, n)
        assert hi - lo == pytest.approx(2000.0)

    def test_all_degenerate(self):
        labels = np.repeat([0, 1, 2], 5)
        rng = np.random.default_rng(0)
        data = Dataset(y=rng.standard_normal(15), x=np.zeros(15), instruments=labels)
        ctx = build_projection(data)
        with pytest.raises(NumericalError, match="all grid points degenerate"):
            invert_confidence_set("ms2", ctx, data, grid=(-1.0, 1.0, 5))

    def test_statistics_match_the_direct_path(self, strong_data, curve_library):
        data, ctx = strong_data
        want = {}
        for b0 in np.linspace(-40.0, 40.0, 81):
            try:
                want[b0] = oracle_normalized_stats(ctx, data, float(b0))
            except NumericalError:
                want[b0] = None
        for method, stat in (("lm", lambda s: s.xi**2), ("ms1", lambda s: s.ar)):
            cs = invert_confidence_set(method, ctx, data, grid=(-40.0, 40.0, 81), curves=curve_library)
            assert cs.degenerate.tolist() == [want[b] is None for b in cs.betas], method
            keep = ~cs.degenerate
            expect = np.array([stat(want[b]) for b in cs.betas[keep]])
            assert np.allclose(cs.statistics[keep], expect, rtol=1e-10, atol=1e-12), method

    def test_exact_fit_point_is_degenerate(self, curve_library):
        # y = 0.7 x exactly: every kernel at beta0 = 0.7 sees e0 = 0, and the
        # profile's psi there is rounding that must still count as zero
        labels = np.repeat([0, 1, 2, 3], 5)
        x = np.random.default_rng(10).standard_normal(20)
        data = Dataset(y=0.7 * x, x=x, instruments=labels)
        ctx = build_projection(data)
        with pytest.raises(NumericalError, match="variance estimate nonpositive at beta0"):
            oracle_normalized_stats(ctx, data, 0.7)
        # at 1.4, e0 = -0.7 x: the variances are positive, and ms1, ms2 and
        # lm test the point; psi at the point estimate 0.7 is zero too, so
        # vtfo and cw, which read t^2 = Q_xe^2 / psi(beta_hat), can test no
        # point, and a test refuses exactly the points its set drops
        st = oracle_normalized_stats(ctx, data, 1.4)
        assert st.ar == pytest.approx(2.4586, abs=1e-4) and st.xi == pytest.approx(-2.2437, abs=1e-4)
        want = {"ms1": st.ar, "ms2": st.ar**2, "lm": st.xi**2}
        for method in ("ms1", "ms2", "lm"):
            cs = invert_confidence_set(method, ctx, data, grid=(0.0, 1.4, 3), curves=curve_library)
            assert cs.betas[1] == 0.7 and cs.degenerate[1], method
            assert not cs.degenerate[2], method
            assert cs.rejects.all(), method
            assert cs.statistics[2] == pytest.approx(want[method], rel=1e-10), method
            dec = run_test(method, ctx, data, 1.4, curves=curve_library)
            assert (dec.statistic, dec.critical, dec.reject) == (cs.statistics[2], cs.criticals[2], True), method
            with pytest.raises(NumericalError, match="variance estimate nonpositive at beta0"):
                run_test(method, ctx, data, 0.7, curves=curve_library)
        for method in ("vtfo", "cw"):
            with pytest.raises(NumericalError, match="all grid points degenerate"):
                invert_confidence_set(method, ctx, data, grid=(0.0, 1.4, 3), curves=curve_library)
            for b0 in (0.0, 0.7, 1.4):
                with pytest.raises(NumericalError, match="variance estimate nonpositive at beta0"):
                    run_test(method, ctx, data, b0, curves=curve_library)

    def test_csv_text_shape(self, strong_data, curve_library):
        data, ctx = strong_data
        cs = invert_confidence_set(
            "lm", ctx, data, grid=(0.0, 2.0, 21), curves=curve_library
        )
        text = cs_csv_text(cs)
        lines = text.strip().split("\n")
        assert lines[0].startswith("# intervals=")
        assert "unbounded=false" in lines[0]
        assert "method=lm" in lines[0]
        assert lines[1] == "beta0,method,statistic,critical,reject"
        assert len(lines) == 2 + 21
        assert lines[2].split(",")[1] == "lm"
        assert lines[2].split(",")[4] in ("true", "false")


class TestDecide:
    def test_sets_match_the_per_point_rule(self, strong_data, curve_library, tmp_path):
        # snapped rho runs over 15 grid bins, and the table's two curves
        # leave rows below, between and above them
        data, ctx = strong_data
        beta_hat = jive_point_estimate(ctx, data)
        grid = (beta_hat - 0.1, beta_hat + 0.1, 41)
        path = tmp_path / "table.csv"
        write_curve_csv(path, [curve_library.cache.get(r, 0.05) for r in (0.4, 0.45)])
        lib = CurveLibrary(cache=curve_library.cache, two_sided=load_two_sided_table(path))
        points = [normalized_stats(ctx, data, float(b)) for b in np.linspace(*grid)]
        assert len({snap_rho_to_grid(p.rho) for p in points}) >= 10
        for method in METHODS:
            cs = invert_confidence_set(method, ctx, data, grid=grid, curves=lib)
            want = np.array([oracle_decide(method, p, 0.05, lib) for p in points])
            assert not cs.degenerate.any()
            assert np.array_equal(cs.criticals, want[:, 1]), method
            assert np.array_equal(cs.rejects, want[:, 0] > want[:, 1]), method
            # squares of array statistics may round differently from scalar ones
            assert np.all(np.abs(cs.statistics - want[:, 0]) <= np.spacing(np.abs(want[:, 0]))), method

    def test_vtfo_set_with_a_child_that_sent_nothing(self, strong_data, monkeypatch):
        # two children, one of which exits before it sends its share: the
        # set equals the one built in one process
        data, ctx = strong_data
        beta_hat = jive_point_estimate(ctx, data)
        grid = (beta_hat - 0.1, beta_hat + 0.1, 41)
        parent, build_share, fork, forks = os.getpid(), critval._build_share, os.fork, []

        def counted():
            forks.append(None)  # before the fork, so that each child sees its number
            return fork()

        def first_child_dies(misses, alpha):
            if os.getpid() != parent and len(forks) == 1:
                os._exit(1)
            return build_share(misses, alpha)

        monkeypatch.setattr(critval.os, "fork", counted)
        monkeypatch.setattr(critval, "_build_share", first_child_dies)
        sets = {}
        for cpus in (3, 1):
            monkeypatch.setattr(critval, "_usable_cpus", lambda: cpus)
            sets[cpus] = invert_confidence_set("vtfo", ctx, data, grid=grid, curves=CurveLibrary())
        assert len(forks) == 2
        for name in ("statistics", "criticals", "rejects", "intervals"):
            assert np.array_equal(getattr(sets[3], name), getattr(sets[1], name)), name

    def test_cw_set_is_one_quantile_call(self, strong_data, curve_library, monkeypatch):
        data, ctx = strong_data
        calls = []

        def counting(rho, t_stat, alpha=0.05):
            calls.append(np.shape(t_stat))
            return cw_critical_value(rho, t_stat, alpha)

        monkeypatch.setattr(inference, "cw_critical_value", counting)
        invert_confidence_set("cw", ctx, data, grid=(0.0, 2.0, 101), curves=curve_library)
        assert calls == [(101,)]

    def test_failed_curve_build_is_not_a_degenerate_point(self):
        # curve builds at alpha 0.2 stop advancing; the set must say so
        # rather than report every point as degenerate
        spec = JudgeDesignSpec(
            n_judges=20, per_judge=(10,) * 20, pi=(0.5,) * 20, beta=1.0, error_corr=0.5, seed=4,
        )
        data = simulate_judge_data(spec)
        ctx = build_projection(data)
        with pytest.raises(NumericalError, match=r"vtfo curve build failed at rho=0\.\d+, alpha=0\.2: "):
            invert_confidence_set("vtfo", ctx, data, alpha=0.2, grid=(0.0, 2.0, 11))

    def test_unknown_method_before_any_work(self, monkeypatch):
        def no_stats(*args):
            raise AssertionError("the beta0 profile was built")

        monkeypatch.setattr(inference, "_profile", no_stats)
        with pytest.raises(DataError, match="unknown method 'tsls'; expected one of vtfo, vtf, cw, ms1, ms2, lm"):
            invert_confidence_set("tsls", None, None, grid=(0.0, 1.0, 3))
        with pytest.raises(TableError, match="two-sided table unavailable"):
            run_test("vtf", None, None, 0.0)


class TestDetectUnbounded:
    def test_ms1_nu_threshold_boundary(self):
        assert detect_unbounded("ms1", synthetic_stats(nu=SQ)).unbounded
        assert not detect_unbounded("ms1", synthetic_stats(nu=SQ + 1e-9)).unbounded
        check = detect_unbounded("ms1", synthetic_stats(nu=0.3))
        assert check.rule == "nu <= one-sided cutoff"
        assert check.quartic_leading is None
        assert bool(check)

    def test_ms2_nu_threshold(self):
        assert not detect_unbounded("ms2", synthetic_stats(nu=2.5)).unbounded
        assert detect_unbounded("ms2", synthetic_stats(nu=1.9)).unbounded

    def test_moment_level_rules(self):
        st = synthetic_stats(nu=5.0, q_xx=1.5, b_xxxx=1.0)
        ms1 = detect_unbounded("ms1", st)
        assert ms1.rule == "Q_xx <= 0 or Q_xx^2 <= q1 * B_xxxx"
        assert ms1.unbounded  # 2.25 <= 2.7055
        ms2 = detect_unbounded("ms2", st)
        assert ms2.rule == "Q_xx^2 <= q2 * B_xxxx"
        assert ms2.unbounded  # 2.25 <= 3.8415
        assert ms2.quartic_leading == pytest.approx(1.5**2 - Q2, rel=1e-12)
        st2 = synthetic_stats(nu=5.0, q_xx=4.0, b_xxxx=1.0)
        assert not detect_unbounded("ms2", st2).unbounded
        assert detect_unbounded("ms1", synthetic_stats(nu=5.0, q_xx=-0.2, b_xxxx=1.0)).unbounded

    def test_lm_matches_two_sided_threshold(self):
        assert detect_unbounded("lm", synthetic_stats(nu=1.95)).unbounded
        assert not detect_unbounded("lm", synthetic_stats(nu=1.97)).unbounded
        assert "large-beta0 limit" in detect_unbounded("lm", synthetic_stats(nu=0.0)).rule

    def test_vtfo_rule_flagged_approximate(self):
        check = detect_unbounded("vtfo", synthetic_stats(nu=1.0))
        assert check.unbounded
        assert "approximate" in check.rule

    def test_cw_not_characterized(self):
        with pytest.raises(ValueError, match="not characterized"):
            detect_unbounded("cw", synthetic_stats(nu=1.0))

    def test_unknown_method(self):
        with pytest.raises(DataError, match="unknown method"):
            detect_unbounded("anderson", synthetic_stats(nu=1.0))
