"""Point estimate, variance estimators, normalized statistics, identity."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwiv import (
    DataError,
    Dataset,
    JudgeDesignSpec,
    NumericalError,
    build_projection,
    default_grid,
    jive_point_estimate,
    jive_variance,
    normalized_stats,
    run_test,
    simulate_judge_data,
)
from mwiv.estimators import _profile
from mwiv.projection import DenseProjection, JudgeProjection

from conftest import (
    dense_hat_matrix,
    judge_indicator_matrix,
    kernel_b,
    oracle_judge_moments,
    oracle_normalized_stats,
    oracle_v_hat,
    oracle_variances,
    quadratic_form_Q,
)


def sim(n_judges, nk, pi, beta=1.0, corr=0.4, seed=0, scales=(1.0, 1.0)):
    spec = JudgeDesignSpec(
        n_judges=n_judges,
        per_judge=(nk,) * n_judges,
        pi=tuple(np.broadcast_to(pi, n_judges)),
        beta=beta,
        error_corr=corr,
        error_scales=scales,
        seed=seed,
    )
    return simulate_judge_data(spec)


def t_squared_both_ways(ctx, data, beta0):
    """t^2 at beta0 from ``normalized_stats``, checked against the Wald
    ratio (beta_hat - beta0)^2 / V_hat to 1e-8 relative."""
    closed = normalized_stats(ctx, data, beta0).t_squared
    beta_hat = jive_point_estimate(ctx, data)
    ratio = (beta_hat - beta0) ** 2 / jive_variance(ctx, data, beta_hat)
    assert abs(ratio - closed) <= 1e-8 * max(abs(ratio), abs(closed), 1e-12)
    return closed


def variances_at(ctx, data, beta0):
    """(upsilon, tau, psi, phi) at beta0, read off the beta0 profile."""
    profile = _profile(ctx, data)
    _, _, tau, psi, phi = (float(v[0]) for v in profile.values(beta0))
    return profile.upsilon, tau, psi, phi


class TestPointEstimate:
    def test_noiseless_proportional(self):
        labels = np.repeat([0, 1, 2], 4)
        x = np.arange(12, dtype=float) - 5.0
        data = Dataset(y=2.0 * x, x=x, instruments=labels)
        ctx = build_projection(data)
        assert jive_point_estimate(ctx, data) == pytest.approx(2.0, rel=1e-12)

    def test_simulation_mean_near_truth(self):
        vals = []
        for seed in range(10):
            spec = JudgeDesignSpec(
                n_judges=60,
                per_judge=(20,) * 60,
                pi=tuple(np.linspace(-1.2, 1.2, 60)),
                beta=1.0,
                error_corr=0.3,
                seed=seed,
            )
            data = simulate_judge_data(spec)
            vals.append(jive_point_estimate(build_projection(data), data))
        assert abs(np.mean(vals) - 1.0) <= 0.03

    def test_not_symmetric_in_y_and_x(self):
        data = sim(25, 6, 0.8, seed=5)
        ctx = build_projection(data)
        fwd = jive_point_estimate(ctx, data)
        swapped = Dataset(y=data.x, x=data.y, instruments=data.instruments)
        rev = jive_point_estimate(build_projection(swapped), swapped)
        assert abs(fwd * rev - 1.0) > 1e-6

    def test_degenerate_first_stage(self):
        labels = np.repeat([0, 1], 5)
        data = Dataset(
            y=np.arange(10, dtype=float), x=np.zeros(10), instruments=labels
        )
        ctx = build_projection(data)
        with pytest.raises(NumericalError, match="degenerate first stage"):
            jive_point_estimate(ctx, data)
        # and again from the memoized profile
        assert ctx._memo is not None
        with pytest.raises(NumericalError, match="degenerate first stage"):
            jive_point_estimate(ctx, data)

    @pytest.mark.parametrize("kind", ["judge", "dense"])
    def test_memoized_estimate_calls_no_kernel(self, monkeypatch, kind):
        rng = np.random.default_rng(40)
        z = np.repeat(np.arange(8), 6) if kind == "judge" else rng.standard_normal((48, 6))
        x = rng.standard_normal(48) + (z if kind == "judge" else z @ np.full(6, 0.5))
        data = Dataset(y=x + rng.standard_normal(48), x=x, instruments=z)
        ctx = build_projection(data)
        want = quadratic_form_Q(ctx, data.y, data.x) / quadratic_form_Q(ctx, data.x, data.x)
        _profile(ctx, data)

        def kernel(*args):
            raise AssertionError("a projection kernel ran")

        for name in ("quad_pp", "quad_forms", "pair_weighted", "annihilate", "leave_out_fit"):
            monkeypatch.setattr(type(ctx), name, kernel)
        assert jive_point_estimate(ctx, data) == want
        lo, hi, _ = default_grid(ctx, data)
        assert lo < want < hi


class TestVariance:
    def test_matches_dense_loop_oracle(self):
        data = sim(20, 10, 0.6, seed=1)
        ctx = build_projection(data)
        beta_hat = jive_point_estimate(ctx, data)
        got = jive_variance(ctx, data, beta_hat)
        p = dense_hat_matrix(judge_indicator_matrix(data.instruments))
        q_xx = quadratic_form_Q(ctx, data.x, data.x)
        e_hat = data.y - beta_hat * data.x
        want = oracle_v_hat(p, 20, data.x, e_hat, q_xx)
        assert got == pytest.approx(want, rel=1e-10)

    def test_scale_equivariance_of_t(self):
        data = sim(15, 8, 0.7, seed=2)
        ctx = build_projection(data)
        doubled = Dataset(y=2.0 * data.y, x=data.x, instruments=data.instruments)
        ctx2 = build_projection(doubled)
        for beta0 in (-0.5, 0.3, 1.4):
            t1 = t_squared_both_ways(ctx, data, beta0)
            t2 = t_squared_both_ways(ctx2, doubled, 2.0 * beta0)
            assert t1 == pytest.approx(t2, rel=1e-8)

    def test_zero_residuals_zero_variance(self):
        labels = np.repeat([0, 1, 2], 5)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(15)
        data = Dataset(y=1.5 * x, x=x, instruments=labels)
        ctx = build_projection(data)
        beta_hat = jive_point_estimate(ctx, data)
        assert beta_hat == pytest.approx(1.5, rel=1e-12)
        assert jive_variance(ctx, data, 1.5) == 0.0

    def test_nonfinite_beta_hat_rejected(self):
        data = sim(10, 6, 0.5, seed=4)
        ctx = build_projection(data)
        with pytest.raises(NumericalError, match="variance estimate nonpositive"):
            jive_variance(ctx, data, float("nan"))


class TestVarianceEstimatesAt:
    """The variance objects at a beta0, as the beta0 profile evaluates them."""

    def test_matches_loop_oracle(self):
        data = sim(20, 10, 0.5, seed=6, corr=0.6)
        ctx = build_projection(data)
        p = dense_hat_matrix(judge_indicator_matrix(data.instruments))
        for beta0 in (-1.0, 0.0, 0.8):
            got = variances_at(ctx, data, beta0)
            e0 = data.y - beta0 * data.x
            ups, tau, psi, phi = oracle_variances(p, 20, data.x, e0)
            assert got[0] == pytest.approx(ups, rel=1e-10)
            assert got[1] == pytest.approx(tau, rel=1e-10, abs=1e-12)
            assert got[2] == pytest.approx(psi, rel=1e-10)
            assert got[3] == pytest.approx(phi, rel=1e-10)

    def test_phi_plugin_equals_b_expansion(self):
        spec = JudgeDesignSpec(
            n_judges=10,
            per_judge=(10,) * 10,
            pi=tuple(np.linspace(-0.8, 0.8, 10)),
            beta=1.0,
            error_corr=0.4,
            seed=7,
        )
        data = simulate_judge_data(spec)
        ctx = build_projection(data)
        vecs = {"y": data.y, "x": data.x}
        for beta0 in (-1.0, 0.0, 2.0):
            phi = variances_at(ctx, data, beta0)[3]
            expanded = 0.0
            for s1 in "yx":
                for s2 in "yx":
                    for s3 in "yx":
                        for s4 in "yx":
                            sign = (-beta0) ** sum(s == "x" for s in (s1, s2, s3, s4))
                            expanded += sign * kernel_b(
                                ctx, vecs[s1], vecs[s2], vecs[s3], vecs[s4]
                            )
            assert phi == pytest.approx(expanded, rel=1e-8)

    def test_tau_equals_upsilon_when_residual_is_x(self):
        labels = np.repeat(np.arange(8), 7)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(56) + np.repeat(rng.standard_normal(8), 7)
        beta0 = 0.6
        data = Dataset(y=(beta0 + 1.0) * x, x=x, instruments=labels)
        ctx = build_projection(data)
        upsilon, tau, psi, _ = variances_at(ctx, data, beta0)
        assert tau == pytest.approx(upsilon, rel=1e-12)
        assert psi == pytest.approx(upsilon, rel=1e-12)

    def test_upsilon_independent_of_beta0(self):
        data = sim(12, 9, 0.4, seed=9)
        ctx = build_projection(data)
        a = variances_at(ctx, data, -2.0)[0]
        b = variances_at(ctx, data, 3.0)[0]
        assert a == b

    @pytest.mark.parametrize("scales", [None, (2.0, 1.0)], ids=["homoskedastic", "heteroskedastic"])
    def test_weak_design_consistency(self, scales):
        # medians over 20 seeds stay inside 10 percent of population values;
        # heteroskedastic judges' error scales alternate 2.0 and 1.0
        n_judges, nk = 200, 100
        mu_sq = 0.3 * np.sqrt(n_judges * 2.0)
        pi_val = float(np.sqrt(mu_sq / (n_judges * (nk - 1))))
        pis = tuple(pi_val * np.sign(np.sin(np.arange(n_judges) + 0.5)))
        judge_scales = None if scales is None else scales * (n_judges // 2)
        spec0 = JudgeDesignSpec(
            n_judges=n_judges, per_judge=(nk,) * n_judges, pi=pis,
            beta=1.0, error_corr=0.5, judge_error_scale=judge_scales, seed=0,
        )
        pop = oracle_judge_moments(spec0)
        rels = {"upsilon": [], "tau": [], "psi": [], "phi": []}
        for seed in range(20):
            spec = dataclasses.replace(spec0, seed=seed)
            data = simulate_judge_data(spec)
            ctx = build_projection(data)
            upsilon, tau, psi, phi = variances_at(ctx, data, 1.0)
            rels["upsilon"].append(abs(upsilon - pop.upsilon) / pop.upsilon)
            rels["tau"].append(abs(tau - pop.tau) / abs(pop.tau))
            rels["psi"].append(abs(psi - pop.psi) / pop.psi)
            rels["phi"].append(abs(phi - pop.phi) / pop.phi)
        for name, vals in rels.items():
            assert float(np.median(vals)) < 0.10, (name, np.median(vals))

    def test_zero_residual_degenerate(self):
        labels = np.repeat([0, 1, 2, 3], 5)
        rng = np.random.default_rng(10)
        x = rng.standard_normal(20)
        data = Dataset(y=0.7 * x, x=x, instruments=labels)
        ctx = build_projection(data)
        with pytest.raises(
            NumericalError, match="variance estimate nonpositive at beta0"
        ):
            normalized_stats(ctx, data, 0.7)


class TestNormalizedStats:
    def test_nu_invariant_to_x_rescaling(self):
        data = sim(14, 8, 0.5, seed=11)
        ctx = build_projection(data)
        nu1 = normalized_stats(ctx, data, 0.2).nu
        scaled = Dataset(y=data.y, x=3.7 * data.x, instruments=data.instruments)
        nu2 = normalized_stats(build_projection(scaled), scaled, 0.2).nu
        assert nu2 == pytest.approx(nu1, rel=1e-10)

    def test_residual_quadratic_expansion(self):
        data = sim(16, 7, 0.6, seed=12)
        ctx = build_projection(data)
        q_yy = quadratic_form_Q(ctx, data.y, data.y)
        q_xy = quadratic_form_Q(ctx, data.x, data.y)
        q_xx = quadratic_form_Q(ctx, data.x, data.x)
        for beta0 in (-1.5, 0.0, 2.3):
            e0 = data.y - beta0 * data.x
            direct = quadratic_form_Q(ctx, e0, e0)
            want = q_yy - 2.0 * beta0 * q_xy + beta0**2 * q_xx
            assert direct == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_point_estimate_identity(self):
        # beta_hat - beta0 = Q_{X e(beta0)} / Q_XX for every beta0
        data = sim(18, 9, 0.7, seed=13)
        ctx = build_projection(data)
        beta_hat = jive_point_estimate(ctx, data)
        q_xx = quadratic_form_Q(ctx, data.x, data.x)
        for beta0 in (-2.0, 0.0, 1.1):
            e0 = data.y - beta0 * data.x
            q_xe = quadratic_form_Q(ctx, data.x, e0)
            assert beta_hat - beta0 == pytest.approx(q_xe / q_xx, rel=1e-10)

    def test_rho_clamped_flag(self):
        data = sim(14, 8, 0.5, seed=11)
        ctx = build_projection(data)
        st = normalized_stats(ctx, data, 0.2)
        assert st.rho == st.rho_raw
        assert not st.rho_clamped
        assert abs(st.rho) < 1.0


class TestTSquaredIdentity:
    def test_dual_route_agreement(self):
        # the Wald ratio, the package's t^2, and the closed form t^2 =
        # xi^2 / (1 - 2 rho xi/nu + xi^2/nu^2) written out here
        data = sim(20, 10, 0.6, seed=14, corr=0.5)
        ctx = build_projection(data)
        beta_hat = jive_point_estimate(ctx, data)
        for beta0 in (-1.0, 0.0, 0.5, 2.0):
            v_hat = jive_variance(ctx, data, beta_hat)
            direct = (beta_hat - beta0) ** 2 / v_hat
            st = normalized_stats(ctx, data, beta0)
            triple = st.xi**2 / (1.0 - 2.0 * st.rho_raw * st.xi / st.nu + st.xi**2 / st.nu**2)
            assert direct == pytest.approx(triple, rel=1e-8)
            assert direct == pytest.approx(st.t_squared, rel=1e-8)

    @pytest.mark.parametrize("b0", [-1e4, 1e4, -1e5, 1e5, -1e7, 1e7])
    def test_wald_ratio_at_large_beta0(self, b0):
        # criterion 9's data (simulate --judges 20 --cluster-size 10 --pi 0.5
        # --seed 4), where the closed form in (xi, nu, rho) is off the ratio
        # by 7.9e-9, 2.1e-6 and 2.3e-3 at |b0| 1e4, 1e5 and 1e7
        data = sim(20, 10, 0.5, corr=0.5, seed=4)
        ctx = build_projection(data)
        beta_hat = jive_point_estimate(ctx, data)
        ratio = (beta_hat - b0) ** 2 / jive_variance(ctx, data, beta_hat)
        assert normalized_stats(ctx, data, b0).t_squared == pytest.approx(ratio, rel=1e-12)

    def test_zero_first_stage_reads_zero(self):
        # judges with x (1, 1, 0, 0) and (1, -1, 0, 0) add +0.5 and -0.5 to
        # Q_xx, which is 0.0 exactly: the point estimate is not finite, psi
        # there reads inf and t^2 reads 0, the closed form's nu -> 0 limit
        labels = np.repeat(np.arange(6), 4)
        x = np.tile([1.0, 1.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0], 3)
        y = np.random.default_rng(3).standard_normal(24)
        data = Dataset(y=y, x=x, instruments=labels)
        ctx = build_projection(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = normalized_stats(ctx, data, np.array([-2.0, 0.0, 0.5]))
        assert st.q_xx == 0.0 and st.nu == 0.0
        assert _profile(ctx, data).psi_hat == np.inf
        assert np.array_equal(st.t_squared, np.zeros(3))

    def test_zero_at_point_estimate(self):
        data = sim(15, 8, 0.5, seed=15)
        ctx = build_projection(data)
        beta_hat = jive_point_estimate(ctx, data)
        assert t_squared_both_ways(ctx, data, beta_hat) <= 1e-20

    def test_affine_invariance(self):
        data = sim(15, 8, 0.5, seed=16)
        ctx = build_projection(data)
        c = -2.5
        scaled = Dataset(y=c * data.y, x=data.x, instruments=data.instruments)
        ctx2 = build_projection(scaled)
        for beta0 in (-0.8, 0.4):
            assert t_squared_both_ways(ctx, data, beta0) == pytest.approx(
                t_squared_both_ways(ctx2, scaled, c * beta0), rel=1e-8
            )

    def test_translation_invariance(self):
        # shifting y by c x and beta0 by c leaves all beta0 statistics alone
        data = sim(15, 8, 0.5, seed=17)
        ctx = build_projection(data)
        c = 1.75
        shifted = Dataset(
            y=data.y + c * data.x, x=data.x, instruments=data.instruments
        )
        ctx2 = build_projection(shifted)
        for beta0 in (-0.6, 0.9):
            s1 = normalized_stats(ctx, data, beta0)
            s2 = normalized_stats(ctx2, shifted, beta0 + c)
            assert s2.xi == pytest.approx(s1.xi, rel=1e-10, abs=1e-12)
            assert s2.nu == pytest.approx(s1.nu, rel=1e-10)
            assert s2.rho == pytest.approx(s1.rho, rel=1e-10, abs=1e-12)
            assert s2.ar == pytest.approx(s1.ar, rel=1e-10, abs=1e-12)


# Property tests: few, derandomized examples with no deadline, so they add
# little to the suite's time and fail the same way on every run.
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)


@st.composite
def judge_designs(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    k = draw(st.integers(3, 15))
    rng = np.random.default_rng(seed)
    spec = JudgeDesignSpec(
        n_judges=k,
        per_judge=tuple(int(v) for v in rng.integers(2, 13, size=k)),
        pi=tuple(draw(st.floats(0.1, 1.0)) * rng.standard_normal(k)),
        beta=1.0,
        error_corr=draw(st.floats(-0.8, 0.8)),
        seed=seed,
    )
    return simulate_judge_data(spec)


@st.composite
def dense_designs(draw):
    """Gaussian instruments, x = z pi + v and y = x + e + corr v."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n, k = draw(st.integers(30, 80)), draw(st.integers(2, 8))
    z = rng.standard_normal((n, k))
    e, v = rng.standard_normal((2, n))
    x = z @ (draw(st.floats(0.1, 1.0)) * rng.standard_normal(k)) + v
    return Dataset(y=x + e + draw(st.floats(-0.8, 0.8)) * v, x=x, instruments=z)


designs = st.one_of(judge_designs(), dense_designs())


def assert_stats_close(got, want, where):
    """xi, nu, rho and ar within 1e-10 relative (absolute floor 1e-12).

    The oracle's t_squared, a closed form, divides by nu^2 - 2 rho nu xi +
    xi^2, which cancels as |beta0| grows (by a factor near 4e8 at |beta0| =
    1e4), so any two roundings of (xi, nu, rho) move it by about eps times
    that factor; its relative bound widens to 1e-14 times the factor where
    that is larger than 1e-10.
    """
    def close(name, rel):
        a, b = (np.asarray(getattr(s, name), dtype=float) for s in (got, want))
        assert np.all(np.abs(a - b) <= np.maximum(rel * np.maximum(np.abs(a), np.abs(b)), 1e-12)), (where, name, a, b)

    for name in ("xi", "nu", "rho", "ar"):
        close(name, 1e-10)
    xi, nu, r = (np.asarray(getattr(want, n), dtype=float) for n in ("xi", "nu", "rho_raw"))
    cancel = (nu**2 + 2.0 * np.abs(r * nu * xi) + xi**2) / ((nu - r * xi) ** 2 + (1.0 - r * r) * xi**2)
    close("t_squared", np.maximum(1e-10, 1e-14 * cancel))


class TestBetaProfile:
    @PROPERTY
    @given(designs)
    def test_matches_direct_path(self, data):
        # grid ends, |b0| = 1e4, psi's minimum and beta_hat, one point at a
        # time and as one array
        ctx = build_projection(data)
        profile = _profile(ctx, data)
        lo, hi, _ = default_grid(ctx, data)
        psi = profile.polys[3]
        psi_min = -psi[1] / (2.0 * psi[2]) if psi[2] > 0.0 else 0.0
        points = np.array([lo, hi, -1e4, 1e4, psi_min, jive_point_estimate(ctx, data)])
        stats, degenerate = profile.stats(points)
        for i, b0 in enumerate(points):
            try:
                want = oracle_normalized_stats(ctx, data, float(b0))
            except NumericalError:
                want = None
            assert bool(degenerate[i]) == (want is None), b0
            if want is not None:
                assert np.isfinite(stats.t_squared[i]) == np.isfinite(want.t_squared), b0
            if want is None or not np.isfinite(want.t_squared):
                with pytest.raises(NumericalError, match="variance estimate nonpositive"):
                    normalized_stats(ctx, data, float(b0))
                continue
            one = normalized_stats(ctx, data, float(b0))
            assert_stats_close(one, want, b0)
            for name in ("xi", "rho", "rho_raw", "ar", "t_squared"):
                assert getattr(stats, name)[i] == getattr(one, name), (b0, name)
            assert stats.nu == one.nu and stats.q_xx == one.q_xx == want.q_xx
            assert stats.b_xxxx == one.b_xxxx == pytest.approx(want.b_xxxx, rel=1e-12)

    @PROPERTY
    @given(judge_designs(), st.floats(-3.0, 3.0))
    def test_judge_path_equals_dense_path(self, data, b0):
        dense = Dataset(y=data.y, x=data.x, instruments=judge_indicator_matrix(data.instruments))
        fast, slow = build_projection(data), build_projection(dense)
        assert isinstance(fast, JudgeProjection) and isinstance(slow, DenseProjection)
        points = np.array([b0, jive_point_estimate(fast, data), 0.5 * b0 - 1.0])
        bad = _profile(fast, data).stats(points)[1]
        assert np.array_equal(bad, _profile(slow, dense).stats(points)[1])
        keep = points[~bad]
        assert_stats_close(normalized_stats(fast, data, keep), normalized_stats(slow, dense, keep), keep)
        beta_hat = jive_point_estimate(fast, data)
        assert jive_variance(fast, data, beta_hat) == pytest.approx(jive_variance(slow, dense, beta_hat), rel=1e-10)

    @PROPERTY
    @given(designs, st.floats(-5.0, 5.0).filter(lambda a: abs(a) > 1e-3))
    def test_exact_fit_is_degenerate(self, data, a):
        # at y = a x the polynomials cancel to rounding, not to zero
        exact = Dataset(y=a * data.x, x=data.x, instruments=data.instruments)
        ctx = build_projection(exact)
        with pytest.raises(NumericalError, match="variance estimate nonpositive"):
            normalized_stats(ctx, exact, a)
        assert _profile(ctx, exact).stats(a)[1]
        assert jive_variance(ctx, exact, a) == 0.0

    def test_float_gives_floats_array_gives_arrays(self):
        data = sim(12, 8, 0.6, seed=21)
        ctx = build_projection(data)
        one = normalized_stats(ctx, data, 0.4)
        assert all(np.ndim(getattr(one, n)) == 0 for n in ("xi", "nu", "rho", "ar", "t_squared"))
        many = normalized_stats(ctx, data, np.array([[0.4, 1.0]]))
        assert many.xi.shape == many.t_squared.shape == (1, 2) and np.ndim(many.nu) == 0
        assert many.xi[0, 0] == one.xi and many.t_squared[0, 0] == one.t_squared

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_beta0(self, bad):
        data = sim(10, 6, 0.5, seed=22)
        ctx = build_projection(data)

        def profile_values(ctx, data, b0):
            return _profile(ctx, data).values(b0)

        def ms2_test(ctx, data, b0):
            return run_test("ms2", ctx, data, b0)

        for call in (normalized_stats, profile_values, ms2_test):
            with pytest.raises(DataError, match="beta0 must be finite"):
                call(ctx, data, bad)

    def test_overflowing_beta0(self):
        data = sim(10, 6, 0.5, seed=22)
        ctx = build_projection(data)
        with np.errstate(all="raise"):
            with pytest.raises(DataError, match="overflows the beta0 polynomials"):
                normalized_stats(ctx, data, 1e200)
            with pytest.raises(DataError, match="overflows the beta0 polynomials"):
                normalized_stats(ctx, data, np.array([0.0, -1e100]))
