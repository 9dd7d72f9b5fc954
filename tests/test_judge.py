"""Judge-design simulator and its population variance objects."""

import numpy as np
import pytest

from mwiv import (
    DataError,
    JudgeDesignSpec,
    build_projection,
    jive_point_estimate,
    normalized_stats,
    run_test,
    simulate_judge_data,
)

from conftest import oracle_judge_moments, quadratic_form_Q


def uniform_spec(n_judges, nk, pi_val, **kw):
    return JudgeDesignSpec(
        n_judges=n_judges,
        per_judge=(nk,) * n_judges,
        pi=(pi_val,) * n_judges,
        beta=kw.pop("beta", 1.0),
        **kw,
    )


class TestSimulate:
    def test_noiseless_recovery(self):
        spec = JudgeDesignSpec(
            n_judges=2, per_judge=(3, 3), pi=(1.0, -1.0), beta=2.0,
            error_scales=(0.0, 0.0), seed=0,
        )
        data = simulate_judge_data(spec)
        assert np.array_equal(data.x, [1, 1, 1, -1, -1, -1])
        assert np.array_equal(data.y, 2.0 * data.x)
        ctx = build_projection(data)
        assert jive_point_estimate(ctx, data) == 2.0

    def test_same_judge_products_nonnegative_mean(self):
        # E[X_i X_j] = pi_k^2 for distinct cases of the same judge
        spec = uniform_spec(200, 10, 0.7, seed=21)
        data = simulate_judge_data(spec)
        labels = np.asarray(data.instruments)
        total, count = 0.0, 0
        for lab in np.unique(labels):
            xk = data.x[labels == lab]
            s, s2, n = xk.sum(), (xk**2).sum(), xk.size
            total += s**2 - s2
            count += n * (n - 1)
        mean_pair = total / count
        assert mean_pair == pytest.approx(0.49, abs=0.1)
        assert mean_pair >= 0.0

    def test_nu_grows_with_pi_norm(self):
        base = np.random.default_rng(5).standard_normal(40)
        diffs = []
        for seed in range(5):
            nus = []
            for lam in (0.3, 0.6):
                spec = JudgeDesignSpec(
                    n_judges=40, per_judge=(8,) * 40, pi=tuple(lam * base),
                    beta=1.0, seed=seed,
                )
                data = simulate_judge_data(spec)
                ctx = build_projection(data)
                nus.append(normalized_stats(ctx, data, 1.0).nu)
            diffs.append(nus[1] - nus[0])
        assert np.mean(diffs) > 0.0

    def test_determinism(self):
        spec = uniform_spec(10, 5, 0.4, error_corr=0.3, seed=77)
        a = simulate_judge_data(spec)
        b = simulate_judge_data(spec)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)
        assert np.array_equal(a.instruments, b.instruments)
        c = simulate_judge_data(uniform_spec(10, 5, 0.4, error_corr=0.3, seed=78))
        assert not np.array_equal(a.y, c.y)

    def test_error_correlation(self):
        # pi = 0 and beta = 0 expose the raw error pair (y, x) = (e, v)
        spec = uniform_spec(40, 100, 0.0, beta=0.0, error_corr=0.5, seed=8)
        data = simulate_judge_data(spec)
        corr = float(np.corrcoef(data.y, data.x)[0, 1])
        assert corr == pytest.approx(0.5, abs=0.05)

    def test_judge_error_scale(self):
        spec = JudgeDesignSpec(
            n_judges=2, per_judge=(4000, 4000), pi=(0.0, 0.0), beta=0.0,
            judge_error_scale=(1.0, 3.0), seed=3,
        )
        data = simulate_judge_data(spec)
        labels = np.asarray(data.instruments)
        sd0 = float(np.std(data.y[labels == labels[0]]))
        sd1 = float(np.std(data.y[labels == labels[-1]]))
        assert sd1 / sd0 == pytest.approx(3.0, abs=0.15)
        # outcome noise only; the first stage keeps its common scale
        assert float(np.std(data.x[labels == labels[-1]])) == pytest.approx(1.0, abs=0.05)

    def test_invalid_specs(self):
        good = dict(n_judges=2, per_judge=(3, 3), pi=(0.1, 0.2), beta=1.0)
        cases = {
            "per_judge must list one count per judge": {**good, "per_judge": (3,)},
            "pi must list one mean per judge": {**good, "pi": (0.1,)},
            "every judge needs at least 2 cases": {**good, "per_judge": (3, 1)},
            r"\|error_corr\| must be < 1": {**good, "error_corr": 1.0},
            "error_scales must be two nonnegative reals": {**good, "error_scales": (1.0, -0.5)},
            "judge_error_scale needs one nonnegative value per judge": {
                **good, "judge_error_scale": (1.0,)
            },
        }
        for pattern, kw in cases.items():
            with pytest.raises(DataError, match=f"invalid design: {pattern}"):
                JudgeDesignSpec(**kw)


    @pytest.mark.parametrize("seed", [-1, 1.0, 2.5, "3", None])
    def test_bad_seed(self, seed):
        with pytest.raises(DataError, match="seed must be a nonnegative integer"):
            uniform_spec(2, 3, 0.1, seed=seed)

    def test_integer_seed_types_agree(self):
        a = simulate_judge_data(uniform_spec(3, 4, 0.5, seed=np.int64(9)))
        b = simulate_judge_data(uniform_spec(3, 4, 0.5, seed=9))
        assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)


class TestPopulationMoments:
    """The population variance objects of ``oracle_judge_moments``, which
    other tests compare estimates with."""

    def test_special_cases(self):
        # uncorrelated errors kill every object that carries sigma_ev
        mm = oracle_judge_moments(uniform_spec(5, 4, 0.3, error_corr=0.0))
        assert mm.tau == 0.0 and mm.sigma12 == 0.0 and mm.sigma13 == 0.0
        assert mm.phi == pytest.approx(2.0 * 0.75, rel=1e-12)
        assert mm.mu_sq == pytest.approx(5 * 3 * 0.09, rel=1e-12)
        assert mm.s == pytest.approx(mm.mu_sq / np.sqrt(5 * mm.upsilon), rel=1e-12)

    def test_judge_scale_enters_phi(self):
        base = uniform_spec(2, 4, 0.0)
        scaled = JudgeDesignSpec(
            n_judges=2, per_judge=(4, 4), pi=(0.0, 0.0), beta=1.0,
            judge_error_scale=(1.0, 2.0),
        )
        m0 = oracle_judge_moments(base)
        m1 = oracle_judge_moments(scaled)
        # (1/K) sum w 2 se^4 with se in {1, 2}: (2 + 32)/2 vs (2 + 2)/2
        assert m1.phi == pytest.approx(m0.phi * (1.0 + 16.0) / 2.0, rel=1e-12)
        assert m1.upsilon == m0.upsilon

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(100)
        base = rng.standard_normal(40)
        spec0 = JudgeDesignSpec(
            n_judges=40, per_judge=(8,) * 40, pi=tuple(0.4 * base),
            beta=1.0, error_corr=0.6, seed=0,
        )
        pop = oracle_judge_moments(spec0)
        reps = 6000
        draws = np.empty((reps, 3))
        for rep in range(reps):
            spec = JudgeDesignSpec(
                n_judges=40, per_judge=(8,) * 40, pi=tuple(0.4 * base),
                beta=1.0, error_corr=0.6, seed=1000 + rep,
            )
            data = simulate_judge_data(spec)
            ctx = build_projection(data)
            e0 = data.y - spec.beta * data.x
            draws[rep] = (
                quadratic_form_Q(ctx, e0, e0),
                quadratic_form_Q(ctx, data.x, e0),
                quadratic_form_Q(ctx, data.x, data.x),
            )
        cov = np.cov(draws.T)
        targets = {
            "phi": (cov[0, 0], pop.phi),
            "psi": (cov[1, 1], pop.psi),
            "upsilon": (cov[2, 2], pop.upsilon),
            "tau": (cov[1, 2], pop.tau),
            "sigma12": (cov[0, 1], pop.sigma12),
            "sigma13": (cov[0, 2], pop.sigma13),
        }
        for name, (mc, exact) in targets.items():
            assert abs(mc - exact) <= 0.15 * max(abs(exact), 0.05), (name, mc, exact)
        # mean of q_xx estimates mu_sq / sqrt(K) = s sqrt(upsilon)
        assert float(draws[:, 2].mean()) == pytest.approx(
            pop.s * np.sqrt(pop.upsilon), abs=0.15
        )


class TestFullPipelineSize:
    def test_vtfo_size_weak_design(self, curve_library):
        # weak first stage: nu hat mostly below 4, beta0 at the truth
        n_judges, nk, reps = 100, 50, 2000
        rejections = 0
        for rep in range(reps):
            spec = uniform_spec(
                n_judges, nk, 0.075, error_corr=0.4, seed=50000 + rep
            )
            data = simulate_judge_data(spec)
            ctx = build_projection(data)
            d = run_test("vtfo", ctx, data, 1.0, curves=curve_library)
            rejections += int(d.reject)
        rate = rejections / reps
        assert rate <= 0.06, rate
