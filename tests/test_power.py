"""Asymptotic power lab: draw protocol, variance expansion, rates, bounds."""

import numpy as np
import pytest
from scipy.stats import norm

from mwiv import (
    AsymptoticDGP,
    CurveLibrary,
    DataError,
    TableError,
    alternative_variances,
    analytic_power_bounds,
    draw_q_tr,
    load_two_sided_table,
    power_csv_text,
    rejection_rates,
    write_curve_csv,
    write_power_csv,
    write_power_svg,
)


class TestDrawProtocol:
    def test_r_zero_covariance(self):
        dgp = AsymptoticDGP(s=0.0, r=0.0)
        assert np.array_equal(dgp.covariance(), np.diag([1.0, 0.5, 1.0]))
        assert np.array_equal(dgp.mean(), np.zeros(3))

    def test_mean_of_q_xx(self):
        dgp = AsymptoticDGP(s=3.0, r=0.5)
        draws = draw_q_tr(dgp, 100000, seed=11)
        assert draws.shape == (100000, 3)
        assert float(draws[:, 2].mean()) == pytest.approx(3.0, abs=0.02)
        assert float(draws[:, 0].mean()) == pytest.approx(0.0, abs=0.02)

    def test_sample_covariance(self):
        dgp = AsymptoticDGP(s=0.0, r=0.6)
        draws = draw_q_tr(dgp, 200000, seed=4)
        emp = np.cov(draws.T)
        assert np.max(np.abs(emp - dgp.covariance())) < 0.02

    def test_same_seed_identical(self):
        dgp = AsymptoticDGP(s=1.0, r=0.3)
        a = draw_q_tr(dgp, 500, seed=9)
        b = draw_q_tr(dgp, 500, seed=9)
        assert np.array_equal(a, b)
        c = draw_q_tr(dgp, 500, seed=10)
        assert not np.array_equal(a, c)

    def test_invalid_r(self):
        with pytest.raises(DataError, match=r"invalid DGP: \|r\| must be < 1"):
            AsymptoticDGP(s=0.0, r=1.0)
        with pytest.raises(DataError, match=r"\|r\| must be < 1"):
            AsymptoticDGP(s=0.0, r=-1.2)

    def test_invalid_base(self):
        with pytest.raises(DataError, match="must be positive"):
            AsymptoticDGP(s=0.0, r=0.0, phi=0.0)
        with pytest.raises(DataError, match="not positive semidefinite"):
            AsymptoticDGP(s=0.0, r=0.0, sigma12=5.0)

    def test_n_draws_validation(self):
        dgp = AsymptoticDGP(s=0.0, r=0.0)
        with pytest.raises(DataError, match="n_draws must be >= 1"):
            draw_q_tr(dgp, 0, seed=0)


class TestAlternativeVariances:
    def test_delta_zero_is_base(self):
        dgp = AsymptoticDGP(s=2.0, r=0.4)
        alt = alternative_variances(dgp, 0.0)
        assert alt.phi_b0 == dgp.phi
        assert alt.psi_b0 == dgp.psi
        assert alt.tau_b0 == dgp.tau
        assert alt.sigma12_b0 == dgp.sigma12
        assert alt.sigma13_b0 == dgp.sigma13

    def test_reference_point(self):
        alt = alternative_variances(AsymptoticDGP(s=0.0, r=0.5), 1.0)
        assert alt.phi_b0 == pytest.approx(7.0, rel=1e-12)
        assert alt.psi_b0 == pytest.approx(2.125, rel=1e-12)
        assert alt.tau_b0 == pytest.approx(1.25, rel=1e-12)
        assert alt.sigma12_b0 == pytest.approx(3.5, rel=1e-12)
        assert alt.sigma13_b0 == pytest.approx(1.75, rel=1e-12)

    def test_positivity_sweep(self):
        for r in (-0.9, -0.5, 0.0, 0.5, 0.9):
            dgp = AsymptoticDGP(s=0.0, r=r)
            for delta in np.linspace(-10.0, 10.0, 81):
                alt = alternative_variances(dgp, float(delta))
                assert alt.phi_b0 > 0.0, (r, delta)
                assert alt.psi_b0 > 0.0, (r, delta)

    def test_quartic_structure(self):
        # phi_b0 is the variance of q_ee0; check against the expansion of
        # Var(q_ee + 2 d q_xe + d^2 q_xx) under the base covariance
        dgp = AsymptoticDGP(s=0.0, r=0.7)
        cov = dgp.covariance()
        for delta in (-2.0, 0.5, 3.0):
            w = np.array([1.0, 2.0 * delta, delta**2])
            assert alternative_variances(dgp, delta).phi_b0 == pytest.approx(
                float(w @ cov @ w), rel=1e-12
            )
            w2 = np.array([0.0, 1.0, delta])
            assert alternative_variances(dgp, delta).psi_b0 == pytest.approx(
                float(w2 @ cov @ w2), rel=1e-12
            )


class TestAnalyticBounds:
    def test_reference_values(self):
        one, two = analytic_power_bounds(3.0)
        assert one == pytest.approx(float(norm.cdf(3.0 - norm.ppf(0.95))), abs=1e-14)
        assert one == pytest.approx(0.9123145367502965, abs=1e-12)
        assert two == pytest.approx(0.8508387683270562, abs=1e-12)
        assert f"{one:.4f}" == "0.9123"
        assert f"{two:.4f}" == "0.8508"

    def test_null_case(self):
        one, two = analytic_power_bounds(0.0)
        assert one == pytest.approx(0.05, abs=1e-12)
        assert two == pytest.approx(0.05, abs=1e-12)

    def test_monotone_in_s(self):
        svals = np.linspace(0.0, 6.0, 13)
        ones, twos = zip(*(analytic_power_bounds(float(s)) for s in svals))
        assert np.all(np.diff(ones) > 0)
        assert np.all(np.diff(twos) > 0)

    def test_one_sided_dominates_for_positive_s(self):
        for s in (0.5, 1.0, 3.0, 5.0):
            one, two = analytic_power_bounds(s)
            assert one > two

    def test_formula(self):
        one, two = analytic_power_bounds(2.0, alpha=0.1)
        sq = norm.ppf(0.9)
        z = norm.ppf(0.95)
        assert one == pytest.approx(1.0 - norm.cdf(sq - 2.0), rel=1e-14)
        assert two == pytest.approx(
            1.0 - (norm.cdf(z - 2.0) - norm.cdf(-z - 2.0)), rel=1e-14
        )


class TestRejectionRates:
    def test_size_at_delta_zero(self, curve_library):
        dgp = AsymptoticDGP(s=3.0, r=0.5)
        res = rejection_rates(
            dgp, [0.0], n_draws=100000, curves=curve_library, seed=0
        )
        for m in ("vtfo", "cw", "ms1", "ms2", "lm"):
            assert float(res.rates[m][0]) == pytest.approx(0.05, abs=0.005), m

    def test_result_fields_and_bounds(self, curve_library):
        dgp = AsymptoticDGP(s=3.0, r=0.5)
        res = rejection_rates(
            dgp, [-1.0, 0.0, 1.0], methods=("ms1", "ms2"), n_draws=2000,
            curves=curve_library, seed=1,
        )
        assert res.methods == ("ms1", "ms2")
        assert res.n_draws == 2000 and res.seed == 1
        assert res.s == 3.0 and res.r == 0.5
        one, two = analytic_power_bounds(3.0)
        assert res.bound_one_sided == pytest.approx(one, rel=1e-14)
        assert res.bound_two_sided == pytest.approx(two, rel=1e-14)
        assert res.bound_for("ms1") == res.bound_one_sided
        assert res.bound_for("vtfo") == res.bound_one_sided
        assert res.bound_for("ms2") == res.bound_two_sided
        assert res.bound_for("lm") == res.bound_two_sided
        assert res.bound_for("vtf") == res.bound_two_sided
        assert res.bound_for("cw") is None
        for m in res.methods:
            assert np.all(res.rates[m] >= 0.0) and np.all(res.rates[m] <= 1.0)

    def test_same_seed_reproducible(self, curve_library):
        dgp = AsymptoticDGP(s=1.0, r=0.2)
        kw = dict(methods=("ms2", "lm"), n_draws=3000, curves=curve_library, seed=42)
        a = rejection_rates(dgp, [-2.0, 2.0], **kw)
        b = rejection_rates(dgp, [-2.0, 2.0], **kw)
        for m in a.methods:
            assert np.array_equal(a.rates[m], b.rates[m])

    def test_power_rises_away_from_null(self, curve_library):
        dgp = AsymptoticDGP(s=3.0, r=0.5)
        res = rejection_rates(
            dgp, [0.0, 4.0], methods=("ms2",), n_draws=20000,
            curves=curve_library, seed=3,
        )
        assert float(res.rates["ms2"][1]) > 0.5

    def test_smooth_through_rho_sign_change(self, curve_library):
        # the alternative correlation crosses zero at delta = -0.25 for
        # r = 0.5; the curve rate there must sit between its flanks
        dgp = AsymptoticDGP(s=3.0, r=0.5)
        res = rejection_rates(
            dgp, [-0.3125, -0.25, -0.1875], methods=("vtfo",), n_draws=5000,
            curves=curve_library, seed=11,
        )
        a, mid, b = (float(v) for v in res.rates["vtfo"])
        assert min(a, b) - 0.02 <= mid <= max(a, b) + 0.02

    def test_grid_validation(self, curve_library):
        dgp = AsymptoticDGP(s=0.0, r=0.0)
        with pytest.raises(DataError, match="delta_grid must be a nonempty 1-D array"):
            rejection_rates(dgp, [], curves=curve_library)
        with pytest.raises(DataError, match="nonempty 1-D"):
            rejection_rates(dgp, [[0.0, 1.0]], curves=curve_library)
        with pytest.raises(DataError, match="unknown method"):
            rejection_rates(dgp, [0.0], methods=("wald",), curves=curve_library)

    def test_vtf_requires_table(self, curve_library):
        dgp = AsymptoticDGP(s=3.0, r=0.5)
        with pytest.raises(TableError, match="two-sided table unavailable"):
            rejection_rates(dgp, [0.0], methods=("vtf",), curves=curve_library)

    def test_vtf_with_table(self, curve_library, tmp_path):
        path = tmp_path / "pair.csv"
        write_curve_csv(
            path,
            [curve_library.cache.get(0.3, 0.05), curve_library.cache.get(0.9, 0.05)],
        )
        lib = CurveLibrary(
            cache=curve_library.cache, two_sided=load_two_sided_table(path)
        )
        dgp = AsymptoticDGP(s=3.0, r=0.5)
        res = rejection_rates(dgp, [0.0], methods=("vtf",), n_draws=5000,
                              curves=lib, seed=2)
        rate = float(res.rates["vtf"][0])
        assert 0.0 < rate < 0.15


# Rates at s 3, r 0.5, 2,000 draws, seed 5, recorded with the per-method
# rules that ``decide`` replaced; the lab's rejection rules must keep them.
PINNED_RATES = {
    "vtfo": [0.896, 0.0435, 0.811],
    "cw": [0.8715, 0.0435, 0.7825],
    "ms1": [0.8695, 0.042, 0.607],
    "ms2": [0.7765, 0.044, 0.4855],
    "lm": [0.877, 0.04, 0.7205],
    "vtf": [0.922, 0.042, 0.8645],
}


def test_pinned_rates(curve_library, tmp_path):
    path = tmp_path / "table.csv"
    write_curve_csv(path, [curve_library.cache.get(r, 0.05) for r in (0.3, 0.6, 0.9)])
    lib = CurveLibrary(cache=curve_library.cache, two_sided=load_two_sided_table(path))
    res = rejection_rates(
        AsymptoticDGP(s=3.0, r=0.5), [-2.0, 0.0, 2.0], methods=tuple(PINNED_RATES),
        n_draws=2000, curves=lib, seed=5,
    )
    assert {m: res.rates[m].tolist() for m in res.methods} == PINNED_RATES


@pytest.fixture(scope="module")
def small_result(curve_library):
    dgp = AsymptoticDGP(s=3.0, r=0.5)
    return rejection_rates(
        dgp, [-1.0, 0.0, 1.0], methods=("ms1", "lm"), n_draws=1000,
        curves=curve_library, seed=6,
    )


class TestOutputs:
    def test_csv_layout(self, small_result):
        text = power_csv_text(small_result)
        lines = text.strip().split("\n")
        assert lines[0] == "delta,method,reject_rate,n_draws,s,r,alpha"
        assert len(lines) == 1 + 3 * 2
        first = lines[1].split(",")
        assert first[0] == repr(-1.0)
        assert first[1] == "ms1"
        assert float(first[2]) == float(small_result.rates["ms1"][0])
        assert first[3] == "1000"

    def test_csv_file_roundtrip(self, small_result, tmp_path):
        path = tmp_path / "power.csv"
        write_power_csv(path, small_result)
        assert path.read_text() == power_csv_text(small_result)

    def test_svg_output(self, small_result, tmp_path):
        path = tmp_path / "power.svg"
        write_power_svg(path, small_result)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") >= 2
        assert text.rstrip().endswith("</svg>")
