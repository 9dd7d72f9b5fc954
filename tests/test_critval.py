"""Critical value machinery: W surface, closed form, tangency,
continuation, conditional quantiles, serialization, caching."""

import gc
import math
import os

import numpy as np
import pytest
from scipy.stats import norm

from mwiv import (
    CurveCache,
    DataError,
    NumericalError,
    RHO_BUILD_FLOOR,
    RHO_CAP,
    TableError,
    TwoSidedTable,
    build_vtfo_curve,
    closed_form_c,
    cw_critical_value,
    find_tangency,
    fixed_point,
    load_curve_csv,
    load_two_sided_table,
    snap_rho_to_grid,
    two_sided_chi2,
    write_curve_csv,
)
from mwiv import critval
from mwiv.critval import ContinuationState, extend_three_crossing, t2_w_curve

from conftest import conditional_reject_prob, oracle_cw_quantile

Q2 = 3.8414588206941254
SQ = 1.6448536269514722


class TestWSurface:
    def test_reference_value(self):
        # nu=2, T=1, rho=0.5: 4*1 / (0.25 + 0.75) = 4
        assert t2_w_curve(2.0, 1.0, 0.5) == pytest.approx(4.0, abs=1e-14)

    def test_zero_at_t_and_origin(self):
        assert t2_w_curve(1.3, 1.3, 0.5) == 0.0
        assert t2_w_curve(0.0, 1.3, 0.5) == 0.0

    def test_degenerate_point(self):
        with pytest.raises(NumericalError, match="degenerate W-curve point"):
            t2_w_curve(1.3, 1.3, 0.0)


class TestClosedForm:
    def test_reference_value(self):
        c = closed_form_c(2.0, 0.5, 0.05)
        assert c == pytest.approx(3.1682355892158607, abs=1e-12)
        assert abs(c - 3.168) < 5e-4

    def test_fixed_point_consistency(self):
        for rho in (0.2, 0.5, 0.77, 0.95):
            nu_star, c_star = fixed_point(rho, 0.05)
            assert nu_star == pytest.approx(abs(rho) * SQ, rel=1e-13)
            assert closed_form_c(nu_star, rho, 0.05) == pytest.approx(
                c_star, rel=1e-12
            )

    def test_rho_09_fixed_point(self):
        nu_star, c_star = fixed_point(0.9, 0.05)
        assert nu_star == pytest.approx(1.480368264256325, abs=1e-12)
        assert c_star == pytest.approx(11.534158935880448, abs=1e-9)
        # coarse tabulated value 11.533 is a rounding of this
        assert abs(c_star - 11.533) < 2e-3

    def test_rho_boundary(self):
        with pytest.raises(NumericalError, match="closed form undefined"):
            closed_form_c(2.0, 0.0, 0.05)
        with pytest.raises(NumericalError, match="closed form undefined"):
            closed_form_c(2.0, 1.0, 0.05)


class TestTangency:
    def test_matches_analytic_onset(self):
        for rho in (0.02, 0.1, 0.5, 0.9, 0.9999):
            for alpha in (0.001, 0.01, 0.05, 0.1):
                nu_star = rho * norm.ppf(1.0 - alpha)
                t_tilde, nu_tilde = find_tangency(-rho, alpha)
                assert t_tilde == pytest.approx((3.0 + 2.0 * math.sqrt(2.0)) * nu_star, rel=1e-12)
                assert nu_tilde == pytest.approx((4.0 + 2.0 * math.sqrt(2.0)) * nu_star, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.01, 0.05])
    @pytest.mark.parametrize("rho", [0.02, 0.1, 0.5, 0.9, 0.9999])
    def test_hump_excess_starts_at_onset(self, rho, alpha):
        # largest t2 - c over the hump region (nu*, T), on a dense grid
        t_tilde, _ = find_tangency(rho, alpha)
        nu_star, _ = fixed_point(rho, alpha)

        def excess(t):
            nus = np.linspace(nu_star, t, 20001)[1:-1]
            u = nus - t
            t2 = nus**2 * u**2 / (rho**2 * t**2 + (1.0 - rho**2) * u**2)
            return np.max(t2 - closed_form_c(nus, rho, alpha))

        assert excess(0.999 * t_tilde) < 0.0 < excess(1.001 * t_tilde)

    def test_onset_grows_with_rho(self):
        t_small, _ = find_tangency(0.05, 0.05)
        t_big, _ = find_tangency(0.9, 0.05)
        assert t_small < t_big

    def crossings(self, rho, t, hi, n=60001):
        nu_star = abs(rho) * SQ
        nus = np.linspace(nu_star * (1.0 + 1e-7), hi, n)
        gap = np.array(
            [t2_w_curve(v, t, rho) - closed_form_c(v, rho, 0.05) for v in nus]
        )
        return int(np.sum(np.sign(gap[:-1]) * np.sign(gap[1:]) < 0))

    def test_single_crossing_below_onset(self):
        t_tilde, _ = find_tangency(0.5, 0.05)
        t = 0.6 * t_tilde
        assert self.crossings(0.5, t, t + 4.0) == 1

    def test_three_crossings_above_onset(self):
        t_tilde, _ = find_tangency(0.5, 0.05)
        t = 1.1 * t_tilde
        assert self.crossings(0.5, t, t + 4.0) == 3


class TestContinuation:
    def test_first_step_holds_conditional_size(self, curve_library):
        curve = curve_library.cache.get(0.5, 0.05)
        t = curve.t_tilde + 0.01
        assert abs(conditional_reject_prob(curve, t) - 0.05) <= 1e-6

    def test_high_knot_later_becomes_middle_crossing(self):
        rho = 0.5
        nu_star, _ = fixed_point(rho, 0.05)
        t_tilde, nu_tilde = find_tangency(rho, 0.05)
        state = ContinuationState(
            rho_abs=rho, alpha=0.05, nu_star=nu_star,
            t_tilde=t_tilde, nu_tilde=nu_tilde,
        )
        highs, mids = [], []
        t = t_tilde
        for _ in range(100000):
            t += 0.01
            nu_h, _ = extend_three_crossing(state, t)
            highs.append(nu_h)
            mids.append(state.prev_nu_m)
            if nu_h >= 8.0:
                break
        target = highs[4]
        assert mids[4] < target
        crossed = [s for s in range(5, len(mids)) if mids[s] >= target]
        assert crossed, "middle crossing never swept past the earlier high knot"
        s = crossed[0]
        assert mids[s - 1] < target <= mids[s]
        assert max(mids) > nu_tilde

    @pytest.mark.parametrize("rho,alpha", [(0.02, 0.05), (0.5, 0.05), (0.9, 0.05), (0.9, 0.01)])
    def test_low_crossing_on_closed_form(self, monkeypatch, rho, alpha):
        # every step's low crossing solves t2 = c on the closed-form segment
        roots = []
        crossings = critval._closed_form_crossings

        def record(nu_star, t):
            out = crossings(nu_star, t)
            roots.append((t, out[0]))
            return out

        monkeypatch.setattr(critval, "_closed_form_crossings", record)
        nu_star, _ = fixed_point(rho, alpha)
        t_tilde, nu_tilde = find_tangency(rho, alpha)
        state = ContinuationState(rho, alpha, nu_star, t_tilde, nu_tilde)
        t, steps = t_tilde, 0
        while state.frontier < critval.NU_MAX:
            t += critval.T_STEP
            extend_three_crossing(state, t)
            steps += 1
        assert len(roots) == steps > 100
        for t, nu_l in roots:
            assert nu_star < nu_l <= nu_tilde
            c = closed_form_c(nu_l, rho, alpha)
            assert abs(t2_w_curve(nu_l, t, rho) - c) <= 1e-12 * c

    def test_step_below_onset_rejected(self):
        rho = 0.5
        nu_star, _ = fixed_point(rho, 0.05)
        t_tilde, nu_tilde = find_tangency(rho, 0.05)
        state = ContinuationState(
            rho_abs=rho, alpha=0.05, nu_star=nu_star,
            t_tilde=t_tilde, nu_tilde=nu_tilde,
        )
        with pytest.raises(NumericalError, match="T below the tangency onset"):
            extend_three_crossing(state, t_tilde - 0.5)


class TestBuildCurve:
    def test_closed_form_only_past_build_range(self, monkeypatch):
        # t_tilde >= NU_MAX: no continuation; at the cap that takes alpha
        # below about 3.4e-12, so the build range is moved here instead
        rho = 0.9
        nu_star, _ = fixed_point(rho, 0.05)
        t_tilde, _ = find_tangency(rho, 0.05)
        monkeypatch.setattr(critval, "NU_MAX", t_tilde)
        curve = build_vtfo_curve(rho, 0.05)
        assert curve.t_tilde is None and curve.t_last is None
        assert curve.knots_nu[0] == nu_star and curve.knots_nu[-1] == t_tilde
        np.testing.assert_allclose(curve.knots_c, closed_form_c(curve.knots_nu, rho, 0.05), rtol=1e-15)

        monkeypatch.setattr(critval, "NU_MAX", math.nextafter(t_tilde, math.inf))
        curve = build_vtfo_curve(rho, 0.05)
        assert curve.t_tilde == t_tilde
        assert curve.t_last == t_tilde + critval.T_STEP

    def test_build_leaves_no_state_behind(self):
        # brentq keeps its function in a reference cycle; a build must not
        # hang its continuation state (every knot) on it, or finished builds
        # pile up until a full garbage collection
        gc.disable()
        try:
            build_vtfo_curve(0.5, 0.05)
            alive = sum(isinstance(o, ContinuationState) for o in gc.get_objects())
        finally:
            gc.enable()
        assert alive == 0

    def test_knots_strictly_increasing(self, curve_library):
        for rho in (0.3, 0.5, 0.9):
            curve = curve_library.cache.get(rho, 0.05)
            assert np.all(np.diff(curve.knots_nu) > 0.0)
            assert np.all(np.isfinite(curve.knots_c))

    def test_starts_at_fixed_point(self, curve_library):
        for rho in (0.3, 0.5, 0.9):
            curve = curve_library.cache.get(rho, 0.05)
            nu_star, c_star = fixed_point(rho, 0.05)
            assert curve.domain_low == pytest.approx(nu_star, abs=1e-12)
            assert curve.knots_nu[0] == pytest.approx(nu_star, abs=1e-12)
            assert curve.knots_c[0] == pytest.approx(c_star, rel=1e-12)

    def test_evaluate_semantics(self, curve_library):
        curve = curve_library.cache.get(0.5, 0.05)
        nu_star, c_star = fixed_point(0.5, 0.05)
        assert curve.evaluate(-1.0) == math.inf
        assert curve.evaluate(nu_star - 1e-9) == math.inf
        assert curve.evaluate(nu_star) == pytest.approx(c_star, rel=1e-12)
        mid = 0.5 * (curve.knots_nu[100] + curve.knots_nu[101])
        want = np.interp(mid, curve.knots_nu, curve.knots_c)
        assert curve.evaluate(mid) == pytest.approx(want, rel=1e-13)

    def test_tail_approaches_two_sided_constant(self, curve_library):
        for rho in (0.3, 0.5, 0.9):
            curve = curve_library.cache.get(rho, 0.05)
            tail = curve.evaluate(12.0)
            assert Q2 - 0.1 < tail < Q2

    def test_monotone_in_rho(self, curve_library):
        curves = [curve_library.cache.get(r, 0.05) for r in (0.3, 0.5, 0.9)]
        for nu in (1.5, 2.0, 4.0, 8.0):
            vals = [c.evaluate(nu) for c in curves]
            assert vals[0] <= vals[1] <= vals[2]

    def test_knot_continuity(self, curve_library):
        for rho, slope_cap in ((0.3, 3.0), (0.5, 5.0), (0.9, 20.0)):
            curve = curve_library.cache.get(rho, 0.05)
            jumps = np.abs(np.diff(curve.knots_c))
            steps = np.diff(curve.knots_nu)
            assert np.max(jumps) <= slope_cap * np.max(steps)

    def test_sign_symmetry(self):
        plus = build_vtfo_curve(0.4, 0.05)
        minus = build_vtfo_curve(-0.4, 0.05)
        assert np.array_equal(plus.knots_nu, minus.knots_nu)
        assert np.array_equal(plus.knots_c, minus.knots_c)

    def test_rho_zero_limit_curve(self):
        # at rho = 0 conditioning collapses onto nu and the leftover unit
        # normal forces c T^2/(T^2 - c) = q2, the conditional-Wald quantile
        curve = build_vtfo_curve(0.0, 0.05)
        assert curve.domain_low == 0.0
        assert curve.t_tilde is None
        for t in (0.5, 2.0, 5.0, 11.0):
            c = curve.evaluate(t)
            assert c == pytest.approx(cw_critical_value(0.0, t, 0.05), abs=1e-9)
            assert c * t**2 / (t**2 - c) == pytest.approx(Q2, rel=1e-9)
        assert curve.evaluate(-0.5) == math.inf
        assert two_sided_chi2(0.05) == pytest.approx(Q2, rel=1e-12)

    def test_small_rho_uses_limit_curve(self):
        # the continuation is ill-conditioned below the floor; those
        # builds snap to the rho = 0 limit instead of failing
        tiny = build_vtfo_curve(0.001, 0.05)
        zero = build_vtfo_curve(0.0, 0.05)
        assert tiny.rho_abs == 0.001
        assert np.array_equal(tiny.knots_c, zero.knots_c)

    def test_limit_curve_continuous_at_floor(self):
        above = build_vtfo_curve(RHO_BUILD_FLOOR, 0.05)
        below = build_vtfo_curve(np.nextafter(RHO_BUILD_FLOOR, 0.0), 0.05)
        gaps = [
            abs(above.evaluate(v) - below.evaluate(v))
            for v in (0.5, 1.0, 2.0, 4.0, 8.0, 11.5)
        ]
        assert max(gaps) < 2e-3

    def test_rho_out_of_range(self):
        with pytest.raises(DataError, match="rho out of range"):
            build_vtfo_curve(0.99995, 0.05)

    def test_alpha_out_of_range(self):
        with pytest.raises(DataError, match="alpha must be in"):
            build_vtfo_curve(0.5, alpha=0.6)


class TestConditionalWald:
    def test_rho_zero_reference(self):
        # c = q2 T^2 / (T^2 + q2) at rho = 0
        got = cw_critical_value(0.0, 2.0, 0.05)
        assert got == pytest.approx(1.9595633458183892, abs=1e-12)
        assert got == pytest.approx(Q2 * 4.0 / (4.0 + Q2), rel=1e-12)
        assert cw_critical_value(0.0, 0.0, 0.05) == 0.0

    def test_t_zero_analytic(self):
        # at T = 0 the statistic is rho^2 z^2/(1-rho^2)
        want = 0.25 * Q2 / 0.75
        assert cw_critical_value(0.5, 0.0, 0.05) == pytest.approx(want, abs=1e-6)

    def test_large_t_limit(self):
        assert cw_critical_value(0.6, 1e6, 0.05) == pytest.approx(Q2, abs=1e-3)

    def test_sign_symmetry(self):
        assert cw_critical_value(0.6, 1.7, 0.05) == pytest.approx(
            cw_critical_value(-0.6, 1.7, 0.05), rel=1e-10
        )

    def test_monte_carlo_size_at_fixed_t(self):
        # one array call for several T; each quantile holds size at its T,
        # and the scalar call returns the same value
        rho = 0.7
        ts = np.array([-0.4, 1.2, 3.0])
        cs = cw_critical_value(rho, ts, 0.05)
        assert cw_critical_value(rho, 1.2, 0.05) == cs[1]
        rng = np.random.default_rng(20260814)
        z = rng.standard_normal(100000)
        for t, c in zip(ts, cs):
            nu = t + rho * z
            u = nu - t
            stat = nu**2 * u**2 / (rho**2 * t**2 + (1.0 - rho**2) * u**2)
            rate = float(np.mean(stat > c))
            assert abs(rate - 0.05) <= 0.005, (t, rate)

    def test_rho_domain(self):
        with pytest.raises(DataError, match="rho out of range"):
            cw_critical_value(1.0, 2.0, 0.05)

    def test_overflowing_t(self):
        # T^2 c overflows the quartic's coefficients
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
            cw_critical_value(0.5, 1e200)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input(self, bad):
        for rho, t in ((bad, 1.0), (0.5, bad), (0.5, np.array([0.3, bad, 2.0]))):
            with pytest.raises(DataError):
                cw_critical_value(rho, t, 0.05)

    def test_shapes(self):
        assert type(cw_critical_value(0.5, np.float64(1.0))) is float
        assert type(cw_critical_value(0.5, np.array(1.0))) is float
        for shape in ((1,), (5,), (2, 3), (0,)):
            t = np.linspace(-1.0, 4.0, int(np.prod(shape))).reshape(shape)
            got = cw_critical_value(0.5, t)
            assert isinstance(got, np.ndarray) and got.shape == shape


# The oracle's sets: correlations from small to the build cap and one
# negative; T on a grid across the power lab's range plus T = 0, a far
# negative T and a huge one.
ORACLE_RHO = [0.05, 0.3, 0.5, 0.7, 0.931, 0.99, 0.9999, -0.6]
ORACLE_EXTRA_T = [0.0, -50.0, 1e6]
ORACLE_T = np.concatenate([np.linspace(-6.3, 14.1, 61), ORACLE_EXTRA_T])


class TestConditionalWaldOracle:
    """One T and an array of T reproduce the scalar np.roots + brentq
    solver exactly."""

    @pytest.mark.parametrize("rho", ORACLE_RHO)
    def test_array_of_t(self, rho):
        want = np.array([oracle_cw_quantile(rho, t) for t in ORACLE_T])
        assert np.array_equal(cw_critical_value(rho, ORACLE_T), want)

    @pytest.mark.parametrize("rho", ORACLE_RHO)
    def test_single_t(self, rho):
        for t in [*ORACLE_T[:61:4], *ORACLE_EXTRA_T]:
            assert cw_critical_value(rho, float(t)) == oracle_cw_quantile(rho, t)

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.3])
    def test_other_levels(self, alpha):
        t = ORACLE_T[::8]
        want = np.array([oracle_cw_quantile(0.4, x, alpha) for x in t])
        assert np.array_equal(cw_critical_value(0.4, t, alpha), want)

    def test_per_row_rho(self):
        # the first six rho have r**2 != r*r in floating point; the next
        # three take the rho -> 0 closed form
        rng = np.random.default_rng(21)
        rho = np.concatenate([
            [-0.9509279772960734, -0.31683215226122874, 0.02845462364587026,
             -0.9287619278133518, 0.9621699474964431, -0.48217326691204676],
            [0.0, 1e-13, -5e-13],
            rng.uniform(-0.999, 0.999, 41),
        ])
        t = rng.uniform(-4.0, 30.0, rho.size)
        want = np.array([oracle_cw_quantile(r, x) for r, x in zip(rho, t)])
        assert np.array_equal(cw_critical_value(rho, t), want)
        # rho broadcasts against T
        grid = cw_critical_value(rho[:4, None], t[None, :3])
        assert grid.shape == (4, 3)
        assert np.array_equal(grid, [[oracle_cw_quantile(r, x) for x in t[:3]] for r in rho[:4]])

    @pytest.mark.parametrize("rho", [0.0, 1e-13, -5e-13])
    def test_closed_form_below_1e_12(self, rho):
        t = np.array([-3.0, -0.0, 0.0, 0.25, 2.0, 1e6])
        want = np.array([oracle_cw_quantile(rho, x) for x in t])
        assert np.array_equal(cw_critical_value(rho, t), want)
        assert cw_critical_value(rho, 0.0) == 0.0


class TestSerialization:
    def test_round_trip_exact(self, curve_library, tmp_path):
        curve = curve_library.cache.get(0.3, 0.05)
        path = tmp_path / "curve.csv"
        write_curve_csv(path, [curve])
        loaded = load_curve_csv(path)
        assert len(loaded) == 1
        back = loaded[0]
        assert np.array_equal(back.knots_nu, curve.knots_nu)
        assert np.array_equal(back.knots_c, curve.knots_c)
        assert back.domain_low == curve.domain_low
        assert back.alpha == curve.alpha
        assert back.t_tilde == curve.t_tilde
        assert back.t_last == curve.t_last

    def test_multi_curve_file(self, curve_library, tmp_path):
        a = curve_library.cache.get(0.3, 0.05)
        b = curve_library.cache.get(0.5, 0.05)
        path = tmp_path / "pair.csv"
        write_curve_csv(path, [a, b])
        loaded = load_curve_csv(path)
        assert [c.rho_abs for c in loaded] == [0.3, 0.5]
        table = load_two_sided_table(path)
        # exact block lookup is plain interpolation on that block
        nu = 3.3
        assert table.lookup(nu, 0.3) == pytest.approx(a.evaluate(nu), rel=1e-12)
        # between blocks: average of the two block interpolations
        mid = table.lookup(nu, 0.4)
        assert mid == pytest.approx(
            0.5 * (a.evaluate(nu) + b.evaluate(nu)), rel=1e-12
        )
        # outside the rho range clamps to the edge block
        assert table.lookup(nu, 0.9) == pytest.approx(b.evaluate(nu), rel=1e-12)
        # below a block domain the table is infinite
        assert table.lookup(0.1, 0.3) == math.inf

    def test_lookup_on_an_interior_curve(self, curve_library, tmp_path):
        curves = [curve_library.cache.get(r, 0.05) for r in (0.3, 0.5, 0.9)]
        path = tmp_path / "three.csv"
        write_curve_csv(path, curves)
        table = load_two_sided_table(path)
        # between the 0.5 and 0.9 floors only the 0.5 curve is finite
        nus = np.linspace(curves[1].domain_low, curves[2].domain_low, 50, endpoint=False)
        assert np.array_equal(table.lookup_array(nus, 0.5), curves[1].evaluate_array(nus))
        assert np.all(np.isinf(table.lookup_array(nus, 0.6)))

    def test_lookup_per_row_rho(self, curve_library, tmp_path):
        curves = [curve_library.cache.get(r, 0.05) for r in (0.3, 0.5, 0.9)]
        path = tmp_path / "three.csv"
        write_curve_csv(path, curves)
        table = load_two_sided_table(path)
        # below, on, between and above the table's curves, each sign
        rho = np.array([0.1, -0.3, 0.4, 0.5, -0.55, 0.9, 0.95, 0.77])
        nu = np.linspace(0.5, 12.0, rho.size)
        want = [table.lookup(float(n), float(r)) for n, r in zip(nu, rho)]
        assert np.array_equal(table.lookup_array(nu, rho), want)

    def test_knots_sidecar(self, curve_library, tmp_path):
        a = curve_library.cache.get(0.3, 0.05)
        b = curve_library.cache.get(0.5, 0.05)
        path = tmp_path / "pair.csv"
        write_curve_csv(path, [a, b])
        text = path.read_text()
        assert f"# knots[rho=0.3]={a.knots_nu.size}\n" in text
        assert f"# knots[rho=0.5]={b.knots_nu.size}\n" in text
        lines = text.splitlines(keepends=True)
        cuts = {
            "row boundary": "".join(lines[:-1]),
            "middle of a row": "".join(lines)[:-3],
            "a whole curve": "".join(line for line in lines if not line.startswith("0.5,")),
        }
        for what, cut in cuts.items():
            path.write_text(cut)
            with pytest.raises(TableError):
                load_curve_csv(path)
            with pytest.raises(TableError):
                load_two_sided_table(path)

    def test_parse_errors(self, tmp_path):
        cases = {
            "empty.csv": ("", "table parse error: empty table"),
            "sidecar.csv": ("# alpha=oops\nrho,nu,crit\n", "bad sidecar"),
            "header.csv": ("nu,crit\n0.5,1.0\n", "bad header"),
            "row.csv": ("rho,nu,crit\n0.5,abc,1.0\n", "bad row"),
            "grid.csv": (
                "rho,nu,crit\n0.5,1.0,2.0\n0.5,0.9,2.1\n",
                "nu not strictly increasing",
            ),
            "blocks.csv": (
                "rho,nu,crit\n0.5,1.0,2.0\n0.5,2.0,2.1\n"
                "0.3,1.0,2.0\n0.3,2.0,2.1\n",
                "rho blocks not sorted",
            ),
        }
        for name, (content, message) in cases.items():
            path = tmp_path / name
            path.write_text(content)
            with pytest.raises(TableError, match=message):
                load_curve_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TableError, match="table parse error"):
            load_curve_csv(tmp_path / "missing.csv")


class TestSnapAndCache:
    def test_snap_rules(self):
        assert snap_rho_to_grid(0.0) == 0.0
        assert snap_rho_to_grid(1e-12) == 0.0
        assert snap_rho_to_grid(-0.42) == pytest.approx(0.42, abs=1e-15)
        assert snap_rho_to_grid(0.123) == pytest.approx(0.13, abs=1e-15)
        assert snap_rho_to_grid(0.13) == pytest.approx(0.13, abs=1e-15)
        assert snap_rho_to_grid(0.995) == RHO_CAP
        assert snap_rho_to_grid(0.9999) == RHO_CAP

    def test_snap_never_shrinks(self):
        rng = np.random.default_rng(1)
        for rho in rng.uniform(-0.999, 0.999, size=200):
            snapped = snap_rho_to_grid(float(rho))
            assert snapped >= abs(rho) - 1e-12 or snapped == RHO_CAP

    def test_snap_array(self):
        rng = np.random.default_rng(2)
        rho = np.concatenate([[0.0, -0.0, 1e-12, 0.13, 0.99, 0.995, -0.9999], rng.uniform(-1.0, 1.0, 200)])
        snapped = snap_rho_to_grid(rho)
        assert isinstance(snapped, np.ndarray) and snapped.shape == rho.shape
        assert np.array_equal(snapped, [snap_rho_to_grid(float(r)) for r in rho])
        assert type(snap_rho_to_grid(0.123)) is float

    def test_memory_and_disk_reuse(self, tmp_path):
        cache = CurveCache(directory=str(tmp_path))
        first = cache.get(0.35, 0.05)
        assert cache.get(0.35, 0.05) is first
        files = os.listdir(tmp_path)
        assert len(files) == 1 and files[0].startswith("vtfo_rho0.35_alpha0.05_")
        raw = (tmp_path / files[0]).read_bytes()

        fresh = CurveCache(directory=str(tmp_path))
        reloaded = fresh.get(0.35, 0.05)
        assert reloaded is not first
        assert np.array_equal(reloaded.knots_nu, first.knots_nu)
        assert np.array_equal(reloaded.knots_c, first.knots_c)
        assert (tmp_path / files[0]).read_bytes() == raw

    def test_memory_only_cache(self):
        cache = CurveCache()
        assert cache.get(0.2, 0.05) is cache.get(0.2, 0.05)

    @pytest.mark.parametrize("cut", ["row boundary", "middle of a row"])
    def test_truncated_file_is_rebuilt(self, curve_library, tmp_path, cut):
        want = curve_library.cache.get(0.3, 0.05)
        CurveCache(directory=str(tmp_path)).get(0.3, 0.05)
        (path,) = tmp_path.iterdir()
        lines = path.read_text().splitlines(keepends=True)
        head = "".join(lines[:480])
        path.write_text(head if cut == "row boundary" else head + lines[480][:9])
        got = CurveCache(directory=str(tmp_path)).get(0.3, 0.05)
        assert got.evaluate(10.0) == want.evaluate(10.0)
        assert got.evaluate(10.0) == pytest.approx(3.721, abs=5e-4)
        assert np.array_equal(got.knots_nu, want.knots_nu)
        # the damaged file was replaced by the rebuilt curve
        assert path.read_text() == "".join(lines)
