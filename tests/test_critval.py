"""Critical value machinery: W surface, closed form, tangency,
continuation, conditional quantiles, serialization, caching."""

import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from mwiv import (
    CriticalValueCurve,
    CurveCache,
    DataError,
    NumericalError,
    RHO_BUILD_FLOOR,
    RHO_CAP,
    TableError,
    TwoSidedTable,
    build_vtfo_curve,
    cw_critical_value,
    find_tangency,
    fixed_point,
    load_curve_csv,
    load_two_sided_table,
    small_rho_limit_c,
    snap_rho_to_grid,
    two_sided_chi2,
    write_curve_csv,
)
from mwiv import critval
from mwiv.critval import t2_w_curve

from conftest import (
    accepted_steps,
    conditional_reject_prob,
    continuation_steps,
    oracle_cw_accept,
    oracle_cw_quantile,
    oracle_middle_crossings,
    oracle_vtfo_curve,
)

Q2 = 3.8414588206941254
SQ = 1.6448536269514722


def closed_form_c(nu, rho, alpha):
    """The closed-form segment the build evaluates, ``critval._closed``,
    from the fixed point nu* at (rho, alpha)."""
    nu_star, _ = fixed_point(rho, alpha)
    return critval._closed(nu, abs(rho), nu_star)


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
            assert c_star == pytest.approx(rho**2 * SQ**2 / (1.0 - rho**2), rel=1e-12)

    def test_rho_09_fixed_point(self):
        nu_star, c_star = fixed_point(0.9, 0.05)
        assert nu_star == pytest.approx(1.480368264256325, abs=1e-12)
        assert c_star == pytest.approx(11.534158935880448, abs=1e-9)
        # coarse tabulated value 11.533 is a rounding of this
        assert abs(c_star - 11.533) < 2e-3

    def test_rho_boundary(self):
        for entry in (fixed_point, find_tangency):
            with pytest.raises(NumericalError, match="closed form undefined"):
                entry(0.0, 0.05)
            with pytest.raises(NumericalError, match="closed form undefined"):
                entry(1.0, 0.05)


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
        # the high crossings are the knots past nu_tilde; the middle crossing
        # at each step (the oracle continuation's, at the package's steps)
        # sweeps past them, and a step that lands on a breakpoint puts it
        # exactly on one
        rho = 0.5
        full, ts = continuation_steps(rho, 0.05)
        highs = full.knots_nu[full.knots_nu > full.formula_end]
        mids = np.array(oracle_middle_crossings(rho, 0.05, ts))
        assert mids.size == highs.size
        assert np.all(np.diff(mids) > 0.0) and mids[-1] > full.formula_end
        target = highs[4]
        assert mids[0] < target <= mids[-1]
        assert np.isin(mids, highs).any()

    @pytest.mark.parametrize("rho,alpha", [(0.02, 0.05), (0.5, 0.05), (0.9, 0.05), (0.9, 0.01)])
    def test_low_crossing_on_closed_form(self, monkeypatch, rho, alpha):
        # every step's low crossing solves t2 = c on the closed-form segment;
        # the accepted steps, one per knot past nu_tilde, climb from t_tilde
        # in two half steps of at most STEP_FIRST to t_last, none longer than
        # STEP_MAX (up to rounding)
        roots = []
        crossings = critval._closed_form_crossings

        def record(nu_star, t):
            out = crossings(nu_star, t)
            roots.append((t, out[0]))
            return out

        monkeypatch.setattr(critval, "_closed_form_crossings", record)
        nu_star, _ = fixed_point(rho, alpha)
        t_tilde, nu_tilde = find_tangency(rho, alpha)
        curve = build_vtfo_curve(rho, alpha)
        steps = int(np.sum(curve.knots_nu > nu_tilde))
        ts = np.array([t for t, _ in accepted_steps(roots)])
        assert ts.size == steps > 100
        assert ts[0] == 0.5 * (t_tilde + ts[1]) and ts[1] <= t_tilde + critval.STEP_FIRST
        assert ts[-1] == curve.t_last
        assert np.all(np.diff(ts) > 0.0) and np.all(np.diff(ts) <= critval.STEP_MAX * (1.0 + 1e-12))
        for t, nu_l in roots:
            assert nu_star < nu_l <= nu_tilde
            c = closed_form_c(nu_l, rho, alpha)
            assert abs(t2_w_curve(nu_l, t, rho) - c) <= 1e-12 * c


class TestSizeNearTZero:
    """Conditional size at small T, where the statistic meets the curve
    just past its fixed point: the tangency region that criterion 2's
    42-point grid skips. The bound is 5e-5, and 1e-6 from rho 0.5 up:
    there a ladder ratio of 1.4 puts rho 0.5, T 1e-3 3.8e-6 off, and knots
    sampled at TABLE_TOL put rho 0.5, T 3e-3 1.3e-6 off."""

    def test_worst_error(self, curve_library):
        worst = {}
        for rho in (0.3, 0.5, 0.9, 0.99, RHO_CAP):
            curve = curve_library.cache.get(rho, 0.05)
            for t in (1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1):
                err = abs(conditional_reject_prob(curve, t) - 0.05)
                bound = 5e-5 if rho < 0.5 else 1e-6
                worst[bound] = max(worst.get(bound, (0.0,)), (err, rho, t))
        for bound, (err, rho, t) in worst.items():
            print(f"worst |p - 0.05| near T = 0 under bound {bound:.0e}: {err:.2e} at rho {rho}, T {t}")
        assert all(err <= bound for bound, (err, *_) in worst.items())

    # p - 0.05 of the small-rho limit at rho 0.01, as midpoint halving to
    # 5e-7 made its knots, rounded up in the fourth digit: a regression
    # bound on a curve that over-rejects (ROADMAP item 2), not a size claim
    LIMIT_EXCESS = {1e-4: 3.421e-3, 1e-3: 1.219e-2, 3e-3: 3.210e-2, 1e-2: 8.184e-2, 3e-2: 4.773e-2, 0.1: 3.866e-3}

    def test_limit_curve_no_worse(self, curve_library):
        curve = curve_library.cache.get(0.01, 0.05)
        errs = {t: conditional_reject_prob(curve, t) - 0.05 for t in self.LIMIT_EXCESS}
        print("p - 0.05 of the limit curve at rho 0.01:", " ".join(f"T {t}: {e:+.3e}" for t, e in errs.items()))
        assert all(abs(errs[t]) <= bound for t, bound in self.LIMIT_EXCESS.items())


# The curves checked against the loop oracle: the small-rho limit, the
# build floor, grid values up to the cap and one off-grid value.
LOOP_ORACLE_RHO = [0.01, 0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.9959, 0.9999]


class TestLoopOracle:
    """A build against ``oracle_vtfo_curve``: the knot refinement panel by
    panel and the middle crossing from ``brentq``, at the package's steps."""

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    @pytest.mark.parametrize("rho", LOOP_ORACLE_RHO)
    def test_knots_match(self, rho, alpha):
        curve, ts = continuation_steps(rho, alpha)
        nu, c, domain_low, t_tilde, t_last, n_closed = oracle_vtfo_curve(rho, alpha, ts)
        assert curve.knots_nu.size == nu.size
        assert (curve.domain_low, curve.t_tilde, curve.t_last) == (domain_low, t_tilde, t_last)
        # closed-form and limit knots: the same nu; c from array arithmetic
        # instead of scalar, within a few ulp
        assert np.array_equal(curve.knots_nu[:n_closed], nu[:n_closed])
        ulp = np.spacing(np.abs(c[:n_closed]))
        assert np.all(np.abs(curve.knots_c[:n_closed] - c[:n_closed]) <= 4 * ulp)
        # continuation knots: both solvers stop within about ROOT_TOL of the
        # middle crossing; the high-crossing quantile amplifies the gap most
        # at small rho
        assert np.max(np.abs(curve.knots_nu[n_closed:] - nu[n_closed:]), initial=0.0) <= 1e-8
        assert np.max(np.abs(curve.knots_c[n_closed:] - c[n_closed:]), initial=0.0) <= 1e-6


# Outcomes of the continuation at high levels, where some steps meet five
# crossings: per alpha, for each rho in HIGH_ALPHA_RHO, the number of
# continuation knots (one per step) of its curve or the reason its build
# fails.
HIGH_ALPHA_RHO = (0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9)
F = "frontier did not advance"
HIGH_ALPHA_OUTCOMES = {
    0.14: (49774, 26026, 15752, 9470, 6945, 5521, 4605, 3920, 3396, 3028, 2886, 2717),
    0.15: (62214, 30197, 17666, 10424, 7661, 6066, 4948, 4277, 3759, 3297, 3168, 2946),
    0.16: (84066, 37377, 20783, 11814, 8441, 6602, 5531, 4616, 4137, 3542, 3437, 3217),
    **{alpha: (F,) * 12 for alpha in (0.17, 0.18, 0.19, 0.2, 0.22, 0.25, 0.3, 0.35, 0.4, 0.45)},
}


class TestBuildCurve:
    @pytest.mark.parametrize("alpha", list(HIGH_ALPHA_OUTCOMES))
    def test_high_alpha_outcomes(self, alpha):
        # builds succeed with the same steps or fail with the same message
        for rho, want in zip(HIGH_ALPHA_RHO, HIGH_ALPHA_OUTCOMES[alpha], strict=True):
            if not isinstance(want, str):
                curve = build_vtfo_curve(rho, alpha)
                assert np.sum(curve.knots_nu > curve.formula_end) == want, rho
                continue
            with pytest.raises(NumericalError) as info:
                build_vtfo_curve(rho, alpha)
            prefix = f"vtfo curve build failed at rho={rho!r}, alpha={alpha!r}"
            assert str(info.value) == f"{prefix}: continuation step failed: {want}"

    def test_closed_form_only_past_build_range(self, monkeypatch):
        # NU_MAX at or below nu_tilde: no continuation, and the closed-form
        # knots on [nu*, nu_tilde] are the curve, as for a prefix that stops
        # there; at the cap that takes alpha below about 2.3e-9, so the build
        # range is moved here instead
        rho = 0.9
        nu_star, _ = fixed_point(rho, 0.05)
        t_tilde, nu_tilde = find_tangency(rho, 0.05)
        prefix = build_vtfo_curve(rho, 0.05, nu_max=nu_tilde)
        for nu_max in (t_tilde, nu_tilde):
            monkeypatch.setattr(critval, "NU_MAX", nu_max)
            curve = build_vtfo_curve(rho, 0.05)
            assert curve.t_tilde == t_tilde and curve.t_last is None
            assert curve.knots_nu[0] == nu_star and curve.knots_nu[-1] == curve.formula_end == nu_tilde
            np.testing.assert_allclose(curve.knots_c, closed_form_c(curve.knots_nu, rho, 0.05), rtol=1e-15)
            assert np.array_equal(curve.knots_nu, prefix.knots_nu) and np.array_equal(curve.knots_c, prefix.knots_c)

        # the first step past the tangency is two half steps of STEP_FIRST
        monkeypatch.setattr(critval, "NU_MAX", math.nextafter(nu_tilde, math.inf))
        curve, ts = continuation_steps(rho, 0.05)
        assert curve.t_tilde == t_tilde
        assert curve.t_last == ts[-1] == t_tilde + critval.STEP_FIRST
        assert ts[1] - ts[0] == pytest.approx(0.5 * critval.STEP_FIRST, rel=1e-9)
        assert len(ts) == np.sum(curve.knots_nu > nu_tilde) == 2

    def test_numpy_alpha_is_a_float(self, tmp_path):
        # a NumPy scalar alpha enters as a float, so its repr never reaches
        # a table's sidecar or a cache file's name
        curve = build_vtfo_curve(0.3, np.float64(0.05))
        assert type(curve.alpha) is float
        path = tmp_path / "curve.csv"
        write_curve_csv(path, [curve])
        assert "# alpha=0.05\n" in path.read_text()
        assert load_curve_csv(path)[0].alpha == 0.05
        cache_dir = tmp_path / "cache"
        got = CurveCache(directory=str(cache_dir)).get(0.3, np.float64(0.05))
        assert type(got.alpha) is float
        assert [p.name for p in cache_dir.iterdir()] == [f"vtfo_rho0.3_alpha0.05_{critval._CACHE_KEY}.bin"]
        _assert_same_curve(got, curve)

    def test_build_checks_alpha_once(self, monkeypatch):
        # one alpha check and one nu* per build, through a prefix and in full
        calls = []

        def spy(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        for name in ("_check_alpha", "_nu_star"):
            monkeypatch.setattr(critval, name, spy(name, getattr(critval, name)))
        for nu_max in (3.0, critval.NU_MAX):
            calls.clear()
            build_vtfo_curve(0.5, 0.05, nu_max)
            assert calls == ["_check_alpha", "_nu_star"]

    def test_build_leaves_no_state_behind(self):
        # a build must not leave its continuation knots in a reference
        # cycle (a root solver holding a closure over them, say), or
        # finished builds pile up until a full garbage collection
        gc.disable()
        try:
            curve = build_vtfo_curve(0.5, 0.05)
            last = float(curve.knots_nu[-1])
            alive = sum(
                isinstance(o, list) and len(o) > 0 and isinstance(o[-1], float) and o[-1] == last
                for o in gc.get_objects()
            )
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

    def test_nan_rho_rejected(self, tmp_path):
        with pytest.raises(DataError, match="rho out of range.*got nan"):
            build_vtfo_curve(float("nan"), 0.05)
        with pytest.raises(DataError, match="rho out of range"):
            CurveCache(directory=str(tmp_path)).get(float("nan"), 0.05)


PREFIX_RHO = [0.1, 0.3, 0.5, 0.9, 0.99, RHO_CAP]
# each rho of PREFIX_RHO at alpha 0.05, and one case where the bracketed
# solve runs again past the first step
PREFIX_CASES = [*(pytest.param(rho, 0.05, id=repr(rho)) for rho in PREFIX_RHO), (0.9, 0.12)]


def _prefix_stops(rho, alpha=0.05):
    """Stop points below nu*, inside [nu*, nu_tilde], exactly nu_tilde,
    just past it (after the first step) and above it, the last more than a
    step below NU_MAX."""
    nu_star, _ = fixed_point(rho, alpha)
    _, nu_tilde = find_tangency(rho, alpha)
    return [0.5 * nu_star, 0.5 * (nu_star + nu_tilde), nu_tilde, math.nextafter(nu_tilde, math.inf), 6.0, 15.0,
            39.5]


class TestPrefixBuild:
    @staticmethod
    def _steps(monkeypatch, build):
        """(curve, fallbacks, steps) of one build: ``steps`` holds the T of
        each step tried, rejected trials included, one
        ``_closed_form_crossings`` call each, and ``fallbacks`` the 1-based
        numbers of the steps whose middle crossing took the bracketed
        solve: only it evaluates the gap at the last crossing itself."""
        steps, last, fallbacks = [], [None], []
        excess, middle, crossings = critval._excess, critval._middle_crossing, critval._closed_form_crossings

        def cross(nu_star, t):
            steps.append((t,))
            return crossings(nu_star, t)

        def solve(lo, *args):
            last[0] = lo
            return middle(lo, *args)

        def gap(nu, *args):
            if nu == last[0] and len(steps) not in fallbacks:
                fallbacks.append(len(steps))
            return excess(nu, *args)

        with monkeypatch.context() as patch:
            patch.setattr(critval, "_closed_form_crossings", cross)
            patch.setattr(critval, "_middle_crossing", solve)
            patch.setattr(critval, "_excess", gap)
            return build(), fallbacks, steps

    @pytest.mark.parametrize("rho,alpha", PREFIX_CASES)
    def test_prefix_is_the_full_curve_up_to_its_stop(self, monkeypatch, rho, alpha):
        # a prefix is the full build stopped early: the same steps, solver
        # path included, up to the step whose high crossing passes the stop
        breakpoints, landing = [], critval._landing
        with monkeypatch.context() as patch:
            patch.setattr(critval, "_landing", lambda b, *args: breakpoints.append(b) or landing(b, *args))
            full, fallbacks, steps = self._steps(monkeypatch, lambda: build_vtfo_curve(rho, alpha))
        t_tilde, nu_tilde = find_tangency(rho, alpha)
        highs = full.knots_nu[full.knots_nu > nu_tilde]
        kept = [steps.index(step) + 1 for step in accepted_steps(steps)]
        assert len(kept) == highs.size
        # the first step has no crossing before it; from alpha 0.12 the
        # bracketed solve runs again
        assert fallbacks[0] == 1 and (len(fallbacks) > 1) == (alpha > 0.1)
        # the first breakpoint is nu_tilde, each later one a knot placed
        # where the middle crossing met the one before
        assert breakpoints[0] == nu_tilde and len(breakpoints) > 5

        # the stops of _prefix_stops; the knots of a later accepted fallback
        # and of the step before it; and stops inside the steps cut short to
        # land on the first breakpoints past nu_tilde, which end on them
        stops = _prefix_stops(rho, alpha)
        for s in [s for s in fallbacks if s in kept[2:]][:1]:
            stops += [highs[kept.index(s) - 1], highs[kept.index(s)]]
        assert len(stops) == (9 if alpha > 0.1 else 7)
        lands = {}
        for b in breakpoints[1:4]:
            i = int(np.searchsorted(full.knots_nu, b))
            assert full.knots_nu[i] == b
            lands[0.5 * (full.knots_nu[i - 1] + b)] = b
        rng = np.random.default_rng(8)
        for stop in [*stops, *lands]:
            part, _, part_steps = self._steps(monkeypatch, lambda: build_vtfo_curve(rho, alpha, nu_max=stop))
            n = part.knots_nu.size
            assert n <= full.knots_nu.size
            assert np.array_equal(part.knots_nu, full.knots_nu[:n]), stop
            assert np.array_equal(part.knots_c, full.knots_c[:n]), stop
            assert (part.rho_abs, part.alpha, part.domain_low, part.t_tilde, part.formula_end) == (
                full.rho_abs, full.alpha, full.domain_low, full.t_tilde, full.formula_end)
            assert part_steps == steps[:len(part_steps)], stop
            past = int(np.sum(part.knots_nu > nu_tilde))
            if stop <= nu_tilde:
                assert part.knots_nu[-1] == nu_tilde and part.t_last is None and past == 0, stop
            else:
                # a step past a breakpoint knot places two knots
                assert part.knots_nu[-1] >= stop and part.t_last == steps[kept[past - 1] - 1][0], stop
                assert n == full.knots_nu.size or np.sum(part.knots_nu >= stop) <= 2, stop
            if stop == math.nextafter(nu_tilde, math.inf):
                # the first step, two half steps of at most STEP_FIRST
                assert past == 2 and part.t_last <= t_tilde + critval.STEP_FIRST
            if stop in lands:
                assert part.knots_nu[-1] == lands[stop], stop
            nu = np.concatenate([
                part.knots_nu[part.knots_nu <= stop], rng.uniform(0.0, stop, 2000), [0.0, part.domain_low, stop],
            ])
            assert np.array_equal(part.evaluate_array(nu), full.evaluate_array(nu)), stop

    def test_full_builds_for_large_or_nonfinite_stops(self, curve_library):
        full = curve_library.cache.get(0.5, 0.05)
        for stop in (critval.NU_MAX, 50.0, math.inf, math.nan):
            _assert_same_curve(build_vtfo_curve(0.5, 0.05, nu_max=stop), full)

    def test_limit_curve_is_built_in_full(self):
        _assert_same_curve(build_vtfo_curve(0.01, 0.05, nu_max=3.0), build_vtfo_curve(0.01, 0.05))

    @pytest.mark.parametrize("directory", [False, True])
    def test_prefix_is_cached(self, tmp_path, directory, monkeypatch):
        # a prefix is kept in memory and in the prefix file; the small-rho
        # limit curve is always built in full, so it goes to the full file
        cache = CurveCache(directory=str(tmp_path / "cache") if directory else None)
        asks = ((0.3, 6.0), (0.9, 6.0), (0.01, 6.0), (0.3, 39.5))
        for rho, stop in asks:
            first = cache.get(rho, 0.05, nu_max=stop)
            assert cache.get(rho, 0.05, nu_max=stop) is first
            assert first._reaches(stop)
        assert len(cache._memory) == 3
        if not directory:
            assert not (tmp_path / "cache").exists()
            return
        names = sorted(p.name for p in (tmp_path / "cache").iterdir())
        key = critval._CACHE_KEY
        assert names == [f"vtfo_rho0.01_alpha0.05_{key}.bin", f"vtfo_rho0.3_alpha0.05_{key}.part.bin",
                         f"vtfo_rho0.9_alpha0.05_{key}.part.bin"]

        def no_build(*args, **kwargs):
            raise AssertionError("built a curve the cache directory holds")

        monkeypatch.setattr(critval, "build_vtfo_curve", no_build)
        fresh = CurveCache(directory=str(tmp_path / "cache"))
        for rho, stop in asks:
            _assert_same_curve(fresh.get(rho, 0.05, nu_max=stop), cache.get(rho, 0.05, nu_max=stop))

    def test_miss_over_a_held_prefix_builds_from_the_tangency(self, tmp_path, monkeypatch):
        # memory and the prefix file hold a prefix to nu 6; a get that reads
        # further builds from the tangency, as a cold miss does, and gives
        # the one-shot build, through the same cache and through a fresh one
        rho, held = 0.5, tmp_path / "held"
        CurveCache(directory=str(held)).get(rho, 0.05, nu_max=6.0)
        stem = CurveCache()._stem(rho, 0.05)
        want = {stop: build_vtfo_curve(rho, 0.05, stop) for stop in (15.0, critval.NU_MAX)}
        builds, build, closed_form_knots = [], critval.build_vtfo_curve, critval._closed_form_knots
        monkeypatch.setattr(critval, "build_vtfo_curve", lambda *args: builds.append(args) or build(*args))
        monkeypatch.setattr(critval, "_closed_form_knots", lambda *args: builds.append("closed") or
                            closed_form_knots(*args))
        for fresh in (False, True):
            directory = tmp_path / str(fresh)
            shutil.copytree(held, directory)
            cache = CurveCache(directory=str(directory))
            short = cache.get(rho, 0.05, nu_max=6.0)
            assert builds == []
            for stop, name in ((15.0, stem + ".part.bin"), (critval.NU_MAX, stem + ".bin")):
                if fresh:
                    cache = CurveCache(directory=str(directory))
                got = cache.get(rho, 0.05, nu_max=stop)
                assert builds == [(rho, 0.05, stop), "closed"]
                builds.clear()
                _assert_same_curve(got, want[stop])
                # a longer prefix replaces the prefix file; the full file deletes it
                assert [p.name for p in directory.iterdir()] == [name]
                _assert_same_curve(CurveCache._load_file(directory / name, rho, 0.05), got)
                assert got.knots_nu.size > short.knots_nu.size
                assert np.array_equal(got.knots_nu[:short.knots_nu.size], short.knots_nu)

    @pytest.mark.parametrize("rho,parent", [(0.1, 3885), (0.5, 3425), (0.9, 2969), (0.99, 2866)])
    def test_steps_at_most_half_the_fixed_step_rule(self, rho, parent):
        # continuation steps of a full build, one per knot past nu_tilde,
        # against those of the fixed 0.01 step the controlled step replaced
        curve = build_vtfo_curve(rho, 0.05)
        assert np.sum(curve.knots_nu > curve.formula_end) <= parent // 2

    @staticmethod
    def _old_format_is_a_miss(tmp_path, version):
        """A file of an older format under today's name, with that format's
        header: it is a miss, rebuilt and replaced."""
        full = build_vtfo_curve(0.3, 0.05)
        cache = CurveCache(directory=str(tmp_path))
        path = tmp_path / (cache._stem(0.3, 0.05) + ".bin")
        body = np.stack([full.knots_nu, full.knots_c]).astype("<f8")
        # formats "8" to "10" held the continuation's stop state, here null
        state = ["nu_mid", "nu_prev", *(["step_last", "step_next", "breakpoint"] if version == "10" else [])]
        meta = {"format": version, "rho": 0.3, "alpha": 0.05, "knots": body.shape[1], "domain_low": full.domain_low,
                "t_tilde": full.t_tilde, "t_last": full.t_last, **dict.fromkeys(state)}
        digest = hashlib.sha256(json.dumps(meta).encode())
        digest.update(body)
        path.write_bytes(json.dumps({**meta, "sha256": digest.hexdigest()}).encode() + b"\n" + body.tobytes())
        assert CurveCache._load_file(path, 0.3, 0.05) is None
        _assert_same_curve(cache.get(0.3, 0.05), full)
        assert json.loads(path.read_bytes().partition(b"\n")[0])["format"] == critval._FORMAT_VERSION == "11"
        _assert_same_curve(CurveCache._load_file(path, 0.3, 0.05), full)

    def test_format_8_file_is_a_miss(self, tmp_path):
        # the format before the sampled formula knots
        self._old_format_is_a_miss(tmp_path, "8")

    def test_format_9_file_is_a_miss(self, tmp_path):
        # the format before the controlled step, whose stop state had no
        # step lengths and no breakpoint
        self._old_format_is_a_miss(tmp_path, "9")

    def test_format_10_file_is_a_miss(self, tmp_path):
        # the last format whose header held the continuation's stop state,
        # from which a prefix was resumed
        self._old_format_is_a_miss(tmp_path, "10")

    def test_resume_reads_no_prefix_body_memory_holds(self, tmp_path, monkeypatch):
        # memory's prefix of the cap is as long as the prefix file, so the
        # miss reads the file's header only and builds from the tangency; a
        # longer prefix that another cache wrote is read in full and served
        # without a build
        bodies = []

        class Recording(io.BufferedReader):
            def readinto(self, b):
                bodies.append(os.path.basename(self.raw.name))
                return super().readinto(b)

        def recording_open(path, mode="r", *args, **kwargs):
            return Recording(io.FileIO(path, "rb")) if mode == "rb" else open(path, mode, *args, **kwargs)

        cache = CurveCache(directory=str(tmp_path))
        cache.get(0.9999, 0.05, 7.0)
        monkeypatch.setattr(critval, "open", recording_open, raising=False)
        curve = cache.get(0.9999, 0.05, 15.0)
        assert bodies == []
        fresh = build_vtfo_curve(0.9999, 0.05, nu_max=15.0)
        assert np.array_equal(curve.knots_nu, fresh.knots_nu) and np.array_equal(curve.knots_c, fresh.knots_c)

        CurveCache(directory=str(tmp_path)).get(0.9999, 0.05, 20.0)
        bodies.clear()
        monkeypatch.setattr(critval, "build_vtfo_curve", None)
        longer = cache.get(0.9999, 0.05, 20.0)
        assert bodies == [f"vtfo_rho0.9999_alpha0.05_{critval._CACHE_KEY}.part.bin"]
        assert longer._reaches(20.0) and np.array_equal(longer.knots_nu[:curve.knots_nu.size], curve.knots_nu)

    def test_cached_full_curve_is_served(self, tmp_path, monkeypatch):
        cache = CurveCache(directory=str(tmp_path))
        full = cache.get(0.3, 0.05)
        assert cache.get(0.3, 0.05, nu_max=6.0) is full
        assert cache.get(0.3, 0.05, nu_max=1.0) is full

        def no_build(*args, **kwargs):
            raise AssertionError("built a curve the cache holds")

        monkeypatch.setattr(critval, "build_vtfo_curve", no_build)
        fresh = CurveCache(directory=str(tmp_path))
        loaded = fresh.get(0.3, 0.05, nu_max=6.0)
        _assert_same_curve(loaded, full)
        assert fresh.get(0.3, 0.05, nu_max=2.0) is loaded
        assert fresh.get(0.3, 0.05) is loaded

    @pytest.mark.parametrize("stop", [critval.NU_MAX, math.inf, math.nan])
    def test_full_stop_is_cached(self, tmp_path, stop):
        cache = CurveCache(directory=str(tmp_path))
        curve = cache.get(0.3, 0.05, nu_max=stop)
        assert cache.get(0.3, 0.05) is curve
        assert len(os.listdir(tmp_path)) == 1


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
        assert cw_critical_value(0.5, 0.0, 0.05) == pytest.approx(want, rel=1e-12)

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
        # T^2 overflows
        with pytest.raises(NumericalError, match=re.escape("T = 1e+200")):
            cw_critical_value(0.5, 1e200)

    @pytest.mark.parametrize("rho", [0.05, 0.5, 0.9999])
    def test_huge_t_reaches_the_limit(self, rho):
        # as |T| -> inf the statistic is z^2, so c -> q2; np.roots, and
        # with it the oracle, fails at these T
        t = np.array([1e8, 1e22, 1e24, 1e40, 1e65, 1e100])
        for sign in (1.0, -1.0):
            assert np.all(np.abs(cw_critical_value(rho, sign * t) - Q2) <= 1e-9 * Q2)
        for x in (1e160, -1e160):
            with pytest.raises(NumericalError, match=re.escape(f"T = {x!r}")):
                cw_critical_value(rho, np.array([2.0, x]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input(self, bad):
        for rho, t in ((bad, 1.0), (0.5, bad), (0.5, np.array([0.3, bad, 2.0]))):
            with pytest.raises(DataError):
                cw_critical_value(rho, t, 0.05)

    def test_tiny_rho_stops_at_rounding(self, monkeypatch):
        # at rho 1e-6, T 1e-3 P's rounding from its roots' tolerance sits
        # above the 1e-15 stop; without the rounding stop, refused Newton
        # steps bisect c down to 4 ulp, in 48 steps
        calls = []
        solve = critval._cw_reject

        def counting(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(critval, "_cw_reject", counting)
        assert cw_critical_value(1e-6, 1e-3) == pytest.approx(1.0032920419700734e-06, rel=1e-14)
        assert len(calls) <= 10

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


def assert_near_oracle(got, want):
    # the oracle's brentq stops within its xtol 1e-9 of the root
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, got)), np.max(np.abs(got - want))


class TestConditionalWaldOracle:
    """One T and an array of T agree with the scalar np.roots + brentq
    solver to its tolerance, and a scalar call equals its row of an array
    call bit for bit."""

    @pytest.mark.parametrize("rho", ORACLE_RHO)
    def test_array_of_t(self, rho):
        want = np.array([oracle_cw_quantile(rho, t) for t in ORACLE_T])
        assert_near_oracle(cw_critical_value(rho, ORACLE_T), want)

    @pytest.mark.parametrize("rho", ORACLE_RHO)
    def test_single_t(self, rho):
        many = cw_critical_value(rho, ORACLE_T)
        for i in [*range(0, 61, 4), 61, 62, 63]:
            got = cw_critical_value(rho, float(ORACLE_T[i]))
            assert got == many[i]
            assert_near_oracle(got, oracle_cw_quantile(rho, ORACLE_T[i]))

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.3])
    def test_other_levels(self, alpha):
        t = ORACLE_T[::8]
        want = np.array([oracle_cw_quantile(0.4, x, alpha) for x in t])
        assert_near_oracle(cw_critical_value(0.4, t, alpha), want)

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
        got = cw_critical_value(rho, t)
        assert_near_oracle(got, [oracle_cw_quantile(r, x) for r, x in zip(rho, t)])
        assert np.array_equal(got, [cw_critical_value(r, x) for r, x in zip(rho, t)])
        # rho broadcasts against T
        grid = cw_critical_value(rho[:4, None], t[None, :3])
        assert grid.shape == (4, 3)
        assert np.array_equal(grid, [[cw_critical_value(r, x) for x in t[:3]] for r in rho[:4]])
        assert_near_oracle(grid, [[oracle_cw_quantile(r, x) for x in t[:3]] for r in rho[:4]])

    @pytest.mark.parametrize("rho", [0.0, 1e-13, -5e-13])
    def test_closed_form_below_1e_12(self, rho):
        t = np.array([-3.0, -0.0, 0.0, 0.25, 2.0, 1e6])
        want = np.array([oracle_cw_quantile(rho, x) for x in t])
        assert np.array_equal(cw_critical_value(rho, t), want)
        assert cw_critical_value(rho, 0.0) == 0.0


def assert_exact_size(rho, t, alpha):
    """The oracle's acceptance probability at the package's quantile is
    1 - alpha to 1e-12 at every T."""
    c = cw_critical_value(rho, t, alpha)
    err = [abs(oracle_cw_accept(rho, x, ci) - (1.0 - alpha)) for x, ci in zip(np.ravel(t), np.ravel(c))]
    assert max(err) <= 1e-12, (rho, alpha, max(err))


class TestConditionalWaldSize:
    # a solve that stops within 1e-9 of c, as the oracle's brentq does,
    # misses the size by up to 1.1e-10 at rho 0.05
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.3])
    @pytest.mark.parametrize("rho", ORACLE_RHO)
    def test_oracle_grid(self, rho, alpha):
        assert_exact_size(rho, ORACLE_T, alpha)

    # below rho 1e-6 the oracle's np.roots loses accuracy as the leading
    # coefficient rho^2 vanishes: at rho 2.03e-9, T 38, alpha 0.01 it puts
    # the size 4.6e-12 off, where 50-digit arithmetic puts it 7e-18 off
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(1e-6, RHO_CAP), st.floats(-100.0, 100.0), st.sampled_from([0.01, 0.05, 0.1, 0.3]))
    def test_sampled(self, rho, t, alpha):
        assert_exact_size(rho, np.array([t]), alpha)


class TestConditionalWaldProperties:
    # P(t2 <= c | T) grows with c. Between two c a few ulp apart the true
    # increase is below the rounding of the root-and-cdf sum, so the order
    # is only required of pairs with c_hi / c_lo - 1 above 1e-12.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(1e-12, RHO_CAP),
        st.floats(-200.0, 200.0),
        st.lists(st.floats(1e-8, 1e6), min_size=2, max_size=12),
    )
    def test_accept_nondecreasing_in_c(self, rho, t, cs):
        c = np.sort(np.array(cs))
        ones = np.ones(c.size)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            p = 1.0 - critval._cw_reject(rho * ones, abs(t) * ones, c, np.full((c.size, 4), np.nan))[0]
        assert np.all((p >= 0.0) & (p <= 1.0)), (c, p)
        assert np.all(np.diff(p) >= -1e-14), (c, p)
        assert np.all(np.diff(p)[c[1:] > c[:-1] * (1.0 + 1e-12)] >= 0.0), (c, p)


def _interp_below_floor(curve, nu):
    """A curve's lookup by plain np.interp on the keys as given."""
    return np.where(nu < curve.domain_low, np.inf, np.interp(nu, curve.knots_nu, curve.knots_c))


class TestSortedLookup:
    # ``_lookup`` interpolates on the keys in ascending order; every value
    # must be np.interp's on the keys as given, bit for bit
    @staticmethod
    def _keys(knots):
        rng = np.random.default_rng(3)
        keys = rng.uniform(knots[0] - 1.0, knots[-1] + 1.0, 2000)
        keys = np.concatenate([keys, keys[:300], knots[::7], knots[:5], knots[-2:],
                               [np.nan, np.inf, -np.inf, np.nan, knots[0] - 1e-300]])
        rng.shuffle(keys)
        return keys

    @staticmethod
    def _cases(keys, knots):
        return [keys, keys[:2000].reshape(40, 50), keys[:1], np.array(knots[3]), knots[3], float("nan"), keys[:0]]

    @pytest.mark.parametrize("knots", ["curve", "repeated", "equal"])
    def test_equals_np_interp_bit_for_bit(self, curve_library, knots):
        curve = curve_library.cache.get(0.5, 0.05)
        xp, fp = curve.knots_nu, curve.knots_c
        if knots == "repeated":  # non-decreasing knots, as a short linspace may give
            xp, fp = np.repeat(xp[::40], 3), np.repeat(fp[::40], 3)
        elif knots == "equal":  # the power lab's knots at one draw
            xp, fp = np.full(512, xp[100]), np.full(512, fp[100])
        for keys in self._cases(self._keys(xp), xp):
            got, want = critval._lookup(keys, xp, fp), np.interp(keys, xp, fp)
            assert got.shape == np.shape(keys) and got.dtype == np.float64
            assert got.tobytes() == np.asarray(want).tobytes()

    def test_curve_lookup_keeps_the_floor_sentinel(self, curve_library):
        curve = curve_library.cache.get(0.5, 0.05)
        keys = self._keys(curve.knots_nu)
        assert np.any(keys < curve.domain_low) and np.any(np.isnan(keys))
        for nu in self._cases(keys, curve.knots_nu):
            got, want = curve.evaluate_array(nu), _interp_below_floor(curve, np.asarray(nu, dtype=float))
            assert got.shape == np.shape(nu) and got.tobytes() == want.tobytes()
        assert curve.evaluate(curve.domain_low - 1e-9) == math.inf
        assert curve.evaluate(curve.knots_nu[7]) == curve.knots_c[7]

    def test_table_blend_equals_np_interp(self, curve_library, tmp_path):
        path = tmp_path / "three.csv"
        write_curve_csv(path, [curve_library.cache.get(r, 0.05) for r in (0.3, 0.5, 0.9)])
        table, (a, b, c) = load_two_sided_table(path), load_curve_csv(path)
        nu = self._keys(c.knots_nu)[:900]
        nu = nu[np.isfinite(nu)]
        rho = np.resize([0.4, -0.45, 0.3, 0.7, 0.95, -0.1, 0.5, 0.9, -0.61], nu.size)
        want = np.full(nu.size, np.nan)
        for lo, hi, at in ((a, b, np.abs(rho) < 0.5), (b, c, np.abs(rho) >= 0.5)):
            w = np.clip((np.abs(rho[at]) - lo.rho_abs) / (hi.rho_abs - lo.rho_abs), 0.0, 1.0)
            near, far = _interp_below_floor(lo, nu[at]), _interp_below_floor(hi, nu[at])
            # on or outside the table's curves the nearest curve alone, else the blend
            with np.errstate(invalid="ignore"):  # 0 * inf where the blend is not taken
                want[at] = np.where(w == 0.0, near, np.where(w == 1.0, far, (1.0 - w) * near + w * far))
        assert np.any(np.isinf(want)) and np.all(~np.isnan(want))
        assert table.lookup_array(nu, rho).tobytes() == want.tobytes()


class TestSerialization:
    # A built curve's table samples its formula segment, so a written table
    # is compared with the curves loaded back from the same file.
    def test_round_trip_exact(self, curve_library, tmp_path):
        curve = curve_library.cache.get(0.3, 0.05)
        path = tmp_path / "curve.csv"
        write_curve_csv(path, [curve])
        loaded = load_curve_csv(path)
        assert len(loaded) == 1
        back = loaded[0]
        nu, c = critval._table_rows(curve)
        assert np.array_equal(back.knots_nu, nu)
        assert np.array_equal(back.knots_c, c)
        assert back.domain_low == curve.domain_low
        assert back.alpha == curve.alpha
        assert back.t_tilde == curve.t_tilde
        assert back.t_last == curve.t_last
        assert back.formula_end is None

    def test_multi_curve_file(self, curve_library, tmp_path):
        a = curve_library.cache.get(0.3, 0.05)
        b = curve_library.cache.get(0.5, 0.05)
        path = tmp_path / "pair.csv"
        write_curve_csv(path, [a, b])
        loaded = load_curve_csv(path)
        assert [c.rho_abs for c in loaded] == [0.3, 0.5]
        a, b = loaded
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
        loaded = load_curve_csv(path)
        # between the 0.5 and 0.9 floors only the 0.5 curve is finite
        nus = np.linspace(loaded[1].domain_low, loaded[2].domain_low, 50, endpoint=False)
        assert np.array_equal(table.lookup_array(nus, 0.5), loaded[1].evaluate_array(nus))
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
        a, b = load_curve_csv(path)
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

    def test_one_curve_per_rho(self, curve_library, tmp_path):
        # 0.5 and -0.5 give one |rho|: two blocks of it would not load back
        a = curve_library.cache.get(0.5, 0.05)
        b = curve_library.cache.get(-0.5, 0.05)
        path = tmp_path / "twice.csv"
        for curves in ([a, b], [curve_library.cache.get(0.3, 0.05), a, a]):
            with pytest.raises(DataError, match=r"\|rho\| 0\.5 repeats"):
                write_curve_csv(path, curves)
            assert not path.exists()

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


class TestTableContract:
    """What the table of a built curve promises (README, "Curve table"):
    rows that sample the formula segment to TABLE_TOL * max(c, 1), then the
    continuation knots themselves."""

    RHOS = (0.01, 0.3, 0.9, 0.99, RHO_CAP)

    @pytest.fixture(scope="class")
    def tables(self, curve_library, tmp_path_factory):
        curves = [curve_library.cache.get(r, 0.05) for r in self.RHOS]
        path = tmp_path_factory.mktemp("table") / "table.csv"
        write_curve_csv(path, curves)
        return curves, path, load_curve_csv(path)

    @pytest.mark.parametrize("i", range(len(RHOS)))
    def test_within_tolerance_of_the_formula(self, tables, i):
        rho, built, table = self.RHOS[i], tables[0][i], tables[2][i]
        if rho < RHO_BUILD_FLOOR:
            end, formula = critval.NU_MAX, lambda nu: small_rho_limit_c(nu, 0.05)
        else:
            end, formula = find_tangency(rho, 0.05)[1], lambda nu: closed_form_c(nu, rho, 0.05)
        assert built.formula_end == end
        lo = table.domain_low
        # the first 0.05 past nu* holds the cap's peak, where c falls from 13,500
        nu = np.concatenate([np.linspace(lo, end, 400_001), lo + np.linspace(0.0, 0.05, 100_001)])
        want = formula(nu)
        err = np.abs(table.evaluate_array(nu) - want) / np.maximum(want, 1.0)
        assert err.max() <= critval.TABLE_TOL, (rho, nu[err.argmax()] - lo)

    def test_rows_past_nu_tilde_are_the_knots(self, tables):
        for built, table in zip(tables[0], tables[2]):
            past = built.knots_nu > built.formula_end
            rows = table.knots_nu > built.formula_end
            assert np.array_equal(table.knots_nu[rows], built.knots_nu[past])
            assert np.array_equal(table.knots_c[rows], built.knots_c[past])
            assert past.any() == (built.rho_abs >= RHO_BUILD_FLOOR)

    def test_first_row_is_the_fixed_point(self, tables):
        for rho, table in zip(self.RHOS, tables[2]):
            want = (0.0, 0.0) if rho < RHO_BUILD_FLOOR else fixed_point(rho, 0.05)
            assert (table.knots_nu[0], table.knots_c[0]) == want

    def test_write_load_write_is_byte_identical(self, tables, tmp_path):
        built, path, loaded = tables
        again = tmp_path / "again.csv"
        write_curve_csv(again, loaded)
        assert again.read_bytes() == path.read_bytes()
        # the cap's 29,978 knots, sampled at BUILD_TOL, become about 11k rows
        assert built[-1].knots_nu.size <= 40_000
        assert loaded[-1].knots_nu.size <= 25_000


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def curve_sets(draw):
    """1-3 curves with distinct |rho|, strictly increasing knots and
    arbitrary sidecar fields."""
    rhos = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=3, unique=True))
    curves = []
    for rho in rhos:
        nus = sorted(draw(st.lists(finite, min_size=1, max_size=5, unique=True)))
        curves.append(CriticalValueCurve(
            rho_abs=rho,
            alpha=draw(finite),
            knots_nu=np.array(nus),
            knots_c=np.array(draw(st.lists(finite, min_size=len(nus), max_size=len(nus)))),
            domain_low=draw(finite),
            t_tilde=draw(st.none() | finite),
            t_last=draw(st.none() | finite),
        ))
    return curves


class TestCurveFileProperties:
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(curve_sets())
    def test_round_trip_and_every_prefix_fails(self, tmp_path_factory, curves):
        path = tmp_path_factory.mktemp("curves") / "curves.csv"
        write_curve_csv(path, curves)
        loaded = load_curve_csv(path)
        want = sorted(curves, key=lambda c: c.rho_abs)
        assert len(loaded) == len(want)
        for got, cv in zip(loaded, want):
            assert got.rho_abs == cv.rho_abs
            assert np.array_equal(got.knots_nu, cv.knots_nu)
            assert np.array_equal(got.knots_c, cv.knots_c)
            assert (got.alpha, got.domain_low, got.t_tilde, got.t_last) == (
                cv.alpha, cv.domain_low, cv.t_tilde, cv.t_last)
        text = path.read_bytes()
        for cut in range(len(text)):
            path.write_bytes(text[:cut])
            with pytest.raises(TableError):
                load_curve_csv(path)


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
        # the key covers the file format and the build constants; files of
        # the brentq continuation (format "5") carried b0709dada779, those
        # without the continuation's state (format "6") 2d22551741ce, those
        # without the crossing before last (format "7") 72ab516c52ed, those
        # with knots refined to an absolute 5e-7 (format "8") 1348503e18eb,
        # those of the fixed 0.01 step in T (format "9") 31e76188683c, and
        # those holding the continuation's stop state (format "10") 80cdb7d80a3c
        assert files == ["vtfo_rho0.35_alpha0.05_d94ed07e0fa3.bin"]
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

    @pytest.mark.parametrize("nu_maxes", [[7.0], [7.0, 7.0, 7.0]], ids=["one too few", "one too many"])
    def test_nu_maxes_of_another_length_is_a_data_error(self, tmp_path, monkeypatch, nu_maxes):
        # one nu_max too few or too many: refused before any lookup or build
        CurveCache(directory=str(tmp_path)).get(0.3, 0.05, nu_max=7.0)
        cache = CurveCache(directory=str(tmp_path))
        monkeypatch.setattr(CurveCache, "_load_file", None)
        monkeypatch.setattr(critval, "build_vtfo_curve", None)
        with pytest.raises(DataError, match=f"one nu_max per rho: 2 rho, {len(nu_maxes)} nu_max"):
            cache.get_many([0.3, 0.5], 0.05, nu_maxes)
        assert cache._memory == {}

    @pytest.mark.parametrize("cut", [
        "row boundary", "middle of a row", "inside the header", "at the header line break", "inside the body",
    ])
    def test_truncated_file_is_rebuilt(self, curve_library, tmp_path, cut):
        # the full file, and the prefix file of a curve read up to nu 6
        want = curve_library.cache.get(0.3, 0.05)
        for nu_max, suffix in ((critval.NU_MAX, ".bin"), (6.0, ".part.bin")):
            directory = tmp_path / suffix[1:]
            stored = CurveCache(directory=str(directory)).get(0.3, 0.05, nu_max=nu_max)
            (path,) = directory.iterdir()
            assert path.name == f"vtfo_rho0.3_alpha0.05_{critval._CACHE_KEY}{suffix}"
            raw = path.read_bytes()
            # a JSON header line, then the (2, n) float64 array of knots_nu and knots_c
            body = raw.index(b"\n") + 1
            n = stored.knots_nu.size
            assert n > 481
            end = {
                "row boundary": body + 8 * n,
                "middle of a row": body + 8 * 480 + 3,
                "inside the header": body // 2,
                "at the header line break": body - 1,
                "inside the body": len(raw) - 1,
            }[cut]
            path.write_bytes(raw[:end])
            got = CurveCache(directory=str(directory)).get(0.3, 0.05, nu_max=nu_max)
            assert got.knots_nu.size == n
            assert np.array_equal(got.knots_nu, want.knots_nu[:n])
            assert np.array_equal(got.knots_c, want.knots_c[:n])
            assert got.evaluate(min(nu_max, 10.0)) == want.evaluate(min(nu_max, 10.0))
            # the damaged file was replaced by the rebuilt curve, and no other written
            assert [p.name for p in directory.iterdir()] == [path.name]
            assert path.read_bytes() == raw
        assert want.evaluate(10.0) == pytest.approx(3.721, abs=5e-4)

    @pytest.mark.parametrize("damage", ["flipped header byte", "flipped body byte", "another rho's file"])
    def test_damaged_file_is_rebuilt(self, curve_library, tmp_path, damage):
        want = curve_library.cache.get(0.3, 0.05)
        CurveCache(directory=str(tmp_path)).get(0.3, 0.05)
        (path,) = tmp_path.iterdir()
        raw = path.read_bytes()
        if damage == "another rho's file":
            other = tmp_path / "other"
            CurveCache(directory=str(other)).get(0.5, 0.05)
            (bad,) = [p.read_bytes() for p in other.iterdir()]
        else:
            # the header flip turns the last digit of domain_low into another digit
            at = raw.index(b', "t_tilde"') - 1 if damage == "flipped header byte" else raw.index(b"\n") + 805
            bad = bytearray(raw)
            bad[at] ^= 0x01
        path.write_bytes(bytes(bad))
        got = CurveCache(directory=str(tmp_path)).get(0.3, 0.05)
        assert np.array_equal(got.knots_nu, want.knots_nu)
        assert np.array_equal(got.knots_c, want.knots_c)
        assert path.read_bytes() == raw

    def test_every_header_byte_is_checked(self, tmp_path):
        curve = build_vtfo_curve(0.01, 0.05)
        path = tmp_path / "curve.bin"
        CurveCache._save_file(path, curve)
        raw = path.read_bytes()
        body_start = raw.index(b"\n") + 1
        for i in range(body_start):
            for cut, flipped in ((raw[:i], None), (raw, i)):
                bad = bytearray(cut)
                if flipped is not None:
                    bad[flipped] ^= 0x01
                path.write_bytes(bytes(bad))
                assert CurveCache._load_file(path, 0.01, 0.05) is None, (i, flipped)
        path.write_bytes(raw)
        assert CurveCache._load_file(path, 0.02, 0.05) is None
        assert CurveCache._load_file(path, 0.01, 0.1) is None
        assert CurveCache._load_file(path, 0.01, 0.05) is not None

    def test_reloads_every_session_file_without_a_build(self, curve_library, monkeypatch):
        for rho in (0.01, 0.3, 0.5):
            curve_library.cache.get(rho, 0.05)
        directory = curve_library.cache.directory
        names = [name for name in os.listdir(directory) if name.startswith("vtfo_rho")]
        assert len(names) >= 3

        def no_build(rho, alpha=0.05, nu_max=critval.NU_MAX):
            raise AssertionError(f"rebuilt rho {rho!r}, alpha {alpha!r}")

        monkeypatch.setattr(critval, "build_vtfo_curve", no_build)
        for name in names:
            rho, alpha, part = re.fullmatch(r"vtfo_rho(.+)_alpha(.+)_\w+(\.part)?\.bin", name).groups()
            rho, alpha = float(rho), float(alpha)
            # a prefix file is read as far as it reaches, after any full file
            reach = CurveCache._load_file(os.path.join(directory, name), rho, alpha).knots_nu[-1] if part else math.nan
            got = CurveCache(directory=directory).get(rho, alpha, nu_max=reach)
            want = curve_library.cache.get(rho, alpha, nu_max=reach)
            assert got is not want
            n = min(got.knots_nu.size, want.knots_nu.size)
            assert np.array_equal(got.knots_nu[:n], want.knots_nu[:n])
            assert np.array_equal(got.knots_c[:n], want.knots_c[:n])
            if not part:
                _assert_same_curve(got, want)
            assert got.formula_end == want.formula_end

    def test_unusable_directory_is_a_data_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(DataError, match="curve cache directory"):
            CurveCache(directory=str(blocker / "sub")).get(0.3, 0.05)


def _forks(monkeypatch):
    """The pids of the children forked while the test runs."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(critval.os, "fork", counted)
    return pids


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestParallelBuilds:
    """``get_many`` builds its misses in forked children, whatever the CPUs
    of the host (``_usable_cpus`` is set), and gives what one process gives."""

    ASKS = [0.7, 0.01, RHO_CAP, 0.3, 0.9, 0.1, 0.5, -0.3]
    STOPS = [20.0, 3.0, math.nan, critval.NU_MAX, 3.0, 12.0, 15.0, 6.0]

    def test_same_curves_and_files_as_one_process(self, tmp_path, monkeypatch):
        # three shares over seven misses, one of them over a prefix that
        # memory and the prefix file hold, and -0.3 served with 0.3
        forks = _forks(monkeypatch)
        got = {}
        for cpus in (3, 1):
            monkeypatch.setattr(critval, "_usable_cpus", lambda: cpus)
            cache = CurveCache(directory=str(tmp_path / str(cpus)))
            cache.get(0.5, 0.05, nu_max=6.0)
            got[cpus] = cache.get_many(self.ASKS, 0.05, self.STOPS)
            assert [c.rho_abs for c in got[cpus]] == [abs(r) for r in self.ASKS]
            assert got[cpus][3] is got[cpus][7] and len(cache._memory) == 7
        assert len(forks) == 2
        _no_child_left()
        for a, b in zip(got[3], got[1]):
            _assert_same_curve(a, b)
        assert _files(tmp_path / "3") == _files(tmp_path / "1")

    def test_first_failure_in_rho_order_and_no_child_left(self, tmp_path, monkeypatch):
        # the curves below the failure are kept, as one process keeps them,
        # and one process builds nothing past it
        forks, builds, build = _forks(monkeypatch), [], critval.build_vtfo_curve

        def counted(rho, *args, **kwargs):
            builds.append(rho)
            return build(rho, *args, **kwargs)

        monkeypatch.setattr(critval, "build_vtfo_curve", counted)
        errors = {}
        for cpus in (3, 1):
            monkeypatch.setattr(critval, "_usable_cpus", lambda: cpus)
            builds.clear()
            cache = CurveCache(directory=str(tmp_path / str(cpus)))
            with pytest.raises(DataError, match="rho out of range") as exc:
                cache.get_many([1.5, 0.5, 0.3, 2.5], 0.05, [6.0] * 4)
            assert sorted(cache._memory) == [("0.3", "0.05"), ("0.5", "0.05")]
            with pytest.raises(NumericalError) as failed:
                cache.get_many([0.6, 0.2, 0.4, 0.8], 0.2)
            errors[cpus] = (str(exc.value), str(failed.value))
            _no_child_left()
        assert len(forks) == 4
        assert builds == [0.3, 0.5, 1.5, 0.2]
        assert errors[3] == errors[1]
        assert errors[3][1].startswith("vtfo curve build failed at rho=0.2, alpha=0.2: ")
        assert _files(tmp_path / "3") == _files(tmp_path / "1")

    def test_share_of_a_child_that_sent_nothing_is_built_here(self, monkeypatch):
        parent, build_share = os.getpid(), critval._build_share

        def dying(misses, alpha):
            if os.getpid() != parent:
                os._exit(1)
            return build_share(misses, alpha)

        monkeypatch.setattr(critval, "_build_share", dying)
        monkeypatch.setattr(critval, "_usable_cpus", lambda: 3)
        forks = _forks(monkeypatch)
        got = CurveCache().get_many(self.ASKS, 0.05, self.STOPS)
        assert len(forks) == 2
        _no_child_left()
        monkeypatch.setattr(critval, "_usable_cpus", lambda: 1)
        for a, b in zip(got, CurveCache().get_many(self.ASKS, 0.05, self.STOPS)):
            _assert_same_curve(a, b)

    def test_no_fork_for_hits_one_miss_or_a_second_thread(self, tmp_path, monkeypatch):
        monkeypatch.setattr(critval, "_usable_cpus", lambda: 3)
        forks = _forks(monkeypatch)
        cache = CurveCache(directory=str(tmp_path))
        cache.get_many([0.3, -0.3], 0.05)  # one miss
        cache.get_many([0.3, 0.6], 0.05, [critval.NU_MAX, 5.0])  # one miss, one hit in memory
        CurveCache(directory=str(tmp_path)).get_many([0.6, 0.3], 0.05, [5.0, 5.0])  # hits on disk
        release = threading.Event()
        waiting = threading.Thread(target=release.wait)
        waiting.start()
        try:
            cache.get_many([0.2, 0.4], 0.05, [8.0, 8.0])
        finally:
            release.set()
            waiting.join(timeout=10)
        assert not waiting.is_alive()
        assert forks == []


def _assert_same_curve(got, want):
    """The seven stored fields equal, types included."""
    for name in ("rho_abs", "alpha", "domain_low", "t_tilde", "t_last"):
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b) and a == b, name
    for name in ("knots_nu", "knots_c"):
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b) and a.dtype == b.dtype and np.array_equal(a, b), name


@st.composite
def cache_curves(draw):
    """One curve as a build makes it: strictly increasing knots, the
    continuation range as None or a float, domain_low 0.0 as on the
    small-rho limit curve or any float."""
    nus = sorted(draw(st.lists(finite, min_size=1, max_size=6, unique=True)))
    return CriticalValueCurve(
        rho_abs=draw(st.floats(0.0, RHO_CAP)),
        alpha=draw(finite),
        knots_nu=np.array(nus),
        knots_c=np.array(draw(st.lists(finite, min_size=len(nus), max_size=len(nus)))),
        domain_low=draw(st.just(0.0) | finite),
        t_tilde=draw(st.none() | finite),
        t_last=draw(st.none() | finite),
    )


class TestCacheFileProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(cache_curves())
    def test_round_trip(self, tmp_path_factory, curve):
        path = tmp_path_factory.mktemp("cache") / "curve.bin"
        CurveCache._save_file(path, curve)
        _assert_same_curve(CurveCache._load_file(path, curve.rho_abs, curve.alpha), curve)
