"""Acceptance gate: one test per release criterion, one printed line each.

Each test prints ``ACCEPTANCE <n> [<name>]: PASS|FAIL <detail>`` before
asserting, so a plain ``pytest tests/test_acceptance.py`` run shows the
full scoreboard. Criteria that measure Monte Carlo output against stated
tolerances are implemented exactly as stated; a FAIL line reports the
measured values. Numbers that are properties of the procedures rather
than promises (the curve at nu = 12, vtfo size at S = 0 over all T, power
at |delta| = 8, the sign pattern at |delta| = 1) are printed marked
"not gated".
"""

import time

import numpy as np

from conftest import conditional_reject_prob, judge_indicator_matrix, kernel_b, quadratic_form_Q, run_cli
from mwiv import (
    AsymptoticDGP,
    Dataset,
    JudgeDesignSpec,
    NumericalError,
    analytic_power_bounds,
    build_projection,
    cw_critical_value,
    detect_unbounded,
    fixed_point,
    invert_confidence_set,
    jive_point_estimate,
    jive_variance,
    normalized_stats,
    rejection_rates,
    run_test,
    simulate_judge_data,
)
from mwiv.estimators import _profile
from mwiv.projection import DenseProjection, JudgeProjection


def emit(number, name, ok, detail, t0):
    line = (
        f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'} "
        f"{detail} ({time.perf_counter() - t0:.1f}s)"
    )
    print(line)
    return line


def random_judge_spec(rng, max_judges, max_cluster, lam=None):
    k = int(rng.integers(3, max_judges + 1))
    nk = tuple(int(v) for v in rng.integers(2, max_cluster + 1, size=k))
    scale = float(rng.uniform(0.1, 1.0)) if lam is None else lam
    pi = tuple(scale * rng.standard_normal(k))
    return JudgeDesignSpec(
        n_judges=k,
        per_judge=nk,
        pi=pi,
        beta=1.0,
        error_corr=float(rng.uniform(-0.8, 0.8)),
        seed=int(rng.integers(2**31)),
    )


def test_criterion_1_t_identity():
    # 100 random judge datasets (N <= 500, K <= 25), 5 beta0 each: the
    # squared t-statistic that normalized_stats reports, the Wald ratio
    # (beta_hat - beta0)^2 / V_hat, equals the just-identified TSLS t^2
    # written in (xi, nu, rho), (xi nu)^2 / ((nu - rho xi)^2 + (1 - rho^2)
    # xi^2), to 1e-8 relative.
    # Cells where the beta0 variance kernel is nonpositive have no defined
    # (xi, nu, rho); those are counted and must stay below 1% of cells.
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    checked, degenerate = 0, 0
    beta0_values = (-2.0, -0.5, 0.3, 1.7, 3.5)
    for _ in range(100):
        spec = random_judge_spec(rng, max_judges=25, max_cluster=20)
        data = simulate_judge_data(spec)
        ctx = build_projection(data)
        for b0 in beta0_values:
            try:
                st = normalized_stats(ctx, data, b0)
            except NumericalError:
                degenerate += 1
                continue
            xi, nu, rho = st.xi, st.nu, st.rho_raw
            closed = (xi * nu) ** 2 / ((nu - rho * xi) ** 2 + (1.0 - rho**2) * xi**2)
            wald = st.t_squared
            rel = abs(wald - closed) / max(abs(wald), abs(closed), 1e-12)
            worst = max(worst, rel)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and degenerate <= 5 and elapsed < 10.0
    line = emit(1, "t-statistic identity", ok,
                f"max rel err {worst:.2e} over {checked} cells "
                f"({degenerate} degenerate), limit 1e-08", t0)
    assert ok, line


def test_criterion_2_conditional_size(curve_library):
    # quadrature of the non-rejection probability of nu | T ~ N(T, rho^2)
    # along the built curve equals 0.95 +- 1e-4 on both regimes of T
    t0 = time.perf_counter()
    worst = 0.0
    for rho in (0.3, 0.5, 0.9):
        curve = curve_library.cache.get(rho)
        t_grid = np.concatenate([
            np.linspace(0.0, 0.999 * curve.t_tilde, 21),
            np.linspace(curve.t_tilde, curve.t_last, 21),
        ])
        for t in t_grid:
            p = conditional_reject_prob(curve, float(t))
            worst = max(worst, abs(p - 0.05))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    line = emit(2, "conditional size by construction", ok,
                f"max |p - 0.05| = {worst:.2e} over 126 T values, limit 1e-04", t0)
    assert ok, line


def test_criterion_3_fixed_point_and_tail(curve_library):
    # curve starts at its analytic fixed point (stated 4dp: 0.8224, 0.9018
    # and 1.4804, 11.533) and reaches the chi-squared test at strong
    # identification: the last knot ends within 0.02 of 3.8415, and past the
    # built range (T = t_last + 5 and T = 200) the conditional rejection
    # rate stays within 1e-3 of 0.05. The curve swings about 3.8415 with
    # slowly shrinking swings, so c(12) is reported but not gated.
    t0 = time.perf_counter()
    details = []
    start_ok, tail_ok = True, True
    for rho in (0.5, 0.9):
        curve = curve_library.cache.get(rho)
        nu_star, c_star = fixed_point(rho, 0.05)
        start_err = max(abs(curve.knots_nu[0] - nu_star), abs(curve.knots_c[0] - c_star))
        start_ok = start_ok and start_err <= 1e-6
        end_nu, end_c = float(curve.knots_nu[-1]), float(curve.knots_c[-1])
        end_gap = abs(end_c - 3.8415)
        beyond = [conditional_reject_prob(curve, t) for t in (curve.t_last + 5.0, 200.0)]
        tail_ok = tail_ok and end_gap <= 0.02 and all(abs(p - 0.05) <= 1e-3 for p in beyond)
        details.append(
            f"rho={rho}: start err {start_err:.1e} vs ({nu_star:.4f}, {c_star:.4f}), "
            f"end c({end_nu:.1f})={end_c:.4f} gap {end_gap:.4f}, "
            f"p(T=t_last+5)={beyond[0]:.4f}, p(T=200)={beyond[1]:.4f}, "
            f"c(12)={float(curve.evaluate(12.0)):.4f} (not gated)"
        )
    ok = start_ok and tail_ok
    line = emit(3, "fixed point and tail", ok, "; ".join(details), t0)
    assert ok, line


def test_criterion_4_null_size(curve_library):
    # 1e5 asymptotic null draws per (S, rho) cell. The curve holds size for
    # T >= 0 and is conservative below, so vtfo rejects at most 0.06
    # overall and within 0.05 +- 0.01 over the draws with T >= 0; the
    # conditional Wald rate is within 0.05 +- 0.01 unconditionally
    t0 = time.perf_counter()
    failures = []
    at_zero = []
    for si, s in enumerate((0.0, 1.0, 3.0, 5.0)):
        for ri, rho in enumerate((0.3, 0.9)):
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence([20260814, si, ri]))
            )
            z1 = rng.standard_normal(100000)
            z2 = rng.standard_normal(100000)
            xi = z1
            nu = s + rho * z1 + np.sqrt(1.0 - rho**2) * z2
            denom = (nu - rho * xi) ** 2 + (1.0 - rho**2) * xi**2
            t2 = (xi * nu) ** 2 / denom
            t_cond = nu - rho * xi

            curve = curve_library.cache.get(rho)
            vtfo_rej = t2 > curve.evaluate_array(nu)
            vtfo_rate = float(np.mean(vtfo_rej))
            vtfo_pos = float(np.mean(vtfo_rej[t_cond >= 0.0]))

            t_knots = np.linspace(float(t_cond.min()), float(t_cond.max()), 512)
            c_knots = cw_critical_value(rho, t_knots)
            cw_rate = float(np.mean(t2 > np.interp(t_cond, t_knots, c_knots)))

            cell = f"(S={s:g},rho={rho})"
            if vtfo_rate > 0.06:
                failures.append(f"vtfo{cell}={vtfo_rate:.4f} > 0.06")
            if abs(vtfo_pos - 0.05) > 0.01:
                failures.append(f"vtfo|T>=0{cell}={vtfo_pos:.4f}")
            if abs(cw_rate - 0.05) > 0.01:
                failures.append(f"cw{cell}={cw_rate:.4f}")
            if s == 0.0:
                at_zero.append(f"rho={rho} {vtfo_rate:.4f} (T>=0: {vtfo_pos:.4f})")
    ok = not failures
    detail = "all 8 cells in band" if ok else "out of band: " + ", ".join(failures)
    detail += "; vtfo at S=0 overall " + ", ".join(at_zero)
    line = emit(4, "unconditional null size", ok, detail, t0)
    assert ok, line


def test_criterion_5_power_bounds(curve_library):
    # MC power at S = 3 converges to the large-|delta| limits: one-sided
    # methods to 0.9123 and two-sided methods to 0.8508, within 0.01 at
    # 1e5 draws. The remainder shrinks like 1/|delta|, so the gate sits at
    # |delta| = 800; the gaps at |delta| = 8 are reported but not gated.
    t0 = time.perf_counter()
    one, two = analytic_power_bounds(3.0)
    bound = {"vtfo": one, "ms1": one, "ms2": two, "lm": two}

    def gaps(deltas):
        res = rejection_rates(
            AsymptoticDGP(s=3.0, r=0.5), deltas,
            methods=("vtfo", "ms1", "ms2", "lm"), n_draws=100000,
            curves=curve_library, seed=7,
        )
        return {
            (m, d): float(res.rates[m][i]) - bound[m]
            for m in res.methods for i, d in enumerate(deltas)
        }

    far = gaps([-800.0, 800.0])
    near = gaps([-8.0, 8.0])
    failures = [
        f"{m}({d:+g}) gap {g:+.4f}" for (m, d), g in far.items() if abs(g) > 0.01
    ]
    ordering_ok = all(
        analytic_power_bounds(s)[0] > analytic_power_bounds(s)[1]
        for s in (0.5, 1.0, 2.0, 3.0, 5.0)
    )
    ok = not failures and ordering_ok
    detail = (
        f"max gap at |delta|=800 {max(abs(g) for g in far.values()):.4f}"
        if ok else "gap > 0.01: " + ", ".join(failures)
    )
    if not ordering_ok:
        detail += "; one-sided bound not above two-sided"
    detail += "; at |delta|=8 (not gated) " + ", ".join(
        f"{m}({d:+g}) {g:+.4f}" for (m, d), g in near.items()
    )
    line = emit(5, "power bound convergence", ok, detail, t0)
    assert ok, line


def test_criterion_6_power_curve_shape(curve_library):
    # r = 0.5, S = 3, 10,000 draws: size 0.05 +- 0.01 at delta = 0 for all
    # five methods, curves continuous in delta, and neither one-sided test
    # dominates: the curve test beats one-sided AR by more than 3 Monte
    # Carlo standard errors at some delta and loses by that much at another
    t0 = time.perf_counter()
    grid = np.linspace(-8.0, 8.0, 33)
    res = rejection_rates(
        AsymptoticDGP(s=3.0, r=0.5), grid, n_draws=10000,
        curves=curve_library, seed=11,
    )
    i0 = 16
    im, ip = 14, 18
    assert grid[i0] == 0.0 and grid[im] == -1.0 and grid[ip] == 1.0

    size_bad = [
        f"{m}={float(res.rates[m][i0]):.4f}"
        for m in res.methods
        if abs(float(res.rates[m][i0]) - 0.05) > 0.01
    ]

    # continuity: recursively bisect each method's largest jump; jumps of
    # a continuous curve shrink with the interval, a discontinuity's stay
    # near full size however far the halving goes
    rate_cache = {}

    def rate_at(d):
        if d not in rate_cache:
            out = rejection_rates(
                AsymptoticDGP(s=3.0, r=0.5), [d], n_draws=10000,
                curves=curve_library, seed=11,
            )
            rate_cache[d] = {m: float(out.rates[m][0]) for m in out.methods}
        return rate_cache[d]

    worst_ratio = 0.0
    for m in res.methods:
        diffs = np.abs(np.diff(res.rates[m]))
        j = int(np.argmax(diffs))
        jump0 = float(diffs[j])
        if jump0 <= 0.1:
            continue
        lo, hi = float(grid[j]), float(grid[j + 1])
        r_lo, r_hi = float(res.rates[m][j]), float(res.rates[m][j + 1])
        for _ in range(2):
            mid = 0.5 * (lo + hi)
            r_mid = rate_at(mid)[m]
            if abs(r_mid - r_lo) >= abs(r_hi - r_mid):
                hi, r_hi = mid, r_mid
            else:
                lo, r_lo = mid, r_mid
        worst_ratio = max(worst_ratio, abs(r_hi - r_lo) / jump0)
    continuity_ok = worst_ratio <= 0.6

    n = res.n_draws
    lead = []
    for v, a in zip(res.rates["vtfo"], res.rates["ms1"]):
        se = np.sqrt((v * (1.0 - v) + a * (1.0 - a)) / n)
        lead.append((v - a) / se if se > 0.0 else 0.0)
    crossing_ok = max(lead) > 3.0 and min(lead) < -3.0
    beats = {
        d: float(res.rates["vtfo"][i]) > float(res.rates["ms1"][i])
        for d, i in ((-1.0, im), (1.0, ip))
    }
    elapsed = time.perf_counter() - t0

    ok = not size_bad and continuity_ok and crossing_ok and elapsed < 120.0
    parts = [f"size at 0 {'ok' if not size_bad else 'bad: ' + ','.join(size_bad)}"]
    parts.append(
        f"twice-bisected jump ratio {worst_ratio:.2f} (continuous if <= 0.6)"
    )
    parts.append(
        f"vtfo-ms1 lead from {min(lead):+.1f} to {max(lead):+.1f} SE "
        f"(need beyond -3 and +3)"
    )
    parts.append(
        f"vtfo>ms1 at -1: {beats[-1.0]}, at +1: {beats[1.0]} (not gated)"
    )
    line = emit(6, "power curve shape", ok, "; ".join(parts), t0)
    assert ok, line


def test_criterion_7_unbounded_equivalence(curve_library):
    # 200 datasets spanning nu_hat in (0, 6): grid-inversion unboundedness
    # agrees with the moment-level rules in >= 99% of cases per method,
    # with any disagreement within one grid step of the threshold
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    base = rng.standard_normal(40)
    agree = {"ms2": 0, "ms1": 0}
    nonlocal_disagreements = []
    nus = []
    for i in range(200):
        lam = 0.08 + 0.62 * i / 199.0
        spec = JudgeDesignSpec(
            n_judges=40, per_judge=(8,) * 40, pi=tuple(lam * base),
            beta=1.0, error_corr=0.4, seed=7000 + i,
        )
        data = simulate_judge_data(spec)
        ctx = build_projection(data)
        st = normalized_stats(ctx, data, 0.0)
        nus.append(st.nu)
        for method in ("ms2", "ms1"):
            cs = invert_confidence_set(
                method, ctx, data, grid=(-2000.0, 2000.0, 801), curves=curve_library
            )
            analytic = detect_unbounded(method, st).unbounded
            if cs.unbounded_flag == analytic:
                agree[method] += 1
                continue
            # locality: rerun the test one grid step beyond each edge whose
            # decision contradicts the limit rule; a benign disagreement
            # flips there, a systematic one persists
            step = float(cs.betas[1] - cs.betas[0])
            n = cs.betas.size
            for end in (0, n - 1):
                # rejects[end] True with analytic True is the contradiction:
                # the edge rejects while the moment rule says the far tail
                # is accepted, and symmetrically for False/False
                if bool(cs.rejects[end]) != analytic:
                    continue
                beta_out = float(cs.betas[end]) + (step if end else -step)
                out = run_test(method, ctx, data, beta_out)
                if bool(out.reject) == analytic:
                    nonlocal_disagreements.append((method, i))
    rate_ms2 = agree["ms2"] / 200.0
    rate_ms1 = agree["ms1"] / 200.0
    span_ok = min(nus) < 1.0 and max(nus) > 5.0
    ok = rate_ms2 >= 0.99 and rate_ms1 >= 0.99 and not nonlocal_disagreements and span_ok
    detail = (
        f"agreement ms2 {rate_ms2:.1%}, ms1 {rate_ms1:.1%}; "
        f"nu span ({min(nus):.2f}, {max(nus):.2f}); "
        f"nonlocal disagreements {len(nonlocal_disagreements)}"
    )
    line = emit(7, "unbounded set equivalence", ok, detail, t0)
    assert ok, line


def test_criterion_8_path_equivalence():
    # judge-block fast path vs dense indicator reference on N <= 200
    # instances: every quadratic form, cross moment, variance estimate,
    # and the point estimate match to 1e-10 relative
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    worst = 0.0

    def track(a, b):
        nonlocal worst
        rel = abs(a - b) / max(abs(a), abs(b), 1e-12)
        worst = max(worst, rel)

    for _ in range(10):
        spec = random_judge_spec(rng, max_judges=15, max_cluster=12)
        data = simulate_judge_data(spec)
        ctx_fast = build_projection(data)
        dense = Dataset(
            y=data.y, x=data.x,
            instruments=judge_indicator_matrix(np.asarray(data.instruments)),
        )
        ctx_dense = build_projection(dense)
        assert isinstance(ctx_fast, JudgeProjection) and isinstance(ctx_dense, DenseProjection)

        x, y = data.x, data.y
        for a, b in ((x, x), (x, y), (y, y)):
            track(quadratic_form_Q(ctx_fast, a, b), quadratic_form_Q(ctx_dense, a, b))
        e0 = y - 0.4 * x
        prof_fast, prof_dense = _profile(ctx_fast, data), _profile(ctx_dense, dense)
        track(prof_fast.b_xxxx, prof_dense.b_xxxx)
        track(kernel_b(ctx_fast, x, e0, x, e0), kernel_b(ctx_dense, x, e0, x, e0))
        track(prof_fast.upsilon, prof_dense.upsilon)
        for b0 in (-1.0, 0.5, 2.0):
            # tau, psi and phi at b0
            for vf, vd in zip(prof_fast.values(b0)[2:], prof_dense.values(b0)[2:]):
                track(float(vf[0]), float(vd[0]))
        beta_f = jive_point_estimate(ctx_fast, data)
        beta_d = jive_point_estimate(ctx_dense, data)
        track(beta_f, beta_d)
        track(jive_variance(ctx_fast, data, beta_f), jive_variance(ctx_dense, data, beta_d))
    ok = worst <= 1e-10
    line = emit(8, "fast path equals dense reference", ok,
                f"max rel diff {worst:.2e} over 10 instances, limit 1e-10", t0)
    assert ok, line


def test_criterion_9_cli_determinism(tmp_path):
    # every CLI command, run twice with identical flags and seeds, produces
    # byte-identical stdout and byte-identical output files
    t0 = time.perf_counter()
    cache = str(tmp_path / "cache")
    data_csv = tmp_path / "data.csv"
    mismatches = []

    commands = {
        "simulate": (
            ["simulate", "--judges", "20", "--cluster-size", "10", "--pi", "0.5",
             "--seed", "4", "--out", str(data_csv)],
            [data_csv],
        ),
        "estimate": (
            ["estimate", "--data", str(data_csv), "--beta0", "0.3"],
            [],
        ),
        "test": (
            ["test", "--data", str(data_csv), "--method", "vtfo", "--beta0", "0.5",
             "--cache-dir", cache],
            [],
        ),
        "cs": (
            ["cs", "--data", str(data_csv), "--method", "ms2", "--grid", "0:2:41",
             "--out", str(tmp_path / "cs.csv"), "--cache-dir", cache],
            [tmp_path / "cs.csv"],
        ),
        "curve": (
            ["curve", "--rho", "0.4", "--out", str(tmp_path / "curve.csv"),
             "--cache-dir", cache],
            [tmp_path / "curve.csv"],
        ),
        "power": (
            ["power", "--method", "vtfo,ms1", "--grid=-1:1:3", "--draws", "1000",
             "--seed", "2", "--out", str(tmp_path / "power.csv"), "--cache-dir", cache],
            [tmp_path / "power.csv", tmp_path / "power.svg"],
        ),
    }
    for name, (args, files) in commands.items():
        outputs = []
        for _ in range(2):
            proc = run_cli(args)
            if proc.returncode != 0:
                mismatches.append(f"{name}: exit {proc.returncode}")
                break
            outputs.append((proc.stdout, [f.read_bytes() for f in files]))
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            mismatches.append(f"{name}: outputs differ between runs")
    ok = not mismatches
    detail = "6 commands byte-identical across reruns" if ok else "; ".join(mismatches)
    line = emit(9, "cli determinism", ok, detail, t0)
    assert ok, line
