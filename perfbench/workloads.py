"""The four workloads: inputs made from a seed, one timed round of
user-facing calls, and checks of every output against perfbench.oracle.

A workload is built from the freshly imported ``mwiv`` package and
reaches every mwiv function through module attributes at call time, so
that the tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import sys
import time

import numpy as np

import oracle as ref

ALPHA = ref.ALPHA


class Recorder:
    """Counts and times the user-facing calls of a run. With a clock, each
    call is followed, outside its timing, by calibration blocks."""

    def __init__(self, clock=None):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.clock = clock

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted and the run goes on
            self.failed += 1
            print(f"failed: {getattr(fn, '__name__', fn)}: {exc!r}", file=sys.stderr)
            return None
        finally:
            elapsed = time.perf_counter() - start
            self.latencies.append(elapsed)
            if self.clock is not None:
                self.clock.calibrate(elapsed)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _cs_digest(cs) -> str:
    if cs is None:
        return "failed"
    return _digest(cs.betas.tobytes(), cs.statistics.tobytes(), cs.criticals.tobytes(),
                   cs.rejects.tobytes(), cs.intervals)


def _cs_structure_problems(cs, tag: str) -> list[str]:
    """Reject flags follow statistic > critical and the intervals are the
    maximal accepted runs of the grid."""
    out = []
    ok = ~cs.degenerate
    expected = cs.statistics[ok] > cs.criticals[ok]
    if not np.array_equal(cs.rejects[ok], expected):
        bad = int(np.sum(cs.rejects[ok] != expected))
        out.append(f"{tag}: {bad} reject flags disagree with statistic > critical")
    if not np.all(cs.rejects[cs.degenerate]):
        out.append(f"{tag}: a degenerate grid point is accepted")
    if list(cs.intervals) != ref.accepted_runs(cs.betas, cs.rejects):
        out.append(f"{tag}: intervals are not the maximal accepted runs")
    return out


def _judge_design(mwiv, k: int, per: int, pis, corr: float, seed: int):
    spec = mwiv.JudgeDesignSpec(
        n_judges=k, per_judge=(per,) * k, pi=tuple(np.resize(np.asarray(pis, float), k)),
        beta=1.0, error_corr=corr, seed=seed,
    )
    return mwiv.simulate_judge_data(spec)


def _dense_design(mwiv, n: int, k: int, pi: float, corr: float, seed: int):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 7])))
    z = rng.standard_normal((n, k))
    e = rng.standard_normal(n)
    v = corr * e + math.sqrt(1.0 - corr**2) * rng.standard_normal(n)
    x = z @ np.full(k, pi) + v
    return mwiv.Dataset(y=x + e, x=x, instruments=z)


def _oracle_for(data):
    if data.is_judge and data.n > 5000:
        return ref.JudgeSumOracle(data.instruments)
    z = ref.judge_indicators(data.instruments) if data.is_judge else data.instruments
    return ref.DenseOracle(z)


def _stats_problems(mwiv, ctx, data, orc, betas, tag: str) -> list[str]:
    """The program's (xi, nu, rho, t^2) at a few beta0 against the oracle's."""
    out = []
    for b in betas:
        mine = orc.stats(data.y, data.x, float(b))
        if mine is None:
            continue
        got = mwiv.normalized_stats(ctx, data, float(b))
        for key in ("xi", "nu", "rho", "t_squared", "ar"):
            if not ref.close(float(getattr(got, key)), mine[key]):
                out.append(f"{tag}: {key} at beta0 {b!r} is {getattr(got, key)!r}, oracle {mine[key]!r}")
    return out


def _curve_checks(curves: dict, rng, tag: str, sized: int = 2) -> list[str]:
    """Shape checks on every curve and conditional size on a seeded sample."""
    out = []
    for rho, curve in sorted(curves.items()):
        out += ref.curve_problems(rho, curve, f"{tag} curve {rho}")
    built = sorted(r for r, c in curves.items() if c.t_last is not None)
    for rho in rng.choice(built, size=min(sized, len(built)), replace=False) if built else []:
        out += ref.size_problems(float(rho), curves[float(rho)], f"{tag} curve {float(rho)}")
    return out


def _vtfo_critical(curve, nu: float) -> float | None:
    if abs(nu - curve.domain_low) < 1e-9:
        return None
    if nu < curve.domain_low:
        return math.inf
    return float(np.interp(nu, curve.knots_nu, curve.knots_c))


class Workload:
    name = ""
    reps = 9  # set-ups per run; the median is reported
    host_scaled = True  # see hostclock.py

    def __init__(self, mwiv, seed: int, workdir: str, small: bool = False):
        self.mwiv = mwiv
        self.seed = seed
        self.workdir = workdir
        self.small = small
        self.rng = np.random.default_rng([seed, 99])
        self._serial = 0

    def fresh_path(self, stem: str) -> str:
        self._serial += 1
        return os.path.join(self.workdir, f"{stem}{self._serial}")

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, rec: Recorder):
        raise NotImplementedError

    def collect(self, out):
        """Untimed: turn a round's output into what the checks read."""
        return out

    def fingerprint(self, out) -> str:
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def discard(self, out) -> None:
        """Untimed: remove what a round left on disk."""


class CsCold(Workload):
    """vtfo, cw and ms2 sets over the default +-20 SE grid, each design with
    an empty on-disk curve cache, as on a user's first run."""

    name = "cs-cold"
    METHODS = ("vtfo", "cw", "ms2")

    def setup(self):
        designs = [(12, 6, (1.5, -1.5), 0.5)] if self.small else [
            (40, 10, (1.5, -1.5), 0.5),
            (100, 8, (1.0, -1.0), 0.5),
        ]
        self.grid_n = 7 if self.small else 11
        self.data = [_judge_design(self.mwiv, *d, seed=1000 * self.seed + j) for j, d in enumerate(designs)]

    def _first_run(self, data, cache_dir):
        """One user's first job on one dataset: the latency unit of this workload."""
        mwiv = self.mwiv
        lib = mwiv.CurveLibrary(cache=mwiv.CurveCache(directory=cache_dir))
        ctx = mwiv.build_projection(data)
        grid = mwiv.default_grid(ctx, data, self.grid_n)
        sets = {m: mwiv.invert_confidence_set(m, ctx, data, grid=grid, curves=lib) for m in self.METHODS}
        return {"cache_dir": cache_dir, "lib": lib, "grid": grid, "sets": sets}

    def round(self, rec):
        paths = [self.fresh_path("cold-cache") for _ in self.data]
        return [(path, rec.call(self._first_run, data, path)) for data, path in zip(self.data, paths)]

    def fingerprint(self, out):
        return _digest(*[None if o is None else [_cs_digest(o["sets"][m]) for m in self.METHODS] for _, o in out])

    def discard(self, out):
        for path, _ in out:
            shutil.rmtree(path, ignore_errors=True)

    def check(self, out):
        mwiv = self.mwiv
        problems = []
        for j, (data, (_, o)) in enumerate(zip(self.data, out)):
            tag = f"design {j}"
            if o is None:
                continue
            orc = _oracle_for(data)
            betas = np.linspace(*o["grid"][:2], o["grid"][2])
            stats = [orc.stats(data.y, data.x, float(b)) for b in betas]
            ctx = mwiv.build_projection(data)
            problems += _stats_problems(mwiv, ctx, data, orc, self.rng.choice(betas, 3, replace=False), tag)
            lib = o["lib"]
            curves = {}
            for m, cs in o["sets"].items():
                if not np.array_equal(cs.betas, betas):
                    problems.append(f"{tag} {m}: grid differs from the default grid")
                    continue
                problems += _cs_structure_problems(cs, f"{tag} {m}")
                for i, st in enumerate(stats):
                    if st is None or cs.degenerate[i]:
                        if (st is None) != bool(cs.degenerate[i]):
                            problems.append(f"{tag} {m}: point {i} degenerate in only one of program and oracle")
                        continue
                    want = st["ar"] ** 2 if m == "ms2" else st["t_squared"]
                    if not ref.close(float(cs.statistics[i]), want):
                        problems.append(f"{tag} {m}: statistic at point {i} is {cs.statistics[i]!r}, oracle {want!r}")
                    crit = float(cs.criticals[i])
                    if m == "ms2" and not ref.close(crit, ref.Q2):
                        problems.append(f"{tag} ms2: critical {crit!r} is not {ref.Q2!r}")
                    if m == "vtfo":
                        bin_ = ref.snap_up(st["rho"])
                        if bin_ is None:
                            continue
                        if bin_ not in curves:
                            curves[bin_] = lib.cache.get(bin_)
                        want_c = _vtfo_critical(curves[bin_], st["nu"])
                        if want_c is not None and not ref.close(crit, want_c):
                            problems.append(f"{tag} vtfo: critical at point {i} is {crit!r}, curve gives {want_c!r}")
                    if m == "cw":
                        t_cond = st["nu"] - st["rho"] * st["xi"]
                        acc = ref.cw_acceptance(st["rho"], t_cond, crit)
                        if abs(acc - (1.0 - ALPHA)) > 1e-4:
                            problems.append(f"{tag} cw: critical at point {i} accepts with probability {acc:.6f}")
            problems += _curve_checks(curves, self.rng, f"{tag} built")
            # The same curves read back from the cache directory.
            disk = mwiv.CurveCache(directory=o["cache_dir"])
            for rho in self.rng.choice(sorted(curves), size=min(2, len(curves)), replace=False):
                loaded = disk.get(float(rho))
                if not (np.array_equal(loaded.knots_nu, curves[rho].knots_nu)
                        and np.array_equal(loaded.knots_c, curves[rho].knots_c)):
                    problems.append(f"{tag}: curve {rho} loaded from disk differs from the built one")
                problems += ref.curve_problems(float(rho), loaded, f"{tag} loaded curve {rho}")
        return problems


class PowerCurve(Workload):
    """rejection_rates for the five default methods, a fresh memory-only
    CurveLibrary per design."""

    name = "power-curve"
    METHODS = ("vtfo", "cw", "ms1", "ms2", "lm")

    def setup(self):
        designs = [(3.0, 0.5)] if self.small else [(3.0, 0.5), (2.0, -0.3)]
        self.deltas = (0.0, 2.0) if self.small else (-2.0, 0.0, 2.0)
        self.n_draws = 2000 if self.small else 10000
        self.dgps = [self.mwiv.AsymptoticDGP(s=s, r=r) for s, r in designs]

    def round(self, rec):
        mwiv = self.mwiv
        return [
            rec.call(mwiv.rejection_rates, dgp, self.deltas, methods=self.METHODS, n_draws=self.n_draws,
                     alpha=ALPHA, curves=mwiv.CurveLibrary(), seed=10 * self.seed + j)
            for j, dgp in enumerate(self.dgps)
        ]

    def fingerprint(self, out):
        return _digest(*[None if r is None else [r.rates[m].tobytes() for m in self.METHODS] for r in out])

    def check(self, out):
        problems = []
        for j, (dgp, res) in enumerate(zip(self.dgps, out)):
            if res is None:
                continue
            cov = np.array([
                [dgp.phi, dgp.sigma12, dgp.sigma13],
                [dgp.sigma12, dgp.psi, dgp.tau],
                [dgp.sigma13, dgp.tau, dgp.upsilon],
            ])
            mean = np.array([0.0, 0.0, dgp.s * math.sqrt(dgp.upsilon)])
            n = res.n_draws
            for i, d in enumerate(res.delta_grid):
                closed = ref.moment_test_power(cov, mean, float(d))
                for m, p in closed.items():
                    got = float(res.rates[m][i])
                    if abs(got - p) > ref.mc_band(p, n):
                        problems.append(f"design {j} {m} at delta {d}: rate {got:.4f}, closed form {p:.4f}")
                if d == 0.0:
                    for m in self.METHODS:
                        got = float(res.rates[m][i])
                        if abs(got - ALPHA) > ref.mc_band(ALPHA, n):
                            problems.append(f"design {j} {m} at delta 0: size {got:.4f}")
        return problems


class CsLargeN(Workload):
    """ms2, ms1 and lm sets plus the point estimate and its variance on a
    dense-instrument design and a large judge design."""

    name = "cs-large-n"
    METHODS = ("ms2", "ms1", "lm")
    # Its time is in numpy kernels over N = 1e5 and N x N arrays, which the
    # host's drift barely moves: over ten seeds raw wall_s spread by 0.08,
    # and scaling by the interpreter-bound calibration blocks made it 0.13.
    host_scaled = False

    def setup(self):
        mwiv = self.mwiv
        if self.small:
            self.data = [_dense_design(mwiv, 300, 10, 0.3, 0.5, self.seed),
                         _judge_design(mwiv, 200, 20, (0.3, -0.3), 0.5, self.seed)]
            self.grid_n = 7
        else:
            self.data = [_dense_design(mwiv, 2000, 40, 0.15, 0.5, self.seed),
                         _judge_design(mwiv, 2000, 50, (0.1, -0.1), 0.5, self.seed)]
            self.grid_n = 41

    def round(self, rec):
        mwiv = self.mwiv
        out = []
        for data in self.data:
            ctx = mwiv.build_projection(data)
            beta = rec.call(mwiv.jive_point_estimate, ctx, data)
            var = rec.call(mwiv.jive_variance, ctx, data, beta)
            grid = mwiv.default_grid(ctx, data, self.grid_n)
            sets = {m: rec.call(mwiv.invert_confidence_set, m, ctx, data, grid=grid) for m in self.METHODS}
            out.append({"beta": beta, "var": var, "grid": grid, "sets": sets})
            del ctx  # the dense context is two N x N matrices; do not carry it into the next build
        return out

    def fingerprint(self, out):
        return _digest(*[(o["beta"], o["var"], [_cs_digest(o["sets"][m]) for m in self.METHODS]) for o in out])

    def check(self, out):
        mwiv = self.mwiv
        problems = []
        crit_for = {"ms2": ref.Q2, "ms1": ref.Z1, "lm": ref.Q2}
        for j, (data, o) in enumerate(zip(self.data, out)):
            tag = "dense" if j == 0 else "judge"
            orc = _oracle_for(data)
            beta, var = orc.jive(data.y, data.x)
            if o["beta"] is not None and not ref.close(o["beta"], beta):
                problems.append(f"{tag}: point estimate {o['beta']!r}, oracle {beta!r}")
            if o["var"] is not None and not ref.close(o["var"], var):
                problems.append(f"{tag}: variance {o['var']!r}, oracle {var!r}")
            betas = np.linspace(*o["grid"][:2], o["grid"][2])
            sample = sorted(self.rng.choice(len(betas), size=min(6, len(betas)), replace=False))
            stats = {i: orc.stats(data.y, data.x, float(betas[i])) for i in sample}
            for m, cs in o["sets"].items():
                if cs is None:
                    continue
                problems += _cs_structure_problems(cs, f"{tag} {m}")
                if not np.all(cs.criticals[~cs.degenerate] == cs.criticals[~cs.degenerate][0]) or not ref.close(
                    float(cs.criticals[0]), crit_for[m]
                ):
                    problems.append(f"{tag} {m}: critical values are not the constant {crit_for[m]!r}")
                for i, st in stats.items():
                    if st is None or cs.degenerate[i]:
                        if (st is None) != bool(cs.degenerate[i]):
                            problems.append(f"{tag} {m}: point {i} degenerate in only one of program and oracle")
                        continue
                    want = {"ms2": st["ar"] ** 2, "ms1": st["ar"], "lm": st["xi"] ** 2}[m]
                    if not ref.close(float(cs.statistics[i]), want):
                        problems.append(f"{tag} {m}: statistic at point {i} is {cs.statistics[i]!r}, oracle {want!r}")
            ctx = mwiv.build_projection(data)
            problems += _stats_problems(mwiv, ctx, data, orc, betas[sample[:2]], tag)
            del ctx, orc
        return problems


class CliWarm(Workload):
    """The repeat user: in-process `mwiv` calls against dataset CSVs and a
    curve cache directory that set-up filled."""

    name = "cli-warm"
    reps = 1  # set-up runs every call once against an empty cache
    TEST_METHODS = ("vtfo", "vtf", "cw", "ms1", "ms2", "lm")

    def setup(self):
        mwiv = self.mwiv
        small = self.small
        self.judge = _judge_design(mwiv, 12 if small else 40, 6 if small else 10, (1.5, -1.5), 0.5, 3000 + self.seed)
        self.dense = _dense_design(mwiv, 120 if small else 300, 4 if small else 8, 0.4, 0.5, self.seed)
        inputs = self.fresh_path("inputs")
        os.makedirs(inputs)
        self.judge_csv = os.path.join(inputs, "judge.csv")
        self.dense_csv = os.path.join(inputs, "dense.csv")
        mwiv.write_dataset_csv(self.judge_csv, self.judge)
        mwiv.write_dataset_csv(self.dense_csv, self.dense)
        n = 7 if small else 11
        self.grid = mwiv.default_grid(mwiv.build_projection(self.judge), self.judge, n)
        dense_grid = mwiv.default_grid(mwiv.build_projection(self.dense), self.dense, n)
        self.table = os.path.join(inputs, "vtf_table.csv")
        self._main(["curve", "--rho", "0.2,0.5,0.8", "--out", self.table, "--cache-dir", self.fresh_path("table-cache")])
        self.curve_rhos = (0.5, 0.9999)

        def spec(grid):
            return f"{float(grid[0])!r}:{float(grid[1])!r}:{grid[2]}"

        judge = ["--data", self.judge_csv]
        self.calls = [
            (["estimate", *judge, "--beta0", "1.0"], None),
            (["estimate", "--data", self.dense_csv, "--beta0", "1.0"], None),
        ]
        for m in self.TEST_METHODS:
            extra = ["--vtf-table", self.table] if m == "vtf" else []
            self.calls.append((["test", *judge, "--method", m, "--beta0", "1.0", *extra], None))
        self.calls += [
            (["cs", *judge, "--method", "vtfo", f"--grid={spec(self.grid)}"], "cs_vtfo.csv"),
            (["cs", "--data", self.dense_csv, "--method", "ms2", f"--grid={spec(dense_grid)}"], "cs_ms2.csv"),
            (["curve", "--rho", ",".join(repr(r) for r in self.curve_rhos)], "curves.csv"),
        ]
        # Every call once with an empty cache of its own: these outputs are the
        # reference, and the curves they built become the warm cache.
        self.warm = self.fresh_path("warm-cache")
        os.makedirs(self.warm)
        self.reference = []
        for argv, out_name in self.calls:
            cold = self.fresh_path("cold-cache")
            code, stdout, data = self._run(argv, out_name, cold, self.fresh_path("cold-out"))
            self.reference.append((code, stdout, data and _digest(data)))
            for name in sorted(os.listdir(cold)) if os.path.isdir(cold) else []:
                if not os.path.exists(os.path.join(self.warm, name)):
                    shutil.copyfile(os.path.join(cold, name), os.path.join(self.warm, name))
            shutil.rmtree(cold, ignore_errors=True)
        self.snapshot = self._listing(self.warm)

    def _main(self, argv):
        with contextlib.redirect_stdout(io.StringIO()) as buf, contextlib.redirect_stderr(io.StringIO()) as err:
            code = self.mwiv.cli.main(argv)
        return code, buf.getvalue(), err.getvalue()

    def _main_ok(self, argv):
        """A call that exits non-zero is a failed operation."""
        code, stdout, stderr = self._main(argv)
        if code != 0:
            raise RuntimeError(f"mwiv {argv[0]} exited {code}: {stderr.strip()}")
        return code, stdout, stderr

    def _run(self, argv, out_name, cache_dir, out_dir):
        """One call; returns (exit code, stdout, output file bytes)."""
        os.makedirs(out_dir, exist_ok=True)
        full = [*argv, "--cache-dir", cache_dir]
        path = os.path.join(out_dir, out_name) if out_name else None
        if path:
            full += ["--out", path]
        code, stdout, stderr = self._main(full)
        if code != 0:
            print(f"mwiv {' '.join(argv)}: exit {code}: {stderr.strip()}", file=sys.stderr)
        data = None
        if path and os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
        return code, stdout, data

    @staticmethod
    def _listing(directory):
        return {e.name: (e.stat().st_size, e.stat().st_mtime_ns) for e in os.scandir(directory)}

    def round(self, rec):
        out_dir = self.fresh_path("warm-out")
        os.makedirs(out_dir)
        codes = []
        for argv, out_name in self.calls:
            full = [*argv, "--cache-dir", self.warm]
            if out_name:
                full += ["--out", os.path.join(out_dir, out_name)]
            codes.append(rec.call(self._main_ok, full))
        return {"out_dir": out_dir, "results": codes}

    def collect(self, out):
        """Exit code, stdout and output-file digest per call, plus the vtfo
        set's CSV text for the row checks."""
        results, cs_text = [], None
        for (argv, out_name), res in zip(self.calls, out["results"]):
            code, stdout = (None, "") if res is None else res[:2]
            data = None
            if out_name and os.path.exists(os.path.join(out["out_dir"], out_name)):
                with open(os.path.join(out["out_dir"], out_name), "rb") as fh:
                    data = fh.read()
            if out_name == "cs_vtfo.csv":
                cs_text = data
            results.append((code, stdout, data and _digest(data)))
        shutil.rmtree(out["out_dir"], ignore_errors=True)
        return {"results": results, "cs_vtfo": cs_text}

    def fingerprint(self, out):
        return _digest(*out["results"])

    def check(self, out):
        mwiv = self.mwiv
        problems = []
        for (argv, _), got, want in zip(self.calls, out["results"], self.reference):
            label = " ".join(argv[:1] + argv[3:5])
            if got[0] != 0 or want[0] != 0:
                problems.append(f"{label}: exit codes warm {got[0]}, cold {want[0]}")
            elif got != want:
                problems.append(f"{label}: output differs from the same call with an empty cache")
        if self._listing(self.warm) != self.snapshot:
            problems.append("the warm cache directory changed: a curve was built or rewritten")
        for (argv, _), (code, stdout, _) in zip(self.calls, out["results"]):
            if argv[0] == "test" and code == 0:
                rep = dict(line.split("=", 1) for line in stdout.strip().splitlines())
                if (rep["reject"] == "true") != (float(rep["statistic"]) > float(rep["critical"])):
                    problems.append(f"test {rep['method']}: reject flag disagrees with statistic > critical")
        # cs vtfo rows against the oracle and the cached curves
        cs_text = out["cs_vtfo"]
        curves = {r: None for r in self.curve_rhos}
        orc = _oracle_for(self.judge)
        if cs_text is not None:
            lines = cs_text.decode().splitlines()
            rows = [line.split(",") for line in lines[2:]]
            betas = np.array([float(r[0]) for r in rows])
            stat = np.array([float(r[2]) for r in rows])
            crit = np.array([float(r[3]) for r in rows])
            rej = np.array([r[4] == "true" for r in rows])
            finite = np.isfinite(stat)
            if not np.array_equal(rej[finite], stat[finite] > crit[finite]):
                problems.append("cs vtfo: reject column disagrees with statistic > critical")
            runs = ";".join(f"[{a!r},{b!r}]" for a, b in ref.accepted_runs(betas, rej)) or "empty"
            if not lines[0].startswith(f"# intervals={runs} "):
                problems.append("cs vtfo: summary intervals are not the maximal accepted runs")
            disk = mwiv.CurveCache(directory=self.warm)
            for i, b in enumerate(betas):
                st = orc.stats(self.judge.y, self.judge.x, float(b))
                if st is None or not finite[i]:
                    if (st is None) == bool(finite[i]):
                        problems.append(f"cs vtfo: point {i} degenerate in only one of program and oracle")
                    continue
                if finite[i] and not ref.close(float(stat[i]), st["t_squared"]):
                    problems.append(f"cs vtfo: statistic at point {i} is {stat[i]!r}, oracle {st['t_squared']!r}")
                bin_ = ref.snap_up(st["rho"])
                if bin_ is None:
                    continue
                if curves.get(bin_) is None:
                    curves[bin_] = disk.get(bin_)
                want_c = _vtfo_critical(curves[bin_], st["nu"])
                if want_c is not None and finite[i] and not ref.close(float(crit[i]), want_c):
                    problems.append(f"cs vtfo: critical at point {i} is {crit[i]!r}, cached curve gives {want_c!r}")
            for rho in self.curve_rhos:
                if curves[rho] is None:
                    curves[rho] = disk.get(rho)
            problems += _curve_checks(curves, self.rng, "warm cache")
        return problems


WORKLOADS = {cls.name: cls for cls in (CsCold, PowerCurve, CsLargeN, CliWarm)}
