"""Command-line interface: reports, files, exit codes, cache behavior."""

import os
import shutil
import tracemalloc
import warnings

import numpy as np
import pytest

from mwiv import (
    Dataset,
    JudgeDesignSpec,
    read_dataset_csv,
    simulate_judge_data,
    snap_rho_to_grid,
    write_dataset_csv,
)
from mwiv import critval
from mwiv.cli import main

NU_STAR_HALF = 0.8224268134757361
C_STAR_HALF = 0.9018478180318042


def parse_report(out):
    pairs = {}
    for line in out.strip().split("\n"):
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def _listing(directory):
    """Each file's (size, mtime_ns), by name."""
    return {e.name: (e.stat().st_size, e.stat().st_mtime_ns) for e in os.scandir(directory)}


@pytest.fixture()
def noiseless_csv(tmp_path):
    path = tmp_path / "noiseless.csv"
    path.write_text(
        "y,x,judge\n"
        + "".join(f"{2.0 * x!r},{x!r},{j}\n" for j, x in ((0, 1.0), (0, 1.0), (0, 1.0), (1, -1.0), (1, -1.0), (1, -1.0)))
    )
    return path


@pytest.fixture()
def strong_csv(tmp_path):
    spec = JudgeDesignSpec(
        n_judges=30, per_judge=(10,) * 30, pi=tuple(np.linspace(-1.5, 1.5, 30)),
        beta=1.0, error_corr=0.4, seed=14,
    )
    path = tmp_path / "strong.csv"
    write_dataset_csv(path, simulate_judge_data(spec))
    return path


class TestEstimate:
    def test_noiseless_report(self, noiseless_csv, capsys):
        # beta0 stays at the default: residuals at the truth are all zero
        # and the variance kernel degenerates there by design
        code = main(["estimate", "--data", str(noiseless_csv)])
        out = capsys.readouterr().out
        assert code == 0
        report = parse_report(out)
        assert float(report["beta_hat"]) == 2.0
        assert float(report["v_hat"]) == 0.0
        assert np.isnan(float(report["t_squared"]))
        assert report["beta0"] == "0.0"

    def test_judge_dense_equivalence(self, tmp_path, capsys):
        spec = JudgeDesignSpec(
            n_judges=6, per_judge=(5,) * 6, pi=(0.8, -0.4, 1.2, 0.1, -0.9, 0.5),
            beta=1.0, error_corr=0.3, seed=2,
        )
        data = simulate_judge_data(spec)
        judge_path = tmp_path / "judge.csv"
        write_dataset_csv(judge_path, data)
        dense_path = tmp_path / "dense.csv"
        labels = np.asarray(data.instruments)
        uniq = list(np.unique(labels))
        with open(dense_path, "w") as fh:
            fh.write("y,x," + ",".join(f"z{i}" for i in range(1, 7)) + "\n")
            for yi, xi, ji in zip(data.y, data.x, labels):
                zrow = ",".join("1.0" if lab == ji else "0.0" for lab in uniq)
                fh.write(f"{float(yi)!r},{float(xi)!r},{zrow}\n")

        reports = []
        for path in (judge_path, dense_path):
            assert main(["estimate", "--data", str(path), "--beta0", "0.5"]) == 0
            reports.append(parse_report(capsys.readouterr().out))
        for key in ("beta_hat", "v_hat", "nu", "rho", "t_squared"):
            a, b = float(reports[0][key]), float(reports[1][key])
            assert a == pytest.approx(b, rel=1e-10), key

    def test_dense_with_twelve_instruments(self, tmp_path, capsys):
        # z1..z12 sort as z1, z10, z11, z12, z2, ... by name
        spec = JudgeDesignSpec(
            n_judges=12, per_judge=(6,) * 12, pi=tuple(np.linspace(-1.0, 1.0, 12)),
            beta=1.0, error_corr=0.3, seed=3,
        )
        judge = simulate_judge_data(spec)
        labels = np.asarray(judge.instruments)
        dense = Dataset(judge.y, judge.x, (labels[:, None] == np.unique(labels)).astype(float))
        judge_path, dense_path = tmp_path / "judge.csv", tmp_path / "dense.csv"
        write_dataset_csv(judge_path, judge)
        write_dataset_csv(dense_path, dense)
        back = read_dataset_csv(dense_path)
        assert back.k == 12
        for name in ("y", "x", "instruments"):
            assert np.array_equal(getattr(back, name), getattr(dense, name)), name

        reports = []
        for path in (judge_path, dense_path):
            assert main(["estimate", "--data", str(path), "--beta0", "0.5"]) == 0
            reports.append(parse_report(capsys.readouterr().out))
        for key in ("beta_hat", "v_hat", "nu", "rho", "t_squared"):
            assert float(reports[0][key]) == pytest.approx(float(reports[1][key]), rel=1e-10), key

    def test_missing_column(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,judge\n1.0,0\n2.0,0\n")
        code = main(["estimate", "--data", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "dataset missing column 'x'" in err

    @pytest.mark.parametrize("body", [
        "1.0,abc,0\n2.0,3.0,1\n",  # a cell that is not a number
        "1.0,,0\n2.0,3.0,1\n",  # an empty cell
        "1.0,2.0,0\n2.0,3.0\n",  # rows of different widths
        "1.0,2.0,0,5\n2.0,3.0,1,5\n",  # rows wider than the header
        "",  # a header without rows
        "1.0,2.0,0.5\n2.0,3.0,1\n3.0,4.0,1\n",  # a judge label that is not an integer
        "#1.0,2.0,0\n2.0,3.0,1\n3.0,4.0,1\n",  # a row that starts with '#'
        "1.0,2.0,0#x\n2.0,3.0,1\n3.0,4.0,1\n",  # a '#' inside a row
    ])
    def test_bad_rows(self, tmp_path, capsys, body):
        path = tmp_path / "bad.csv"
        path.write_text("y,x,judge\n" + body)
        code = main(["estimate", "--data", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: dataset parse error: ")

    def test_blank_lines_and_quotes(self, tmp_path):
        rows = [f"{i}.5,{(i * 7) % 5}.25,{i % 3}\n" for i in range(12)]
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("y,x,judge\n" + "".join(rows))
        rows[3] = '"' + rows[3].replace(",", '","').rstrip("\n") + '"\n\n'
        marked.write_text(" y , x , judge\n\n" + "".join(rows) + "\n")
        a, b = read_dataset_csv(plain), read_dataset_csv(marked)
        for name in ("y", "x", "instruments"):
            got, want = getattr(b, name), getattr(a, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_nonfinite_instruments(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        rows = [f"{i}.0,{i % 3}.0,{float(np.sin(i))!r},{float(np.cos(i))!r}\n" for i in range(10)]
        rows[4] = "4.0,1.0,nan,0.5\n"
        path.write_text("y,x,z1,z2\n" + "".join(rows))
        code = main(["estimate", "--data", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "instruments contain non-finite values" in err

    @pytest.mark.parametrize("argv", [
        ["cs", "--method", "vtfo", "--grid", "0:1:100000000"],
        ["power", "--draws", "1000000000"],
        ["power", "--grid=-1:1:100000000"],
    ])
    def test_oversized_request_exits_2(self, strong_csv, tmp_path, capsys, argv):
        want = {
            "--method": "grid must be finite with hi > lo and 3 <= n <= 1000000",
            "--draws": "n_draws must be >= 1 and <= 5000000",
            "--grid=-1:1:100000000": "grid must have n >= 1 and <= 1000000",
        }[argv[1]]
        if argv[0] == "cs":
            argv = argv + ["--data", str(strong_csv)]
        tracemalloc.start()
        try:
            code = main(argv + ["--cache-dir", str(tmp_path / "cache")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: {want}\n"
        if argv[0] == "power":
            assert peak < 2**20

    def test_nonfinite_beta0(self, strong_csv, capsys):
        code = main(["estimate", "--data", str(strong_csv), "--beta0", "nan"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: beta0 must be finite\n"

    def test_degenerate_first_stage(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("y,x,judge\n" + "".join(f"{i}.0,0.0,{i % 2}\n" for i in range(8)))
        code = main(["estimate", "--data", str(path)])
        err = capsys.readouterr().err
        assert code == 4
        assert "error: " in err


class TestTest:
    def test_report_lines(self, strong_csv, tmp_path, capsys):
        code = main([
            "test", "--data", str(strong_csv), "--beta0", "1.0",
            "--method", "ms2", "--cache-dir", str(tmp_path / "cache"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        report = parse_report(out)
        assert report["method"] == "ms2"
        assert report["reject"] in ("true", "false")
        assert float(report["critical"]) == pytest.approx(3.8414588206941254, rel=1e-12)
        assert float(report["statistic"]) >= 0.0

    @pytest.mark.parametrize("method", ["ms1", "ms2", "lm", "cw", "vtfo"])
    def test_report_values_are_plain(self, strong_csv, tmp_path, capsys, method):
        # numpy scalars must not leak their repr, e.g. nu=np.float64(...)
        code = main([
            "test", "--data", str(strong_csv), "--beta0", "0.5",
            "--method", method, "--cache-dir", str(tmp_path / "cache"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        report = parse_report(out)
        assert report.pop("method") == method
        assert set(report) == {"beta0", "alpha", "statistic", "critical", "reject", "nu", "rho"}
        for key, value in report.items():
            if value not in ("true", "false"):
                float(value)

    @pytest.mark.parametrize("method, beta0", [("ms2", "nan"), ("vtfo", "inf")])
    def test_nonfinite_beta0(self, strong_csv, tmp_path, capsys, method, beta0):
        code = main([
            "test", "--data", str(strong_csv), "--beta0", beta0,
            "--method", method, "--cache-dir", str(tmp_path / "cache"),
        ])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: beta0 must be finite\n"

    def test_overflowing_beta0_is_typed_and_quiet(self, strong_csv, tmp_path, capsys):
        # the phi polynomial's b0^4 overflows; no numpy RuntimeWarning may leak
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "test", "--data", str(strong_csv), "--beta0", "1e200",
                "--method", "cw", "--cache-dir", str(tmp_path / "cache"),
            ])
        assert code == 2
        assert "overflows the beta0 polynomials" in capsys.readouterr().err

    def test_failed_vtfo_build_names_rho_and_alpha(self, strong_csv, tmp_path, capsys):
        # the continuation stops advancing at alpha 0.2 (rho here snaps to 0.85)
        code = main([
            "test", "--data", str(strong_csv), "--method", "vtfo", "--alpha", "0.2",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        err = capsys.readouterr().err
        assert code == 4
        assert err == ("error: vtfo curve build failed at rho=0.85, alpha=0.2: "
                       "continuation step failed: frontier did not advance\n")

    def test_vtf_needs_table(self, strong_csv, tmp_path, capsys):
        code = main([
            "test", "--data", str(strong_csv), "--method", "vtf",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert "two-sided table unavailable" in err

    def test_truncated_vtf_table(self, strong_csv, tmp_path, capsys):
        table = tmp_path / "table.csv"
        cache = str(tmp_path / "cache")
        assert main(["curve", "--rho", "0.3,0.6", "--out", str(table), "--cache-dir", cache]) == 0
        lines = table.read_text().splitlines(keepends=True)
        table.write_text("".join(lines[:-3]))  # cut at a row boundary
        code = main([
            "test", "--data", str(strong_csv), "--method", "vtf",
            "--vtf-table", str(table), "--cache-dir", cache,
        ])
        assert code == 3
        assert "table truncated" in capsys.readouterr().err


class TestConfidenceSet:
    def test_summary_and_rows(self, strong_csv, tmp_path, capsys):
        code = main([
            "cs", "--data", str(strong_csv), "--method", "ms2",
            "--grid", "0:2:81", "--cache-dir", str(tmp_path / "cache"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# intervals=")
        assert "unbounded=false" in lines[0]
        assert lines[1] == "beta0,method,statistic,critical,reject"
        assert len(lines) == 2 + 81

    def test_out_file(self, strong_csv, tmp_path, capsys):
        out_path = tmp_path / "cs.csv"
        code = main([
            "cs", "--data", str(strong_csv), "--method", "lm",
            "--grid", "0:2:41", "--out", str(out_path),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert out_path.read_text().startswith("# intervals=")

    def test_failed_vtfo_build_exits_4(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        assert main(["simulate", "--judges", "20", "--cluster-size", "10", "--pi", "0.5",
                     "--seed", "4", "--out", str(data)]) == 0
        code = main([
            "cs", "--data", str(data), "--method", "vtfo", "--alpha", "0.2",
            "--grid", "0:2:11", "--cache-dir", str(tmp_path / "cache"),
        ])
        out, err = capsys.readouterr()
        assert code == 4
        assert out == ""
        assert err.startswith("error: vtfo curve build failed at rho=0.")
        assert ", alpha=0.2: " in err

    def test_bad_grid(self, strong_csv, capsys):
        code = main(["cs", "--data", str(strong_csv), "--grid", "oops"])
        err = capsys.readouterr().err
        assert code == 2
        assert "grid must be lo:hi:n" in err


class TestCurve:
    def test_first_row_is_fixed_point(self, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        code = main([
            "curve", "--rho", "0.5", "--out", str(out_path),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        data_rows = [ln for ln in lines if not ln.startswith("#")]
        assert data_rows[0] == "rho,nu,crit"
        rho, nu, crit = data_rows[1].split(",")
        assert float(rho) == 0.5
        assert float(nu) == pytest.approx(NU_STAR_HALF, abs=1e-12)
        assert float(crit) == pytest.approx(C_STAR_HALF, abs=1e-12)
        assert f"{float(nu):.4f}" == "0.8224"
        assert f"{float(crit):.4f}" == "0.9018"

    def test_rerun_byte_identical(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["curve", "--rho", "0.35", "--out", str(a), "--cache-dir", cache]) == 0
        # second run must hit the disk cache rather than rebuild
        cached = list((tmp_path / "cache").glob("vtfo_rho0.35_alpha0.05_*"))
        assert len(cached) == 1
        stamp = cached[0].stat().st_mtime_ns
        assert main(["curve", "--rho", "0.35", "--out", str(b), "--cache-dir", cache]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert cached[0].stat().st_mtime_ns == stamp

    def test_truncated_cache_file_rebuilt(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["curve", "--rho", "0.35", "--out", str(a), "--cache-dir", str(cache)]) == 0
        (cached,) = cache.glob("vtfo_rho0.35_alpha0.05_*")
        raw = cached.read_bytes()
        cached.write_bytes(raw[: len(raw) // 3])  # cut in the middle of the body
        assert main(["curve", "--rho", "0.35", "--out", str(b), "--cache-dir", str(cache)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert cached.read_bytes() == raw

    def test_unusable_cache_dir(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["curve", "--rho", "0.3", "--cache-dir", str(blocker / "sub")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write the curve cache directory")
        assert str(blocker / "sub") in captured.err

    def test_multi_rho_stdout(self, tmp_path, capsys):
        code = main([
            "curve", "--rho", "0.3,0.6", "--cache-dir", str(tmp_path / "cache"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        rows = [ln for ln in out.strip().split("\n") if not ln.startswith("#")]
        rhos = {row.split(",")[0] for row in rows[1:]}
        assert rhos == {"0.3", "0.6"}

    def test_one_curve_per_rho(self, tmp_path, capsys):
        out_path = tmp_path / "t.csv"
        code = main([
            "curve", "--rho", "0.5,-0.5", "--out", str(out_path),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: a curve table holds one curve per |rho|, and |rho| 0.5 repeats\n"
        assert not out_path.exists()

    def test_rho_boundary(self, tmp_path, capsys):
        code = main(["curve", "--rho", "1.0", "--cache-dir", str(tmp_path / "cache")])
        err = capsys.readouterr().err
        assert code == 2
        assert "rho out of range" in err

    def test_nan_rho(self, tmp_path, capsys):
        code = main(["curve", "--rho", "nan", "--cache-dir", str(tmp_path / "cache")])
        assert code == 2
        assert "rho out of range" in capsys.readouterr().err

    def test_bad_alpha(self, tmp_path, capsys):
        code = main([
            "curve", "--rho", "0.5", "--alpha", "0.6",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 2
        assert "alpha must be in" in capsys.readouterr().err

    def test_env_cache_dir(self, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "envcache"
        monkeypatch.setenv("MWIV_CACHE_DIR", str(env_dir))
        assert main(["curve", "--rho", "0.45"]) == 0
        capsys.readouterr()
        assert len(list(env_dir.glob("vtfo_rho0.45_*"))) == 1


class TestWarmCache:
    def test_warm_cache_is_never_rewritten(self, strong_csv, tmp_path, capsys):
        # `test` stores a prefix of its rho bin's curve and `curve` the full
        # curve, each in its own empty cache. Merged as a user might merge
        # them, keeping the first file of each name, the cache serves both
        # calls again without a write and with the same outputs.
        test = ["test", "--data", str(strong_csv), "--method", "vtfo", "--beta0", "1.0"]
        assert main([*test, "--cache-dir", str(tmp_path / "from-test")]) == 0
        test_out = capsys.readouterr()
        curve = ["curve", "--rho", repr(snap_rho_to_grid(float(parse_report(test_out.out)["rho"])))]
        assert main([*curve, "--cache-dir", str(tmp_path / "from-curve")]) == 0
        curve_out = capsys.readouterr()
        # the test read its curve only part of the way
        (stored,) = (tmp_path / "from-test").iterdir()
        (full,) = (tmp_path / "from-curve").iterdir()
        assert stored.stat().st_size < full.stat().st_size

        merged = tmp_path / "merged"
        merged.mkdir()
        for source in ("from-test", "from-curve"):
            for path in sorted((tmp_path / source).iterdir()):
                if not (merged / path.name).exists():
                    shutil.copyfile(path, merged / path.name)
        listing = _listing(merged)
        for argv, want in ((test, test_out), (curve, curve_out)):
            assert main([*argv, "--cache-dir", str(merged)]) == 0
            assert capsys.readouterr() == want
        assert _listing(merged) == listing


class TestPower:
    def test_size_at_null(self, tmp_path, capsys):
        code = main([
            "power", "--grid", "0:0:1", "--cache-dir", str(tmp_path / "cache"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "delta,method,reject_rate,n_draws,s,r,alpha"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[1] for r in rows] == ["vtfo", "cw", "ms1", "ms2", "lm"]
        for r in rows:
            assert float(r[2]) == pytest.approx(0.05, abs=0.01), r[1]
            assert r[3] == "10000"

    def test_vtf_table_appends_method(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        table = tmp_path / "table.csv"
        assert main(["curve", "--rho", "0.3,0.9", "--out", str(table), "--cache-dir", cache]) == 0
        code = main([
            "power", "--grid", "0:0:1", "--draws", "800",
            "--vtf-table", str(table), "--cache-dir", cache,
        ])
        out = capsys.readouterr().out
        assert code == 0
        methods = {ln.split(",")[1] for ln in out.strip().split("\n")[1:]}
        assert methods == {"vtfo", "cw", "ms1", "ms2", "lm", "vtf"}

    def test_csv_out_writes_sibling_svg(self, tmp_path, capsys):
        out_path = tmp_path / "power.csv"
        # leading-dash values need the = form under argparse
        code = main([
            "power", "--grid=-1:1:3", "--draws", "500",
            "--method", "ms2,lm", "--out", str(out_path),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        assert out_path.exists()
        svg = tmp_path / "power.svg"
        assert svg.exists()
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize("grid", ["nan:1:3", "0:inf:3"])
    def test_nonfinite_grid(self, tmp_path, capsys, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["power", "--grid", grid, "--cache-dir", str(tmp_path / "cache")])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "finite lo and hi" in err

    def test_huge_s(self, tmp_path, capsys):
        # at 1e150 only squares overflow, to inf, and they reject with no
        # warning; t^2 = Q_xe^2 / psi(beta_hat) overflows only where it
        # rejects, so vtfo rates do not move. cw's T = nu - rho xi
        # overflows its square at 1e160, and cw refuses it.
        argv = ["power", "--grid=-1:1:3", "--draws", "2000", "--cache-dir", str(tmp_path / "cache")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in ("1e150", "1e160"):
                assert main([*argv, "--method", "vtfo,ms2", "--s", s]) == 0
                out, err = capsys.readouterr()
                assert err == ""
                rates = [(row.split(",")[1], float(row.split(",")[2])) for row in out.splitlines()[1:]]
                assert rates == [("vtfo", 1.0), ("ms2", 1.0), ("vtfo", 0.053), ("ms2", 0.055),
                                 ("vtfo", 1.0), ("ms2", 1.0)]
            assert main([*argv, "--method", "cw", "--s", "1e160"]) == 4
            out, err = capsys.readouterr()
            assert out == ""
            assert "overflows its square" in err and "Warning" not in err

    def test_overflowing_numerator_matches_lm(self, tmp_path, capsys):
        # at s 1e154 the closed form's (xi nu)^2 overflows; a t^2 read that
        # way is inf, and vtfo and cw over-reject (0.179 against lm's 0.0465)
        argv = ["power", "--s", "1e154", "--method", "vtfo,cw,lm", "--grid", "0:0:1", "--draws", "2000",
                "--cache-dir", str(tmp_path / "cache")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rates = {row.split(",")[1]: float(row.split(",")[2]) for row in out.splitlines()[1:]}
        assert rates["vtfo"] == rates["cw"] == rates["lm"]

    def test_overflowing_delta(self, tmp_path, capsys):
        code = main(["power", "--grid=-1e78:1e78:3", "--cache-dir", str(tmp_path / "cache")])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "delta=-1e+78" in err and "Traceback" not in err

    def test_overflowing_shift_is_silent(self, tmp_path, capsys):
        # s delta overflows the shifted draws at s 1e300, delta 1e9: they
        # read inf with no numpy warning, and the rates stay defined
        argv = ["power", "--s", "1e300", "--method", "vtfo,ms2", "--grid=-1e9:1e9:3", "--draws", "200",
                "--cache-dir", str(tmp_path / "cache")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rates = [(row.split(",")[1], float(row.split(",")[2])) for row in out.splitlines()[1:]]
        assert rates == [("vtfo", 1.0), ("ms2", 1.0), ("vtfo", 0.015), ("ms2", 0.05), ("vtfo", 1.0), ("ms2", 1.0)]

    def test_cw_refuses_a_delta_whose_rho_rounds_to_one(self, tmp_path, capsys):
        # at s 3, r 0.5 the known rho rounds to exactly -1 and 1 at delta
        # -1e8 and 1e8; cw names the delta, and the other methods run there
        argv = ["power", "--draws", "200", "--cache-dir", str(tmp_path / "cache")]
        out_path = tmp_path / "power.csv"
        assert main([*argv, "--grid=-1e8:1e8:3", "--out", str(out_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and not out_path.exists()
        assert "cw" in err and "delta=-1e+08" in err and "Traceback" not in err
        assert main([*argv, "--grid=-1e8:1e8:3", "--method", "vtfo,ms1,ms2,lm"]) == 0
        assert main([*argv, "--grid=-4e7:4e7:3", "--method", "cw"]) == 0
        assert capsys.readouterr().err == ""

    def test_bad_method(self, tmp_path, capsys):
        code = main([
            "power", "--grid", "0:0:1", "--method", "waldo",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 2
        assert "unknown method" in capsys.readouterr().err


    def test_default_run_reuses_its_cached_curves(self, tmp_path, capsys, monkeypatch):
        # the lab's exact-rho curves are kept as prefixes; a second run reads
        # them all, builds nothing and writes nothing
        cache = tmp_path / "cache"
        argv = ["power", "--cache-dir", str(cache), "--out", str(tmp_path / "power.csv")]
        assert main(argv) == 0
        assert capsys.readouterr() == ("", "")
        first = (tmp_path / "power.csv").read_bytes()
        listing = _listing(cache)
        assert any(name.endswith(".part.bin") for name in listing)

        def no_build(*args, **kwargs):
            raise AssertionError("built a curve the cache holds")

        monkeypatch.setattr(critval, "build_vtfo_curve", no_build)
        assert main(argv) == 0
        assert capsys.readouterr() == ("", "")
        assert (tmp_path / "power.csv").read_bytes() == first
        assert _listing(cache) == listing

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed(self, tmp_path, capsys, seed):
        code = main(["power", "--grid", "0:0:1", "--draws", "10", "--seed", seed, "--cache-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"error: seed must be a nonnegative integer, got {seed}\n"


class TestSimulate:
    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed(self, tmp_path, capsys, seed):
        out_path = tmp_path / "data.csv"
        code = main(["simulate", "--judges", "2", "--cluster-size", "3", "--seed", seed, "--out", str(out_path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and not out_path.exists()
        assert err == f"error: seed must be a nonnegative integer, got {seed}\n"

    def test_deterministic_and_roundtrip(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "simulate", "--judges", "80", "--cluster-size", "30", "--pi", "1.0",
            "--seed", "5",
        ]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert main(["estimate", "--data", str(a)]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["beta_hat"]) == pytest.approx(1.0, abs=0.05)

    def test_stdout_form(self, capsys):
        code = main(["simulate", "--judges", "2", "--cluster-size", "3", "--pi", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "y,x,judge"
        assert len(lines) == 1 + 6

    def test_pi_broadcast_mismatch(self, capsys):
        code = main(["simulate", "--judges", "3", "--pi", "0.1,0.2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--pi must list one value, or one per judge" in err

    def test_pi_parse_error(self, capsys):
        code = main(["simulate", "--judges", "2", "--pi", "a,b"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--pi must be a comma-separated float list" in err


class TestOptions:
    # options a command would parse and ignore are refused: simulate uses
    # no level, curve and no table, and estimate no level or table
    @pytest.mark.parametrize("argv", [
        ["simulate", "--alpha", "0.1"],
        ["simulate", "--cache-dir", "cache"],
        ["simulate", "--vtf-table", "table.csv"],
        ["estimate", "--data", "data.csv", "--alpha", "0.1"],
        ["estimate", "--data", "data.csv", "--vtf-table", "table.csv"],
        ["curve", "--vtf-table", "table.csv"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_ignored_option_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        assert info.value.code == 2 and out == ""
        assert f"unrecognized arguments: {argv[-2]}" in err

    def test_estimate_accepts_cache_dir(self, strong_csv, tmp_path, capsys):
        # scripts pass --cache-dir to every command that had it; estimate
        # reads no curve, so the directory stays unmade
        assert main(["estimate", "--data", str(strong_csv), "--cache-dir", str(tmp_path / "cache")]) == 0
        assert parse_report(capsys.readouterr().out)["beta0"] == "0.0"
        assert not (tmp_path / "cache").exists()
