"""Command-line interface: reports, files, exit codes, cache behavior."""

import numpy as np
import pytest

from mwiv import JudgeDesignSpec, simulate_judge_data, write_dataset_csv
from mwiv.cli import main

NU_STAR_HALF = 0.8224268134757361
C_STAR_HALF = 0.9018478180318042


def parse_report(out):
    pairs = {}
    for line in out.strip().split("\n"):
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


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

    def test_missing_column(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,judge\n1.0,0\n2.0,0\n")
        code = main(["estimate", "--data", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "dataset missing column 'x'" in err

    def test_nonfinite_instruments(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        rows = [f"{i}.0,{i % 3}.0,{float(np.sin(i))!r},{float(np.cos(i))!r}\n" for i in range(10)]
        rows[4] = "4.0,1.0,nan,0.5\n"
        path.write_text("y,x,z1,z2\n" + "".join(rows))
        code = main(["estimate", "--data", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "instruments contain non-finite values" in err

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
        text = cached.read_text()
        cached.write_text(text[: len(text) // 3])  # cut in the middle of a row
        assert main(["curve", "--rho", "0.35", "--out", str(b), "--cache-dir", str(cache)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert cached.read_text() == text

    def test_multi_rho_stdout(self, tmp_path, capsys):
        code = main([
            "curve", "--rho", "0.3,0.6", "--cache-dir", str(tmp_path / "cache"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        rows = [ln for ln in out.strip().split("\n") if not ln.startswith("#")]
        rhos = {row.split(",")[0] for row in rows[1:]}
        assert rhos == {"0.3", "0.6"}

    def test_rho_boundary(self, tmp_path, capsys):
        code = main(["curve", "--rho", "1.0", "--cache-dir", str(tmp_path / "cache")])
        err = capsys.readouterr().err
        assert code == 2
        assert "rho out of range" in err

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

    def test_bad_method(self, tmp_path, capsys):
        code = main([
            "power", "--grid", "0:0:1", "--method", "waldo",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 2
        assert "unknown method" in capsys.readouterr().err


class TestSimulate:
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
